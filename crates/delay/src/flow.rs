use bist_atpg::{
    compact, justify_cube, podem_cube, AtpgOptions, CubeOutcome, PodemOptions, TestCube,
};
use bist_fault::FaultStatus;
use bist_faultsim::{CoverageReport, FaultSim};
use bist_logicsim::{InjectedFault, Pattern};
use bist_netlist::Circuit;

use crate::model::{TransitionFault, TransitionFaultList};

/// One deterministic two-pattern delay test: the ordered
/// *(initialization, launch/capture)* pair for one transition fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayTestUnit {
    /// The two patterns, in application order.
    pub patterns: [Pattern; 2],
    /// Pre-fill cubes parallel to `patterns`.
    pub cubes: [TestCube; 2],
    /// The fault this unit was generated for.
    pub target: TransitionFault,
}

/// Outcome of a [`DelayTestGenerator`] run.
#[derive(Debug, Clone)]
pub struct DelayRun {
    /// The deterministic test units, in application order.
    pub units: Vec<DelayTestUnit>,
    /// Coverage over the input fault universe — including anything the
    /// prefix already detected.
    pub report: CoverageReport,
    /// Final status of every fault, parallel to the input universe.
    pub statuses: Vec<FaultStatus>,
    /// Number of faults the prefix alone had already detected.
    pub prefix_detected: usize,
    /// Number of PODEM searches performed (including justifications).
    pub atpg_calls: usize,
}

impl DelayRun {
    /// The flat ordered deterministic pattern sequence (pairs concatenated).
    pub fn sequence(&self) -> Vec<Pattern> {
        self.units
            .iter()
            .flat_map(|u| u.patterns.iter().cloned())
            .collect()
    }

    /// Number of deterministic patterns (twice the number of units).
    pub fn num_patterns(&self) -> usize {
        self.units.len() * 2
    }
}

/// Deterministic two-pattern test generation for transition faults — the
/// delay-fault analogue of [`bist_atpg::TestGenerator`], and the concrete
/// backing for the paper's claim (§3.1) that the mixed scheme's
/// deterministic suffix is what covers "very hard to detect faults like
/// delay ... ones".
///
/// For a slow-to-rise fault the capture vector V2 is a PODEM test for
/// *site stuck-at-0* (activation drives the fault-free site to 1 and
/// propagates the retained 0), and the initialization vector V1 justifies
/// *site = 0* so that V2 actually launches a rising transition; dually for
/// slow-to-fall, and with the branch driver standing in for the site on
/// fan-out branch faults.
///
/// The flow takes the same [`AtpgOptions`] as the stuck-at generator:
/// PODEM limits, the compaction switch and the grading pool width
/// (`threads`, `0` = automatic). The emitted units do not depend on the
/// width.
///
/// # Example
///
/// ```
/// use bist_atpg::AtpgOptions;
/// use bist_delay::{DelayTestGenerator, TransitionFaultList};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let faults = TransitionFaultList::universe(&c17);
/// let run = DelayTestGenerator::new(&c17, faults, AtpgOptions::default(), &[]).run();
/// assert_eq!(run.report.undetected, 0); // c17 delay faults are all testable
/// ```
#[derive(Debug)]
pub struct DelayTestGenerator<'c> {
    circuit: &'c Circuit,
    faults: TransitionFaultList,
    options: AtpgOptions,
    prefix: &'c [Pattern],
}

impl<'c> DelayTestGenerator<'c> {
    /// Creates a generator targeting `faults` on `circuit`. `prefix` is a
    /// pattern sequence assumed to have been applied *before* the
    /// deterministic patterns — the pseudo-random prefix of a mixed test
    /// scheme. Faults it detects are dropped before any search runs, and
    /// the emitted sequence is graded as its continuation.
    pub fn new(
        circuit: &'c Circuit,
        faults: TransitionFaultList,
        options: AtpgOptions,
        prefix: &'c [Pattern],
    ) -> Self {
        DelayTestGenerator {
            circuit,
            faults,
            options,
            prefix,
        }
    }

    /// Runs the full flow: grade the prefix, search every remaining fault,
    /// fault-simulate for collateral drops, compact, re-grade.
    pub fn run(self) -> DelayRun {
        let DelayTestGenerator {
            circuit,
            faults,
            options,
            prefix,
        } = self;
        let grader =
            || FaultSim::new(circuit, faults.iter().copied()).with_threads(options.threads);
        let mut session = grader();
        session.simulate(prefix);
        let prefix_detected = session.report().detected;

        let mut units: Vec<DelayTestUnit> = Vec::new();
        let mut atpg_calls = 0usize;

        for fi in 0..faults.len() {
            if session.status_of(fi) != FaultStatus::Undetected {
                continue;
            }
            let fault = *faults.get(fi).expect("index in range");
            let podem_opts = PodemOptions {
                fill_seed: options
                    .podem
                    .fill_seed
                    .wrapping_add((fi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..options.podem
            };
            let unit = match generate_unit(circuit, fault, podem_opts, &mut atpg_calls) {
                Ok(unit) => unit,
                Err(Verdict::Redundant) => {
                    session.set_status(fi, FaultStatus::Redundant);
                    continue;
                }
                Err(Verdict::Aborted) => {
                    session.set_status(fi, FaultStatus::Aborted);
                    continue;
                }
            };
            session.simulate(&unit.patterns);
            if session.status_of(fi) == FaultStatus::Detected {
                units.push(unit);
            } else {
                debug_assert!(
                    false,
                    "generated pair does not detect {}",
                    fault.describe(circuit)
                );
                session.set_status(fi, FaultStatus::Aborted);
            }
        }

        let baseline_detected = session.report().detected;
        if !options.no_compaction {
            units = compact(
                circuit,
                faults.faults(),
                prefix,
                units,
                |unit| &unit.patterns,
                baseline_detected,
                options.threads,
            );
        }

        // authoritative final grading: prefix, then the compacted sequence
        let mut final_session = grader();
        final_session.simulate(prefix);
        for unit in &units {
            final_session.simulate(&unit.patterns);
        }
        let mut statuses = final_session.statuses().to_vec();
        for (fi, status) in statuses.iter_mut().enumerate() {
            if *status == FaultStatus::Undetected {
                if let s @ (FaultStatus::Redundant | FaultStatus::Aborted) = session.status_of(fi) {
                    *status = s
                }
            }
        }
        let report = CoverageReport::from_statuses(&statuses);
        DelayRun {
            units,
            report,
            statuses,
            prefix_detected,
            atpg_calls,
        }
    }
}

enum Verdict {
    Redundant,
    Aborted,
}

/// The PODEM target for the capture vector: a stuck-at fault that retains
/// the initial value at the faulted line.
fn capture_target(fault: TransitionFault) -> InjectedFault {
    InjectedFault {
        site: fault.site,
        pin: fault.pin,
        stuck: fault.initial_value(),
    }
}

fn generate_unit(
    circuit: &Circuit,
    fault: TransitionFault,
    podem_opts: PodemOptions,
    atpg_calls: &mut usize,
) -> Result<DelayTestUnit, Verdict> {
    *atpg_calls += 1;
    let (v2, v2_cube) = match podem_cube(circuit, capture_target(fault), podem_opts) {
        CubeOutcome::Test { pattern, cube } => (pattern, cube),
        CubeOutcome::Redundant => return Err(Verdict::Redundant),
        CubeOutcome::Aborted => return Err(Verdict::Aborted),
    };
    let driver = fault.driver(circuit);
    *atpg_calls += 1;
    let (v1, v1_cube) = match justify_cube(circuit, &[(driver, fault.initial_value())], podem_opts)
    {
        CubeOutcome::Test { pattern, cube } => (pattern, cube),
        CubeOutcome::Redundant => return Err(Verdict::Redundant),
        CubeOutcome::Aborted => return Err(Verdict::Aborted),
    };
    Ok(DelayTestUnit {
        patterns: [v1, v2],
        cubes: [v1_cube, v2_cube],
        target: fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_full_flow_covers_everything() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        let total = faults.len();
        let run = DelayTestGenerator::new(&c17, faults, AtpgOptions::default(), &[]).run();
        assert_eq!(run.report.total(), total);
        assert_eq!(run.report.undetected, 0);
        assert_eq!(run.report.aborted, 0);
        assert_eq!(run.prefix_detected, 0, "no prefix was given");
        for unit in &run.units {
            assert!(crate::serial::detects(
                &c17,
                unit.target,
                &unit.patterns[0],
                &unit.patterns[1]
            ));
        }
    }

    #[test]
    fn prefix_shrinks_the_deterministic_set() {
        use rand::{rngs::StdRng, SeedableRng};
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = TransitionFaultList::universe(&c);
        let mut rng = StdRng::seed_from_u64(5);
        let prefix: Vec<Pattern> = (0..256)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let bare = DelayTestGenerator::new(&c, faults.clone(), AtpgOptions::default(), &[]).run();
        let topped = DelayTestGenerator::new(&c, faults, AtpgOptions::default(), &prefix).run();
        assert!(topped.prefix_detected > 0);
        assert!(
            topped.num_patterns() < bare.num_patterns(),
            "prefix {} vs bare {}",
            topped.num_patterns(),
            bare.num_patterns()
        );
        // the mixed run must reach at least the deterministic-only coverage
        assert!(topped.report.coverage_pct() >= bare.report.coverage_pct() - 1e-9);
    }

    #[test]
    fn compaction_shrinks_or_preserves() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        let uncompacted = DelayTestGenerator::new(
            &c17,
            faults.clone(),
            AtpgOptions {
                no_compaction: true,
                ..AtpgOptions::default()
            },
            &[],
        )
        .run();
        let compacted = DelayTestGenerator::new(&c17, faults, AtpgOptions::default(), &[]).run();
        assert!(compacted.num_patterns() <= uncompacted.num_patterns());
        assert_eq!(compacted.report.detected, uncompacted.report.detected);
    }

    #[test]
    fn redundant_transition_faults_are_proven() {
        // y = OR(a, AND(a, b)): the AND output can never affect y when
        // a=0 forces... actually a=0 makes AND=0 and y=a=0; a slow-to-rise
        // on the AND output is unobservable (stuck-at-0 there is redundant).
        use bist_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("red");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("t", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("y", GateKind::Or, &["a", "t"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let t = c.find("t").unwrap();
        let faults: TransitionFaultList = [TransitionFault::stem(t, crate::Transition::SlowToRise)]
            .into_iter()
            .collect();
        let run = DelayTestGenerator::new(&c, faults, AtpgOptions::default(), &[]).run();
        assert_eq!(run.report.redundant, 1);
        assert_eq!(run.report.undetected, 0);
    }

    #[test]
    fn sequence_concatenates_pairs_in_order() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = TransitionFaultList::universe(&c17);
        let run = DelayTestGenerator::new(&c17, faults, AtpgOptions::default(), &[]).run();
        let seq = run.sequence();
        assert_eq!(seq.len(), run.num_patterns());
        for (k, unit) in run.units.iter().enumerate() {
            assert_eq!(seq[2 * k], unit.patterns[0]);
            assert_eq!(seq[2 * k + 1], unit.patterns[1]);
        }
    }
}
