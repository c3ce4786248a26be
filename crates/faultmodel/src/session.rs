//! The mixed-scheme flow generalized over [`FaultModel`].

use std::collections::BTreeMap;
use std::rc::Rc;

use bist_bridging::{BridgingFault, BridgingFaultList};
use bist_core::{
    BistSession, MixedGenerator, MixedSchemeConfig, MixedSchemeError, MixedSolution, SessionStats,
    SweepSummary,
};
use bist_delay::{DelayRun, DelayTestGenerator, TransitionFault, TransitionFaultList};
use bist_fault::FaultStatus;
use bist_faultsim::{CoverageCurve, CoverageReport, FaultSim, WordFault};
use bist_lfsr::{Lfsr, ScanExpander};
use bist_logicsim::Pattern;
use bist_netlist::Circuit;

use crate::model::FaultModel;

/// The incremental mixed-BIST flow for one circuit under test and one
/// [`FaultModel`] — the model-generic face the engine drives.
///
/// * [`FaultModel::StuckAt`] delegates every call to [`BistSession`]
///   unchanged, so default-model jobs stay byte-identical to the
///   pre-model pipeline (same solutions, same work counters). That
///   session grades collapsed representatives only and reads every
///   report off the committed positions.
/// * [`FaultModel::Transition`] runs the same solve shape on the
///   transition universe: incremental pair-wise prefix grading, then the
///   two-pattern deterministic ATPG ([`DelayTestGenerator`]) as the
///   top-up, then [`MixedGenerator`] synthesis over the emitted pairs.
/// * [`FaultModel::Bridging`] is the \[Hwa93\] measurement: the hardware
///   generator is the **stuck-at** solution's (shorts are not ATPG
///   targets in this flow), and the bridge universe is graded against
///   that generator's full mixed sequence — the solution's coverage
///   figures answer "how much of a realistic short universe does a
///   stuck-at-derived BIST sequence detect?".
///
/// The transition and bridging flows grade prefixes through one shared
/// incremental grader: requests advance one simulator monotonically; a
/// request below the front re-grades from scratch and is counted in
/// [`SessionStats::patterns_resimulated`]. Simulators and the delay ATPG
/// run at the configuration's one pool width
/// ([`MixedSchemeConfig::atpg_options`]).
///
/// # Example
///
/// ```
/// use bist_core::MixedSchemeConfig;
/// use bist_faultmodel::{FaultModel, ModelSession};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let mut session = ModelSession::new(&c17, MixedSchemeConfig::default(), FaultModel::Transition);
/// let solution = session.solve_at(16)?;
/// assert!(solution.coverage.coverage_pct() > 90.0);
/// assert_eq!(solution.det_len % 2, 0, "delay tests come in pairs");
/// # Ok::<(), bist_core::MixedSchemeError>(())
/// ```
#[derive(Debug)]
pub struct ModelSession<'c> {
    model: FaultModel,
    inner: Inner<'c>,
}

#[derive(Debug)]
enum Inner<'c> {
    StuckAt(Box<BistSession<'c>>),
    Transition(Box<TransitionSession<'c>>),
    Bridging(Box<BridgingSession<'c>>),
}

impl<'c> ModelSession<'c> {
    /// Opens a session for `circuit` grading `model`'s universe.
    pub fn new(circuit: &'c Circuit, config: MixedSchemeConfig, model: FaultModel) -> Self {
        let inner = match model {
            FaultModel::StuckAt => Inner::StuckAt(Box::new(BistSession::new(circuit, config))),
            FaultModel::Transition => {
                Inner::Transition(Box::new(TransitionSession::new(circuit, config)))
            }
            FaultModel::Bridging { pairs, seed } => {
                Inner::Bridging(Box::new(BridgingSession::new(circuit, config, pairs, seed)))
            }
        };
        ModelSession { model, inner }
    }

    /// The collapsed stuck-at universe attached to the session, when
    /// one is ([`FaultModel::StuckAt`] only).
    pub fn collapse(&self) -> Option<&bist_fault::CollapsedUniverse> {
        match &self.inner {
            Inner::StuckAt(s) => s.collapse(),
            _ => None,
        }
    }

    /// The model this session grades.
    pub fn fault_model(&self) -> FaultModel {
        self.model
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &'c Circuit {
        match &self.inner {
            Inner::StuckAt(s) => s.circuit(),
            Inner::Transition(s) => s.circuit,
            Inner::Bridging(s) => s.stuck.circuit(),
        }
    }

    /// Size of the fault universe the session grades against.
    pub fn universe_len(&self) -> usize {
        match &self.inner {
            Inner::StuckAt(s) => s.faults().len(),
            Inner::Transition(s) => s.grader.universe().len(),
            Inner::Bridging(s) => s.grader.universe().len(),
        }
    }

    /// Work counters. For the bridging model these merge the inner
    /// stuck-at session's counters with the bridge-grading ones.
    pub fn stats(&self) -> SessionStats {
        match &self.inner {
            Inner::StuckAt(s) => s.stats(),
            Inner::Transition(s) => s.stats,
            Inner::Bridging(s) => s.stats(),
        }
    }

    /// Solves the mixed scheme for prefix length `p` against the model's
    /// universe.
    ///
    /// # Errors
    ///
    /// Returns [`MixedSchemeError`] when the hardware generator cannot be
    /// built.
    pub fn solve_at(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        match &mut self.inner {
            Inner::StuckAt(s) => s.solve_at(p),
            Inner::Transition(s) => s.solve_at(p),
            Inner::Bridging(s) => s.solve_at(p),
        }
    }

    /// Solves every prefix length of `prefix_lengths` (results in request
    /// order), sharing the session's incremental state: checkpoints are
    /// processed ascending, so each prefix pattern is graded at most once.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MixedSchemeError`] encountered.
    pub fn sweep(&mut self, prefix_lengths: &[usize]) -> Result<SweepSummary, MixedSchemeError> {
        if let Inner::StuckAt(s) = &mut self.inner {
            return s.sweep(prefix_lengths);
        }
        let mut ascending: Vec<usize> = prefix_lengths.to_vec();
        ascending.sort_unstable();
        ascending.dedup();
        let mut solved: BTreeMap<usize, MixedSolution> = BTreeMap::new();
        for &p in &ascending {
            solved.insert(p, self.solve_at(p)?);
        }
        let solutions = prefix_lengths
            .iter()
            .map(|&p| match solved.get(&p) {
                Some(s) => Ok(s.clone()),
                None => self.solve_at(p),
            })
            .collect::<Result<_, _>>()?;
        Ok(SweepSummary::from_solutions(solutions))
    }

    /// Coverage-versus-length curve of the pure pseudo-random sequence
    /// over the model's universe (the paper's Figure 4, per model).
    pub fn random_coverage_curve(&mut self, checkpoints: &[usize]) -> CoverageCurve {
        match &mut self.inner {
            Inner::StuckAt(s) => s.random_coverage_curve(checkpoints),
            Inner::Transition(s) => curve(checkpoints, |cp| s.grader.statuses_at(cp, &mut s.stats)),
            Inner::Bridging(s) => curve(checkpoints, |cp| s.grader.statuses_at(cp, &mut s.extra)),
        }
    }
}

fn curve(
    checkpoints: &[usize],
    mut statuses_at: impl FnMut(usize) -> Vec<FaultStatus>,
) -> CoverageCurve {
    let points = checkpoints
        .iter()
        .map(|&cp| {
            let statuses = statuses_at(cp);
            (cp, CoverageReport::from_statuses(&statuses).coverage_pct())
        })
        .collect();
    CoverageCurve::new(points)
}

/// The scheme's pseudo-random stream — identical to the one
/// [`BistSession`] feeds its own simulator (the coverage estimator
/// grades a sample of the universe against the very same stream).
pub(crate) fn stream(config: &MixedSchemeConfig, circuit: &Circuit) -> ScanExpander {
    ScanExpander::new(Lfsr::fibonacci(config.poly, 1), circuit.inputs().len())
}

/// Incremental prefix grading over one model's universe, shared by the
/// transition and bridging flows: one simulator advanced monotonically
/// along the scheme's pseudo-random stream, so each prefix pattern is
/// graded once. A request below the front re-grades on a fresh simulator
/// and leaves the shared one untouched.
#[derive(Debug)]
struct PrefixGrader<'c, F> {
    /// The shared simulator; it holds the universe.
    sim: FaultSim<'c, F>,
    /// The stream, positioned at the front.
    expander: ScanExpander,
    /// The stream at its start, for re-grades.
    origin: ScanExpander,
    /// Prefix patterns the shared simulator has consumed.
    front: usize,
}

impl<'c, F: WordFault> PrefixGrader<'c, F> {
    fn new(
        circuit: &'c Circuit,
        config: &MixedSchemeConfig,
        universe: impl IntoIterator<Item = F>,
    ) -> Self {
        let origin = stream(config, circuit);
        PrefixGrader {
            sim: FaultSim::new(circuit, universe).with_threads(config.threads),
            expander: origin.clone(),
            origin,
            front: 0,
        }
    }

    fn universe(&self) -> &[F] {
        self.sim.faults()
    }

    /// Fault statuses after exactly `p` prefix patterns; the patterns
    /// graded to answer are counted in `stats`.
    fn statuses_at(&mut self, p: usize, stats: &mut SessionStats) -> Vec<FaultStatus> {
        if p >= self.front {
            let chunk = self.expander.patterns(p - self.front);
            self.sim.simulate(&chunk);
            stats.patterns_simulated += chunk.len();
            self.front = p;
            self.sim.statuses().to_vec()
        } else {
            stats.patterns_resimulated += p;
            self.regrade(p, &[]).statuses().to_vec()
        }
    }

    /// A fresh simulator over the universe, at the shared one's width,
    /// that has graded the first `p` prefix patterns and then `suffix`.
    fn regrade(&self, p: usize, suffix: &[Pattern]) -> FaultSim<'c, F> {
        let mut sim = FaultSim::new(self.sim.circuit(), self.universe().iter().copied())
            .with_threads(self.sim.threads());
        sim.simulate(&self.prefix(p));
        sim.simulate(suffix);
        sim
    }

    /// The first `p` patterns of the stream.
    fn prefix(&self, p: usize) -> Vec<Pattern> {
        self.origin.clone().patterns(p)
    }
}

/// Transition-model flow: incremental pair-wise prefix grading plus the
/// two-pattern deterministic top-up, cached per prefix length.
#[derive(Debug)]
struct TransitionSession<'c> {
    circuit: &'c Circuit,
    config: MixedSchemeConfig,
    grader: PrefixGrader<'c, TransitionFault>,
    /// Deterministic top-ups keyed by prefix length: a delay top-up pairs
    /// its first vector with the *last prefix pattern*, so — unlike the
    /// stuck-at flow — equal open frontiers at different `p` may still
    /// need different sequences.
    runs: BTreeMap<usize, Rc<DelayRun>>,
    stats: SessionStats,
}

impl<'c> TransitionSession<'c> {
    fn new(circuit: &'c Circuit, config: MixedSchemeConfig) -> Self {
        let grader = PrefixGrader::new(circuit, &config, TransitionFaultList::universe(circuit));
        TransitionSession {
            circuit,
            config,
            grader,
            runs: BTreeMap::new(),
            stats: SessionStats::default(),
        }
    }

    fn run_for(&mut self, p: usize) -> Rc<DelayRun> {
        if let Some(hit) = self.runs.get(&p) {
            self.stats.atpg_cache_hits += 1;
            return Rc::clone(hit);
        }
        let prefix = self.grader.prefix(p);
        let run = Rc::new(
            DelayTestGenerator::new(
                self.circuit,
                self.grader.universe().iter().copied().collect(),
                self.config.atpg_options(),
                &prefix,
            )
            .run(),
        );
        self.stats.atpg_runs += 1;
        self.runs.insert(p, Rc::clone(&run));
        run
    }

    fn solve_at(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        let statuses = self.grader.statuses_at(p, &mut self.stats);
        let prefix_coverage = CoverageReport::from_statuses(&statuses);
        let run = self.run_for(p);
        let det = run.sequence();
        let generator =
            MixedGenerator::build(self.circuit.inputs().len(), self.config.poly, p, &det)?;
        debug_assert!(generator.verify(), "mixed generator failed replay");
        Ok(MixedSolution {
            prefix_len: p,
            det_len: det.len(),
            coverage: run.report,
            prefix_coverage,
            generator_area_mm2: generator.area_mm2(&self.config.area),
            chip_area_mm2: self.config.area.circuit_area_mm2(self.circuit),
            generator,
        })
    }
}

/// Bridging-model flow: the hardware is the stuck-at solution's; the
/// bridge universe is graded against its full mixed sequence.
#[derive(Debug)]
struct BridgingSession<'c> {
    grader: PrefixGrader<'c, BridgingFault>,
    stuck: BistSession<'c>,
    /// Bridge-grading counters; the ATPG side lives in `stuck`.
    extra: SessionStats,
}

impl<'c> BridgingSession<'c> {
    fn new(circuit: &'c Circuit, config: MixedSchemeConfig, pairs: u32, seed: u64) -> Self {
        let universe = BridgingFaultList::sample(circuit, pairs as usize, seed);
        BridgingSession {
            grader: PrefixGrader::new(circuit, &config, universe),
            stuck: BistSession::new(circuit, config),
            extra: SessionStats::default(),
        }
    }

    fn stats(&self) -> SessionStats {
        let s = self.stuck.stats();
        SessionStats {
            patterns_simulated: s.patterns_simulated + self.extra.patterns_simulated,
            patterns_resimulated: s.patterns_resimulated + self.extra.patterns_resimulated,
            ..s
        }
    }

    fn solve_at(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        let statuses = self.grader.statuses_at(p, &mut self.extra);
        let prefix_coverage = CoverageReport::from_statuses(&statuses);
        let stuck = self.stuck.solve_at(p)?;
        // grade the bridge universe over the *full* mixed sequence the
        // stuck-at hardware emits: prefix, then deterministic suffix
        let graded = self.grader.regrade(p, stuck.generator.deterministic());
        self.extra.patterns_resimulated += p + stuck.det_len;
        Ok(MixedSolution {
            coverage: graded.report(),
            prefix_coverage,
            ..stuck
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_sessions_delegate_byte_for_byte() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let mut model = ModelSession::new(&c, MixedSchemeConfig::default(), FaultModel::StuckAt);
        let mut plain = BistSession::new(&c, MixedSchemeConfig::default());
        for p in [0usize, 60] {
            let a = model.solve_at(p).expect("model solve");
            let b = plain.solve_at(p).expect("plain solve");
            assert_eq!(a.det_len, b.det_len, "p={p}");
            assert_eq!(
                a.generator.deterministic(),
                b.generator.deterministic(),
                "p={p}"
            );
            assert_eq!(a.coverage, b.coverage, "p={p}");
            assert_eq!(a.prefix_coverage, b.prefix_coverage, "p={p}");
        }
        assert_eq!(model.stats(), plain.stats());
        assert_eq!(model.universe_len(), plain.faults().len());
    }

    #[test]
    fn transition_solutions_verify_and_pair_up() {
        let c17 = bist_netlist::iscas85::c17();
        let mut session =
            ModelSession::new(&c17, MixedSchemeConfig::default(), FaultModel::Transition);
        for p in [0usize, 16] {
            let s = session.solve_at(p).expect("solve succeeds");
            assert_eq!(s.prefix_len, p);
            assert_eq!(s.det_len % 2, 0, "p={p}: delay tests come in pairs");
            assert!(s.generator.verify(), "p={p}");
            assert!(
                s.coverage.coverage_pct() >= s.prefix_coverage.coverage_pct(),
                "p={p}"
            );
            assert_eq!(s.coverage.undetected, 0, "p={p}: c17 is fully testable");
        }
        assert_eq!(session.stats().atpg_runs, 2);
        // same point again: answered from the per-prefix run cache
        session.solve_at(16).expect("solve succeeds");
        assert_eq!(session.stats().atpg_cache_hits, 1);
    }

    #[test]
    fn transition_non_monotone_matches_fresh_session() {
        let c17 = bist_netlist::iscas85::c17();
        let cfg = MixedSchemeConfig::default();
        let mut forward = ModelSession::new(&c17, cfg.clone(), FaultModel::Transition);
        let a16 = forward.solve_at(16).expect("solve succeeds");
        let a8 = forward.solve_at(8).expect("below the front");
        assert!(forward.stats().patterns_resimulated > 0);

        let mut fresh = ModelSession::new(&c17, cfg, FaultModel::Transition);
        let b8 = fresh.solve_at(8).expect("solve succeeds");
        let b16 = fresh.solve_at(16).expect("solve succeeds");
        assert_eq!(a8.det_len, b8.det_len);
        assert_eq!(a8.coverage, b8.coverage);
        assert_eq!(a16.det_len, b16.det_len);
        assert_eq!(a16.coverage, b16.coverage);
    }

    #[test]
    fn bridging_rides_the_stuck_at_hardware() {
        let c17 = bist_netlist::iscas85::c17();
        let model = FaultModel::Bridging { pairs: 40, seed: 7 };
        let mut session = ModelSession::new(&c17, MixedSchemeConfig::default(), model);
        let mut stuck = BistSession::new(&c17, MixedSchemeConfig::default());
        let p = 16;
        let bridge = session.solve_at(p).expect("solve succeeds");
        let sa = stuck.solve_at(p).expect("solve succeeds");
        // identical hardware: the generator is the stuck-at solution's
        assert_eq!(bridge.det_len, sa.det_len);
        assert_eq!(
            bridge.generator.deterministic(),
            sa.generator.deterministic()
        );
        assert_eq!(bridge.generator_area_mm2, sa.generator_area_mm2);
        // but coverage is measured over the bridge universe
        assert_eq!(bridge.coverage.total(), session.universe_len());
        assert!(
            bridge.coverage.detected >= bridge.prefix_coverage.detected,
            "the deterministic suffix can only add detections"
        );
    }

    #[test]
    fn curves_are_monotone_for_every_model() {
        let c17 = bist_netlist::iscas85::c17();
        for model in [
            FaultModel::StuckAt,
            FaultModel::Transition,
            FaultModel::Bridging { pairs: 40, seed: 7 },
        ] {
            let mut session = ModelSession::new(&c17, MixedSchemeConfig::default(), model);
            let curve = session.random_coverage_curve(&[0, 8, 16, 32, 64]);
            assert!(curve.is_monotone(), "{model}");
            assert_eq!(curve.points()[0].1, 0.0, "{model}: empty prefix");
            assert!(curve.final_coverage().expect("non-empty") > 0.0, "{model}");
        }
    }

    #[test]
    fn sweep_preserves_request_order() {
        let c17 = bist_netlist::iscas85::c17();
        let mut session =
            ModelSession::new(&c17, MixedSchemeConfig::default(), FaultModel::Transition);
        let summary = session.sweep(&[16, 0, 8]).expect("sweep succeeds");
        let ps: Vec<usize> = summary.solutions().iter().map(|s| s.prefix_len).collect();
        assert_eq!(ps, vec![16, 0, 8]);
        // ascending processing: each prefix pattern graded once
        assert_eq!(session.stats().patterns_simulated, 16);
    }
}
