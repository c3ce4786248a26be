use std::time::Instant;

use bist_fault::{CollapsedUniverse, Fault};
use bist_logicsim::{FiveValueSim, InjectedFault, Pattern, V5};
use bist_netlist::{Circuit, GateKind, NodeId, SimGraph};

use crate::cube::TestCube;

/// Tuning knobs for the PODEM search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemOptions {
    /// Give up (returning [`PodemOutcome::Aborted`]) after this many
    /// backtracks. A search that terminates *without* hitting the limit has
    /// explored the full input space and proves redundancy.
    pub backtrack_limit: u32,
    /// Seed for filling unassigned inputs in emitted patterns. Random fill
    /// maximizes collateral fault detection during fault dropping (0-fill
    /// produces nearly identical patterns across targets); detection of the
    /// targeted fault is guaranteed for *any* fill.
    pub fill_seed: u64,
}

impl Default for PodemOptions {
    fn default() -> Self {
        PodemOptions {
            backtrack_limit: 2_000,
            fill_seed: 0x5eed_cafe,
        }
    }
}

/// Result of a PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test pattern was found (unassigned inputs filled with 0).
    Test(Pattern),
    /// The search space was exhausted: the fault is untestable
    /// (redundant) / the justification goal is unsatisfiable.
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

impl PodemOutcome {
    /// The test pattern, if one was found.
    pub fn pattern(&self) -> Option<&Pattern> {
        match self {
            PodemOutcome::Test(p) => Some(p),
            _ => None,
        }
    }
}

/// Result of a PODEM run that also reports the pre-fill test cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubeOutcome {
    /// A test was found.
    Test {
        /// The emitted pattern (cube plus don't-care fill).
        pattern: Pattern,
        /// The assignments the search committed to; every pattern matching
        /// this cube detects the target.
        cube: TestCube,
    },
    /// The search space was exhausted: the fault is untestable (redundant)
    /// / the justification goal is unsatisfiable.
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

impl CubeOutcome {
    /// Drops the cube, keeping only the filled pattern.
    pub fn into_podem_outcome(self) -> PodemOutcome {
        match self {
            CubeOutcome::Test { pattern, .. } => PodemOutcome::Test(pattern),
            CubeOutcome::Redundant => PodemOutcome::Redundant,
            CubeOutcome::Aborted => PodemOutcome::Aborted,
        }
    }
}

/// Generates a test for a single stuck-at fault with the PODEM algorithm.
///
/// `fault` uses the injection addressing of
/// [`InjectedFault`]: `pin: None` for stem faults, `pin: Some(k)` for the
/// branch seen by fan-in `k` of node `site`.
///
/// # Example
///
/// ```
/// use bist_atpg::{podem, PodemOptions, PodemOutcome};
/// use bist_logicsim::InjectedFault;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let outcome = podem(
///     &c17,
///     InjectedFault { site: g10, pin: None, stuck: false },
///     PodemOptions::default(),
/// );
/// assert!(matches!(outcome, PodemOutcome::Test(_)));
/// ```
pub fn podem(circuit: &Circuit, fault: InjectedFault, options: PodemOptions) -> PodemOutcome {
    podem_cube(circuit, fault, options).into_podem_outcome()
}

/// Like [`podem`], but additionally reports the *test cube* — the input
/// assignments the search committed to, with every other input left as a
/// don't-care. Test-set-encoding architectures (LFSR reseeding) consume the
/// cube rather than the filled pattern.
///
/// # Example
///
/// ```
/// use bist_atpg::{podem_cube, CubeOutcome, PodemOptions};
/// use bist_logicsim::InjectedFault;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let fault = InjectedFault { site: g10, pin: None, stuck: false };
/// match podem_cube(&c17, fault, PodemOptions::default()) {
///     CubeOutcome::Test { pattern, cube } => {
///         assert!(cube.matches(&pattern));
///         assert!(cube.num_specified() <= pattern.len());
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn podem_cube(circuit: &Circuit, fault: InjectedFault, options: PodemOptions) -> CubeOutcome {
    Search::new(circuit, Goal::Detect(fault), options).run()
}

/// Deterministic work counters of one PODEM search: what it decided and
/// what implication cost. Identical inputs give identical counts on every
/// machine, so they compare search kernels without a stopwatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Input assignments chosen by backtrace (flips not included).
    pub decisions: u64,
    /// Backtracks, the one that hits the limit included.
    pub backtracks: u64,
    /// Gate and input evaluations made by implication. A search implies
    /// only the fan-in closure of what its goal reads, so nodes outside
    /// that scope are never evaluated or counted.
    pub evaluations: u64,
    /// Node values restored from the implication trail by backtracking.
    pub trail_restores: u64,
}

impl std::ops::AddAssign for SearchCounters {
    fn add_assign(&mut self, other: SearchCounters) {
        self.decisions += other.decisions;
        self.backtracks += other.backtracks;
        self.evaluations += other.evaluations;
        self.trail_restores += other.trail_restores;
    }
}

/// [`podem_cube`] that also reports the search's [`SearchCounters`].
///
/// # Example
///
/// ```
/// use bist_atpg::{podem_cube, podem_cube_counted, PodemOptions};
/// use bist_logicsim::InjectedFault;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let fault = InjectedFault { site: g10, pin: None, stuck: false };
/// let (outcome, counters) = podem_cube_counted(&c17, fault, PodemOptions::default());
/// assert_eq!(outcome, podem_cube(&c17, fault, PodemOptions::default()));
/// assert!(counters.decisions >= 1);
/// ```
pub fn podem_cube_counted(
    circuit: &Circuit,
    fault: InjectedFault,
    options: PodemOptions,
) -> (CubeOutcome, SearchCounters) {
    let mut search = Search::new(circuit, Goal::Detect(fault), options);
    let outcome = search.run();
    (outcome, search.counters())
}

/// What [`podem_probe`] measured on one circuit.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct PodemProbe {
    /// Targets that got a test, were proven redundant, aborted.
    pub split: [usize; 3],
    /// Wall time of the searches with each outcome, in seconds.
    pub seconds: [f64; 3],
    /// FNV-1a 64 over every target's outcome and pre-fill cube, one line
    /// per target.
    pub digest: u64,
    /// The searches' summed counters.
    pub counters: SearchCounters,
}

/// One [`podem_cube_counted`] search per collapsed stuck-at representative
/// of `circuit` at the default budget, with no fault dropping. Everything
/// but the seconds is deterministic: a search-kernel change that keeps
/// every decision leaves the split, the digest, the decisions and the
/// backtracks unchanged. The `probe` bench binary prints this; the c432
/// decision pin in `tests/podem_decisions.rs` asserts it.
#[doc(hidden)]
pub fn podem_probe(circuit: &Circuit) -> PodemProbe {
    podem_probe_every(circuit, 1)
}

/// [`podem_probe`] over every `step`-th collapsed representative (the
/// first, the `step + 1`-th, ...): a sample for pins that must run fast.
///
/// # Panics
///
/// Panics if `step` is 0.
#[doc(hidden)]
pub fn podem_probe_every(circuit: &Circuit, step: usize) -> PodemProbe {
    let universe = CollapsedUniverse::build(circuit);
    let mut probe = PodemProbe {
        digest: 0xCBF2_9CE4_8422_2325,
        ..PodemProbe::default()
    };
    for fault in universe.representatives().iter().step_by(step) {
        let Fault::StuckAt { site, pin, value } = *fault else {
            continue;
        };
        let target = InjectedFault {
            site,
            pin,
            stuck: value,
        };
        let start = Instant::now();
        let (outcome, counters) = podem_cube_counted(circuit, target, PodemOptions::default());
        let spent = start.elapsed().as_secs_f64();
        let (slot, text) = match &outcome {
            CubeOutcome::Test { cube, .. } => (0, cube.to_string()),
            CubeOutcome::Redundant => (1, "R".to_owned()),
            CubeOutcome::Aborted => (2, "A".to_owned()),
        };
        probe.split[slot] += 1;
        probe.seconds[slot] += spent;
        probe.counters += counters;
        for byte in text.bytes().chain([b'\n']) {
            probe.digest = (probe.digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    probe
}

/// Finds an input pattern giving every listed node its required good value
/// (no fault injected), or proves none exists. Used for the initialization
/// half of stuck-open pattern pairs.
///
/// # Example
///
/// ```
/// use bist_atpg::{justify, PodemOptions, PodemOutcome};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g22 = c17.find("G22").unwrap();
/// let outcome = justify(&c17, &[(g22, false)], PodemOptions::default());
/// assert!(matches!(outcome, PodemOutcome::Test(_)));
/// ```
pub fn justify(
    circuit: &Circuit,
    requirements: &[(NodeId, bool)],
    options: PodemOptions,
) -> PodemOutcome {
    justify_cube(circuit, requirements, options).into_podem_outcome()
}

/// Like [`justify`], but reports the pre-fill [`TestCube`]; see
/// [`podem_cube`].
pub fn justify_cube(
    circuit: &Circuit,
    requirements: &[(NodeId, bool)],
    options: PodemOptions,
) -> CubeOutcome {
    Search::new(circuit, Goal::Justify(requirements.to_vec()), options).run()
}

/// Applies the deterministic X-fill to a pre-fill cube: specified bits
/// pass through, don't-cares are filled by a sparse xorshift stream — 1s
/// with probability 1/8. Fully random fill maximizes collateral detection
/// but makes the deterministic sequence incompressible (the LFSROM
/// two-level network blows up); all-zero fill compresses best but
/// patterns barely differ. Sparse biased fill keeps both properties.
///
/// This is exactly the fill a search performs when it reaches its goal,
/// exposed separately because the search *decisions* (and therefore the
/// cube) never depend on `fill_seed` — so one search's cube can be
/// re-filled for any consumer whose seed differs.
pub fn fill_cube(cube: &TestCube, fill_seed: u64) -> Pattern {
    let mut fill = fill_seed | 1;
    Pattern::from_fn(cube.len(), |i| {
        cube.get(i).unwrap_or_else(|| {
            fill ^= fill << 13;
            fill ^= fill >> 7;
            fill ^= fill << 17;
            fill & 7 == 7
        })
    })
}

#[derive(Debug, Clone)]
enum Goal {
    Detect(InjectedFault),
    Justify(Vec<(NodeId, bool)>),
}

enum Objective {
    /// The goal already holds under the current assignment.
    Achieved,
    /// Next value to pursue: drive node `.0` (a node with unknown good
    /// value) to `.1`.
    Drive(usize, bool),
    /// The goal is unreachable under the current partial assignment:
    /// backtrack.
    Stuck,
}

/// One entry of the decision stack.
#[derive(Debug, Clone, Copy)]
struct Decision {
    /// Input position.
    pi: usize,
    /// The value currently assigned.
    value: bool,
    /// True once the alternative value is being tried.
    flipped: bool,
    /// The simulator's trail mark before this decision was implied.
    mark: usize,
}

struct Search<'c> {
    graph: &'c SimGraph,
    sim: FiveValueSim<'c>,
    goal: Goal,
    options: PodemOptions,
    stack: Vec<Decision>,
    backtracks: u32,
    decisions: u64,
    trail_restores: u64,
    /// Minimum distance (in gates) from each node to any primary output —
    /// the D-frontier selection heuristic (see [`SimGraph::po_distance`]).
    po_distance: &'c [u32],
    /// Fan-out cone of the fault site (topological order); fault effects —
    /// and therefore the D-frontier and every X-path to an output — live
    /// entirely inside it, so per-iteration scans touch only the cone.
    cone: Vec<u32>,
    in_cone: Vec<bool>,
    /// Primary outputs inside the cone.
    cone_outputs: Vec<u32>,
    /// Scratch buffer for the X-path reachability sweep.
    reach: Vec<bool>,
    /// The D-frontier of the current state, rebuilt in place by
    /// `d_frontier`.
    frontier: Vec<u32>,
}

impl<'c> Search<'c> {
    fn new(circuit: &'c Circuit, goal: Goal, options: PodemOptions) -> Self {
        let graph = circuit.sim_graph();
        let fault = match goal {
            Goal::Detect(f) => Some(f),
            Goal::Justify(_) => None,
        };
        let n = graph.num_nodes();
        let cone: Vec<u32> = match fault {
            Some(f) => circuit
                .fanout_cone(f.site)
                .iter()
                .map(|id| id.index() as u32)
                .collect(),
            None => Vec::new(),
        };
        let mut in_cone = vec![false; n];
        for &id in &cone {
            in_cone[id as usize] = true;
        }
        let cone_outputs = cone
            .iter()
            .copied()
            .filter(|&id| graph.is_output(id as usize))
            .collect();
        // A search reads only the fan-in closure of what it starts from:
        // a detect search reads the fault site and its fan-ins
        // (activation), the fan-out cone and the fan-ins of cone gates
        // (D-frontier, X-path, cone outputs) and the fan-in chains its
        // backtrace walks down from those; a justification search reads
        // the requirement nodes and the chains below them. The cube reads
        // the input assignment, not node values. Implying that closure
        // alone keeps every value the search reads bit-identical (it is
        // fan-in closed) and skips the rest of each input's fan-out cone.
        let sim = match &goal {
            Goal::Detect(_) => FiveValueSim::scoped(
                circuit,
                fault,
                cone.iter().map(|&id| NodeId::from_index(id as usize)),
            ),
            Goal::Justify(reqs) => {
                FiveValueSim::scoped(circuit, None, reqs.iter().map(|&(node, _)| node))
            }
        };
        Search {
            graph,
            sim,
            goal,
            options,
            stack: Vec::new(),
            backtracks: 0,
            decisions: 0,
            trail_restores: 0,
            po_distance: graph.po_distance(),
            cone,
            in_cone,
            cone_outputs,
            reach: vec![false; n],
            frontier: Vec::new(),
        }
    }

    fn counters(&self) -> SearchCounters {
        SearchCounters {
            decisions: self.decisions,
            backtracks: u64::from(self.backtracks),
            evaluations: self.sim.evaluations(),
            trail_restores: self.trail_restores,
        }
    }

    /// The current value of node `id`.
    fn value(&self, id: usize) -> V5 {
        self.sim.value(NodeId::from_index(id))
    }

    /// True if a fault effect has reached a primary output.
    fn fault_at_output(&self) -> bool {
        self.cone_outputs
            .iter()
            .any(|&o| self.value(o as usize).is_fault_effect())
    }

    /// Rebuilds `frontier`: the D-frontier, scanning only the fault cone.
    fn d_frontier(&mut self) {
        let g = self.graph;
        self.frontier.clear();
        for &id in &self.cone {
            let idx = id as usize;
            if g.kind(idx).is_combinational()
                && self.value(idx).is_unknown()
                && g.fanin(idx)
                    .iter()
                    .any(|&f| self.value(f as usize).is_fault_effect())
            {
                self.frontier.push(id);
            }
        }
    }

    /// True if some frontier gate still has an X-path (through the cone)
    /// to a primary output.
    fn x_path_exists(&mut self) -> bool {
        let g = self.graph;
        for &id in &self.cone {
            self.reach[id as usize] = false;
        }
        for &o in &self.cone_outputs {
            if self.value(o as usize).is_unknown() {
                self.reach[o as usize] = true;
            }
        }
        for &id in self.cone.iter().rev() {
            if !self.reach[id as usize] {
                continue;
            }
            for &f in g.fanin(id as usize) {
                let f = f as usize;
                if self.in_cone[f] && self.value(f).is_unknown() {
                    self.reach[f] = true;
                }
            }
        }
        self.frontier.iter().any(|&gate| {
            self.reach[gate as usize]
                || g.fanout(gate as usize)
                    .iter()
                    .any(|&s| self.reach[s as usize])
        })
    }

    fn run(&mut self) -> CubeOutcome {
        self.sim.imply();
        loop {
            match self.objective() {
                Objective::Achieved => {
                    let width = self.graph.inputs().len();
                    let cube = TestCube::from_bits((0..width).map(|i| self.sim.input(i)).collect());
                    let pattern = fill_cube(&cube, self.options.fill_seed);
                    return CubeOutcome::Test { pattern, cube };
                }
                Objective::Drive(node, value) => match self.backtrace(node, value) {
                    Some((pi, value)) => {
                        self.decisions += 1;
                        self.stack.push(Decision {
                            pi,
                            value,
                            flipped: false,
                            mark: self.sim.trail_mark(),
                        });
                        self.sim.set_input(pi, Some(value));
                        self.sim.imply_from_input(pi);
                    }
                    None => {
                        if let Some(outcome) = self.backtrack() {
                            return outcome;
                        }
                    }
                },
                Objective::Stuck => {
                    if let Some(outcome) = self.backtrack() {
                        return outcome;
                    }
                }
            }
        }
    }

    /// Reverts decisions until an untried alternative exists. Returns
    /// `Some(outcome)` when the search ends.
    ///
    /// Each decision is reverted by restoring the simulator's trail to
    /// the decision's mark, which yields exactly the values implied
    /// before it: an abandoned decision costs no gate evaluation, and a
    /// flip implies the alternative value from that state.
    fn backtrack(&mut self) -> Option<CubeOutcome> {
        self.backtracks += 1;
        if self.backtracks > self.options.backtrack_limit {
            return Some(CubeOutcome::Aborted);
        }
        while let Some(decision) = self.stack.pop() {
            self.trail_restores += (self.sim.trail_mark() - decision.mark) as u64;
            self.sim.undo_to(decision.mark);
            if decision.flipped {
                self.sim.set_input(decision.pi, None);
            } else {
                self.stack.push(Decision {
                    value: !decision.value,
                    flipped: true,
                    ..decision
                });
                self.sim.set_input(decision.pi, Some(!decision.value));
                self.sim.imply_from_input(decision.pi);
                return None;
            }
        }
        Some(CubeOutcome::Redundant)
    }

    fn objective(&mut self) -> Objective {
        if let Goal::Detect(fault) = &self.goal {
            let fault = *fault;
            return self.detect_objective(fault);
        }
        let Goal::Justify(reqs) = &self.goal else {
            unreachable!("goals are Detect or Justify");
        };
        for &(node, value) in reqs {
            match self.sim.value(node).good() {
                None => return Objective::Drive(node.index(), value),
                Some(v) if v != value => return Objective::Stuck,
                Some(_) => {}
            }
        }
        Objective::Achieved
    }

    fn detect_objective(&mut self, fault: InjectedFault) -> Objective {
        let g = self.graph;
        if self.fault_at_output() {
            return Objective::Achieved;
        }
        let site = fault.site.index();
        // --- activation phase ---
        match fault.pin {
            None => match self.value(site).good() {
                None => return Objective::Drive(site, !fault.stuck),
                Some(v) if v == fault.stuck => return Objective::Stuck,
                Some(_) => {}
            },
            Some(p) => {
                let fanin = g.fanin(site);
                let driver = fanin[p as usize] as usize;
                match self.value(driver).good() {
                    None => return Objective::Drive(driver, !fault.stuck),
                    Some(v) if v == fault.stuck => return Objective::Stuck,
                    Some(_) => {}
                }
                // The driver is activated; the difference must still pass
                // through the faulted gate itself.
                let site_value = self.value(site);
                if !site_value.is_fault_effect() {
                    if !site_value.is_unknown() {
                        return Objective::Stuck; // masked by a controlling side input
                    }
                    // drive the side inputs non-controlling
                    match g.kind(site).controlling_value() {
                        Some(c) => {
                            for (k, &f) in fanin.iter().enumerate() {
                                if k == p as usize {
                                    continue;
                                }
                                match self.value(f as usize).good() {
                                    None => return Objective::Drive(f as usize, !c),
                                    Some(v) if v == c => return Objective::Stuck,
                                    Some(_) => {}
                                }
                            }
                        }
                        None => {
                            // XOR family: any defined side value exposes the
                            // difference
                            for (k, &f) in fanin.iter().enumerate() {
                                if k == p as usize {
                                    continue;
                                }
                                if self.value(f as usize).good().is_none() {
                                    return Objective::Drive(f as usize, false);
                                }
                            }
                        }
                    }
                    return Objective::Stuck;
                }
            }
        }
        // --- propagation phase ---
        self.d_frontier();
        if self.frontier.is_empty() || !self.x_path_exists() {
            return Objective::Stuck;
        }
        let gate = self
            .frontier
            .iter()
            .copied()
            .min_by_key(|&gate| self.po_distance[gate as usize])
            .expect("frontier non-empty") as usize;
        let want = match g.kind(gate).controlling_value() {
            Some(c) => !c,
            None => false,
        };
        for &f in g.fanin(gate) {
            if self.value(f as usize) == V5::X {
                return Objective::Drive(f as usize, want);
            }
        }
        Objective::Stuck
    }

    /// Walks an objective back to an unassigned primary input through
    /// X-valued nodes, tracking inversion parity.
    fn backtrace(&self, mut node: usize, mut value: bool) -> Option<(usize, bool)> {
        let g = self.graph;
        loop {
            match g.kind(node) {
                GateKind::Input => {
                    return Some((g.input_pos(node).expect("registered input"), value));
                }
                GateKind::Dff | GateKind::Const0 | GateKind::Const1 => return None,
                kind => {
                    value ^= kind.is_inverting();
                    node = *g
                        .fanin(node)
                        .iter()
                        .find(|&&f| self.value(f as usize).good().is_none())?
                        as usize;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_fault::{Fault, FaultList};
    use bist_faultsim::serial;

    fn as_injected(f: Fault) -> Option<InjectedFault> {
        match f {
            Fault::StuckAt { site, pin, value } => Some(InjectedFault {
                site,
                pin,
                stuck: value,
            }),
            _ => None,
        }
    }

    #[test]
    fn c17_all_collapsed_faults_get_tests() {
        let c17 = bist_netlist::iscas85::c17();
        for fault in FaultList::stuck_at_collapsed(&c17).iter() {
            let injected = as_injected(*fault).unwrap();
            match podem(&c17, injected, PodemOptions::default()) {
                PodemOutcome::Test(p) => {
                    assert!(
                        serial::detects(&c17, *fault, None, &p),
                        "pattern {p} does not detect {}",
                        fault.describe(&c17)
                    );
                }
                other => panic!("{}: {:?}", fault.describe(&c17), other),
            }
        }
    }

    #[test]
    fn proves_planted_redundancy() {
        use bist_netlist::CircuitBuilder;
        // r = OR(a, AND(a, b)): AND output stuck-at-0 is redundant.
        let mut b = CircuitBuilder::new("red");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("t", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("r", GateKind::Or, &["a", "t"]).unwrap();
        b.mark_output("r").unwrap();
        let c = b.build().unwrap();
        let t = c.find("t").unwrap();
        let outcome = podem(
            &c,
            InjectedFault {
                site: t,
                pin: None,
                stuck: false,
            },
            PodemOptions::default(),
        );
        assert_eq!(outcome, PodemOutcome::Redundant);
    }

    #[test]
    fn justify_reaches_both_output_values() {
        let c17 = bist_netlist::iscas85::c17();
        let g23 = c17.find("G23").unwrap();
        for v in [false, true] {
            match justify(&c17, &[(g23, v)], PodemOptions::default()) {
                PodemOutcome::Test(p) => {
                    let values = bist_logicsim::naive_eval(&c17, &p.to_bits());
                    assert_eq!(values[g23.index()], v);
                }
                other => panic!("justify {v}: {other:?}"),
            }
        }
    }

    #[test]
    fn justify_detects_unsatisfiable_goals() {
        use bist_netlist::CircuitBuilder;
        // y = AND(a, NOT(a)) is constant 0.
        let mut b = CircuitBuilder::new("const");
        b.add_input("a").unwrap();
        b.add_gate("na", GateKind::Not, &["a"]).unwrap();
        b.add_gate("y", GateKind::And, &["a", "na"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let y = c.find("y").unwrap();
        assert_eq!(
            justify(&c, &[(y, true)], PodemOptions::default()),
            PodemOutcome::Redundant
        );
        assert!(matches!(
            justify(&c, &[(y, false)], PodemOptions::default()),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn branch_faults_get_tests_on_c432() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::stuck_at_collapsed(&c);
        let mut tested = 0;
        let mut failures = Vec::new();
        for fault in faults
            .iter()
            .filter(|f| matches!(f, Fault::StuckAt { pin: Some(_), .. }))
        {
            let injected = as_injected(*fault).unwrap();
            match podem(&c, injected, PodemOptions::default()) {
                PodemOutcome::Test(p) => {
                    tested += 1;
                    if !serial::detects(&c, *fault, None, &p) {
                        failures.push(fault.describe(&c));
                    }
                }
                PodemOutcome::Redundant | PodemOutcome::Aborted => {}
            }
            if tested > 40 {
                break; // keep the unit test quick
            }
        }
        assert!(tested > 10, "too few branch faults exercised");
        assert!(failures.is_empty(), "bad tests for {failures:?}");
    }

    #[test]
    fn tight_limit_aborts() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        // find some fault that needs > 0 backtracks under a 0 limit:
        // with limit 0 every first backtrack aborts, so any fault whose
        // initial greedy descent fails reports Aborted, never looping.
        let faults = FaultList::stuck_at_collapsed(&c);
        let opts = PodemOptions {
            backtrack_limit: 0,
            ..PodemOptions::default()
        };
        let mut saw_abort = false;
        for fault in faults.iter().take(200) {
            if let Some(injected) = as_injected(*fault) {
                if podem(&c, injected, opts) == PodemOutcome::Aborted {
                    saw_abort = true;
                    break;
                }
            }
        }
        assert!(saw_abort, "expected at least one abort with limit 0");
    }
}
