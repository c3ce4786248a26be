use std::fmt;

use bist_netlist::{Circuit, GateKind, LevelQueue, NodeId, SimGraph};

// Plane code of a `V5`: one known-0 and one known-1 bit per machine. A
// plane with neither bit set is unknown; no valid code sets both bits of
// one plane.
const G0: u8 = 1;
const G1: u8 = 2;
const F0: u8 = 4;
const F1: u8 = 8;
const GOOD: u8 = G0 | G1;
const ZEROS: u8 = G0 | F0;
const ONES: u8 = G1 | F1;

/// Five-valued composite logic value used by the ATPG: the pair
/// (good-machine value, faulty-machine value) with unknowns.
///
/// * `Zero`/`One` — both machines agree,
/// * `D` — good 1, faulty 0 (the classic Roth notation),
/// * `Dbar` — good 0, faulty 1,
/// * `X` — at least one machine unknown.
///
/// The discriminant is the value's plane code (one known-0 and one
/// known-1 bit per machine), which is what gate evaluation computes on.
///
/// # Example
///
/// ```
/// use bist_logicsim::V5;
///
/// assert_eq!(V5::from_pair(Some(true), Some(false)), V5::D);
/// assert_eq!(V5::D.good(), Some(true));
/// assert_eq!(V5::D.faulty(), Some(false));
/// assert!(V5::X.is_unknown());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum V5 {
    /// Both machines 0.
    Zero = G0 | F0,
    /// Both machines 1.
    One = G1 | F1,
    /// Unknown in at least one machine.
    X = 0,
    /// Good 1, faulty 0.
    D = G1 | F0,
    /// Good 0, faulty 1.
    Dbar = G0 | F1,
}

/// Plane code to value. A code with an unknown plane maps to `X`: the
/// composite value keeps no half-known states.
const DECODE: [V5; 16] = {
    let mut table = [V5::X; 16];
    table[V5::Zero as usize] = V5::Zero;
    table[V5::One as usize] = V5::One;
    table[V5::D as usize] = V5::D;
    table[V5::Dbar as usize] = V5::Dbar;
    table
};

/// Every `V5`.
const ALL_V5: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Dbar];

impl V5 {
    /// Builds the composite value from (good, faulty) three-valued parts.
    /// Any unknown part collapses to `X`.
    pub fn from_pair(good: Option<bool>, faulty: Option<bool>) -> V5 {
        match (good, faulty) {
            (Some(false), Some(false)) => V5::Zero,
            (Some(true), Some(true)) => V5::One,
            (Some(true), Some(false)) => V5::D,
            (Some(false), Some(true)) => V5::Dbar,
            _ => V5::X,
        }
    }

    /// The good-machine component (`None` when unknown).
    pub fn good(self) -> Option<bool> {
        match self {
            V5::Zero | V5::Dbar => Some(false),
            V5::One | V5::D => Some(true),
            V5::X => None,
        }
    }

    /// The faulty-machine component (`None` when unknown).
    pub fn faulty(self) -> Option<bool> {
        match self {
            V5::Zero | V5::D => Some(false),
            V5::One | V5::Dbar => Some(true),
            V5::X => None,
        }
    }

    /// True for `D` or `D̄` — a fault effect visible at this node.
    pub fn is_fault_effect(self) -> bool {
        matches!(self, V5::D | V5::Dbar)
    }

    /// True for `X`.
    pub fn is_unknown(self) -> bool {
        self == V5::X
    }
}

impl fmt::Display for V5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            V5::Zero => "0",
            V5::One => "1",
            V5::X => "X",
            V5::D => "D",
            V5::Dbar => "D'",
        };
        f.write_str(s)
    }
}

/// Swaps the 0 and 1 bits of both planes: inversion.
#[inline]
fn invert(code: u8) -> u8 {
    ((code & ZEROS) << 1) | ((code & ONES) >> 1)
}

/// The faulty plane of `code` replaced by the stuck value.
#[inline]
fn force_faulty(code: u8, stuck: bool) -> u8 {
    (code & GOOD) | if stuck { F1 } else { F0 }
}

/// Evaluates a gate over its fan-in plane codes, both machines at once:
/// each plane of the result is the three-valued gate function of that
/// plane of the inputs.
#[inline]
fn eval_planes(kind: GateKind, mut codes: impl Iterator<Item = u8>) -> u8 {
    match kind {
        GateKind::Const0 => ZEROS,
        GateKind::Const1 => ONES,
        GateKind::Buf => codes.next().unwrap_or(0),
        GateKind::Not => invert(codes.next().unwrap_or(0)),
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            // `any` has each bit some input has, `all` each bit every input
            // has: AND is 0 where some input is 0 and 1 where all are 1
            let (any, all) = codes.fold((0, ZEROS | ONES), |(any, all), c| (any | c, all & c));
            let code = match kind {
                GateKind::And | GateKind::Nand => (any & ZEROS) | (all & ONES),
                _ => (any & ONES) | (all & ZEROS),
            };
            if matches!(kind, GateKind::Nand | GateKind::Nor) {
                invert(code)
            } else {
                code
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // per plane (at the 0-bit position): every input known, and
            // the parity of the known 1s
            let (known, parity) = codes.fold((ZEROS, 0), |(known, parity), c| {
                (known & (c | (c >> 1)), parity ^ ((c >> 1) & ZEROS))
            });
            let code = (known & !parity & ZEROS) | ((known & parity) << 1);
            if kind == GateKind::Xnor {
                invert(code)
            } else {
                code
            }
        }
        GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
    }
}

/// Five-valued value of a gate of `kind` over its fan-in values. `fault`
/// is the stuck-at fault on this gate, if any: `(Some(pin), stuck)` forces
/// the faulty plane of that fan-in pin, `(None, stuck)` the faulty plane
/// of the output — after the collapse to `X`, so an unknown output stays
/// unknown.
#[inline]
fn eval_gate(
    kind: GateKind,
    fanin: impl Iterator<Item = V5>,
    fault: Option<(Option<u8>, bool)>,
) -> V5 {
    let code = match fault {
        Some((Some(pin), stuck)) => eval_planes(
            kind,
            fanin.enumerate().map(|(k, v)| {
                if k == usize::from(pin) {
                    force_faulty(v as u8, stuck)
                } else {
                    v as u8
                }
            }),
        ),
        _ => eval_planes(kind, fanin.map(|v| v as u8)),
    };
    override_stem(DECODE[usize::from(code)], fault)
}

/// Applies an output-stem fault to an evaluated value: the faulty plane
/// takes the stuck value unless the value is `X`.
#[inline]
fn override_stem(v: V5, fault: Option<(Option<u8>, bool)>) -> V5 {
    match fault {
        Some((None, stuck)) if v != V5::X => DECODE[usize::from(force_faulty(v as u8, stuck))],
        _ => v,
    }
}

/// Number of `GateKind` variants: the row count of [`GateTable`].
const KINDS: usize = GateKind::Dff as usize + 1;

/// [`eval_gate`] tabulated for the one- and two-input gates away from the
/// fault site — about four in five of the evaluations a PODEM search
/// makes on the ISCAS-85 circuits — so the hot path is one load, with no
/// branch on the gate kind. Built once per process from `eval_gate`
/// itself; sources evaluate to `X` here and are never looked up.
struct GateTable {
    /// `[kind][a]`.
    one: [[V5; 16]; KINDS],
    /// `[kind][a << 4 | b]`.
    two: [[V5; 256]; KINDS],
}

impl GateTable {
    fn get() -> &'static GateTable {
        static TABLE: std::sync::OnceLock<Box<GateTable>> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            let mut table = Box::new(GateTable {
                one: [[V5::X; 16]; KINDS],
                two: [[V5::X; 256]; KINDS],
            });
            let kinds = [
                GateKind::Buf,
                GateKind::Not,
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
                GateKind::Const0,
                GateKind::Const1,
            ];
            for kind in kinds {
                for a in ALL_V5 {
                    table.one[kind as usize][a as usize] = eval_gate(kind, [a].into_iter(), None);
                    for b in ALL_V5 {
                        table.two[kind as usize][usize::from((a as u8) << 4 | b as u8)] =
                            eval_gate(kind, [a, b].into_iter(), None);
                    }
                }
            }
            table
        })
    }
}

impl fmt::Debug for GateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("GateTable")
    }
}

/// Description of a single stuck-at fault for injection into
/// [`FiveValueSim`]. `pin: None` is a fault on the node's output stem;
/// `pin: Some(k)` is a fault as seen on fan-in pin `k` of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectedFault {
    /// The faulted node (for pin faults: the gate whose pin is faulted).
    pub site: NodeId,
    /// Fan-in pin index, or `None` for the output stem.
    pub pin: Option<u8>,
    /// The stuck value.
    pub stuck: bool,
}

/// Single-pattern five-valued simulator with stuck-at fault injection — the
/// implication engine underneath the PODEM ATPG.
///
/// Assign primary inputs (possibly `X`) with [`FiveValueSim::set_input`],
/// call [`FiveValueSim::imply`], then inspect node values, the D-frontier
/// and output detection.
///
/// Incremental implication ([`FiveValueSim::imply_from_input`]) records
/// every node value it overwrites on an undo trail, so a search can take
/// a [`FiveValueSim::trail_mark`] before a decision and return to exactly
/// that state with [`FiveValueSim::undo_to`] instead of re-implying.
///
/// # Example
///
/// ```
/// use bist_logicsim::{FiveValueSim, InjectedFault, V5};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let mut sim = FiveValueSim::new(&c17, Some(InjectedFault {
///     site: g10,
///     pin: None,
///     stuck: true,
/// }));
/// // G1=1, G3=1 drive G10 to 0 in the good machine; the fault makes it D̄.
/// sim.set_input(0, Some(true));
/// sim.set_input(2, Some(true));
/// sim.imply();
/// assert_eq!(sim.value(g10), V5::Dbar);
/// ```
#[derive(Debug)]
pub struct FiveValueSim<'c> {
    circuit: &'c Circuit,
    graph: &'c SimGraph,
    fault: Option<InjectedFault>,
    /// `fault`'s site index (`usize::MAX` without a fault): the one node
    /// whose evaluation sees the fault.
    fault_site: usize,
    table: &'static GateTable,
    pi_values: Vec<Option<bool>>,
    values: Vec<V5>,
    /// Undo trail: `(node, value before)` for every value change made by
    /// incremental implication since the last full [`FiveValueSim::imply`].
    trail: Vec<(u32, V5)>,
    /// Reusable levelized implication queue (see `imply_from_input`) —
    /// no allocations once its buckets are warm.
    queue: LevelQueue,
    /// Optional propagation scope (see [`FiveValueSim::restrict_scope`]):
    /// implication maintains values only for marked nodes.
    scope: Option<Vec<bool>>,
    /// Node evaluations performed so far (see
    /// [`FiveValueSim::evaluations`]).
    evaluations: u64,
}

impl<'c> FiveValueSim<'c> {
    /// Creates a simulator over `circuit`, optionally injecting `fault`.
    /// All primary inputs start at `X`.
    pub fn new(circuit: &'c Circuit, fault: Option<InjectedFault>) -> Self {
        let graph = circuit.sim_graph();
        FiveValueSim {
            circuit,
            graph,
            fault,
            fault_site: fault.map_or(usize::MAX, |f| f.site.index()),
            table: GateTable::get(),
            pi_values: vec![None; circuit.inputs().len()],
            values: vec![V5::X; circuit.num_nodes()],
            trail: Vec::new(),
            queue: LevelQueue::new(graph),
            scope: None,
            evaluations: 0,
        }
    }

    /// Restricts implication to the nodes marked in `in_scope`: [`imply`]
    /// and [`imply_from_input`] skip everything else, which keeps stale
    /// values (`X` unless previously written) outside the scope.
    ///
    /// The mask must be *fan-in closed* — every fan-in of an in-scope node
    /// is in scope — so the kept region is self-contained: each in-scope
    /// node sees exactly the fan-in values a full implication would, and
    /// its value is therefore bit-identical to the unscoped simulator's. A
    /// caller that reads only in-scope nodes (plus [`FiveValueSim::input`],
    /// which bypasses node values) cannot observe the difference; the
    /// whole-circuit inspectors ([`FiveValueSim::d_frontier`],
    /// [`FiveValueSim::fault_at_output`],
    /// [`FiveValueSim::x_path_to_output_exists`]) read out-of-scope nodes
    /// and are *not* meaningful on a scoped simulator.
    ///
    /// This is the workhorse behind justification-goal PODEM searches: a
    /// goal over a handful of nodes only ever reads their fan-in cone, and
    /// skipping the rest of each input's fan-out cone makes every decision
    /// step proportionally cheaper without perturbing the search.
    ///
    /// [`imply`]: FiveValueSim::imply
    /// [`imply_from_input`]: FiveValueSim::imply_from_input
    pub fn restrict_scope(&mut self, in_scope: Vec<bool>) {
        debug_assert_eq!(in_scope.len(), self.circuit.num_nodes());
        debug_assert!(
            self.circuit.topo_order().iter().all(|&id| {
                !in_scope[id.index()]
                    || self
                        .circuit
                        .node(id)
                        .fanin()
                        .iter()
                        .all(|f| in_scope[f.index()])
            }),
            "propagation scope must be fan-in closed"
        );
        self.scope = Some(in_scope);
    }

    /// The circuit this simulator is bound to.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Node evaluations performed by implication since construction —
    /// a deterministic work counter.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The injected fault, if any.
    pub fn fault(&self) -> Option<InjectedFault> {
        self.fault
    }

    /// Assigns primary input `index` (positional, per `circuit.inputs()`).
    /// `None` means `X`.
    pub fn set_input(&mut self, index: usize, value: Option<bool>) {
        self.pi_values[index] = value;
    }

    /// Current assignment of primary input `index`.
    pub fn input(&self, index: usize) -> Option<bool> {
        self.pi_values[index]
    }

    /// Clears all primary input assignments back to `X`.
    pub fn reset_inputs(&mut self) {
        self.pi_values.fill(None);
    }

    /// Evaluates one node under the current values and injected fault.
    #[inline]
    fn eval_node(&self, idx: usize) -> V5 {
        let g = self.graph;
        let kind = g.kind(idx) as usize;
        let code = |f: u32| self.values[f as usize] as u8;
        if idx != self.fault_site {
            match *g.fanin(idx) {
                [a, b] => return self.table.two[kind][usize::from(code(a) << 4 | code(b))],
                [a] => return self.table.one[kind][usize::from(code(a))],
                _ => {}
            }
        }
        let fault = match self.fault {
            Some(f) if idx == self.fault_site => Some((f.pin, f.stuck)),
            _ => None,
        };
        match g.kind(idx) {
            GateKind::Input => {
                let pos = g.input_pos(idx).expect("input node is registered");
                let v = self.pi_values[pos];
                override_stem(V5::from_pair(v, v), fault)
            }
            GateKind::Dff => V5::X,
            kind => eval_gate(
                kind,
                g.fanin(idx).iter().map(|&f| self.values[f as usize]),
                fault,
            ),
        }
    }

    /// Performs full forward implication: re-evaluates every node in
    /// topological order under the current input assignment and injected
    /// fault. Clears the undo trail.
    pub fn imply(&mut self) {
        let g = self.graph;
        self.trail.clear();
        for &id in g.topo() {
            let id = id as usize;
            if self.scope.as_ref().is_none_or(|m| m[id]) {
                self.values[id] = self.eval_node(id);
                self.evaluations += 1;
            }
        }
    }

    /// Incremental implication: re-evaluates only the fan-out cone of the
    /// primary input at position `index`, assuming every other node is
    /// already consistent. Equivalent to (and property-tested against) a
    /// full [`FiveValueSim::imply`] after a single input change — but
    /// orders of magnitude cheaper on large circuits, which is what makes
    /// PODEM fast. Every value it overwrites goes on the undo trail.
    ///
    /// The walk drains a reusable [`LevelQueue`] (the same structure the
    /// PPSFP cone propagation uses): pending nodes bucketed by logic
    /// level, deduplicated by epoch stamp and drained in ascending level
    /// order, so every touched node is re-evaluated exactly once, after
    /// all of its fan-ins settled. No allocations once the buckets are
    /// warm.
    pub fn imply_from_input(&mut self, index: usize) {
        let scope = self.scope.take();
        self.imply_from_input_masked(index, scope.as_deref());
        self.scope = scope;
    }

    fn imply_from_input_masked(&mut self, index: usize, mask: Option<&[bool]>) {
        let g = self.graph;
        let source = g.inputs()[index] as usize;
        if mask.is_some_and(|m| !m[source]) {
            return;
        }
        self.evaluations += 1;
        if !self.update(source) {
            return;
        }
        self.queue.begin(g.level(source));
        self.enqueue_fanout(source, mask);
        while let Some(bucket) = self.queue.take_bucket() {
            self.evaluations += bucket.len() as u64;
            for &id in &bucket {
                if self.update(id as usize) {
                    self.enqueue_fanout(id as usize, mask);
                }
            }
            self.queue.restore(bucket);
        }
    }

    /// Re-evaluates `id`; on a change, records the old value on the trail
    /// and stores the new one. Returns whether the value changed.
    #[inline]
    fn update(&mut self, id: usize) -> bool {
        let v = self.eval_node(id);
        let old = self.values[id];
        if v == old {
            return false;
        }
        self.trail.push((id as u32, old));
        self.values[id] = v;
        true
    }

    /// Queues the in-scope combinational fan-out of `id`.
    #[inline]
    fn enqueue_fanout(&mut self, id: usize, mask: Option<&[bool]>) {
        let g = self.graph;
        for &s in g.fanout(id) {
            let si = s as usize;
            if g.kind(si).is_combinational() && mask.is_none_or(|m| m[si]) {
                self.queue.push(s, g.level(si));
            }
        }
    }

    /// The current length of the undo trail: pass it to
    /// [`FiveValueSim::undo_to`] to return to this state.
    pub fn trail_mark(&self) -> usize {
        self.trail.len()
    }

    /// Restores every node value overwritten since `mark` was taken,
    /// newest first, without evaluating a gate. Input assignments are not
    /// on the trail: reassign the inputs changed since `mark` (to what they
    /// were then) with [`FiveValueSim::set_input`].
    ///
    /// Because incremental implication equals full implication, the values
    /// after `undo_to(mark)` are exactly those a full
    /// [`FiveValueSim::imply`] computes for the assignment at the mark.
    ///
    /// # Example
    ///
    /// ```
    /// use bist_logicsim::{FiveValueSim, V5};
    ///
    /// let c17 = bist_netlist::iscas85::c17();
    /// let g10 = c17.find("G10").unwrap();
    /// let mut sim = FiveValueSim::new(&c17, None);
    /// sim.imply();
    /// let mark = sim.trail_mark();
    /// sim.set_input(0, Some(false));
    /// sim.imply_from_input(0);
    /// assert_eq!(sim.value(g10), V5::One);
    /// sim.undo_to(mark);
    /// sim.set_input(0, None);
    /// assert_eq!(sim.value(g10), V5::X);
    /// ```
    pub fn undo_to(&mut self, mark: usize) {
        for (id, old) in self.trail.drain(mark..).rev() {
            self.values[id as usize] = old;
        }
    }

    /// The composite value of `id` after the last [`FiveValueSim::imply`].
    pub fn value(&self, id: NodeId) -> V5 {
        self.values[id.index()]
    }

    /// Gates with a fault effect (`D`/`D̄`) on some fan-in and an unknown
    /// output — the frontier PODEM pushes towards the outputs.
    pub fn d_frontier(&self) -> Vec<NodeId> {
        let mut frontier = Vec::new();
        for &id in self.circuit.topo_order() {
            let node = self.circuit.node(id);
            if !node.kind().is_combinational() {
                continue;
            }
            if !self.values[id.index()].is_unknown() {
                continue;
            }
            if node
                .fanin()
                .iter()
                .any(|f| self.values[f.index()].is_fault_effect())
            {
                frontier.push(id);
            }
        }
        frontier
    }

    /// True if a fault effect has reached any primary output.
    pub fn fault_at_output(&self) -> bool {
        self.circuit
            .outputs()
            .iter()
            .any(|o| self.values[o.index()].is_fault_effect())
    }

    /// True if some node of the D-frontier still has an X-path to a primary
    /// output (a path of unknown-valued nodes). Without one, the search is
    /// hopeless and PODEM backtracks.
    pub fn x_path_to_output_exists(&self) -> bool {
        let mut reach = vec![false; self.circuit.num_nodes()];
        // seed with unknown outputs
        for &o in self.circuit.outputs() {
            if self.values[o.index()].is_unknown() {
                reach[o.index()] = true;
            }
        }
        // propagate reachability backwards through unknown nodes
        for &id in self.circuit.topo_order().iter().rev() {
            if !reach[id.index()] {
                continue;
            }
            for &f in self.circuit.node(id).fanin() {
                if self.values[f.index()].is_unknown() {
                    reach[f.index()] = true;
                }
            }
        }
        self.d_frontier()
            .iter()
            .any(|g| reach[g.index()] || self.circuit.fanout(*g).iter().any(|s| reach[s.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three-valued gate function the simulator evaluated before the
    /// plane code, kept as the oracle the plane evaluator must equal.
    fn eval3(kind: GateKind, inputs: impl Iterator<Item = Option<bool>> + Clone) -> Option<bool> {
        match kind {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            GateKind::Buf => inputs.clone().next().flatten(),
            GateKind::Not => inputs.clone().next().flatten().map(|v| !v),
            GateKind::And | GateKind::Nand => {
                let mut any_unknown = false;
                let mut out = true;
                for v in inputs {
                    match v {
                        Some(false) => {
                            out = false;
                            any_unknown = false;
                            break;
                        }
                        Some(true) => {}
                        None => any_unknown = true,
                    }
                }
                let core = if any_unknown { None } else { Some(out) };
                if kind == GateKind::Nand {
                    core.map(|v| !v)
                } else {
                    core
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut any_unknown = false;
                let mut out = false;
                for v in inputs {
                    match v {
                        Some(true) => {
                            out = true;
                            any_unknown = false;
                            break;
                        }
                        Some(false) => {}
                        None => any_unknown = true,
                    }
                }
                let core = if any_unknown { None } else { Some(out) };
                if kind == GateKind::Nor {
                    core.map(|v| !v)
                } else {
                    core
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut parity = false;
                for v in inputs {
                    match v {
                        Some(b) => parity ^= b,
                        None => return None,
                    }
                }
                Some(if kind == GateKind::Xnor {
                    !parity
                } else {
                    parity
                })
            }
            GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
        }
    }

    /// The pre-plane-code gate evaluation: `eval3` per machine, the
    /// faulted pin's faulty input replaced by the stuck value, then the
    /// output-stem override of the collapsed pair.
    fn oracle(kind: GateKind, inputs: &[V5], fault: Option<(Option<u8>, bool)>) -> V5 {
        let good = eval3(kind, inputs.iter().map(|v| v.good()));
        let faulty = match fault {
            Some((Some(p), stuck)) => eval3(
                kind,
                inputs.iter().enumerate().map(|(k, v)| {
                    if k == usize::from(p) {
                        Some(stuck)
                    } else {
                        v.faulty()
                    }
                }),
            ),
            _ => eval3(kind, inputs.iter().map(|v| v.faulty())),
        };
        let v = V5::from_pair(good, faulty);
        match fault {
            Some((None, stuck)) => V5::from_pair(v.good(), Some(stuck)),
            _ => v,
        }
    }

    #[test]
    fn plane_evaluator_equals_the_three_valued_oracle_exhaustively() {
        let kinds = [
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let mut checked = 0usize;
        for kind in kinds {
            for width in 1..=4u32 {
                let mut faults: Vec<Option<(Option<u8>, bool)>> =
                    vec![None, Some((None, false)), Some((None, true))];
                for pin in 0..width as u8 {
                    faults.push(Some((Some(pin), false)));
                    faults.push(Some((Some(pin), true)));
                }
                for tuple in 0..5usize.pow(width) {
                    let inputs: Vec<V5> = (0..width)
                        .map(|k| ALL_V5[tuple / 5usize.pow(k) % 5])
                        .collect();
                    for &fault in &faults {
                        assert_eq!(
                            eval_gate(kind, inputs.iter().copied(), fault),
                            oracle(kind, &inputs, fault),
                            "{kind:?} inputs {inputs:?} fault {fault:?}"
                        );
                        checked += 1;
                    }
                    // the tabulated fast path answers the fault-free one-
                    // and two-input evaluations
                    let table = GateTable::get();
                    let tabulated = match inputs[..] {
                        [a] => Some(table.one[kind as usize][a as usize]),
                        [a, b] => {
                            Some(table.two[kind as usize][usize::from((a as u8) << 4 | b as u8)])
                        }
                        _ => None,
                    };
                    if let Some(v) = tabulated {
                        assert_eq!(v, oracle(kind, &inputs, None), "{kind:?} table {inputs:?}");
                    }
                }
            }
        }
        // 10 kinds x (5 + 25 + 125 + 625 tuples) x (3 + 2 x width faults)
        assert_eq!(checked, 10 * (5 * 5 + 25 * 7 + 125 * 9 + 625 * 11));
    }

    #[test]
    fn v5_pair_round_trip() {
        for v in ALL_V5 {
            assert_eq!(V5::from_pair(v.good(), v.faulty()), v);
            assert_eq!(DECODE[v as usize], v, "the plane code decodes to itself");
        }
        for good in [None, Some(false), Some(true)] {
            for faulty in [None, Some(false), Some(true)] {
                let v = V5::from_pair(good, faulty);
                if good.is_some() && faulty.is_some() {
                    assert_eq!((v.good(), v.faulty()), (good, faulty));
                } else {
                    assert_eq!(v, V5::X, "any unknown part collapses");
                }
            }
        }
    }

    #[test]
    fn fault_free_matches_naive() {
        let c17 = bist_netlist::iscas85::c17();
        let mut sim = FiveValueSim::new(&c17, None);
        for v in 0u32..32 {
            for i in 0..5 {
                sim.set_input(i, Some((v >> i) & 1 == 1));
            }
            sim.imply();
            let bits: Vec<bool> = (0..5).map(|i| (v >> i) & 1 == 1).collect();
            let naive = crate::packed::naive_eval(&c17, &bits);
            for (idx, &expect) in naive.iter().enumerate().take(c17.num_nodes()) {
                let id = NodeId::from_index(idx);
                assert_eq!(sim.value(id).good(), Some(expect), "node {id} v={v}");
                assert_eq!(sim.value(id).faulty(), Some(expect));
            }
        }
    }

    #[test]
    fn partial_assignment_yields_x() {
        let c17 = bist_netlist::iscas85::c17();
        let mut sim = FiveValueSim::new(&c17, None);
        // Only G1 assigned: G10 = NAND(G1, G3) stays X when G1=1...
        sim.set_input(0, Some(true));
        sim.imply();
        let g10 = c17.find("G10").unwrap();
        assert_eq!(sim.value(g10), V5::X);
        // ...but G1=0 forces G10=1 (controlling value).
        sim.set_input(0, Some(false));
        sim.imply();
        assert_eq!(sim.value(g10), V5::One);
    }

    #[test]
    fn output_stem_fault_creates_d() {
        let c17 = bist_netlist::iscas85::c17();
        let g10 = c17.find("G10").unwrap();
        let mut sim = FiveValueSim::new(
            &c17,
            Some(InjectedFault {
                site: g10,
                pin: None,
                stuck: false,
            }),
        );
        // G1=0 forces G10=1 good; fault holds it 0 => D.
        sim.set_input(0, Some(false));
        sim.imply();
        assert_eq!(sim.value(g10), V5::D);
        assert!(!sim.d_frontier().is_empty());
    }

    #[test]
    fn pin_fault_only_affects_that_gate() {
        let c17 = bist_netlist::iscas85::c17();
        // G11 = NAND(G3, G6); fault G3-pin of G11 stuck-at-0 forces G11
        // faulty=1. Set G3=1, G6=1: good G11=0, faulty G11=1 => Dbar.
        let g11 = c17.find("G11").unwrap();
        let mut sim = FiveValueSim::new(
            &c17,
            Some(InjectedFault {
                site: g11,
                pin: Some(0),
                stuck: false,
            }),
        );
        sim.set_input(2, Some(true)); // G3
        sim.set_input(3, Some(true)); // G6
        sim.imply();
        assert_eq!(sim.value(g11), V5::Dbar);
        // The stem G3 itself is unaffected (branch fault).
        let g3 = c17.find("G3").unwrap();
        assert_eq!(sim.value(g3), V5::One);
        // G10 = NAND(G1, G3) sees the healthy G3.
        sim.set_input(0, Some(false));
        sim.imply();
        let g10 = c17.find("G10").unwrap();
        assert_eq!(sim.value(g10), V5::One);
    }

    #[test]
    fn detection_at_output() {
        let c17 = bist_netlist::iscas85::c17();
        let g22 = c17.find("G22").unwrap();
        let mut sim = FiveValueSim::new(
            &c17,
            Some(InjectedFault {
                site: g22,
                pin: None,
                stuck: false,
            }),
        );
        // drive G22 good to 1: G10=0 requires G1=G3=1.
        sim.set_input(0, Some(true));
        sim.set_input(2, Some(true));
        sim.imply();
        assert!(sim.fault_at_output());
    }

    #[test]
    fn x_path_check_sees_blockage() {
        let c17 = bist_netlist::iscas85::c17();
        let g10 = c17.find("G10").unwrap();
        let mut sim = FiveValueSim::new(
            &c17,
            Some(InjectedFault {
                site: g10,
                pin: None,
                stuck: false,
            }),
        );
        sim.set_input(0, Some(false)); // activates fault: G10 = D
        sim.imply();
        assert!(sim.x_path_to_output_exists());
    }
}
