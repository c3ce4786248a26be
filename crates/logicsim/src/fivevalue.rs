use std::fmt;

use bist_netlist::{Circuit, GateKind, NodeId, SimGraph};

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

/// The nodes one [`FiveValueSim`] implies, compiled for its event wave:
/// the fan-in closure of the simulator's roots in topological order, and
/// each in-scope node's in-scope combinational consumers as positions in
/// that order (its *local* positions).
#[derive(Debug)]
struct Scope {
    /// In-scope nodes in topological order.
    nodes: Vec<u32>,
    /// Local position of every node (`u32::MAX` outside the scope).
    local: Vec<u32>,
    /// CSR offsets of `fanout`, one row per local position.
    fanout_off: Vec<u32>,
    /// In-scope combinational consumers, as local positions.
    fanout: Vec<u32>,
}

impl Scope {
    /// Compiles the fan-in closure of `roots`: the roots and every node
    /// on a fan-in path into one of them through combinational gates. A
    /// flip-flop evaluates to `X` without reading its D input, so the
    /// closure stops there.
    fn build(graph: &SimGraph, roots: impl IntoIterator<Item = NodeId>) -> Self {
        const OUT: u32 = u32::MAX;
        let mut local = vec![OUT; graph.num_nodes()];
        for root in roots {
            local[root.index()] = 0;
        }
        // a gate's consumers come after it in topological order, so a
        // reverse sweep reaches each gate after every in-scope consumer
        // has marked it
        for &id in graph.topo().iter().rev() {
            let id = id as usize;
            if local[id] != OUT && graph.kind(id).is_combinational() {
                for &f in graph.fanin(id) {
                    local[f as usize] = 0;
                }
            }
        }
        let mut nodes = Vec::new();
        for &id in graph.topo() {
            if local[id as usize] != OUT {
                local[id as usize] = nodes.len() as u32;
                nodes.push(id);
            }
        }
        let mut fanout_off = Vec::with_capacity(nodes.len() + 1);
        let mut fanout = Vec::new();
        fanout_off.push(0);
        for &id in &nodes {
            fanout.extend(graph.fanout(id as usize).iter().filter_map(|&s| {
                let pos = local[s as usize];
                (pos != OUT && graph.kind(s as usize).is_combinational()).then_some(pos)
            }));
            fanout_off.push(fanout.len() as u32);
        }
        Scope {
            nodes,
            local,
            fanout_off,
            fanout,
        }
    }
}

/// Single-pattern five-valued simulator with stuck-at fault injection — the
/// implication engine underneath the PODEM ATPG.
///
/// Assign primary inputs (possibly `X`) with [`FiveValueSim::set_input`],
/// call [`FiveValueSim::imply`], then read node values with
/// [`FiveValueSim::value`].
///
/// A simulator built with [`FiveValueSim::scoped`] implies only the fan-in
/// closure of its roots; [`FiveValueSim::new`] is the scope of every node.
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
    /// The nodes implication maintains.
    scope: Scope,
    /// Pending local positions of the running wave, one bit each; all
    /// clear between waves.
    dirty: Vec<u64>,
    /// Node evaluations performed so far (see
    /// [`FiveValueSim::evaluations`]).
    evaluations: u64,
}

impl<'c> FiveValueSim<'c> {
    /// Creates a simulator over all of `circuit`, optionally injecting
    /// `fault`. All primary inputs start at `X`.
    pub fn new(circuit: &'c Circuit, fault: Option<InjectedFault>) -> Self {
        Self::scoped(circuit, fault, circuit.topo_order().iter().copied())
    }

    /// Creates a simulator that implies only the fan-in closure of
    /// `roots` — the roots and every node on a fan-in path into one of
    /// them through combinational gates — and leaves every other node at
    /// `X`.
    ///
    /// The closure is fan-in closed, so each in-scope node sees exactly
    /// the fan-in values a full implication computes, and its value is
    /// bit-identical to the unscoped simulator's. A caller that reads only
    /// in-scope nodes (plus [`FiveValueSim::input`], which reads the
    /// assignment) cannot tell the two apart; the work it saves is the
    /// rest of each input's fan-out cone. PODEM roots a detect search at
    /// its fault's fan-out cone and a justification search at its
    /// requirement nodes.
    ///
    /// # Example
    ///
    /// ```
    /// use bist_logicsim::{FiveValueSim, V5};
    ///
    /// let c17 = bist_netlist::iscas85::c17();
    /// let (g22, g23) = (c17.find("G22").unwrap(), c17.find("G23").unwrap());
    /// let mut sim = FiveValueSim::scoped(&c17, None, [g22]);
    /// assert!(sim.in_scope(g22) && !sim.in_scope(g23));
    /// sim.set_input(0, Some(false)); // G1 = 0 forces G10 = 1 ...
    /// sim.set_input(2, Some(true)); // ... and G3 = 1 with G6 = 0 ...
    /// sim.set_input(3, Some(false)); // ... makes G11 = 1
    /// sim.imply();
    /// assert_eq!(sim.value(g22), V5::X); // G2 decides G16
    /// sim.set_input(1, Some(true));
    /// sim.imply_from_input(1);
    /// assert_eq!(sim.value(g22), V5::One);
    /// assert_eq!(sim.value(g23), V5::X); // never implied
    /// ```
    pub fn scoped(
        circuit: &'c Circuit,
        fault: Option<InjectedFault>,
        roots: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let graph = circuit.sim_graph();
        let scope = Scope::build(graph, roots);
        FiveValueSim {
            circuit,
            graph,
            fault,
            fault_site: fault.map_or(usize::MAX, |f| f.site.index()),
            table: GateTable::get(),
            pi_values: vec![None; circuit.inputs().len()],
            values: vec![V5::X; circuit.num_nodes()],
            trail: Vec::new(),
            dirty: vec![0; scope.nodes.len().div_ceil(64)],
            scope,
            evaluations: 0,
        }
    }

    /// The circuit this simulator is bound to.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// True if implication maintains `id` (see [`FiveValueSim::scoped`]).
    pub fn in_scope(&self, id: NodeId) -> bool {
        self.scope.local[id.index()] != u32::MAX
    }

    /// Node evaluations performed by implication since construction — a
    /// deterministic work counter. Only in-scope nodes are evaluated, so
    /// a scoped simulator counts only those.
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

    /// Performs full forward implication: re-evaluates every in-scope node
    /// in topological order under the current input assignment and
    /// injected fault. Clears the undo trail.
    pub fn imply(&mut self) {
        self.trail.clear();
        for pos in 0..self.scope.nodes.len() {
            let id = self.scope.nodes[pos] as usize;
            self.values[id] = self.eval_node(id);
        }
        self.evaluations += self.scope.nodes.len() as u64;
    }

    /// Incremental implication: re-evaluates only the in-scope fan-out
    /// cone of the primary input at position `index`, assuming every other
    /// node is already consistent. Equivalent to (and property-tested
    /// against) a full [`FiveValueSim::imply`] after a single input change
    /// — but orders of magnitude cheaper on large circuits, which is what
    /// makes PODEM fast. Every value it overwrites goes on the undo trail.
    ///
    /// The walk is an event wave over local positions: a changed node
    /// marks its consumers in a bitset, and the wave pops the lowest
    /// pending position until none is left. Consumers sit after their
    /// fan-ins in topological order, so every mark lands above the
    /// position being popped, and each reached node is evaluated once,
    /// after all of its fan-ins settled. No allocations.
    pub fn imply_from_input(&mut self, index: usize) {
        let source = self.graph.inputs()[index] as usize;
        let seed = self.scope.local[source];
        if seed != u32::MAX {
            self.wave(seed as usize);
        }
    }

    /// Drains the event wave started at local position `seed`.
    fn wave(&mut self, seed: usize) {
        let mut word = seed / 64;
        let mut last = word;
        self.dirty[word] |= 1 << (seed % 64);
        loop {
            let bits = self.dirty[word];
            if bits == 0 {
                if word == last {
                    return;
                }
                word += 1;
                continue;
            }
            self.dirty[word] = bits & (bits - 1);
            let pos = word * 64 + bits.trailing_zeros() as usize;
            self.evaluations += 1;
            if self.update(self.scope.nodes[pos] as usize) {
                let row =
                    self.scope.fanout_off[pos] as usize..self.scope.fanout_off[pos + 1] as usize;
                for k in row {
                    let consumer = self.scope.fanout[k] as usize;
                    self.dirty[consumer / 64] |= 1 << (consumer % 64);
                    last = last.max(consumer / 64);
                }
            }
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

    /// The composite value of `id` after the last implication (`X` outside
    /// the scope).
    pub fn value(&self, id: NodeId) -> V5 {
        self.values[id.index()]
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
        // G22 = NAND(G10, G16) sees the D with G16 unknown: a D-frontier gate
        let g22 = c17.find("G22").unwrap();
        assert_eq!(sim.value(g22), V5::X);
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
        assert!(c17.is_output(g22));
        assert_eq!(sim.value(g22), V5::D);
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
        // the D-frontier gate G22 = NAND(G10, G16) is itself an unknown
        // output: an X-path
        let g22 = c17.find("G22").unwrap();
        assert!(c17.is_output(g22));
        assert_eq!(sim.value(g22), V5::X);
        // G2=1, G3=0 make G11=1 and G16=0, which blocks G22 at 1
        sim.set_input(1, Some(true));
        sim.set_input(2, Some(false));
        sim.imply();
        assert_eq!(sim.value(g10), V5::D);
        assert_eq!(sim.value(g22), V5::One);
    }

    #[test]
    fn scope_is_the_fan_in_closure_of_its_roots() {
        let c17 = bist_netlist::iscas85::c17();
        let node = |name: &str| c17.find(name).unwrap();
        let full = FiveValueSim::new(&c17, None);
        assert!((0..c17.num_nodes()).all(|i| full.in_scope(NodeId::from_index(i))));
        let sim = FiveValueSim::scoped(&c17, None, [node("G16"), node("G10")]);
        let mut scope: Vec<&str> = (0..c17.num_nodes())
            .map(NodeId::from_index)
            .filter(|&id| sim.in_scope(id))
            .map(|id| c17.node(id).name())
            .collect();
        scope.sort_unstable();
        assert_eq!(scope, ["G1", "G10", "G11", "G16", "G2", "G3", "G6"]);
        // a scoped search implies fewer nodes for the same values
        let mut scoped = FiveValueSim::scoped(&c17, None, [node("G22")]);
        let mut full = FiveValueSim::new(&c17, None);
        for sim in [&mut scoped, &mut full] {
            for i in 0..5 {
                sim.set_input(i, Some(i % 2 == 0));
            }
            sim.imply();
            sim.set_input(1, Some(false));
            sim.imply_from_input(1);
        }
        assert_eq!(scoped.value(node("G22")), full.value(node("G22")));
        assert_eq!(scoped.value(node("G23")), V5::X);
        assert!(scoped.evaluations() < full.evaluations());
    }
}
