//! Flattened struct-of-arrays simulation view of a [`Circuit`].
//!
//! The pointer-rich [`Circuit`] representation (`Vec<Node>` with per-node
//! fan-in/fan-out vectors) is ideal for construction, validation and
//! name-based inspection — and hostile to the simulation hot loops, which
//! chase two pointers per edge. [`SimGraph`] is the same graph re-laid-out
//! for speed: compressed-sparse-row (CSR) adjacency — one contiguous index
//! array plus offsets per direction — and parallel per-node arrays for the
//! gate kind, logic level, topological position and output flag. Every
//! simulation engine in the workspace (packed good-machine simulation,
//! PPSFP cone propagation, the five-valued ATPG implication walk, the
//! sequential replay engine) reads this one layout, so a cache line fetched
//! for one consumer is warm for the next. The cone walks read a second
//! layout built from it, [`WalkView`]: the same graph renumbered by
//! topological position.
//!
//! The view is built once per circuit on first use and cached inside the
//! [`Circuit`] (see [`Circuit::sim_graph`]); it is a pure re-indexing of
//! the frozen netlist, so the two representations can never disagree.
//!
//! # Example
//!
//! ```
//! let c17 = bist_netlist::iscas85::c17();
//! let g = c17.sim_graph();
//! assert_eq!(g.num_nodes(), c17.num_nodes());
//! // CSR adjacency mirrors the legacy accessors exactly.
//! for id in 0..c17.num_nodes() {
//!     let node = c17.node(bist_netlist::NodeId::from_index(id));
//!     let csr: Vec<usize> = g.fanin(id).iter().map(|&f| f as usize).collect();
//!     let legacy: Vec<usize> = node.fanin().iter().map(|f| f.index()).collect();
//!     assert_eq!(csr, legacy);
//! }
//! ```

use std::sync::OnceLock;

use crate::circuit::Circuit;
use crate::gate::GateKind;

/// Flattened, cache-linear view of a [`Circuit`] for simulation hot loops.
///
/// All node references are dense `u32` indices (the same values as
/// [`NodeId::index`](crate::NodeId::index)); adjacency is CSR. Obtain via
/// [`Circuit::sim_graph`] — the view is built once and cached.
#[derive(Debug, Clone)]
pub struct SimGraph {
    kind: Vec<GateKind>,
    level: Vec<u32>,
    topo: Vec<u32>,
    topo_pos: Vec<u32>,
    is_output: Vec<bool>,
    fanin_off: Vec<u32>,
    fanin: Vec<u32>,
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
    /// Primary-input position per node (`u32::MAX` for non-inputs).
    input_pos: Vec<u32>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    num_levels: u32,
    /// Lazily built output distances (see [`SimGraph::po_distance`]).
    po_distance: OnceLock<Vec<u32>>,
    /// Lazily built fan-out-free-region links (see
    /// [`SimGraph::ffr_consumer`]).
    ffr_consumer: OnceLock<Vec<u32>>,
    /// Lazily built position-ordered view (see [`SimGraph::walk_view`]).
    walk_view: OnceLock<WalkView>,
}

impl SimGraph {
    /// Builds the flattened view of `circuit`. Prefer
    /// [`Circuit::sim_graph`], which builds once and caches.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.num_nodes();
        let mut kind = Vec::with_capacity(n);
        let mut fanin_off = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        fanin_off.push(0u32);
        for node in circuit.nodes() {
            kind.push(node.kind());
            fanin.extend(node.fanin().iter().map(|f| f.index() as u32));
            fanin_off.push(fanin.len() as u32);
        }

        let mut fanout_off = Vec::with_capacity(n + 1);
        let mut fanout = Vec::new();
        fanout_off.push(0u32);
        for id in 0..n {
            fanout.extend(
                circuit
                    .fanout(crate::NodeId::from_index(id))
                    .iter()
                    .map(|s| s.index() as u32),
            );
            fanout_off.push(fanout.len() as u32);
        }

        let topo: Vec<u32> = circuit
            .topo_order()
            .iter()
            .map(|id| id.index() as u32)
            .collect();
        let mut topo_pos = vec![0u32; n];
        for (pos, &id) in topo.iter().enumerate() {
            topo_pos[id as usize] = pos as u32;
        }

        let level: Vec<u32> = (0..n)
            .map(|id| circuit.level(crate::NodeId::from_index(id)))
            .collect();
        let num_levels = level.iter().copied().max().unwrap_or(0) + 1;

        let mut input_pos = vec![u32::MAX; n];
        for (pos, pi) in circuit.inputs().iter().enumerate() {
            input_pos[pi.index()] = pos as u32;
        }

        SimGraph {
            kind,
            level,
            topo,
            topo_pos,
            is_output: (0..n)
                .map(|id| circuit.is_output(crate::NodeId::from_index(id)))
                .collect(),
            fanin_off,
            fanin,
            fanout_off,
            fanout,
            input_pos,
            inputs: circuit.inputs().iter().map(|i| i.index() as u32).collect(),
            outputs: circuit.outputs().iter().map(|o| o.index() as u32).collect(),
            num_levels,
            po_distance: OnceLock::new(),
            ffr_consumer: OnceLock::new(),
            walk_view: OnceLock::new(),
        }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Gate kind of node `id`.
    #[inline]
    pub fn kind(&self, id: usize) -> GateKind {
        self.kind[id]
    }

    /// Logic level of node `id` (0 for sources).
    #[inline]
    pub fn level(&self, id: usize) -> u32 {
        self.level[id]
    }

    /// Number of distinct logic levels (`depth + 1`).
    #[inline]
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }

    /// Combinational topological order as dense indices (identical order to
    /// [`Circuit::topo_order`]).
    #[inline]
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// Position of node `id` in [`SimGraph::topo`].
    #[inline]
    pub fn topo_pos(&self, id: usize) -> u32 {
        self.topo_pos[id]
    }

    /// True if node `id` is a primary output.
    #[inline]
    pub fn is_output(&self, id: usize) -> bool {
        self.is_output[id]
    }

    /// Fan-in of node `id`, in pin order (CSR slice).
    #[inline]
    pub fn fanin(&self, id: usize) -> &[u32] {
        &self.fanin[self.fanin_off[id] as usize..self.fanin_off[id + 1] as usize]
    }

    /// Fan-out of node `id` (each consumer once per pin it uses).
    #[inline]
    pub fn fanout(&self, id: usize) -> &[u32] {
        &self.fanout[self.fanout_off[id] as usize..self.fanout_off[id + 1] as usize]
    }

    /// Primary inputs in declaration order, as dense indices.
    #[inline]
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Primary outputs in declaration order, as dense indices.
    #[inline]
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Position of node `id` in the primary-input list, or `None` if it is
    /// not an input. O(1) — replaces the linear scans name-oriented code
    /// does over [`Circuit::inputs`].
    #[inline]
    pub fn input_pos(&self, id: usize) -> Option<usize> {
        let pos = self.input_pos[id];
        (pos != u32::MAX).then_some(pos as usize)
    }

    /// Minimum number of gates from each node to any primary output
    /// (`u32::MAX` where no output is reachable) — PODEM's D-frontier
    /// heuristic. Built on first use by one reverse topological sweep and
    /// cached with the view.
    ///
    /// # Example
    ///
    /// ```
    /// let c17 = bist_netlist::iscas85::c17();
    /// let dist = c17.sim_graph().po_distance();
    /// let g22 = c17.find("G22").unwrap();
    /// let g10 = c17.find("G10").unwrap();
    /// assert_eq!(dist[g22.index()], 0); // an output
    /// assert_eq!(dist[g10.index()], 1); // G22 = NAND(G10, G16)
    /// ```
    pub fn po_distance(&self) -> &[u32] {
        self.po_distance.get_or_init(|| {
            let mut dist = vec![u32::MAX; self.num_nodes()];
            for &o in &self.outputs {
                dist[o as usize] = 0;
            }
            for &id in self.topo.iter().rev() {
                let d = dist[id as usize];
                if d == u32::MAX {
                    continue;
                }
                for &f in self.fanin(id as usize) {
                    dist[f as usize] = dist[f as usize].min(d + 1);
                }
            }
            dist
        })
    }

    /// Fan-out-free-region links: for each node, the one combinational
    /// gate it feeds, or `u32::MAX` where the node is a *stem*. A node is
    /// a region member when it is not a primary output and its fan-out
    /// list holds exactly one entry, a combinational gate; the list
    /// counts duplicate pins, so a node feeding `AND(a, a)` is a stem.
    /// Following the links from any node ends at its region's stem, and
    /// every path from a region member to the rest of the circuit runs
    /// along that chain. Built on first use and cached with the view.
    ///
    /// # Example
    ///
    /// ```
    /// let c17 = bist_netlist::iscas85::c17();
    /// let ffr = c17.sim_graph().ffr_consumer();
    /// let g1 = c17.find("G1").unwrap();
    /// let g3 = c17.find("G3").unwrap();
    /// let g10 = c17.find("G10").unwrap();
    /// assert_eq!(ffr[g1.index()], g10.index() as u32); // G10 = NAND(G1, G3)
    /// assert_eq!(ffr[g3.index()], u32::MAX); // G3 fans out to G10 and G11
    /// ```
    pub fn ffr_consumer(&self) -> &[u32] {
        self.ffr_consumer.get_or_init(|| {
            (0..self.num_nodes())
                .map(|id| match *self.fanout(id) {
                    [c] if !self.is_output[id] && self.kind[c as usize].is_combinational() => c,
                    _ => u32::MAX,
                })
                .collect()
        })
    }

    /// The graph renumbered by topological position ([`SimGraph::topo`],
    /// [`SimGraph::topo_pos`]), for event waves that drain a bitset of
    /// positions in ascending order. Built on first use and cached with
    /// the view.
    ///
    /// # Example
    ///
    /// ```
    /// let c17 = bist_netlist::iscas85::c17();
    /// let g = c17.sim_graph();
    /// let walk = g.walk_view();
    /// let g10 = c17.find("G10").unwrap().index();
    /// let pos = g.topo_pos(g10) as usize;
    /// // G10 = NAND(G1, G3): its fan-ins, by position, sit before it
    /// let fanin: Vec<usize> = walk.fanin(pos).iter().map(|&p| g.topo()[p as usize] as usize).collect();
    /// assert_eq!(fanin, [c17.find("G1").unwrap().index(), c17.find("G3").unwrap().index()]);
    /// assert!(walk.fanin(pos).iter().all(|&p| (p as usize) < pos));
    /// ```
    pub fn walk_view(&self) -> &WalkView {
        self.walk_view.get_or_init(|| WalkView::build(self))
    }

    /// Evaluates the combinational gate `id` bit-parallel, reading fan-in
    /// value words through `get`. Dispatches a specialized two-input fast
    /// path (the overwhelming majority of benchmark gates) before the
    /// generic fold; never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a source node (input / flip-flop).
    #[inline]
    pub fn eval_word(&self, id: usize, get: impl Fn(usize) -> u64) -> u64 {
        eval_word(self.kind[id], self.fanin(id), get)
    }

    /// Boolean counterpart of [`SimGraph::eval_word`] for the scalar
    /// engines; never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a source node (input / flip-flop).
    #[inline]
    pub fn eval_bool(&self, id: usize, get: impl Fn(usize) -> bool) -> bool {
        self.kind[id].eval_bool_iter(self.fanin(id).iter().map(|&f| get(f as usize)))
    }
}

/// A [`SimGraph`] renumbered by topological position: gate kind, output
/// flag, fan-in positions and combinational fan-out positions, each
/// indexed by position. Every consumer sits at a higher position than
/// its fan-ins, so a wave that marks consumers in a bitset and pops the
/// lowest pending position evaluates each reached node once, after all
/// of its fan-ins settled, and walks its value words in memory order.
/// Obtain via [`SimGraph::walk_view`]; map node ids with
/// [`SimGraph::topo_pos`] and back with [`SimGraph::topo`].
#[derive(Debug, Clone)]
pub struct WalkView {
    kind: Vec<GateKind>,
    is_output: Vec<bool>,
    fanin_off: Vec<u32>,
    fanin: Vec<u32>,
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
}

impl WalkView {
    fn build(g: &SimGraph) -> Self {
        let n = g.num_nodes();
        let pos = |id: u32| g.topo_pos[id as usize];
        let mut view = WalkView {
            kind: Vec::with_capacity(n),
            is_output: Vec::with_capacity(n),
            fanin_off: Vec::with_capacity(n + 1),
            fanin: Vec::with_capacity(g.fanin.len()),
            fanout_off: Vec::with_capacity(n + 1),
            fanout: Vec::with_capacity(g.fanout.len()),
        };
        view.fanin_off.push(0);
        view.fanout_off.push(0);
        for &id in &g.topo {
            let id = id as usize;
            view.kind.push(g.kind[id]);
            view.is_output.push(g.is_output[id]);
            view.fanin.extend(g.fanin(id).iter().map(|&f| pos(f)));
            view.fanin_off.push(view.fanin.len() as u32);
            view.fanout.extend(
                g.fanout(id)
                    .iter()
                    .filter(|&&c| g.kind[c as usize].is_combinational())
                    .map(|&c| pos(c)),
            );
            view.fanout_off.push(view.fanout.len() as u32);
        }
        view
    }

    /// True if the node at position `pos` is a primary output.
    #[inline]
    pub fn is_output(&self, pos: usize) -> bool {
        self.is_output[pos]
    }

    /// Fan-in positions of the node at `pos`, in pin order.
    #[inline]
    pub fn fanin(&self, pos: usize) -> &[u32] {
        &self.fanin[self.fanin_off[pos] as usize..self.fanin_off[pos + 1] as usize]
    }

    /// Positions of the combinational gates the node at `pos` feeds (each
    /// once per pin it drives); flip-flops are left out.
    #[inline]
    pub fn fanout(&self, pos: usize) -> &[u32] {
        &self.fanout[self.fanout_off[pos] as usize..self.fanout_off[pos + 1] as usize]
    }

    /// [`SimGraph::eval_word`] by position: evaluates the combinational
    /// gate at `pos`, reading fan-in value words by position through
    /// `get`.
    ///
    /// # Panics
    ///
    /// Panics if the node at `pos` is a source node (input / flip-flop).
    #[inline]
    pub fn eval_word(&self, pos: usize, get: impl Fn(usize) -> u64) -> u64 {
        eval_word(self.kind[pos], self.fanin(pos), get)
    }
}

/// Evaluates a `kind` gate over the value words `get` reads for `fanin`:
/// one- and two-input fast paths, then the generic fold.
#[inline]
fn eval_word(kind: GateKind, fanin: &[u32], get: impl Fn(usize) -> u64) -> u64 {
    match *fanin {
        [a] => kind.eval_word1(get(a as usize)),
        [a, b] => kind.eval_word2(get(a as usize), get(b as usize)),
        ref fanin => kind.eval_word_iter(fanin.iter().map(|&f| get(f as usize))),
    }
}

#[cfg(test)]
mod tests {
    use crate::{CircuitBuilder, GateKind, NodeId};

    fn sample() -> crate::Circuit {
        let mut b = CircuitBuilder::new("s");
        b.add_input("a").expect("fresh name");
        b.add_input("b").expect("fresh name");
        b.add_input("c").expect("fresh name");
        b.add_gate("n1", GateKind::Nand, &["a", "b"]).expect("gate");
        b.add_gate("n2", GateKind::Or, &["n1", "c", "a"])
            .expect("gate");
        b.add_gate("n3", GateKind::Not, &["n2"]).expect("gate");
        b.mark_output("n2").expect("exists");
        b.mark_output("n3").expect("exists");
        b.build().expect("valid")
    }

    #[test]
    fn csr_matches_legacy_adjacency() {
        let c = sample();
        let g = c.sim_graph();
        for id in 0..c.num_nodes() {
            let node = c.node(NodeId::from_index(id));
            let fi: Vec<usize> = g.fanin(id).iter().map(|&f| f as usize).collect();
            let legacy: Vec<usize> = node.fanin().iter().map(|f| f.index()).collect();
            assert_eq!(fi, legacy, "fanin of {id}");
            let fo: Vec<usize> = g.fanout(id).iter().map(|&f| f as usize).collect();
            let legacy: Vec<usize> = c
                .fanout(NodeId::from_index(id))
                .iter()
                .map(|f| f.index())
                .collect();
            assert_eq!(fo, legacy, "fanout of {id}");
            assert_eq!(g.kind(id), node.kind());
            assert_eq!(g.level(id), c.level(NodeId::from_index(id)));
            assert_eq!(g.is_output(id), c.is_output(NodeId::from_index(id)));
        }
        let topo: Vec<usize> = g.topo().iter().map(|&i| i as usize).collect();
        let legacy: Vec<usize> = c.topo_order().iter().map(|i| i.index()).collect();
        assert_eq!(topo, legacy);
        assert_eq!(g.num_levels(), c.depth() + 1);
    }

    #[test]
    fn input_positions_are_o1() {
        let c = sample();
        let g = c.sim_graph();
        for (pos, pi) in c.inputs().iter().enumerate() {
            assert_eq!(g.input_pos(pi.index()), Some(pos));
        }
        let n1 = c.find("n1").expect("exists");
        assert_eq!(g.input_pos(n1.index()), None);
    }

    #[test]
    fn eval_dispatch_agrees_with_eval_word() {
        let c = sample();
        let g = c.sim_graph();
        let vals: Vec<u64> = (0..c.num_nodes() as u64).map(|i| i * 0x9E37).collect();
        for id in 0..c.num_nodes() {
            let node = c.node(NodeId::from_index(id));
            if !node.kind().is_combinational() {
                continue;
            }
            let fanin: Vec<u64> = node.fanin().iter().map(|f| vals[f.index()]).collect();
            assert_eq!(
                g.eval_word(id, |f| vals[f]),
                node.kind().eval_word(&fanin),
                "node {id}"
            );
        }
    }

    #[test]
    fn walk_view_renumbers_by_topological_position() {
        let c = sample();
        let g = c.sim_graph();
        let walk = g.walk_view();
        let vals: Vec<u64> = (0..c.num_nodes() as u64).map(|i| i * 0x9E37).collect();
        for (pos, &id) in g.topo().iter().enumerate() {
            let id = id as usize;
            let at = |p: &u32| g.topo()[*p as usize] as usize;
            assert_eq!(
                walk.fanin(pos).iter().map(at).collect::<Vec<_>>(),
                g.fanin(id).iter().map(|&f| f as usize).collect::<Vec<_>>()
            );
            assert!(walk.fanin(pos).iter().all(|&p| (p as usize) < pos));
            let comb: Vec<usize> = g
                .fanout(id)
                .iter()
                .map(|&s| s as usize)
                .filter(|&s| g.kind(s).is_combinational())
                .collect();
            assert_eq!(walk.fanout(pos).iter().map(at).collect::<Vec<_>>(), comb);
            assert_eq!(walk.is_output(pos), g.is_output(id));
            if g.kind(id).is_combinational() {
                let by_pos = |p: usize| vals[g.topo()[p] as usize];
                assert_eq!(walk.eval_word(pos, by_pos), g.eval_word(id, |f| vals[f]));
            }
        }
    }

    #[test]
    fn ffr_links_follow_single_fanout_edges() {
        let c = sample();
        let g = c.sim_graph();
        let id = |name: &str| c.find(name).expect("exists").index();
        let ffr = g.ffr_consumer();
        assert_eq!(ffr[id("a")], u32::MAX, "a fans out to n1 and n2");
        assert_eq!(ffr[id("b")], id("n1") as u32);
        assert_eq!(ffr[id("c")], id("n2") as u32);
        assert_eq!(ffr[id("n1")], id("n2") as u32);
        assert_eq!(ffr[id("n2")], u32::MAX, "a primary output is a stem");
        assert_eq!(ffr[id("n3")], u32::MAX, "no fan-out at all");

        // a node feeding both pins of one gate is a stem
        let mut b = CircuitBuilder::new("twin");
        b.add_input("x").expect("fresh name");
        b.add_gate("y", GateKind::And, &["x", "x"]).expect("gate");
        b.mark_output("y").expect("exists");
        let twin = b.build().expect("valid");
        let x = twin.find("x").expect("exists").index();
        assert_eq!(twin.sim_graph().ffr_consumer()[x], u32::MAX);
    }

    #[test]
    fn cached_view_is_shared() {
        let c = sample();
        let a = c.sim_graph() as *const _;
        let b = c.sim_graph() as *const _;
        assert_eq!(a, b, "sim_graph must be built once and cached");
    }
}
