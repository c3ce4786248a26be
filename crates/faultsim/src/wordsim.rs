//! The word-parallel fault simulator, generic over the fault model.
//!
//! Every fault model in the workspace — stuck-at/stuck-open ([`Fault`],
//! the default), transition-delay (`bist-delay`), bridging
//! (`bist-bridging`) — grades the same way: simulate 64 patterns
//! bit-parallel through the good machine, inject each live fault, and
//! compare primary outputs. [`FaultSim`] implements that loop once,
//! generically over a [`WordFault`]: the model contributes only its
//! *seed* — the faulty value word(s) at the injection site(s) — and the
//! engine owns everything else: the flattened [`SimGraph`] good machine,
//! the previous-pattern words and their carry across blocks (what
//! two-pattern models key launches on), the live-fault list with
//! drop-on-detection, per-worker cone scratches leased from a park, and
//! the `bist-par` sharding whose merge order makes results
//! **bit-identical at every thread count**.
//!
//! # Stem-region grading
//!
//! A single-site fault is graded through its fan-out-free region
//! ([`SimGraph::ffr_consumer`]) in three passes per block:
//!
//! 1. **Reach the stem.** The fault's difference lanes
//!    `d = (seed ^ good[site]) & valid` follow the region's one path from
//!    the site to its stem, AND-ed at each gate with the gate's
//!    side-input mask: the other inputs' good words for AND/NAND, their
//!    complements for OR/NOR, all ones for XOR/XNOR/NOT/BUF. The walk
//!    stops as soon as `d` is empty, so a fault with nothing excited
//!    costs nothing more. The surviving `d` is OR-ed into the stem's lane
//!    union.
//! 2. **One cone walk per stem.** Each stem some live fault reaches gets
//!    one cone walk, seeded with `good[stem] ^ union[stem]`:
//!    the stem flipped in exactly the lanes that reach it. The walk's
//!    detection mask is `obs[stem]`.
//! 3. **Masks.** A fault's detection mask is `d & obs[stem]`.
//!
//! This is exact. In a fan-out-free region the site has exactly one path
//! to the stem, so no side input on that path can depend on the site:
//! every side input carries its good value, and each gate on the path
//! passes a one-input difference exactly where its side inputs allow it.
//! The faulty machine therefore equals the good machine with the stem
//! flipped in the lanes of `d`. Lanes are independent bit positions, so
//! flipping the stem in the union's lanes gives, in each lane, the result
//! of flipping it alone — `d & obs[stem]` is the lane-wise Boolean
//! difference the fault's own cone walk would compute.
//!
//! A model needing *two* injection sites (a bridging short drives both
//! shorted nodes to the resolved value) returns two seeds and keeps a
//! cone walk of its own, started from the union of both fan-outs. Models
//! with an excitation-only detection criterion (Iddq for bridges)
//! additionally opt into per-fault excitation tracking, which the engine
//! evaluates for the *whole* universe each block — excitation is
//! observable on already voltage-detected faults too.
//!
//! Passes 1 and 3 cost a few word operations per fault and run inline;
//! only the cone walks of pass 2 shard across the pool. The walks fill
//! `obs` and nothing else, and every mask is formed per fault afterwards,
//! so the results cannot depend on the pool width.

use std::sync::Mutex;

use bist_fault::{Fault, FaultStatus};
use bist_logicsim::{Pattern, PatternBlock};
use bist_netlist::{Circuit, GateKind, SimGraph};
use bist_par::Pool;

#[cfg(test)]
mod reference;

/// Minimum cone walks per worker before a block's walks shard across the
/// pool: below `workers × 128` walks the per-block spawn and merge cost
/// about as much as the parallel cone work saves, so the walks run inline
/// on the simulator's own scratch. The crossover was measured with
/// `bench_par` (DESIGN.md §16). The cutoff only selects between
/// bit-identical code paths.
const PAR_MIN_WALKS_PER_WORKER: usize = 128;

/// Marks a node with no cone walk this block, and a fault with no walk to
/// read (nothing excited, or the difference died before the stem).
const NO_WALK: u32 = u32::MAX;

/// Monotonic work counters of one [`FaultSim`], exposed so throughput
/// benchmarks can report rates (and so reviews can assert the steady-state
/// block loop does the expected amount of work and nothing more). All
/// counts are deterministic — identical at every thread width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// 64-pattern blocks graded so far.
    pub blocks: u64,
    /// Gate evaluations performed by the good-machine simulation
    /// (combinational gates × blocks).
    pub good_gate_evals: u64,
    /// Cone-propagation events: nodes the cone walks evaluate — one walk
    /// per fan-out-free-region stem that some live fault reaches, plus one
    /// per two-seed fault, per block. Equivalent faults reach the same
    /// stem in the same lanes, so a collapsed universe walks exactly as
    /// much as the full one.
    pub cone_events: u64,
    /// Per-fault grading work: the live faults graded per block (seed
    /// words, the walk to the region's stem and the detection mask),
    /// summed over blocks. This is what a collapsed universe saves.
    pub fault_evals: u64,
}

/// The read-only context shared by every worker grading one pattern
/// block: the flattened circuit view, the good-machine and
/// previous-pattern value words, and the block's valid-lane mask.
/// The cone walks read the good words in topological-position order
/// ([`SimGraph::walk_view`]), gathered once per block.
///
/// Bit `j` of a value word is the node's value under pattern `j` of the
/// block; bit `j` of [`BlockCtx::prev`] is the value under pattern `j-1`
/// of the *sequence* (the carry supplies bit 0 from the previous block;
/// the very first pattern's predecessor is itself, which kills every
/// transition-style excitation).
#[derive(Clone, Copy)]
pub struct BlockCtx<'a> {
    /// The flattened circuit under test.
    pub graph: &'a SimGraph,
    /// Good-machine value word per node for this block.
    pub good: &'a [u64],
    /// Previous-pattern good value word per node.
    pub prev: &'a [u64],
    /// Mask of lanes carrying real patterns (a partial last block grades
    /// fewer than 64).
    pub valid: u64,
    /// `good` by topological position.
    good_pos: &'a [u64],
    /// The block's number within its simulator: a scratch whose faulty
    /// words hold another block's good words reloads them.
    block: u64,
}

/// The faulty seed(s) of one fault for one block: up to two injection
/// sites with their faulty value words. An empty seed set means the fault
/// cannot change anything in this block and the cone walk is skipped.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    sites: [(u32, u64); 2],
    len: u8,
}

impl Seeds {
    /// No injection this block.
    pub const NONE: Seeds = Seeds {
        sites: [(0, 0); 2],
        len: 0,
    };

    /// A single-site injection (stuck-at, open, transition).
    pub fn one(site: u32, value: u64) -> Self {
        Seeds {
            sites: [(site, value), (0, 0)],
            len: 1,
        }
    }

    /// A two-site injection (a bridge drives both shorted nodes).
    pub fn two(a: u32, a_value: u64, b: u32, b_value: u64) -> Self {
        Seeds {
            sites: [(a, a_value), (b, b_value)],
            len: 2,
        }
    }

    /// The populated `(site, value)` pairs.
    pub fn as_slice(&self) -> &[(u32, u64)] {
        &self.sites[..self.len as usize]
    }
}

/// One fault of a word-parallel model: the only thing a model contributes
/// to [`FaultSim`] is how to compute its faulty seed word(s) from the
/// block's good-machine values.
pub trait WordFault: Copy + Send + Sync {
    /// Whether the engine tracks per-fault excitation every block (the
    /// Iddq criterion of bridging faults). Costs one
    /// [`WordFault::excitation`] call per fault per block when enabled.
    const TRACKS_EXCITATION: bool = false;

    /// The faulty value word(s) at the injection site(s), or
    /// [`Seeds::NONE`] when the fault cannot change anything this block
    /// (not excited, or the faulty value equals the good one everywhere).
    fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds;

    /// Mask of valid lanes exciting the fault, for models with
    /// [`WordFault::TRACKS_EXCITATION`]. The default never excites.
    fn excitation(&self, _ctx: &BlockCtx<'_>) -> u64 {
        0
    }
}

/// Per-worker cone-propagation scratch: faulty value words by topological
/// position, the wave's pending positions and the positions a walk
/// wrote. Reused across every walk a worker runs — after warm-up a cone
/// walk allocates nothing.
#[derive(Debug)]
struct ConeScratch {
    /// Faulty value word per position; outside a walk, the good word of
    /// block [`ConeScratch::block`].
    fval: Vec<u64>,
    /// The block whose good words `fval` holds (`u64::MAX`: none yet).
    block: u64,
    /// Pending positions of the running wave, one bit each; all clear
    /// between walks.
    pending: Vec<u64>,
    /// Positions the running walk wrote, restored when it ends.
    touched: Vec<u32>,
    /// Nodes evaluated since the counter was last harvested.
    events: u64,
}

impl ConeScratch {
    fn new(graph: &SimGraph) -> Self {
        let n = graph.num_nodes();
        ConeScratch {
            fval: vec![0; n],
            block: u64::MAX,
            pending: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
            events: 0,
        }
    }

    /// Marks position `pos` pending; returns its word.
    #[inline]
    fn mark(&mut self, pos: u32) -> usize {
        let word = pos as usize / 64;
        self.pending[word] |= 1 << (pos % 64);
        word
    }
}

/// A worker's block-scoped loan of a [`ConeScratch`] from the simulator's
/// park: taken at worker start-up, handed back on drop at the block
/// barrier. Steady-state blocks therefore reuse warm scratches instead of
/// allocating fresh ones per block.
struct ScratchLease<'p> {
    scratch: Option<ConeScratch>,
    park: &'p Mutex<Vec<ConeScratch>>,
}

impl<'p> ScratchLease<'p> {
    fn take(park: &'p Mutex<Vec<ConeScratch>>, graph: &SimGraph) -> Self {
        let parked = park.lock().expect("scratch park poisoned").pop();
        ScratchLease {
            scratch: Some(parked.unwrap_or_else(|| ConeScratch::new(graph))),
            park,
        }
    }

    fn scratch(&mut self) -> &mut ConeScratch {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.park
                .lock()
                .expect("scratch park poisoned")
                .push(scratch);
        }
    }
}

/// A still-undetected fault and, for the block being graded, the lanes
/// its effect delivers to the seed of its cone walk.
#[derive(Debug, Clone, Copy)]
struct Live {
    fault: u32,
    /// Index of the fault's walk this block, or [`NO_WALK`].
    walk: u32,
    lanes: u64,
}

/// The block's cone walks, kept in the simulator so a steady-state block
/// allocates nothing.
#[derive(Debug)]
struct Walks {
    /// Per node: the index of its stem walk this block, or [`NO_WALK`].
    /// Reset for every walked stem by [`Walks::seal`].
    of_stem: Vec<u32>,
    /// The cone walks: one per reached stem, one per two-seed fault. Until
    /// [`Walks::seal`], a stem walk's seed word holds its lane union.
    seeds: Vec<Seeds>,
    /// Per walk: its detection mask (`obs`), filled by pass 2.
    obs: Vec<u64>,
}

impl Walks {
    /// Sized for one walk per stem of `ffr`, the most a block of
    /// single-seed faults can open, so the walk list never regrows.
    fn new(ffr: &[u32]) -> Self {
        let stems = ffr.iter().filter(|&&gate| gate == NO_WALK).count();
        Walks {
            of_stem: vec![NO_WALK; ffr.len()],
            seeds: Vec::with_capacity(stems),
            obs: Vec::with_capacity(stems),
        }
    }

    /// ORs `lanes` into `stem`'s lane union, opening its walk on first
    /// reach; returns the walk's index.
    fn reach(&mut self, stem: u32, lanes: u64) -> u32 {
        let mut walk = self.of_stem[stem as usize];
        if walk == NO_WALK {
            walk = self.push(Seeds::one(stem, 0));
            self.of_stem[stem as usize] = walk;
        }
        self.seeds[walk as usize].sites[0].1 |= lanes;
        walk
    }

    /// Adds a walk of its own for a two-seed fault; returns its index.
    fn push(&mut self, seeds: Seeds) -> u32 {
        self.seeds.push(seeds);
        (self.seeds.len() - 1) as u32
    }

    /// Ends pass 1: each stem walk flips its stem in exactly the lanes of
    /// its union.
    fn seal(&mut self, good: &[u64]) {
        for seeds in &mut self.seeds {
            if let [(stem, union)] = *seeds.as_slice() {
                *seeds = Seeds::one(stem, good[stem as usize] ^ union);
                self.of_stem[stem as usize] = NO_WALK;
            }
        }
    }
}

impl BlockCtx<'_> {
    /// Follows the fan-out-free region from `site`, whose faulty word is
    /// `value`, towards its stem; returns the lanes whose difference
    /// reaches the stem and the stem. Stops early, with no lanes, where
    /// the difference dies on the path.
    fn reach_stem(&self, ffr: &[u32], site: u32, value: u64) -> (u64, u32) {
        let mut lanes = (value ^ self.good[site as usize]) & self.valid;
        let mut node = site;
        while lanes != 0 {
            let gate = ffr[node as usize];
            if gate == NO_WALK {
                break;
            }
            lanes &= self.side_mask(gate as usize, node);
            node = gate;
        }
        (lanes, node)
    }

    /// Lanes where `gate` passes a difference on its input `from`: its
    /// other inputs hold the non-controlling value (AND/NAND, OR/NOR), or
    /// always (XOR/XNOR/NOT/BUF). `from` feeds `gate` on exactly one pin.
    fn side_mask(&self, gate: usize, from: u32) -> u64 {
        let g = self.graph;
        let Some(controlling) = g.kind(gate).controlling_value() else {
            return !0;
        };
        let flip = if controlling { !0 } else { 0 };
        g.fanin(gate)
            .iter()
            .filter(|&&f| f != from)
            .fold(!0, |mask, &f| mask & (self.good[f as usize] ^ flip))
    }

    /// Injects `seeds` and propagates through the union of the seeded
    /// sites' fan-out cones; returns the mask of valid patterns detecting
    /// a difference at a primary output (`0` when none does).
    ///
    /// The walk is an event wave over topological positions
    /// ([`SimGraph::walk_view`]): a node whose faulty word differs from
    /// its good word marks its combinational consumers in a bitset, and
    /// the wave pops the lowest pending position until none is left.
    /// Every consumer sits above its fan-ins, so each mark lands above the
    /// position being popped, and each reached node is evaluated once,
    /// after all of its fan-ins are final — the values, and therefore the
    /// detection masks, of any other topological order. The scratch's
    /// faulty words equal the good ones outside a walk, so a fan-in is
    /// read without asking whether the walk reached it; the walk lists
    /// the positions it writes and restores them at the end. With two
    /// seeds, a seed site the other seed reaches is evaluated like any
    /// node and keeps its seed where the evaluation gives the good word.
    fn detect(&self, scratch: &mut ConeScratch, seeds: Seeds) -> u64 {
        let seeds = seeds.as_slice();
        if seeds.is_empty() {
            return 0;
        }
        let g = self.graph;
        let walk = g.walk_view();
        let good = self.good_pos;
        if scratch.block != self.block {
            scratch.fval.copy_from_slice(good);
            scratch.block = self.block;
        }

        let mut detect = 0u64;
        let (mut word, mut last) = (usize::MAX, 0);
        for &(site, seed) in seeds {
            let pos = g.topo_pos(site as usize) as usize;
            scratch.fval[pos] = seed;
            scratch.touched.push(pos as u32);
            if walk.is_output(pos) {
                detect |= (seed ^ good[pos]) & self.valid;
            }
            for &c in walk.fanout(pos) {
                let w = scratch.mark(c);
                word = word.min(w);
                last = last.max(w);
            }
        }

        while word <= last {
            let bits = scratch.pending[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            scratch.pending[word] = bits & (bits - 1);
            let pos = word * 64 + bits.trailing_zeros() as usize;
            scratch.events += 1;
            let fv = walk.eval_word(pos, |f| scratch.fval[f]);
            if fv == good[pos] {
                continue; // fault effect died here
            }
            scratch.fval[pos] = fv;
            scratch.touched.push(pos as u32);
            if walk.is_output(pos) {
                detect |= (fv ^ good[pos]) & self.valid;
            }
            for &c in walk.fanout(pos) {
                last = last.max(scratch.mark(c));
            }
        }

        for &pos in &scratch.touched {
            scratch.fval[pos as usize] = good[pos as usize];
        }
        scratch.touched.clear();
        detect
    }
}

/// The parallel-pattern single-fault-propagation simulator with fault
/// dropping, for any [`WordFault`] model — the paper's stuck-at +
/// stuck-open [`Fault`] universe by default. See the module docs for the
/// division of labour between the engine and a model, and for the
/// stem-region grading every single-site fault goes through.
///
/// Create one per (circuit, fault universe) pair, feed it patterns with
/// [`FaultSim::simulate`] — in one call or incrementally; the engine keeps
/// the sequence position and the previous pattern, so two-pattern
/// launches (stuck-open pairs, transition launches) spanning call
/// boundaries are honoured — then read results via [`FaultSim::report`],
/// [`FaultSim::status_of`] and [`FaultSim::first_detection`].
#[derive(Debug)]
pub struct FaultSim<'c, F = Fault> {
    circuit: &'c Circuit,
    graph: &'c SimGraph,
    /// The circuit's fan-out-free-region links
    /// ([`SimGraph::ffr_consumer`]).
    ffr: &'c [u32],
    faults: Vec<F>,
    status: Vec<FaultStatus>,
    /// Global index of the first pattern that detected each fault.
    first_detection: Vec<Option<u32>>,
    /// Any-pattern excitation flag per fault (only maintained for models
    /// with [`WordFault::TRACKS_EXCITATION`]).
    excited: Vec<bool>,
    /// Patterns consumed so far (across all `simulate` calls).
    patterns_seen: u32,
    /// Good-machine value of every node for the last pattern of the
    /// previous block (the two-pattern carry).
    last_bits: Vec<bool>,
    // --- scratch buffers, reused across blocks ---
    good: Vec<u64>,
    prev: Vec<u64>,
    /// `good` by topological position.
    good_pos: Vec<u64>,
    scratch: ConeScratch,
    walks: Walks,
    /// The still-undetected faults, in ascending order, maintained
    /// incrementally (filtered on detection). Rebuilt lazily after
    /// out-of-band status edits ([`FaultSim::set_status`]).
    live: Vec<Live>,
    live_dirty: bool,
    /// Reused 64-pattern packing buffer (allocated on the first block).
    block_buf: Option<PatternBlock>,
    /// Parked per-worker scratches for the sharded walks: workers lease
    /// one at block start and return it at the block barrier, so warm
    /// scratches survive across blocks at every pool width.
    scratch_park: Mutex<Vec<ConeScratch>>,
    /// Number of combinational gates — the good-sim work per block.
    comb_gates: u64,
    counters: SimCounters,
    pool: Pool,
    /// Hardware thread count, cached at construction: a pool wider than
    /// the machine only adds scheduling overhead, so the sharding
    /// decision clamps the worker count here (`BIST_THREADS` above the
    /// core count still grades correctly, just without phantom workers).
    hw_threads: usize,
}

impl<'c, F: WordFault> FaultSim<'c, F> {
    /// Creates a simulator grading `faults` on `circuit`, with the pool
    /// width taken from `BIST_THREADS` / the machine.
    pub fn new(circuit: &'c Circuit, faults: impl IntoIterator<Item = F>) -> Self {
        let faults: Vec<F> = faults.into_iter().collect();
        let graph = circuit.sim_graph();
        let n = circuit.num_nodes();
        let len = faults.len();
        let comb_gates = (0..n).filter(|&i| graph.kind(i).is_combinational()).count() as u64;
        FaultSim {
            circuit,
            graph,
            ffr: graph.ffr_consumer(),
            faults,
            status: vec![FaultStatus::Undetected; len],
            first_detection: vec![None; len],
            excited: if F::TRACKS_EXCITATION {
                vec![false; len]
            } else {
                Vec::new()
            },
            patterns_seen: 0,
            last_bits: vec![false; n],
            good: vec![0; n],
            prev: vec![0; n],
            good_pos: vec![0; n],
            scratch: ConeScratch::new(graph),
            walks: Walks::new(graph.ffr_consumer()),
            live: Vec::with_capacity(len),
            live_dirty: true,
            block_buf: None,
            scratch_park: Mutex::new(Vec::new()),
            comb_gates,
            counters: SimCounters::default(),
            pool: Pool::from_env(),
            hw_threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// Pretends the machine has `n` hardware threads, so the sharded
    /// path stays testable on boxes narrower than the test's pool.
    #[cfg(test)]
    pub(crate) fn set_hw_threads(&mut self, n: usize) {
        self.hw_threads = n.max(1);
    }

    /// Sets the pool width for [`FaultSim::simulate`] (`0` = automatic:
    /// `BIST_THREADS` or the machine width). Grading results never depend
    /// on this knob.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Pool::resolve(threads);
        self
    }

    /// The pool width grading currently uses.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The fault universe being graded.
    pub fn faults(&self) -> &[F] {
        &self.faults
    }

    /// Status of fault `index`.
    pub fn status_of(&self, index: usize) -> FaultStatus {
        self.status[index]
    }

    /// All statuses, parallel to [`FaultSim::faults`].
    pub fn statuses(&self) -> &[FaultStatus] {
        &self.status
    }

    /// Overrides the status of fault `index` (ATPG flows use this to mark
    /// redundant or aborted faults).
    pub fn set_status(&mut self, index: usize, status: FaultStatus) {
        self.status[index] = status;
        self.live_dirty = true;
    }

    /// Global index (0-based position in the full sequence fed so far) of
    /// the first pattern that detected fault `index`.
    pub fn first_detection(&self, index: usize) -> Option<u32> {
        self.first_detection[index]
    }

    /// True if some pattern so far excited fault `index` — always `false`
    /// for models without [`WordFault::TRACKS_EXCITATION`].
    pub fn excited(&self, index: usize) -> bool {
        self.excited.get(index).copied().unwrap_or(false)
    }

    /// Number of faults excited so far (see [`FaultSim::excited`]).
    pub fn excited_count(&self) -> usize {
        self.excited.iter().filter(|&&e| e).count()
    }

    /// Excited share of the universe, % — the Iddq coverage of a bridging
    /// universe; `0.0` for an empty universe or a model without
    /// [`WordFault::TRACKS_EXCITATION`].
    pub fn excited_pct(&self) -> f64 {
        if self.faults.is_empty() {
            return 0.0;
        }
        100.0 * self.excited_count() as f64 / self.faults.len() as f64
    }

    /// The work performed so far (blocks, good-machine gate evaluations,
    /// cone events, fault evaluations). Deterministic at every thread
    /// width.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Grades `patterns` (in order, continuing any previously fed
    /// sequence). Returns the number of newly detected faults.
    pub fn simulate(&mut self, patterns: &[Pattern]) -> usize {
        let mut newly = 0;
        let mut buf = self.block_buf.take();
        for chunk in patterns.chunks(64) {
            match buf.as_mut() {
                Some(block) => block.pack_into(self.circuit, chunk),
                None => buf = Some(PatternBlock::pack(self.circuit, chunk)),
            }
            let block = buf.as_ref().expect("packed above");
            newly += self.simulate_block(block);
        }
        self.block_buf = buf;
        newly
    }

    /// Coverage summary over the whole universe.
    pub fn report(&self) -> crate::CoverageReport {
        crate::CoverageReport::from_statuses(&self.status)
    }

    fn simulate_block(&mut self, block: &PatternBlock) -> usize {
        let valid = block.valid_mask();
        self.good_simulate(block);
        // previous-pattern words: bit j of prev = bit j-1 of good, with the
        // carry from the previous block in bit 0
        let first_ever = self.patterns_seen == 0;
        for (i, g) in self.good.iter().enumerate() {
            let carry = if first_ever {
                g & 1 // pattern 0 has no predecessor: prev := self (kills excitation)
            } else {
                u64::from(self.last_bits[i])
            };
            self.prev[i] = (g << 1) | carry;
        }
        // stash the carry for the next block
        let last = block.count() - 1;
        for (i, g) in self.good.iter().enumerate() {
            self.last_bits[i] = (g >> last) & 1 == 1;
        }

        if self.live_dirty {
            self.live.clear();
            self.live.extend(
                (0..self.faults.len() as u32)
                    .filter(|&fi| self.status[fi as usize] == FaultStatus::Undetected)
                    .map(|fault| Live {
                        fault,
                        walk: NO_WALK,
                        lanes: 0,
                    }),
            );
            self.live_dirty = false;
        }

        for (word, &id) in self.good_pos.iter_mut().zip(self.graph.topo()) {
            *word = self.good[id as usize];
        }
        let ctx = BlockCtx {
            graph: self.graph,
            good: &self.good,
            prev: &self.prev,
            valid,
            good_pos: &self.good_pos,
            block: self.counters.blocks,
        };
        let seen = self.patterns_seen;

        // excitation is observable regardless of (earlier) detection, so
        // the tracking pass runs over the whole universe, not the live list
        if F::TRACKS_EXCITATION {
            for (fi, fault) in self.faults.iter().enumerate() {
                if !self.excited[fi] && fault.excitation(&ctx) != 0 {
                    self.excited[fi] = true;
                }
            }
        }

        // pass 1: each live fault's lanes to its stem walk (or its own
        // walk, for two seeds)
        let walks = &mut self.walks;
        walks.seeds.clear();
        for live in &mut self.live {
            let seeds = self.faults[live.fault as usize].seeds(&ctx);
            (live.lanes, live.walk) = match *seeds.as_slice() {
                [] => (0, NO_WALK),
                [(site, value)] => match ctx.reach_stem(self.ffr, site, value) {
                    (0, _) => (0, NO_WALK),
                    (lanes, stem) => (lanes, walks.reach(stem, lanes)),
                },
                _ => (!0, walks.push(seeds)),
            };
        }
        walks.seal(ctx.good);

        // pass 2: one cone walk each, sharded in contiguous chunks when
        // there are enough of them; each worker leases a private scratch
        // from the park, and the masks merge in walk order
        walks.obs.clear();
        let workers = self.pool.threads().min(self.hw_threads);
        if workers > 1 && walks.seeds.len() >= workers * PAR_MIN_WALKS_PER_WORKER {
            let graph = self.graph;
            let park = &self.scratch_park;
            let chunk = walks.seeds.len().div_ceil(workers * 4);
            let shards: Vec<(Vec<u64>, u64)> = self.pool.par_chunks_init(
                &walks.seeds,
                chunk,
                || ScratchLease::take(park, graph),
                |lease, _chunk_index, part| {
                    let scratch = lease.scratch();
                    let obs = part.iter().map(|&s| ctx.detect(scratch, s)).collect();
                    (obs, std::mem::take(&mut scratch.events))
                },
            );
            for (obs, events) in shards {
                walks.obs.extend(obs);
                self.counters.cone_events += events;
            }
        } else {
            let scratch = &mut self.scratch;
            walks
                .obs
                .extend(walks.seeds.iter().map(|&s| ctx.detect(scratch, s)));
            self.counters.cone_events += std::mem::take(&mut scratch.events);
        }

        // pass 3: each fault's detection mask, in fault order
        let mut newly = 0;
        for live in &self.live {
            let Some(&obs) = walks.obs.get(live.walk as usize) else {
                continue;
            };
            let mask = live.lanes & obs;
            if mask != 0 {
                let fi = live.fault as usize;
                self.status[fi] = FaultStatus::Detected;
                self.first_detection[fi] = Some(seen + mask.trailing_zeros());
                newly += 1;
            }
        }
        self.counters.fault_evals += self.live.len() as u64;
        if newly > 0 {
            let status = &self.status;
            self.live
                .retain(|live| status[live.fault as usize] == FaultStatus::Undetected);
        }
        self.patterns_seen += block.count() as u32;
        self.counters.blocks += 1;
        self.counters.good_gate_evals += self.comb_gates;
        newly
    }

    fn good_simulate(&mut self, block: &PatternBlock) {
        let g = self.graph;
        for (i, &pi) in g.inputs().iter().enumerate() {
            self.good[pi as usize] = block.input_word(i);
        }
        for &id in g.topo() {
            let id = id as usize;
            match g.kind(id) {
                GateKind::Input => {}
                GateKind::Dff => self.good[id] = 0,
                _ => {
                    let v = g.eval_word(id, |f| self.good[f]);
                    self.good[id] = v;
                }
            }
        }
    }
}
