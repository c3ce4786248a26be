//! The word-parallel fault simulator, generic over the fault model.
//!
//! Every fault model in the workspace — stuck-at/stuck-open ([`Fault`],
//! the default), transition-delay (`bist-delay`), bridging
//! (`bist-bridging`) — grades the same way: simulate 64 patterns
//! bit-parallel through the good machine, inject one fault, re-evaluate
//! only its fan-out cone with the levelized bucket queue, and compare
//! primary outputs. [`FaultSim`] implements that loop once, generically
//! over a [`WordFault`]: the model contributes only its *seed* — the
//! faulty value word(s) at the injection site(s) — and the engine owns
//! everything else: the flattened [`SimGraph`] good machine, the
//! previous-pattern words and their carry across blocks (what two-pattern
//! models key launches on), the live-fault list with drop-on-detection,
//! per-worker cone scratches leased from a park, and the `bist-par`
//! sharding whose merge order makes results **bit-identical at every
//! thread count**.
//!
//! A model needing *two* injection sites (a bridging short drives both
//! shorted nodes to the resolved value) returns two seeds; the cone walk
//! then starts from the union of both fan-outs. Models with an
//! excitation-only detection criterion (Iddq for bridges) additionally
//! opt into per-fault excitation tracking, which the engine evaluates for
//! the *whole* universe each block — excitation is observable on already
//! voltage-detected faults too.

use std::sync::Mutex;

use bist_fault::{Fault, FaultStatus};
use bist_logicsim::{Pattern, PatternBlock};
use bist_netlist::{Circuit, GateKind, LevelQueue, SimGraph};
use bist_par::Pool;

/// Below this many live faults a block is graded serially even on a wide
/// pool: the per-block spawn cost would exceed the cone work. The cutoff
/// only moves work between identical code paths — results are the same on
/// either side of it.
const PAR_MIN_FAULTS: usize = 128;

/// Minimum live faults per worker before sharding a block pays: each
/// extra worker costs a scratch lease, a spawn and a share of the merge
/// barrier, so a shard thinner than this loses more to overhead than it
/// gains in parallel cone work. Together with [`PAR_MIN_FAULTS`] this
/// puts the serial/sharded crossover at `workers × 256` live faults
/// (see DESIGN.md §13). Like `PAR_MIN_FAULTS`, the cutoff only selects
/// between bit-identical code paths.
const PAR_MIN_FAULTS_PER_WORKER: usize = 256;

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
    /// Cone-propagation events: nodes drained from the levelized bucket
    /// queue across all faults and blocks.
    pub cone_events: u64,
}

/// The read-only context shared by every worker grading one pattern
/// block: the flattened circuit view, the good-machine and
/// previous-pattern value words, and the block's valid-lane mask.
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

    /// True when no site is seeded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

/// Per-worker cone-propagation scratch: faulty value words, visitation
/// stamps, and a levelized bucket queue ([`LevelQueue`]). Reused across
/// every fault a worker grades — after warm-up the cone walk allocates
/// nothing.
#[derive(Debug)]
struct ConeScratch {
    /// Faulty value word per node, valid where `stamp == epoch`.
    fval: Vec<u64>,
    /// Faulty-value validity stamp per node.
    stamp: Vec<u32>,
    epoch: u32,
    queue: LevelQueue,
    /// Nodes drained from the queue since the counter was last harvested.
    events: u64,
}

impl ConeScratch {
    fn new(graph: &SimGraph) -> Self {
        let n = graph.num_nodes();
        ConeScratch {
            fval: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
            queue: LevelQueue::new(graph),
            events: 0,
        }
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

impl BlockCtx<'_> {
    /// Injects `seeds` and propagates through the union of the seeded
    /// sites' fan-out cones with the levelized bucket queue; returns the
    /// mask of patterns detecting a difference at a primary output, or
    /// `None`.
    ///
    /// Draining buckets in ascending level order visits every reached
    /// node exactly once, after all of its fan-ins (which sit at strictly
    /// lower levels) are final — the same values, and therefore the same
    /// detection masks, as any other topological evaluation order. With
    /// two seeds the wave starts at the lower of the two levels; the
    /// other seed site is already stamped, so its fan-out reads the
    /// faulty value exactly as if it had been drained.
    fn try_detect(&self, scratch: &mut ConeScratch, seeds: Seeds) -> Option<u64> {
        let seeds = seeds.as_slice();
        let &(first, _) = seeds.first()?;
        let g = self.graph;

        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.stamp.fill(0);
            scratch.epoch = 1;
        }
        let epoch = scratch.epoch;

        let mut detect = 0u64;
        let mut min_level = g.level(first as usize);
        for &(site, seed) in seeds {
            let site = site as usize;
            scratch.fval[site] = seed;
            scratch.stamp[site] = epoch;
            if g.is_output(site) {
                detect |= (seed ^ self.good[site]) & self.valid;
            }
            min_level = min_level.min(g.level(site));
        }

        scratch.queue.begin(min_level);
        for &(site, _) in seeds {
            for &s in g.fanout(site as usize) {
                if g.kind(s as usize).is_combinational() {
                    scratch.queue.push(s, g.level(s as usize));
                }
            }
        }

        while let Some(bucket) = scratch.queue.take_bucket() {
            scratch.events += bucket.len() as u64;
            for &id in &bucket {
                let id = id as usize;
                let fv = g.eval_word(id, |f| {
                    if scratch.stamp[f] == epoch {
                        scratch.fval[f]
                    } else {
                        self.good[f]
                    }
                });
                if fv == self.good[id] {
                    continue; // fault effect died here
                }
                scratch.fval[id] = fv;
                scratch.stamp[id] = epoch;
                if g.is_output(id) {
                    detect |= (fv ^ self.good[id]) & self.valid;
                }
                for &s in g.fanout(id) {
                    if g.kind(s as usize).is_combinational() {
                        scratch.queue.push(s, g.level(s as usize));
                    }
                }
            }
            scratch.queue.restore(bucket);
        }
        (detect != 0).then_some(detect)
    }
}

/// The parallel-pattern single-fault-propagation simulator with fault
/// dropping, for any [`WordFault`] model — the paper's stuck-at +
/// stuck-open [`Fault`] universe by default. See the module docs for the
/// division of labour between the engine and a model.
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
    scratch: ConeScratch,
    /// Indices of still-undetected faults, maintained incrementally
    /// (swap-remove on detection). Rebuilt lazily after out-of-band status
    /// edits ([`FaultSim::set_status`] / [`FaultSim::reset`]).
    live: Vec<u32>,
    live_dirty: bool,
    /// Reused 64-pattern packing buffer (allocated on the first block).
    block_buf: Option<PatternBlock>,
    /// Parked per-worker scratches for the sharded path: workers lease one
    /// at block start and return it at the block barrier, so the warm
    /// buckets survive across blocks at every pool width.
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
            scratch: ConeScratch::new(graph),
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

    /// Re-creates a simulator mid-sequence from a carry checkpoint: the
    /// per-fault `statuses` and good-machine `carry` bits recorded after
    /// exactly `patterns_seen` patterns of some sequence (see
    /// [`FaultSim::carry_bits`]). Feeding the remainder of that sequence
    /// behaves exactly like one simulator that consumed it end to end,
    /// except that [`FaultSim::first_detection`] is only populated for
    /// faults detected *after* the resume point (earlier detections carry
    /// a status but no index), and excitation flags restart at the resume
    /// point too.
    ///
    /// # Panics
    ///
    /// Panics when `statuses` does not match the universe or `carry` does
    /// not match the circuit.
    pub fn resume(
        circuit: &'c Circuit,
        faults: impl IntoIterator<Item = F>,
        statuses: &[FaultStatus],
        carry: &[bool],
        patterns_seen: u32,
    ) -> Self {
        let mut sim = FaultSim::new(circuit, faults);
        assert_eq!(statuses.len(), sim.faults.len(), "status/universe mismatch");
        assert_eq!(carry.len(), circuit.num_nodes(), "carry/circuit mismatch");
        sim.status.copy_from_slice(statuses);
        sim.last_bits.copy_from_slice(carry);
        sim.patterns_seen = patterns_seen;
        sim
    }

    /// Sets the pool width for subsequent [`FaultSim::simulate`] calls
    /// (`0` = automatic: `BIST_THREADS` or the machine width). Grading
    /// results never depend on this knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::resolve(threads);
    }

    /// Builder form of [`FaultSim::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
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

    /// Number of patterns consumed so far.
    pub fn patterns_seen(&self) -> u32 {
        self.patterns_seen
    }

    /// The work performed so far (blocks, good-machine gate evaluations,
    /// cone events). Deterministic at every thread width.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// The good-machine node values after the last consumed pattern — the
    /// two-pattern carry. Together with [`FaultSim::statuses`] and
    /// [`FaultSim::patterns_seen`] this is a complete mid-sequence
    /// checkpoint for [`FaultSim::resume`].
    pub fn carry_bits(&self) -> &[bool] {
        &self.last_bits
    }

    /// Forgets all grading results and the sequence position.
    pub fn reset(&mut self) {
        self.status.fill(FaultStatus::Undetected);
        self.first_detection.fill(None);
        self.excited.fill(false);
        self.patterns_seen = 0;
        self.last_bits.fill(false);
        self.live_dirty = true;
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

    /// The faults that are still open (undetected or aborted), with their
    /// indices in the universe.
    pub fn open_faults(&self) -> Vec<(usize, F)> {
        self.faults
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.status[i].is_open())
            .map(|(i, &f)| (i, f))
            .collect()
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
                    .filter(|&fi| self.status[fi as usize] == FaultStatus::Undetected),
            );
            self.live_dirty = false;
        }

        let ctx = BlockCtx {
            graph: self.graph,
            good: &self.good,
            prev: &self.prev,
            valid,
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

        let mut newly = 0;
        let workers = self.pool.threads().min(self.hw_threads);
        let min_live = PAR_MIN_FAULTS.max(workers * PAR_MIN_FAULTS_PER_WORKER);
        if self.pool.is_serial() || workers <= 1 || self.live.len() < min_live {
            // inline path: one persistent scratch, exactly the historical
            // serial engine; detected faults are swap-removed from the live
            // list as they drop
            let mut i = 0;
            while i < self.live.len() {
                let fi = self.live[i];
                let fault = self.faults[fi as usize];
                if let Some(mask) = ctx.try_detect(&mut self.scratch, fault.seeds(&ctx)) {
                    self.status[fi as usize] = FaultStatus::Detected;
                    self.first_detection[fi as usize] = Some(seen + mask.trailing_zeros());
                    newly += 1;
                    self.live.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            self.counters.cone_events += std::mem::take(&mut self.scratch.events);
        } else {
            // sharded path: contiguous fault partitions, one private
            // scratch per worker — leased from the park so its warm
            // buckets survive the block barrier — detection masks merged
            // in fault order
            let graph = self.graph;
            let faults = &self.faults;
            let park = &self.scratch_park;
            let chunk = self
                .live
                .len()
                .div_ceil(workers * 4)
                .max(PAR_MIN_FAULTS / 4);
            let detected: Vec<(Vec<(u32, u64)>, u64)> = self.pool.par_chunks_init(
                &self.live,
                chunk,
                || ScratchLease::take(park, graph),
                |lease, _chunk_index, part| {
                    let scratch = lease.scratch();
                    let hits = part
                        .iter()
                        .filter_map(|&fi| {
                            let fault = faults[fi as usize];
                            ctx.try_detect(scratch, fault.seeds(&ctx))
                                .map(|mask| (fi, mask))
                        })
                        .collect();
                    (hits, std::mem::take(&mut scratch.events))
                },
            );
            for (hits, events) in detected {
                self.counters.cone_events += events;
                for (fi, mask) in hits {
                    self.status[fi as usize] = FaultStatus::Detected;
                    self.first_detection[fi as usize] = Some(seen + mask.trailing_zeros());
                    newly += 1;
                }
            }
            if newly > 0 {
                let status = &self.status;
                self.live
                    .retain(|&fi| status[fi as usize] == FaultStatus::Undetected);
            }
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
