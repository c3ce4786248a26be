use bist_fault::{Fault, FaultList, FaultStatus};
use bist_faultsim::{CoverageReport, FaultSim, WordFault};
use bist_logicsim::{InjectedFault, Pattern};
use bist_netlist::{Circuit, NodeId};
use bist_par::Pool;

use crate::cache::{stable_fill_seed, CachedGen, CubeCache, RawSearch};
use crate::cube::TestCube;
use crate::podem::{fill_cube, justify_cube, podem_cube, CubeOutcome, PodemOptions};

/// One justification requirement: drive `node` to the given good value.
type NodeReq = (NodeId, bool);

/// Options for the full ATPG flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AtpgOptions {
    /// Search limits handed to every PODEM call.
    pub podem: PodemOptions,
    /// Skip reverse-order compaction (compaction is on by default).
    pub no_compaction: bool,
    /// Pool width for batched target generation (`0` = automatic:
    /// `BIST_THREADS` or the machine width). The emitted sequence is
    /// bit-identical at every width; `1` runs the historical serial loop.
    pub threads: usize,
}

/// One entry of a deterministic test sequence: a single pattern for a
/// stuck-at target, or an ordered *(initialization, transition)* pair for a
/// stuck-open target. Units are atomic — compaction never splits a pair,
/// preserving the order attribute the LFSROM relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestUnit {
    /// The patterns, in application order (length 1 or 2).
    pub patterns: Vec<Pattern>,
    /// The pre-fill test cubes, parallel to `patterns`: the input bits the
    /// PODEM search actually required, everything else don't-care. Seed
    /// encoders (LFSR reseeding) consume these instead of the filled
    /// patterns.
    pub cubes: Vec<TestCube>,
    /// The fault this unit was generated for.
    pub target: Fault,
}

/// Outcome of a [`TestGenerator`] run.
#[derive(Debug, Clone)]
pub struct AtpgRun {
    /// The deterministic test units, in application order.
    pub units: Vec<TestUnit>,
    /// Coverage of the emitted sequence over the input fault universe.
    pub report: CoverageReport,
    /// Final status of every fault, parallel to the input universe.
    pub statuses: Vec<FaultStatus>,
    /// Number of PODEM searches performed (including justifications).
    pub atpg_calls: usize,
}

impl AtpgRun {
    /// The flat ordered pattern sequence (units concatenated).
    pub fn sequence(&self) -> Vec<Pattern> {
        self.units
            .iter()
            .flat_map(|u| u.patterns.iter().cloned())
            .collect()
    }

    /// Number of patterns in the flat sequence.
    pub fn num_patterns(&self) -> usize {
        self.units.iter().map(|u| u.patterns.len()).sum()
    }
}

/// The deterministic test generation flow: PODEM per open fault, pattern
/// pairs for stuck-open faults, collateral fault dropping by PPSFP
/// simulation, redundancy bookkeeping and reverse-order compaction.
///
/// This is the reproduction's stand-in for the paper's System Hilo runs —
/// both for the full deterministic test sets of Table 1/Figure 6 and for
/// the top-up sequences of the mixed scheme (Table 2/Figures 5/7/8).
#[derive(Debug)]
pub struct TestGenerator<'c> {
    circuit: &'c Circuit,
    faults: FaultList,
    options: AtpgOptions,
}

impl<'c> TestGenerator<'c> {
    /// Creates a generator targeting `faults` on `circuit`.
    pub fn new(circuit: &'c Circuit, faults: FaultList, options: AtpgOptions) -> Self {
        TestGenerator {
            circuit,
            faults,
            options,
        }
    }

    /// Runs the full flow and returns the ordered deterministic sequence
    /// with its coverage report.
    pub fn run(self) -> AtpgRun {
        self.run_with_cache(&mut CubeCache::new())
    }

    /// [`TestGenerator::run`] backed by a search cache carried across
    /// runs on the same circuit (see [`CubeCache`]). Cached answers are
    /// memoized pure-function results, so the emitted sequence is
    /// bit-identical to a cold [`TestGenerator::run`].
    ///
    /// Targets are generated in speculative batches sharded across the
    /// pool (`options.threads`): up to `2 × threads` still-open faults
    /// have their searches run concurrently, then the batch is *replayed*
    /// serially in fault order — a speculative result whose target was
    /// meanwhile dropped by an earlier unit's collateral detection is
    /// discarded (and kept in the cache), so the unit list, statuses,
    /// `atpg_calls` and the cache's hit and miss counts match the serial
    /// engine exactly.
    pub fn run_with_cache(self, cache: &mut CubeCache) -> AtpgRun {
        let TestGenerator {
            circuit,
            faults,
            options,
        } = self;
        let pool = Pool::resolve(options.threads);
        let batch_cap = if pool.is_serial() {
            1
        } else {
            pool.threads() * 2
        };
        let mut session = FaultSim::new(circuit, faults.clone()).with_threads(options.threads);
        let mut units: Vec<TestUnit> = Vec::new();
        let mut atpg_calls = 0usize;

        let mut next = 0usize;
        while next < faults.len() {
            // the next batch of currently-open targets
            let mut batch: Vec<usize> = Vec::new();
            while next < faults.len() && batch.len() < batch_cap {
                if session.status_of(next) == FaultStatus::Undetected {
                    batch.push(next);
                }
                next += 1;
            }
            if batch.is_empty() {
                continue;
            }

            // run the missing searches, concurrently across the batch.
            // Searches run at the *raw* level (seed-independent, keyed by
            // the deterministic target rather than the consuming fault),
            // so batch members whose targets coincide — every series-open
            // with its gate's rise- or fall-open, stuck-open `v2`s with
            // stem stuck-ats — pay for one search between them, and each
            // consumer re-fills the shared cube with its own seed.
            let misses: Vec<(usize, Fault)> = batch
                .iter()
                .map(|&fi| (fi, *faults.get(fi).expect("index in range")))
                .filter(|(_, fault)| !cache.contains(*fault, target_options(options, fault)))
                .collect();

            // phase 1: the detect search every miss starts with (for a
            // stuck-open, its v2 transition target)
            let mut pending: Vec<(InjectedFault, PodemOptions)> = Vec::new();
            for &(_, fault) in &misses {
                let opts = target_options(options, &fault);
                let target = detect_target(circuit, &fault);
                if cache.raw_detect(target, opts.backtrack_limit).is_none()
                    && !pending.iter().any(|&(t, _)| t == target)
                {
                    pending.push((target, opts));
                }
            }
            let raws = pool.par_map(&pending, |&(target, opts)| {
                match podem_cube(circuit, target, opts) {
                    CubeOutcome::Test { cube, .. } => RawSearch::Test { cube },
                    CubeOutcome::Redundant => RawSearch::Redundant,
                    CubeOutcome::Aborted => RawSearch::Aborted,
                }
            });
            for ((target, opts), raw) in pending.into_iter().zip(raws) {
                cache.insert_raw_detect(target, opts.backtrack_limit, raw);
            }

            // phase 2: v1 justification for stuck-opens whose v2 search
            // produced a test (the only case the serial flow justifies)
            let mut pending: Vec<(Vec<NodeReq>, PodemOptions)> = Vec::new();
            for &(_, fault) in &misses {
                if matches!(fault, Fault::StuckAt { .. }) {
                    continue;
                }
                let opts = target_options(options, &fault);
                let (v2_target, v1_reqs) = open_fault_targets(circuit, fault);
                if !matches!(
                    cache.raw_detect(v2_target, opts.backtrack_limit),
                    Some(RawSearch::Test { .. })
                ) {
                    continue;
                }
                if cache.raw_justify(&v1_reqs, opts.backtrack_limit).is_none()
                    && !pending.iter().any(|(r, _)| *r == v1_reqs)
                {
                    pending.push((v1_reqs, opts));
                }
            }
            let raws = pool.par_map(&pending, |(reqs, opts)| {
                match justify_cube(circuit, reqs, *opts) {
                    CubeOutcome::Test { cube, .. } => RawSearch::Test { cube },
                    CubeOutcome::Redundant => RawSearch::Redundant,
                    CubeOutcome::Aborted => RawSearch::Aborted,
                }
            });
            for ((reqs, opts), raw) in pending.into_iter().zip(raws) {
                cache.insert_raw_justify(reqs, opts.backtrack_limit, raw);
            }

            // assemble each miss's per-fault outcome from the raw results
            for (_, fault) in misses {
                let generated = assemble(circuit, cache, options, &fault);
                cache.insert(fault, target_options(options, &fault), generated);
            }

            // deterministic replay in fault order: exactly the serial flow,
            // with every search answered from the (now warm) cache — and
            // counted as a hit only where the serial flow would reuse it
            for fi in batch {
                if session.status_of(fi) != FaultStatus::Undetected {
                    continue; // dropped by an earlier unit of this batch
                }
                let fault = *faults.get(fi).expect("index in range");
                let generated = cache
                    .consume(fault, target_options(options, &fault))
                    .expect("batch member resolved above");
                match generated {
                    CachedGen::Unit {
                        patterns,
                        cubes,
                        calls,
                    } => {
                        atpg_calls += calls;
                        session.simulate(&patterns);
                        if session.status_of(fi) == FaultStatus::Detected {
                            units.push(TestUnit {
                                patterns,
                                cubes,
                                target: fault,
                            });
                        } else {
                            // The search said "test" but grading disagrees —
                            // should be unreachable; fail safe instead of
                            // looping.
                            debug_assert!(
                                false,
                                "generated unit does not detect {}",
                                fault.describe(circuit)
                            );
                            session.set_status(fi, FaultStatus::Aborted);
                        }
                    }
                    CachedGen::Redundant { calls } => {
                        atpg_calls += calls;
                        session.set_status(fi, FaultStatus::Redundant);
                    }
                    CachedGen::Aborted { calls } => {
                        atpg_calls += calls;
                        session.set_status(fi, FaultStatus::Aborted);
                    }
                }
            }
        }

        let baseline_detected = session.report().detected;
        if !options.no_compaction {
            units = compact(
                circuit,
                faults.faults(),
                &[],
                units,
                |unit| &unit.patterns,
                baseline_detected,
                options.threads,
            );
        }

        // authoritative final grading of the emitted sequence, in full
        // 64-pattern blocks
        let mut final_session =
            FaultSim::new(circuit, faults.clone()).with_threads(options.threads);
        final_session.simulate(&flatten(&units, |unit| &unit.patterns));
        let mut statuses = final_session.statuses().to_vec();
        for (fi, status) in statuses.iter_mut().enumerate() {
            if *status == FaultStatus::Undetected {
                if let s @ (FaultStatus::Redundant | FaultStatus::Aborted) = session.status_of(fi) {
                    *status = s
                }
            }
        }
        let report = CoverageReport::from_statuses(&statuses);
        AtpgRun {
            units,
            report,
            statuses,
            atpg_calls,
        }
    }
}

/// The search options for one target: the flow's limits with the X-fill
/// seed tied to the fault's identity. Seeding by identity (rather than by
/// the target's position in the fault list, as the engine historically
/// did) keeps consecutive units' fills decorrelated — the property that
/// maximizes collateral detection — while making the search outcome
/// independent of which *other* faults happen to share the run, so a
/// [`CubeCache`] keyed on `(fault, options)` hits across re-slicings of
/// the universe.
fn target_options(options: AtpgOptions, fault: &Fault) -> PodemOptions {
    PodemOptions {
        fill_seed: options
            .podem
            .fill_seed
            .wrapping_add(stable_fill_seed(fault)),
        ..options.podem
    }
}

/// The stuck-at target a fault's deterministic generation starts with: a
/// stuck-at fault is its own target, a stuck-open contributes its `v2`
/// transition target.
fn detect_target(circuit: &Circuit, fault: &Fault) -> InjectedFault {
    match *fault {
        Fault::StuckAt { site, pin, value } => InjectedFault {
            site,
            pin,
            stuck: value,
        },
        open => open_fault_targets(circuit, open).0,
    }
}

/// Materializes one fault's replayable outcome from the raw search
/// results resolved for its batch: the same decision tree the historical
/// per-fault searches walked (`calls` counts *logical* searches so the
/// `atpg_calls` accounting is unchanged by raw-search sharing), with each
/// shared cube re-filled under this fault's own seed.
fn assemble(
    circuit: &Circuit,
    cache: &CubeCache,
    options: AtpgOptions,
    fault: &Fault,
) -> CachedGen {
    let opts = target_options(options, fault);
    let limit = opts.backtrack_limit;
    match *fault {
        Fault::StuckAt { .. } => {
            match cache
                .raw_detect(detect_target(circuit, fault), limit)
                .expect("detect target resolved in phase 1")
            {
                RawSearch::Test { cube } => CachedGen::Unit {
                    patterns: vec![fill_cube(cube, opts.fill_seed)],
                    cubes: vec![cube.clone()],
                    calls: 1,
                },
                RawSearch::Redundant => CachedGen::Redundant { calls: 1 },
                RawSearch::Aborted => CachedGen::Aborted { calls: 1 },
            }
        }
        open => {
            let (v2_target, v1_reqs) = open_fault_targets(circuit, open);
            match cache
                .raw_detect(v2_target, limit)
                .expect("v2 target resolved in phase 1")
            {
                RawSearch::Test { cube: v2_cube } => {
                    match cache
                        .raw_justify(&v1_reqs, limit)
                        .expect("v1 requirements resolved in phase 2")
                    {
                        RawSearch::Test { cube: v1_cube } => CachedGen::Unit {
                            patterns: vec![
                                fill_cube(v1_cube, opts.fill_seed),
                                fill_cube(v2_cube, opts.fill_seed),
                            ],
                            cubes: vec![v1_cube.clone(), v2_cube.clone()],
                            calls: 2,
                        },
                        RawSearch::Redundant => CachedGen::Redundant { calls: 2 },
                        RawSearch::Aborted => CachedGen::Aborted { calls: 2 },
                    }
                }
                RawSearch::Redundant => CachedGen::Redundant { calls: 1 },
                RawSearch::Aborted => CachedGen::Aborted { calls: 1 },
            }
        }
    }
}

/// Maps a stuck-open fault to its transition-pattern PODEM target (`v2`)
/// and the good-value requirements of its initialization pattern (`v1`).
///
/// See `bist-fault`'s crate docs for the transistor-level reasoning; in
/// short, `v2` is a stuck-at test for the blocked transition's target
/// value, and `v1` justifies the complementary output level (for
/// parallel-opens: all inputs non-controlling).
fn open_fault_targets(
    circuit: &Circuit,
    fault: Fault,
) -> (InjectedFault, Vec<(bist_netlist::NodeId, bool)>) {
    match fault {
        Fault::OpenSeries { site } => {
            let kind = circuit.node(site).kind();
            let co = kind
                .controlled_output()
                .expect("series-open only on gates with controlling values");
            (
                InjectedFault {
                    site,
                    pin: None,
                    stuck: co,
                },
                vec![(site, co)],
            )
        }
        Fault::OpenParallel { site, pin } => {
            let kind = circuit.node(site).kind();
            let c = kind
                .controlling_value()
                .expect("parallel-open only on gates with controlling values");
            let reqs = circuit
                .node(site)
                .fanin()
                .iter()
                .map(|&f| (f, !c))
                .collect();
            (
                InjectedFault {
                    site,
                    pin: Some(pin),
                    stuck: !c,
                },
                reqs,
            )
        }
        Fault::OpenRise { site } => (
            InjectedFault {
                site,
                pin: None,
                stuck: false,
            },
            vec![(site, false)],
        ),
        Fault::OpenFall { site } => (
            InjectedFault {
                site,
                pin: None,
                stuck: true,
            },
            vec![(site, true)],
        ),
        Fault::StuckAt { .. } => unreachable!("stuck-at faults have single-pattern tests"),
    }
}

/// Reverse-order compaction with forward verification, for any fault
/// model and any kind of test unit — the one compactor behind both
/// [`TestGenerator`] and the delay ATPG.
///
/// After replaying `prefix` (empty for the stuck-at flow; the delay flow
/// replays its pseudo-random prefix so launches across the boundary stay
/// honest), the units are simulated last-to-first with fault dropping,
/// and units detecting nothing new in that order are discarded. Units
/// are atomic: `patterns` yields each one's patterns, and a pair is never
/// split. The compacted sequence is verified forward after the same
/// prefix — if, through two-pattern adjacency effects, it detects fewer
/// than `baseline_detected` faults of `faults`, the original is kept.
/// `threads` is the grading pool width; the result does not depend on it.
///
/// Each pass grades its whole sequence in one call, in full 64-pattern
/// blocks. The reverse pass keeps unit `k` exactly when some fault's
/// first detection falls inside unit `k`'s patterns: that is when
/// grading the units one at a time in the same order would have found
/// something new in unit `k`, since the simulator carries the previous
/// pattern across blocks and calls alike.
pub fn compact<F: WordFault, U: Clone>(
    circuit: &Circuit,
    faults: &[F],
    prefix: &[Pattern],
    units: Vec<U>,
    patterns: impl Fn(&U) -> &[Pattern],
    baseline_detected: usize,
    threads: usize,
) -> Vec<U> {
    let replayed = || {
        let mut sim = FaultSim::new(circuit, faults.iter().copied()).with_threads(threads);
        sim.simulate(prefix);
        sim
    };
    let mut reverse = replayed();
    reverse.simulate(&flatten(units.iter().rev(), &patterns));
    // unit k's patterns start at ends[k] in the reversed sequence
    let mut ends = vec![0u32; units.len() + 1];
    for (k, unit) in units.iter().enumerate().rev() {
        ends[k] = ends[k + 1] + patterns(unit).len() as u32;
    }
    let mut keep = vec![false; units.len()];
    for fi in 0..faults.len() {
        if let Some(at) = reverse.first_detection(fi) {
            if let Some(rel) = at.checked_sub(prefix.len() as u32) {
                // the unit whose range [ends[k + 1], ends[k]) holds rel
                keep[ends.partition_point(|&end| end > rel) - 1] = true;
            }
        }
    }
    let compacted: Vec<U> = units
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(u, _)| u.clone())
        .collect();
    if compacted.len() == units.len() {
        return units;
    }
    let mut verify = replayed();
    verify.simulate(&flatten(&compacted, &patterns));
    if verify.report().detected >= baseline_detected {
        compacted
    } else {
        units
    }
}

/// The units' patterns, concatenated in order.
fn flatten<'u, U: 'u>(
    units: impl IntoIterator<Item = &'u U>,
    patterns: impl Fn(&U) -> &[Pattern],
) -> Vec<Pattern> {
    units.into_iter().flat_map(patterns).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_full_flow_covers_everything() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::mixed_model(&c17);
        let total = faults.len();
        let run = TestGenerator::new(&c17, faults, AtpgOptions::default()).run();
        assert_eq!(run.report.total(), total);
        assert_eq!(run.report.undetected, 0);
        assert_eq!(run.report.aborted, 0);
        assert_eq!(run.report.redundant, 0, "c17 has no redundant faults");
        assert!(run.report.detected == total);
        // the paper quotes a 5-pattern deterministic set for c17 (stuck-at
        // + stuck-open); ours lands in the same small ballpark
        assert!(
            run.num_patterns() <= 16,
            "expected a compact set, got {}",
            run.num_patterns()
        );
    }

    #[test]
    fn compaction_shrinks_or_preserves() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::mixed_model(&c17);
        let uncompacted = TestGenerator::new(
            &c17,
            faults.clone(),
            AtpgOptions {
                no_compaction: true,
                ..AtpgOptions::default()
            },
        )
        .run();
        let compacted = TestGenerator::new(&c17, faults, AtpgOptions::default()).run();
        assert!(compacted.num_patterns() <= uncompacted.num_patterns());
        assert_eq!(compacted.report.detected, uncompacted.report.detected);
    }

    #[test]
    fn pairs_are_adjacent_and_ordered() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_open(&c17);
        let run = TestGenerator::new(&c17, faults, AtpgOptions::default()).run();
        assert_eq!(run.report.undetected, 0);
        for unit in &run.units {
            assert_eq!(unit.patterns.len(), 2, "stuck-open tests come in pairs");
            assert!(unit.target.is_stuck_open());
        }
    }

    #[test]
    fn redundant_faults_reported_on_planted_circuit() {
        use bist_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("red");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_input("c").unwrap();
        b.add_gate("t", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("r", GateKind::Or, &["a", "t"]).unwrap();
        b.add_gate("y", GateKind::Nand, &["r", "c"]).unwrap();
        b.mark_output("y").unwrap();
        let circuit = b.build().unwrap();
        let faults = FaultList::stuck_at_collapsed(&circuit);
        let run = TestGenerator::new(&circuit, faults, AtpgOptions::default()).run();
        assert!(run.report.redundant > 0, "planted redundancy not proven");
        assert_eq!(run.report.undetected, 0);
        assert_eq!(run.report.aborted, 0);
    }

    #[test]
    fn cubes_parallel_patterns_and_match() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        let run = TestGenerator::new(&c, faults, AtpgOptions::default()).run();
        assert!(!run.units.is_empty());
        let mut partially_specified = 0usize;
        for unit in &run.units {
            assert_eq!(unit.cubes.len(), unit.patterns.len());
            for (cube, pattern) in unit.cubes.iter().zip(&unit.patterns) {
                assert_eq!(cube.len(), pattern.len());
                assert!(
                    cube.matches(pattern),
                    "fill changed a committed bit for {}",
                    unit.target.describe(&c)
                );
                if cube.num_specified() < cube.len() {
                    partially_specified += 1;
                }
            }
        }
        // the whole point of cubes: most ATPG tests leave inputs free
        assert!(
            partially_specified > run.units.len() / 2,
            "expected mostly partial cubes, got {partially_specified}"
        );
    }

    #[test]
    fn sequence_flattening_matches_units() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::mixed_model(&c17);
        let run = TestGenerator::new(&c17, faults, AtpgOptions::default()).run();
        let seq = run.sequence();
        assert_eq!(seq.len(), run.num_patterns());
        let mut offset = 0;
        for unit in &run.units {
            for p in &unit.patterns {
                assert_eq!(&seq[offset], p);
                offset += 1;
            }
        }
    }

    #[test]
    fn batched_generation_is_bit_identical_to_serial() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        let serial = TestGenerator::new(
            &c,
            faults.clone(),
            AtpgOptions {
                threads: 1,
                ..AtpgOptions::default()
            },
        )
        .run();
        for threads in [2, 4] {
            let batched = TestGenerator::new(
                &c,
                faults.clone(),
                AtpgOptions {
                    threads,
                    ..AtpgOptions::default()
                },
            )
            .run();
            assert_eq!(serial.units, batched.units, "threads={threads}");
            assert_eq!(serial.statuses, batched.statuses, "threads={threads}");
            assert_eq!(serial.atpg_calls, batched.atpg_calls, "threads={threads}");
        }
    }

    #[test]
    fn warm_cache_replays_bit_identically_and_hits() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        let options = AtpgOptions {
            threads: 1,
            ..AtpgOptions::default()
        };
        let mut cache = crate::CubeCache::new();
        let cold = TestGenerator::new(&c, faults.clone(), options).run_with_cache(&mut cache);
        assert_eq!(cache.hits(), 0, "first run has nothing to reuse");
        let searched = cache.misses();
        assert!(searched > 0);

        let warm = TestGenerator::new(&c, faults.clone(), options).run_with_cache(&mut cache);
        assert_eq!(cold.units, warm.units);
        assert_eq!(cold.statuses, warm.statuses);
        assert_eq!(cold.atpg_calls, warm.atpg_calls);
        assert_eq!(cache.hits(), searched, "every repeat answered from memory");

        // and the cache-free entry point agrees with both
        let fresh = TestGenerator::new(&c, faults, options).run();
        assert_eq!(fresh.units, cold.units);
    }

    #[test]
    fn fill_seed_is_positional_independent() {
        // drop the first fault from the universe: every surviving target
        // must generate exactly the same unit as in the full run, because
        // seeds are keyed on fault identity, not list position
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let options = AtpgOptions {
            no_compaction: true,
            threads: 1,
            ..AtpgOptions::default()
        };
        let full = TestGenerator::new(&c17, faults.clone(), options).run();
        let tail: FaultList = faults.iter().copied().skip(1).collect();
        let shifted = TestGenerator::new(&c17, tail, options).run();
        for unit in &shifted.units {
            if let Some(counterpart) = full.units.iter().find(|u| u.target == unit.target) {
                assert_eq!(
                    counterpart.patterns,
                    unit.patterns,
                    "re-slicing the universe changed the unit for {}",
                    unit.target.describe(&c17)
                );
            }
        }
    }

    #[test]
    fn c432_profile_flow_terminates_with_high_efficiency() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        let run = TestGenerator::new(&c, faults, AtpgOptions::default()).run();
        // the default 2000-backtrack budget leaves a few dozen aborts on
        // this profile (~96.8 % efficiency, zero undetected)
        assert!(
            run.report.efficiency_pct() > 96.0,
            "efficiency {:.2} too low ({} aborted, {} undetected)",
            run.report.efficiency_pct(),
            run.report.aborted,
            run.report.undetected
        );
        assert!(run.num_patterns() > 10);
    }
}
