//! The paper's stuck-at + stuck-open model on the word-parallel engine:
//! the faulty seed words of a [`Fault`], and the collapsed-universe
//! projections of the stuck-at flow.

use bist_fault::{CollapsedUniverse, Fault, FaultStatus};
use bist_netlist::NodeId;

use crate::wordsim::{BlockCtx, FaultSim, Seeds, WordFault};

impl FaultSim<'_, Fault> {
    /// The per-fault statuses of the *full* stuck-at universe, for a
    /// simulator grading only `universe`'s representatives: each full
    /// fault reports its class representative's status. Because every
    /// collapsing step is a true equivalence, this is bit-identical to
    /// grading the full universe directly.
    ///
    /// # Panics
    ///
    /// Panics if this simulator is not grading exactly
    /// `universe.representatives()`.
    pub fn statuses_projected(&self, universe: &CollapsedUniverse) -> Vec<FaultStatus> {
        assert_eq!(
            self.faults(),
            universe.representatives().faults(),
            "simulator must grade the universe's representative list"
        );
        universe.project(self.statuses())
    }

    /// Coverage summary over the *full* stuck-at universe, for a
    /// simulator grading only `universe`'s representatives (see
    /// [`FaultSim::statuses_projected`]).
    pub fn report_projected(&self, universe: &CollapsedUniverse) -> crate::CoverageReport {
        crate::CoverageReport::from_statuses(&self.statuses_projected(universe))
    }
}

impl WordFault for Fault {
    /// Computes the faulty seed value at the fault site, or no seeds if
    /// the fault cannot change anything in this block.
    fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds {
        let g = ctx.graph;
        let seed = match *self {
            Fault::StuckAt {
                site,
                pin: None,
                value,
            } => {
                let forced = if value { !0u64 } else { 0 };
                let diff = (ctx.good[site.index()] ^ forced) & ctx.valid;
                (diff != 0).then_some((site, forced))
            }
            Fault::StuckAt {
                site,
                pin: Some(p),
                value,
            } => {
                let forced = if value { !0u64 } else { 0 };
                let fv = g.kind(site.index()).eval_word_iter(
                    g.fanin(site.index()).iter().enumerate().map(|(k, &f)| {
                        if k == p as usize {
                            forced
                        } else {
                            ctx.good[f as usize]
                        }
                    }),
                );
                let diff = (fv ^ ctx.good[site.index()]) & ctx.valid;
                (diff != 0).then_some((site, fv))
            }
            Fault::OpenSeries { site } => {
                let excite = series_excitation(ctx, site);
                memory_seed(ctx, site, excite)
            }
            Fault::OpenParallel { site, pin } => {
                let excite = parallel_excitation(ctx, site, pin);
                memory_seed(ctx, site, excite)
            }
            Fault::OpenRise { site } => {
                let g = ctx.good[site.index()];
                let excite = g & !ctx.prev[site.index()];
                memory_seed(ctx, site, excite)
            }
            Fault::OpenFall { site } => {
                let g = ctx.good[site.index()];
                let excite = !g & ctx.prev[site.index()];
                memory_seed(ctx, site, excite)
            }
        };
        match seed {
            Some((site, value)) => Seeds::one(site.index() as u32, value),
            None => Seeds::NONE,
        }
    }
}

/// Faulty value of a stuck-open site: the output retains its previous
/// good value wherever the fault is excited.
fn memory_seed(ctx: &BlockCtx<'_>, site: NodeId, excite: u64) -> Option<(NodeId, u64)> {
    let g = ctx.good[site.index()];
    let fv = (g & !excite) | (ctx.prev[site.index()] & excite);
    let diff = (fv ^ g) & ctx.valid;
    (diff != 0).then_some((site, fv))
}

/// Mask of patterns where *all* inputs of `site` hold the
/// non-controlling value at `t` but not at `t-1` (series-open
/// excitation).
fn series_excitation(ctx: &BlockCtx<'_>, site: NodeId) -> u64 {
    let g = ctx.graph;
    let c = match g.kind(site.index()).controlling_value() {
        Some(c) => c,
        None => return 0,
    };
    let mut all_nc_now = !0u64;
    let mut all_nc_prev = !0u64;
    for &f in g.fanin(site.index()) {
        let now = ctx.good[f as usize];
        let before = ctx.prev[f as usize];
        // non-controlling: value != c
        all_nc_now &= if c { !now } else { now };
        all_nc_prev &= if c { !before } else { before };
    }
    all_nc_now & !all_nc_prev
}

/// Mask of patterns where pin `p` is the only controlling input at `t`
/// and all inputs were non-controlling at `t-1` (parallel-open
/// excitation).
fn parallel_excitation(ctx: &BlockCtx<'_>, site: NodeId, p: u8) -> u64 {
    let g = ctx.graph;
    let c = match g.kind(site.index()).controlling_value() {
        Some(c) => c,
        None => return 0,
    };
    let mut only_p_now = !0u64;
    let mut all_nc_prev = !0u64;
    for (k, &f) in g.fanin(site.index()).iter().enumerate() {
        let now = ctx.good[f as usize];
        let before = ctx.prev[f as usize];
        if k == p as usize {
            only_p_now &= if c { now } else { !now };
        } else {
            only_p_now &= if c { !now } else { now };
        }
        all_nc_prev &= if c { !before } else { before };
    }
    only_p_now & all_nc_prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimCounters;
    use bist_fault::FaultList;
    use bist_logicsim::Pattern;
    use bist_netlist::GateKind;

    fn exhaustive_patterns(width: usize) -> Vec<Pattern> {
        (0u32..(1 << width))
            .map(|v| Pattern::from_fn(width, |i| (v >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn c17_stuck_at_full_coverage() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let total = faults.len();
        let mut sim = FaultSim::new(&c17, faults);
        let newly = sim.simulate(&exhaustive_patterns(5));
        assert_eq!(newly, total, "all 22 collapsed faults detectable");
    }

    #[test]
    fn c17_stuck_open_coverage_with_transitions() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_open(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        // a long random sequence supplies every needed transition pair
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let seq: Vec<Pattern> = (0..2000).map(|_| Pattern::random(&mut rng, 5)).collect();
        sim.simulate(&seq);
        let rep = sim.report();
        // NAND-only circuit: all stuck-open faults are two-pattern testable
        assert_eq!(
            rep.coverage_pct(),
            100.0,
            "stuck-open coverage too low: {}",
            rep.coverage_pct()
        );
    }

    #[test]
    fn first_pattern_cannot_detect_stuck_open() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_open(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        // a single pattern has no predecessor: nothing may be detected
        let newly = sim.simulate(&[Pattern::from_fn(5, |_| true)]);
        assert_eq!(newly, 0);
    }

    #[test]
    fn representative_grading_projects_to_full_universe_grading() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let universe = CollapsedUniverse::build(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let patterns: Vec<Pattern> = (0..200)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut full = FaultSim::new(&c, universe.full().clone());
        full.simulate(&patterns);

        let mut reps = FaultSim::new(&c, universe.representatives().clone());
        reps.simulate(&patterns);

        assert_eq!(reps.statuses_projected(&universe), full.statuses());
        assert_eq!(reps.report_projected(&universe), full.report());
        // and strictly less grading work
        assert!(reps.counters().cone_events < full.counters().cone_events);
    }

    #[test]
    fn chunked_equals_monolithic() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let patterns: Vec<Pattern> = (0..300)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut mono = FaultSim::new(&c, faults.clone());
        mono.simulate(&patterns);

        let mut chunked = FaultSim::new(&c, faults);
        for chunk in patterns.chunks(37) {
            chunked.simulate(chunk);
        }
        assert_eq!(mono.statuses(), chunked.statuses());
        for i in 0..mono.faults().len() {
            assert_eq!(
                mono.first_detection(i),
                chunked.first_detection(i),
                "fault {i}"
            );
        }
    }

    #[test]
    fn parallel_grading_is_bit_identical_to_serial() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let patterns: Vec<Pattern> = (0..400)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut serial = FaultSim::new(&c, faults.clone()).with_threads(1);
        serial.simulate(&patterns);

        for threads in [2, 3, 4, 8] {
            let mut par = FaultSim::new(&c, faults.clone()).with_threads(threads);
            // force the sharded path even on a narrower machine (the
            // hw clamp would otherwise grade inline and test nothing)
            par.set_hw_threads(threads);
            par.simulate(&patterns);
            assert_eq!(serial.statuses(), par.statuses(), "threads={threads}");
            for i in 0..serial.faults().len() {
                assert_eq!(
                    serial.first_detection(i),
                    par.first_detection(i),
                    "threads={threads}, fault {i}"
                );
            }
            assert_eq!(
                serial.counters(),
                par.counters(),
                "work counters drift at threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_incremental_feeding_matches_serial_monolithic() {
        // chunked feeding at 4 threads vs one serial call: the stuck-open
        // carry and the drop decisions must line up across both axes
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let patterns: Vec<Pattern> = (0..300)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut mono = FaultSim::new(&c, faults.clone()).with_threads(1);
        mono.simulate(&patterns);

        let mut par = FaultSim::new(&c, faults).with_threads(4);
        par.set_hw_threads(4);
        for chunk in patterns.chunks(53) {
            par.simulate(chunk);
        }
        assert_eq!(mono.statuses(), par.statuses());
    }

    #[test]
    fn resume_from_carry_checkpoint_matches_straight_run() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let patterns: Vec<Pattern> = (0..200)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut straight = FaultSim::new(&c, faults.clone());
        straight.simulate(&patterns);

        // checkpoint after 77 patterns, resume a fresh simulator from it
        let mut head = FaultSim::new(&c, faults.clone());
        head.simulate(&patterns[..77]);
        let mut tail = FaultSim::resume(
            &c,
            faults,
            head.statuses(),
            head.carry_bits(),
            head.patterns_seen(),
        );
        tail.simulate(&patterns[77..]);

        assert_eq!(straight.statuses(), tail.statuses());
        assert_eq!(straight.patterns_seen(), tail.patterns_seen());
        // faults detected after the resume point carry identical global
        // first-detection indices
        for i in 0..straight.faults().len() {
            if let Some(first) = tail.first_detection(i) {
                if first >= 77 {
                    assert_eq!(straight.first_detection(i), Some(first), "fault {i}");
                }
            }
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        sim.simulate(&exhaustive_patterns(5));
        assert!(sim.report().detected > 0);
        sim.reset();
        assert_eq!(sim.report().detected, 0);
        assert_eq!(sim.patterns_seen(), 0);
        // the live list is rebuilt: a re-run re-detects everything
        let newly = sim.simulate(&exhaustive_patterns(5));
        assert_eq!(newly, sim.faults().len());
    }

    #[test]
    fn set_status_removes_fault_from_grading() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let total = faults.len();
        let mut sim = FaultSim::new(&c17, faults);
        sim.set_status(0, FaultStatus::Redundant);
        let newly = sim.simulate(&exhaustive_patterns(5));
        assert_eq!(newly, total - 1, "marked fault must not be graded");
        assert_eq!(sim.status_of(0), FaultStatus::Redundant);
        assert_eq!(sim.first_detection(0), None);
    }

    #[test]
    fn counters_track_block_work() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        assert_eq!(sim.counters(), SimCounters::default());
        sim.simulate(&exhaustive_patterns(5)); // 32 patterns = 1 block
        let counters = sim.counters();
        assert_eq!(counters.blocks, 1);
        assert_eq!(counters.good_gate_evals, 6, "c17 has six NAND gates");
        assert!(counters.cone_events > 0);
    }

    #[test]
    fn planted_redundant_faults_stay_undetected() {
        // OR(a, AND(a, b)): AND-output stuck-at-0 is redundant.
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("red");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("t", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("r", GateKind::Or, &["a", "t"]).unwrap();
        b.mark_output("r").unwrap();
        let c = b.build().unwrap();
        let t = c.find("t").unwrap();
        let faults: FaultList = [Fault::StuckAt {
            site: t,
            pin: None,
            value: false,
        }]
        .into_iter()
        .collect();
        let mut sim = FaultSim::new(&c, faults);
        sim.simulate(&exhaustive_patterns(2));
        assert_eq!(
            sim.report().detected,
            0,
            "redundant fault must not be detected"
        );
    }

    #[test]
    fn detection_indices_are_global() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        let all = exhaustive_patterns(5);
        sim.simulate(&all[..3]);
        sim.simulate(&all[3..]);
        let max_idx = (0..sim.faults().len())
            .filter_map(|i| sim.first_detection(i))
            .max()
            .unwrap();
        assert!(max_idx >= 3, "later chunks must report global indices");
        assert_eq!(sim.patterns_seen(), 32);
    }
}
