//! The per-fault grader stem-region grading replaced, kept as the oracle
//! of the tests below: one cone walk per live fault per block, on its own
//! good machine ([`PackedSim`]) and its own carry, with none of the
//! simulator's walk bookkeeping or sharding.

use bist_fault::FaultStatus;
use bist_logicsim::{PackedSim, Pattern, PatternBlock};
use bist_netlist::Circuit;

use super::{BlockCtx, ConeScratch, WordFault};

/// Per-fault results of one grading run.
#[derive(Debug, PartialEq, Eq)]
struct Graded {
    statuses: Vec<FaultStatus>,
    first_detection: Vec<Option<u32>>,
    excited: Vec<bool>,
}

/// Grades `faults` over `patterns` in one sequence, walking every live
/// fault's own cone each block.
fn per_fault<F: WordFault>(circuit: &Circuit, faults: &[F], patterns: &[Pattern]) -> Graded {
    let graph = circuit.sim_graph();
    let mut scratch = ConeScratch::new(graph);
    let mut good_sim = PackedSim::new(circuit);
    let mut graded = Graded {
        statuses: vec![FaultStatus::Undetected; faults.len()],
        first_detection: vec![None; faults.len()],
        excited: vec![false; faults.len()],
    };
    let mut last: Option<Vec<u64>> = None;
    for (b, chunk) in patterns.chunks(64).enumerate() {
        let block = PatternBlock::pack(circuit, chunk);
        good_sim.run(&block);
        let good = good_sim.values();
        // pattern t-1 of the sequence; the first pattern is its own
        // predecessor
        let prev: Vec<u64> = good
            .iter()
            .enumerate()
            .map(|(i, &g)| (g << 1) | last.as_ref().map_or(g & 1, |l| l[i]))
            .collect();
        let top = chunk.len() - 1;
        last = Some(good.iter().map(|&g| (g >> top) & 1).collect());
        let good_pos: Vec<u64> = graph.topo().iter().map(|&id| good[id as usize]).collect();
        let ctx = BlockCtx {
            graph,
            good,
            prev: &prev,
            valid: block.valid_mask(),
            good_pos: &good_pos,
            block: b as u64,
        };
        for (fi, fault) in faults.iter().enumerate() {
            if F::TRACKS_EXCITATION && fault.excitation(&ctx) != 0 {
                graded.excited[fi] = true;
            }
            if graded.statuses[fi] != FaultStatus::Undetected {
                continue;
            }
            let mask = ctx.detect(&mut scratch, fault.seeds(&ctx));
            if mask != 0 {
                graded.statuses[fi] = FaultStatus::Detected;
                graded.first_detection[fi] = Some(64 * b as u32 + mask.trailing_zeros());
            }
        }
    }
    graded
}

mod tests {
    use bist_fault::{CollapsedUniverse, Fault, FaultList};
    use bist_netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::wordsim::{FaultSim, Seeds};

    /// A transition-delay fault's seed shape (the `bist-delay` model): the
    /// line, or one gate input, keeps its initial value where the good
    /// machine launches the transition.
    #[derive(Debug, Clone, Copy)]
    struct LateLine {
        site: u32,
        pin: Option<u8>,
        initial: bool,
    }

    impl WordFault for LateLine {
        fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds {
            let g = ctx.graph;
            let site = self.site as usize;
            let driver = self
                .pin
                .map_or(site, |p| g.fanin(site)[p as usize] as usize);
            let init = if self.initial { !0u64 } else { 0 };
            let launch = !(ctx.prev[driver] ^ init) & (ctx.good[driver] ^ init);
            let late = |good: u64| (good & !launch) | (init & launch);
            let fv = match self.pin {
                None => late(ctx.good[site]),
                Some(p) => g
                    .kind(site)
                    .eval_word_iter(g.fanin(site).iter().enumerate().map(|(k, &f)| {
                        let good = ctx.good[f as usize];
                        if k == p as usize {
                            late(good)
                        } else {
                            good
                        }
                    })),
            };
            if (fv ^ ctx.good[site]) & ctx.valid == 0 {
                return Seeds::NONE;
            }
            Seeds::one(self.site, fv)
        }
    }

    /// A bridging fault's seed shape (the `bist-bridging` model): where
    /// the two nodes disagree, a wired-AND or wired-OR drives both to the
    /// resolved value; excitation is tracked for the Iddq criterion.
    #[derive(Debug, Clone, Copy)]
    struct Short {
        a: u32,
        b: u32,
        wired_and: bool,
    }

    impl WordFault for Short {
        const TRACKS_EXCITATION: bool = true;

        fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds {
            let (ga, gb) = (ctx.good[self.a as usize], ctx.good[self.b as usize]);
            if (ga ^ gb) & ctx.valid == 0 {
                return Seeds::NONE;
            }
            let resolved = if self.wired_and { ga & gb } else { ga | gb };
            Seeds::two(self.a, resolved, self.b, resolved)
        }

        fn excitation(&self, ctx: &BlockCtx<'_>) -> u64 {
            (ctx.good[self.a as usize] ^ ctx.good[self.b as usize]) & ctx.valid
        }
    }

    /// The session's graded list: the mixed universe plus the collapsed
    /// representatives it folds away.
    fn mixed_with_extras(circuit: &Circuit) -> Vec<Fault> {
        let mixed = FaultList::mixed_model(circuit);
        let universe = CollapsedUniverse::build(circuit);
        let extras = universe.representatives().iter().skip(mixed.num_stuck_at());
        mixed.iter().chain(extras).copied().collect()
    }

    /// Both directions on every stem and on every gate input whose driver
    /// fans out, as the transition universe lists them.
    fn late_lines(circuit: &Circuit) -> Vec<LateLine> {
        let g = circuit.sim_graph();
        let mut faults = Vec::new();
        for id in 0..g.num_nodes() {
            for initial in [false, true] {
                if matches!(g.kind(id), GateKind::Input) || g.kind(id).is_combinational() {
                    faults.push(LateLine {
                        site: id as u32,
                        pin: None,
                        initial,
                    });
                }
                if g.kind(id).is_combinational() {
                    for (pin, &f) in g.fanin(id).iter().enumerate() {
                        if g.fanout(f as usize).len() > 1 {
                            faults.push(LateLine {
                                site: id as u32,
                                pin: Some(pin as u8),
                                initial,
                            });
                        }
                    }
                }
            }
        }
        faults
    }

    /// Shorts between nodes of equal level (never a feedback pair), both
    /// resolutions.
    fn shorts(circuit: &Circuit) -> Vec<Short> {
        let g = circuit.sim_graph();
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); g.num_levels() as usize];
        for id in 0..g.num_nodes() {
            by_level[g.level(id) as usize].push(id as u32);
        }
        by_level
            .iter()
            .flat_map(|nodes| nodes.windows(2).step_by(2))
            .flat_map(|pair| {
                [true, false].map(|wired_and| Short {
                    a: pair[0],
                    b: pair[1],
                    wired_and,
                })
            })
            .collect()
    }

    /// Grades `faults` through the stem-region kernel at pool widths 1, 2
    /// and 4, fed in one call, in 777-pattern calls and in 100-pattern
    /// calls (each ending in a partial block), and checks every run
    /// against the per-fault oracle.
    fn assert_matches_oracle<F: WordFault + std::fmt::Debug>(
        circuit: &Circuit,
        faults: &[F],
        patterns: &[Pattern],
    ) {
        let oracle = per_fault(circuit, faults, patterns);
        assert!(
            oracle.statuses.contains(&FaultStatus::Detected),
            "{}: the oracle detects something",
            circuit.name()
        );
        for width in [1, 2, 4] {
            for feed in [patterns.len(), 777, 100] {
                let mut sim = FaultSim::new(circuit, faults.iter().copied()).with_threads(width);
                sim.set_hw_threads(width);
                for chunk in patterns.chunks(feed) {
                    sim.simulate(chunk);
                }
                let graded = Graded {
                    statuses: sim.statuses().to_vec(),
                    first_detection: (0..faults.len()).map(|i| sim.first_detection(i)).collect(),
                    excited: (0..faults.len())
                        .map(|i| F::TRACKS_EXCITATION && sim.excited(i))
                        .collect(),
                };
                assert!(
                    graded == oracle,
                    "{}: width {width}, {feed}-pattern calls diverge from the per-fault walk",
                    circuit.name()
                );
            }
        }
    }

    fn random_patterns(circuit: &Circuit, count: usize) -> Vec<Pattern> {
        let mut rng = StdRng::seed_from_u64(0x57e3);
        (0..count)
            .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
            .collect()
    }

    const CIRCUITS: [&str; 4] = ["c432", "c880", "c1908", "c5315"];

    #[test]
    fn stem_regions_grade_the_mixed_universe_like_per_fault_walks() {
        for name in CIRCUITS {
            let c = bist_netlist::iscas85::circuit(name).expect("ISCAS-85 circuit");
            assert_matches_oracle(&c, &mixed_with_extras(&c), &random_patterns(&c, 1000));
        }
    }

    #[test]
    fn stem_regions_grade_transition_faults_like_per_fault_walks() {
        for name in CIRCUITS {
            let c = bist_netlist::iscas85::circuit(name).expect("ISCAS-85 circuit");
            assert_matches_oracle(&c, &late_lines(&c), &random_patterns(&c, 1000));
        }
    }

    #[test]
    fn two_seed_walks_grade_bridges_like_per_fault_walks() {
        for name in CIRCUITS {
            let c = bist_netlist::iscas85::circuit(name).expect("ISCAS-85 circuit");
            assert_matches_oracle(&c, &shorts(&c), &random_patterns(&c, 1000));
        }
    }
}
