//! The bridging model on the word-parallel engine — the measurement side
//! of the \[Hwa93\] question the paper leans on: *how much of a realistic
//! short universe does a stuck-at-derived sequence detect?*
//!
//! A bridge is detected by a pattern that drives the two shorted nodes to
//! opposite values (excitation — the same condition Iddq testing senses
//! as elevated quiescent current) *and* propagates the resolved value's
//! difference to a primary output (voltage-sense detection, the stricter
//! criterion `FaultSim::report` grades). The model contributes the *two*
//! resolved-value seeds (a short drives both nodes), so cone propagation
//! starts from the union of both fan-outs, and opts into the engine's
//! per-fault excitation tracking for the Iddq criterion
//! (`FaultSim::excited`, `FaultSim::excited_pct`).

use bist_faultsim::{BlockCtx, Seeds, WordFault};

use crate::model::BridgingFault;

impl WordFault for BridgingFault {
    /// Excitation every block keeps the Iddq mask current for the whole
    /// universe, detected bridges included.
    const TRACKS_EXCITATION: bool = true;

    /// Where excited, the short drives *both* nodes to the resolved value
    /// (elsewhere the resolution of two equal values is the value itself,
    /// so the seed words degrade to the good machine).
    fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds {
        let ga = ctx.good[self.a.index()];
        let gb = ctx.good[self.b.index()];
        if (ga ^ gb) & ctx.valid == 0 {
            return Seeds::NONE;
        }
        let resolved = self.kind.resolve_word(ga, gb);
        Seeds::two(
            self.a.index() as u32,
            resolved,
            self.b.index() as u32,
            resolved,
        )
    }

    fn excitation(&self, ctx: &BlockCtx<'_>) -> u64 {
        (ctx.good[self.a.index()] ^ ctx.good[self.b.index()]) & ctx.valid
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{BridgeKind, BridgingFault, BridgingFaultList};
    use bist_faultsim::FaultSim;
    use bist_logicsim::Pattern;
    use bist_netlist::{CircuitBuilder, GateKind};

    fn exhaustive(width: usize) -> Vec<Pattern> {
        (0u32..(1 << width))
            .map(|v| Pattern::from_fn(width, |i| (v >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn hand_checked_two_input_bridge() {
        // y1 = BUF(a), y2 = BUF(b): a~b wired-AND is detected whenever
        // a != b (the 0 wins and flips whichever output carried the 1)
        let mut b = CircuitBuilder::new("pair");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("y1", GateKind::Buf, &["a"]).unwrap();
        b.add_gate("y2", GateKind::Buf, &["b"]).unwrap();
        b.mark_output("y1").unwrap();
        b.mark_output("y2").unwrap();
        let c = b.build().unwrap();
        let (a, bb) = (c.find("a").unwrap(), c.find("b").unwrap());
        let mut faults = BridgingFaultList::new();
        faults.push(
            &c,
            BridgingFault {
                a,
                b: bb,
                kind: BridgeKind::WiredAnd,
            },
        );
        let mut sim = FaultSim::new(&c, faults);
        // equal values: no excitation, no detection
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[true, true])]), 0);
        assert!(!sim.excited(0));
        // opposite values: excitation and voltage detection
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[true, false])]), 1);
        assert!(sim.excited(0));
        assert_eq!(sim.first_detection(0), Some(1));
    }

    #[test]
    fn wired_or_requires_the_dual_excitation() {
        // single output y = BUF(a): bridge a ~ b (b unobserved) wired-OR
        // flips y only when a=0, b=1
        let mut builder = CircuitBuilder::new("dual");
        builder.add_input("a").unwrap();
        builder.add_input("b").unwrap();
        builder.add_gate("y", GateKind::Buf, &["a"]).unwrap();
        builder.add_gate("z", GateKind::Buf, &["b"]).unwrap();
        builder.mark_output("y").unwrap();
        let c = builder.build().unwrap();
        let (a, b) = (c.find("a").unwrap(), c.find("b").unwrap());
        let mut faults = BridgingFaultList::new();
        faults.push(
            &c,
            BridgingFault {
                a,
                b,
                kind: BridgeKind::WiredOr,
            },
        );
        let mut sim = FaultSim::new(&c, faults);
        // a=1, b=0: excited (opposite) but y=a already 1 = resolved -> no flip
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[true, false])]), 0);
        assert!(sim.excited(0), "Iddq sees any opposite drive");
        // a=0, b=1: resolved 1 flips y
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[false, true])]), 1);
    }

    #[test]
    fn exhaustive_c17_detects_most_sampled_bridges() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = BridgingFaultList::sample(&c17, 60, 3);
        let total = faults.len();
        let mut sim = FaultSim::new(&c17, faults);
        sim.simulate(&exhaustive(5));
        let report = sim.report();
        assert!(
            report.detected as f64 >= 0.7 * total as f64,
            "exhaustive voltage coverage too low: {}/{}",
            report.detected,
            total
        );
        // Iddq (excitation-only) coverage dominates voltage coverage
        assert!(sim.excited_pct() >= report.coverage_pct());
    }

    #[test]
    fn chunked_equals_monolithic() {
        use rand::{rngs::StdRng, SeedableRng};
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = BridgingFaultList::sample(&c, 150, 9);
        let mut rng = StdRng::seed_from_u64(11);
        let patterns: Vec<Pattern> = (0..200)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut mono = FaultSim::new(&c, faults.clone());
        mono.simulate(&patterns);
        let mut chunked = FaultSim::new(&c, faults);
        for chunk in patterns.chunks(23) {
            chunked.simulate(chunk);
        }
        assert_eq!(mono.statuses(), chunked.statuses());
        assert_eq!(mono.excited_pct(), chunked.excited_pct());
    }

    #[test]
    fn parallel_grading_is_bit_identical_to_serial() {
        use rand::{rngs::StdRng, SeedableRng};
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = BridgingFaultList::sample(&c, 200, 5);
        let mut rng = StdRng::seed_from_u64(31);
        let patterns: Vec<Pattern> = (0..300)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut serial = FaultSim::new(&c, faults.clone()).with_threads(1);
        serial.simulate(&patterns);

        for threads in [2, 4] {
            let mut par = FaultSim::new(&c, faults.clone()).with_threads(threads);
            par.simulate(&patterns);
            assert_eq!(serial.statuses(), par.statuses(), "threads={threads}");
            for i in 0..serial.faults().len() {
                assert_eq!(
                    serial.first_detection(i),
                    par.first_detection(i),
                    "threads={threads}, fault {i}"
                );
                assert_eq!(
                    serial.excited(i),
                    par.excited(i),
                    "threads={threads}, fault {i} iddq"
                );
            }
            assert_eq!(serial.counters(), par.counters(), "threads={threads}");
        }
    }
}
