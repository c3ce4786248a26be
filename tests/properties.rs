//! Property-based tests over the workspace's core invariants.

use bist_core::prelude::*;
use proptest::prelude::*;

/// Random small circuits for structure-independent properties.
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..8, 2usize..24, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CircuitBuilder::new("prop");
        let mut pool: Vec<String> = (0..inputs)
            .map(|i| {
                let n = format!("i{i}");
                b.add_input(&n).expect("fresh");
                n
            })
            .collect();
        for g in 0..gates {
            let kinds = [
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
                GateKind::Not,
                GateKind::Buf,
            ];
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                _ => 2 + usize::from(rng.gen_bool(0.3)),
            };
            let mut fanin: Vec<String> = Vec::new();
            while fanin.len() < arity {
                let cand = pool[rng.gen_range(0..pool.len())].clone();
                if !fanin.contains(&cand) {
                    fanin.push(cand);
                } else if fanin.len() >= pool.len() {
                    break;
                }
            }
            let name = format!("g{g}");
            let refs: Vec<&str> = fanin.iter().map(String::as_str).collect();
            b.add_gate(&name, kind, &refs).expect("fresh");
            pool.push(name);
        }
        // last two nodes become outputs
        let n = pool.len();
        b.mark_output(&pool[n - 1]).expect("fresh");
        if n >= 2 && pool[n - 2] != pool[n - 1] {
            let _ = b.mark_output(&pool[n - 2]);
        }
        b.build().expect("generated circuits are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Coverage is monotone in sequence length, whatever the circuit.
    #[test]
    fn coverage_monotone(circuit in arb_circuit(), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let faults = FaultList::mixed_model(&circuit);
        let mut sim = FaultSim::new(&circuit, faults);
        let mut last = 0usize;
        for _ in 0..6 {
            let chunk: Vec<Pattern> = (0..16)
                .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
                .collect();
            sim.simulate(&chunk);
            let now = sim.report().detected;
            prop_assert!(now >= last);
            last = now;
        }
    }

    /// Fault collapsing is sound: a collapsed universe never reports
    /// higher coverage than the full universe under the same patterns
    /// misses faults the full universe detects (their classes are
    /// represented).
    #[test]
    fn collapsed_coverage_equals_full_class_coverage(
        circuit in arb_circuit(),
        seed in any::<u64>()
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns: Vec<Pattern> = (0..48)
            .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
            .collect();
        let mut full = FaultSim::new(&circuit, FaultList::stuck_at_full(&circuit));
        full.simulate(&patterns);
        let mut collapsed = FaultSim::new(&circuit, FaultList::stuck_at_collapsed(&circuit));
        collapsed.simulate(&patterns);
        // equivalence collapsing preserves *relative* coverage closely;
        // the collapsed set must never be easier than the full set by a
        // wide margin (a collapsing bug shows up as a large gap)
        let full_pct = full.report().coverage_pct();
        let collapsed_pct = collapsed.report().coverage_pct();
        prop_assert!((full_pct - collapsed_pct).abs() < 25.0,
            "full {full_pct:.1} vs collapsed {collapsed_pct:.1}");
    }

    /// Every PODEM "Test" verdict is confirmed by the serial grader, and
    /// every "Redundant" verdict survives exhaustive simulation on small
    /// circuits.
    #[test]
    fn podem_verdicts_are_sound(circuit in arb_circuit()) {
        let width = circuit.inputs().len();
        prop_assume!(width <= 7); // keep exhaustive check tractable
        let exhaustive: Vec<Pattern> = (0u32..(1 << width))
            .map(|v| Pattern::from_fn(width, |i| (v >> i) & 1 == 1))
            .collect();
        for fault in FaultList::stuck_at_collapsed(&circuit).iter() {
            let Fault::StuckAt { site, pin, value } = *fault else { continue };
            let outcome = bist_atpg::podem(
                &circuit,
                bist_logicsim::InjectedFault { site, pin, stuck: value },
                bist_atpg::PodemOptions::default(),
            );
            match outcome {
                bist_atpg::PodemOutcome::Test(p) => {
                    prop_assert!(
                        bist_faultsim::serial::detects(&circuit, *fault, None, &p),
                        "bogus test for {}", fault.describe(&circuit)
                    );
                }
                bist_atpg::PodemOutcome::Redundant => {
                    // no pattern in the whole space may detect it
                    for p in &exhaustive {
                        prop_assert!(
                            !bist_faultsim::serial::detects(&circuit, *fault, None, p),
                            "redundant verdict refuted for {}", fault.describe(&circuit)
                        );
                    }
                }
                bist_atpg::PodemOutcome::Aborted => {}
            }
        }
    }

    /// LFSROM synthesis replays any distinct-pattern sequence.
    #[test]
    fn lfsrom_replays_arbitrary_sequences(
        width in 2usize..16,
        len in 1usize..24,
        seed in any::<u64>()
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let seq: Vec<Pattern> = (0..len).map(|_| Pattern::random(&mut rng, width)).collect();
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        prop_assert_eq!(generator.replay(seq.len()), seq);
    }

    /// Mixed generators verify for arbitrary (p, d) splits, and the
    /// twin restored from the same inputs synthesizes the same hardware.
    #[test]
    fn mixed_generator_always_verifies(
        width in 3usize..14,
        p in 0usize..10,
        d in 0usize..8,
        seed in any::<u64>()
    ) {
        prop_assume!(p + d > 0);
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let det: Vec<Pattern> = (0..d).map(|_| Pattern::random(&mut rng, width)).collect();
        let generator = MixedGenerator::build(width, primitive_poly(8), p, &det).unwrap();
        prop_assert!(generator.verify());
        let restored = MixedGenerator::restore(width, primitive_poly(8), p, &det).unwrap();
        prop_assert!(restored.verify());
        prop_assert_eq!(
            bist_netlist::bench::write(restored.netlist()),
            bist_netlist::bench::write(generator.netlist())
        );
        prop_assert_eq!(restored.reset_states(), generator.reset_states());
    }

    /// Two-level synthesis honours every care minterm.
    #[test]
    fn pla_synthesis_respects_care_set(
        width in 3usize..24,
        on_count in 1usize..12,
        off_count in 1usize..12,
        seed in any::<u64>()
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        // determinism-vetted: uniqueness bookkeeping, never iterated
        #[allow(clippy::disallowed_types)]
        let mut seen = std::collections::HashSet::new();
        let mut inputs = Vec::new();
        while inputs.len() < on_count + off_count {
            let p = Pattern::random(&mut rng, width);
            if seen.insert(p.clone()) {
                inputs.push(p);
            }
        }
        let outputs: Vec<Pattern> = (0..inputs.len())
            .map(|i| Pattern::from_fn(1, |_| i < on_count))
            .collect();
        let net = bist_synth::synthesize_pla(width, &inputs, &outputs);
        for (m, o) in inputs.iter().zip(&outputs) {
            prop_assert_eq!(net.eval(m).get(0), o.get(0));
        }
    }
}
