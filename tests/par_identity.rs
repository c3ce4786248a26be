//! Parallel-vs-serial bit-identity: the `bist-par` contract.
//!
//! Every parallel engine in the workspace (PPSFP grading, batched ATPG,
//! the session sweep) must produce results **bit-identical** to its
//! one-thread form at every pool width — the pool moves wall-clock only.
//! These properties drive random circuits, random pattern streams, random
//! universe permutations (which permute the fault-drop order) and random
//! feeding chunkings through both forms and compare everything observable.

use bist_core::prelude::*;
use proptest::prelude::*;

/// Random small circuits (same construction as tests/properties.rs).
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..8, 2usize..24, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CircuitBuilder::new("par-prop");
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
        let n = pool.len();
        b.mark_output(&pool[n - 1]).expect("fresh");
        if n >= 2 && pool[n - 2] != pool[n - 1] {
            let _ = b.mark_output(&pool[n - 2]);
        }
        b.build().expect("generated circuits are valid")
    })
}

/// A deterministic Fisher–Yates permutation of the mixed fault universe:
/// reordering the list permutes both the grading order and the ATPG
/// walk/fault-drop order.
fn permuted_universe(circuit: &Circuit, seed: u64) -> FaultList {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut faults: Vec<Fault> = FaultList::mixed_model(circuit).iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..faults.len()).rev() {
        faults.swap(i, rng.gen_range(0..=i));
    }
    faults.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PPSFP grading: any thread count, any drop ordering, any feeding
    /// chunking — statuses and first-detection indices never move.
    #[test]
    fn fault_sim_identical_at_every_width(
        circuit in arb_circuit(),
        order_seed in any::<u64>(),
        stream_seed in any::<u64>(),
        threads in 2usize..5,
        chunk in 1usize..97,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let faults = permuted_universe(&circuit, order_seed);
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let patterns: Vec<Pattern> = (0..192)
            .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
            .collect();

        let mut serial = FaultSim::new(&circuit, faults.clone()).with_threads(1);
        serial.simulate(&patterns);

        let mut par = FaultSim::new(&circuit, faults).with_threads(threads);
        for piece in patterns.chunks(chunk) {
            par.simulate(piece);
        }

        prop_assert_eq!(serial.statuses(), par.statuses());
        for i in 0..serial.faults().len() {
            prop_assert_eq!(serial.first_detection(i), par.first_detection(i), "fault {}", i);
        }
    }

    /// Batched speculative ATPG replays to exactly the serial unit list,
    /// statuses and search count, for any universe ordering.
    #[test]
    fn atpg_identical_at_every_width(
        circuit in arb_circuit(),
        order_seed in any::<u64>(),
        threads in 2usize..5,
    ) {
        let faults = permuted_universe(&circuit, order_seed);
        let serial = TestGenerator::new(
            &circuit,
            faults.clone(),
            AtpgOptions { threads: 1, ..AtpgOptions::default() },
        )
        .run();
        let batched = TestGenerator::new(
            &circuit,
            faults,
            AtpgOptions { threads, ..AtpgOptions::default() },
        )
        .run();
        prop_assert_eq!(&serial.units, &batched.units);
        prop_assert_eq!(&serial.statuses, &batched.statuses);
        prop_assert_eq!(serial.atpg_calls, batched.atpg_calls);
    }

    /// The full mixed-scheme sweep — grading, cached top-ups, generator
    /// synthesis — solves the same points at any width.
    #[test]
    fn sweep_identical_at_every_width(
        circuit in arb_circuit(),
        threads in 2usize..5,
    ) {
        let serial_cfg = MixedSchemeConfig { threads: 1, ..MixedSchemeConfig::default() };
        let mut serial = BistSession::new(&circuit, serial_cfg);
        let want = serial.sweep(&[0, 12, 48]).unwrap();

        let cfg = MixedSchemeConfig { threads, ..MixedSchemeConfig::default() };
        let mut session = BistSession::new(&circuit, cfg);
        let got = session.sweep(&[0, 12, 48]).unwrap();

        for (a, b) in want.solutions().iter().zip(got.solutions()) {
            prop_assert_eq!(a.prefix_len, b.prefix_len);
            prop_assert_eq!(a.det_len, b.det_len);
            prop_assert_eq!(a.generator.deterministic(), b.generator.deterministic());
            prop_assert_eq!(&a.coverage, &b.coverage);
            prop_assert_eq!(&a.prefix_coverage, &b.prefix_coverage);
        }
    }
}
