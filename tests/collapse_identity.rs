//! Cross-engine identity battery for fault collapsing.
//!
//! The contract under test: grading only the collapsed universe's
//! representatives and projecting the statuses back through the
//! collapsed→representative map is **bit-identical** to grading the
//! full stuck-at universe directly — same per-fault statuses, same
//! coverage report — at every pool width, because every fold step is a
//! true equivalence (not a dominance approximation). Dominance is kept
//! as a statistics-only overlay and never enters projection.
//!
//! A second battery pins the collapse to the fault models: the mixed
//! solve itself must be width-invariant for every [`FaultModel`], so
//! the representative-only grading path cannot leak thread-count
//! nondeterminism into solutions.
//!
//! A third battery covers the session layer. A session grades the
//! committed mixed list with the collapsed universe's self-representing
//! extras appended after it; the extras must not move a single
//! committed status or carry bit, chunked or resumed from a checkpoint,
//! at any width. The committed c432 sweep is pinned point for point
//! under stuck-at and bridging faults.

use bist_core::prelude::*;
use proptest::prelude::*;

use bist::fault::CollapsedUniverse;
use bist_faultmodel::{FaultModel, ModelSession};

/// Random small circuits, biased to create reconvergent fanout and
/// primary outputs with fanout (the collapse soundness edge case: a
/// branch behind a single-fanout driver that is also an output pad is
/// *not* equivalent to its stem).
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
        // the last two nodes become outputs; since earlier gates may
        // also read them, outputs with fanout are common here
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

    /// Representative-only grading + projection == full-universe
    /// grading, status for status, at widths 1/2/4.
    #[test]
    fn collapsed_grading_matches_full_bit_for_bit(
        circuit in arb_circuit(),
        seed in any::<u64>(),
        chunks in 1usize..4,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let universe = CollapsedUniverse::build(&circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns: Vec<Pattern> = (0..chunks * 24)
            .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
            .collect();

        let mut full = FaultSim::new(&circuit, universe.full().clone()).with_threads(1);
        full.simulate(&patterns);

        for width in [1usize, 2, 4] {
            let mut reps =
                FaultSim::new(&circuit, universe.representatives().clone()).with_threads(width);
            // feed incrementally so mid-sequence state is exercised too
            for chunk in patterns.chunks(24) {
                reps.simulate(chunk);
            }
            prop_assert_eq!(
                reps.statuses_projected(&universe),
                full.statuses().to_vec(),
                "projected statuses diverge at width {}", width
            );
            let projected = reps.report_projected(&universe);
            prop_assert_eq!(projected, full.report());
            prop_assert_eq!(
                projected.coverage_pct().to_bits(),
                full.report().coverage_pct().to_bits()
            );
        }
    }

    /// Appending the projection extras after the committed mixed list
    /// leaves every committed status and the carry untouched — after
    /// chunked grading and after a resume from a mid-sequence
    /// checkpoint, at widths 1/2/4. This is why the session's committed
    /// results equal grading the mixed list alone.
    #[test]
    fn appended_extras_leave_committed_grading_untouched(
        circuit in arb_circuit(),
        seed in any::<u64>(),
        chunks in 1usize..4,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let universe = CollapsedUniverse::build(&circuit);
        let committed = FaultList::mixed_model(&circuit);
        let stuck_at = committed.num_stuck_at();
        prop_assert_eq!(
            &universe.representatives().faults()[..stuck_at],
            &committed.faults()[..stuck_at]
        );
        let mut graded = committed.clone();
        graded.extend(universe.representatives().iter().skip(stuck_at).copied());
        let n = committed.len();

        let mut rng = StdRng::seed_from_u64(seed);
        let patterns: Vec<Pattern> = (0..chunks * 24)
            .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
            .collect();
        let (head, tail) = patterns.split_at(chunks * 12);

        let mut alone = FaultSim::new(&circuit, committed).with_threads(1);
        alone.simulate(head);
        let (mid_statuses, mid_carry) = (alone.statuses().to_vec(), alone.carry_bits().to_vec());
        alone.simulate(tail);

        for width in [1usize, 2, 4] {
            let mut with_extras = FaultSim::new(&circuit, graded.clone()).with_threads(width);
            for chunk in head.chunks(8) {
                with_extras.simulate(chunk);
            }
            prop_assert_eq!(&with_extras.statuses()[..n], &mid_statuses[..], "width {}", width);
            prop_assert_eq!(with_extras.carry_bits(), &mid_carry[..], "width {}", width);

            let mut resumed = FaultSim::resume(
                &circuit,
                graded.clone(),
                with_extras.statuses(),
                with_extras.carry_bits(),
                head.len() as u32,
            )
            .with_threads(width);
            for chunk in tail.chunks(8) {
                with_extras.simulate(chunk);
                resumed.simulate(chunk);
            }
            for sim in [&with_extras, &resumed] {
                prop_assert_eq!(&sim.statuses()[..n], alone.statuses(), "width {}", width);
                prop_assert_eq!(sim.carry_bits(), alone.carry_bits(), "width {}", width);
            }
        }
    }

    /// Every full fault maps to a representative with the same
    /// observable behaviour class: a representative detected first at
    /// pattern k means every member of its class is detected by the
    /// prefix of length k+1 when graded directly.
    #[test]
    fn class_members_share_first_detection_windows(
        circuit in arb_circuit(),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let universe = CollapsedUniverse::build(&circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns: Vec<Pattern> = (0..32)
            .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
            .collect();
        let mut full = FaultSim::new(&circuit, universe.full().clone()).with_threads(1);
        full.simulate(&patterns);
        let mut reps =
            FaultSim::new(&circuit, universe.representatives().clone()).with_threads(1);
        reps.simulate(&patterns);
        for (i, _) in universe.full().iter().enumerate() {
            prop_assert_eq!(
                full.first_detection(i),
                reps.first_detection(universe.rep_of(i)),
                "fault {} and its representative detect at different patterns", i
            );
        }
    }
}

/// The pinned ISCAS universe cuts the tentpole claims: ~43 % of c432's
/// and ~40 % of c3540's stuck-at universe collapses away. These numbers
/// are part of the repo's measured contract — a collapse change that
/// moves them must update `BENCH_collapse.json` and this test together.
#[test]
fn pinned_iscas_universe_cuts() {
    for (name, full, reps) in [("c432", 1170usize, 667usize), ("c3540", 10750, 6416)] {
        let circuit = bist::netlist::iscas85::circuit(name).expect("known benchmark");
        let universe = CollapsedUniverse::build(&circuit);
        assert_eq!(universe.full().len(), full, "{name}: full universe size");
        assert_eq!(
            universe.representatives().len(),
            reps,
            "{name}: representative count"
        );
        let stats = universe.stats();
        assert_eq!(stats.full, full);
        assert_eq!(stats.representatives, reps);
    }
}

/// Width invariance across fault models: the representative-only paths
/// cannot make any model's solve depend on the pool width.
#[test]
fn model_solves_are_width_invariant() {
    let c17 = bist::netlist::iscas85::c17();
    for model in [
        FaultModel::StuckAt,
        FaultModel::Transition,
        FaultModel::bridging(),
    ] {
        let mut outcomes = Vec::new();
        for width in [1usize, 2, 4] {
            let mut config = MixedSchemeConfig {
                threads: width,
                ..MixedSchemeConfig::default()
            };
            config.atpg.threads = width;
            let mut session = ModelSession::new(&c17, config, model);
            let solution = session.solve_at(16).expect("c17 solves at p=16");
            outcomes.push((
                solution.prefix_len,
                solution.det_len,
                solution.coverage,
                solution.coverage.coverage_pct().to_bits(),
            ));
        }
        assert_eq!(outcomes[0], outcomes[1], "{model:?}: width 1 vs 2");
        assert_eq!(outcomes[0], outcomes[2], "{model:?}: width 1 vs 4");
    }
}

/// One committed point: `(p, d)`, the coverage and prefix-coverage
/// reports as `[detected, redundant, aborted, undetected]`, the bits of
/// the generator area and the SHA-256 of the deterministic patterns, one
/// per line.
type Point = (usize, usize, [usize; 4], [usize; 4], u64, &'static str);

const C432_PATTERNS: [&str; 3] = [
    "54bd3ef06ca993c2f6ed6f647c008ac72c1cb97dc2ee38c780350ef2d2049e68",
    "53c202b7afd0476902c1771531dfb1a91f7479e3f9e147023b29b9fa58f6ab7a",
    "4acb7a05fe7c5f87fc143948900c6e535f5a6efb0059226a0bdfdeac8f9c0611",
];

/// The committed c432 sweep, point for point, as the session that
/// graded the committed list alone produced it. Bridging reuses the
/// stuck-at hardware, so only its coverage reports differ.
#[test]
fn committed_c432_sweep_is_pinned() {
    let [p0, p50, p100] = C432_PATTERNS;
    let pins: [(FaultModel, [Point; 3]); 2] = [
        (
            FaultModel::StuckAt,
            [
                (
                    0,
                    187,
                    [1044, 81, 34, 0],
                    [0, 0, 0, 1159],
                    0x4014_0e56_8a50_507a,
                    p0,
                ),
                (
                    50,
                    166,
                    [1043, 81, 35, 0],
                    [619, 0, 0, 540],
                    0x4012_ba8c_dea0_33e8,
                    p50,
                ),
                (
                    100,
                    165,
                    [1044, 81, 34, 0],
                    [701, 0, 0, 458],
                    0x4012_145e_d4a1_ad64,
                    p100,
                ),
            ],
        ),
        (
            FaultModel::bridging(),
            [
                (
                    0,
                    187,
                    [254, 0, 0, 2],
                    [0, 0, 0, 256],
                    0x4014_0e56_8a50_507a,
                    p0,
                ),
                (
                    50,
                    166,
                    [254, 0, 0, 2],
                    [214, 0, 0, 42],
                    0x4012_ba8c_dea0_33e8,
                    p50,
                ),
                (
                    100,
                    165,
                    [254, 0, 0, 2],
                    [231, 0, 0, 25],
                    0x4012_145e_d4a1_ad64,
                    p100,
                ),
            ],
        ),
    ];
    let report = |r: CoverageReport| [r.detected, r.redundant, r.aborted, r.undetected];
    let c432 = bist::netlist::iscas85::circuit("c432").expect("known benchmark");
    for (model, points) in pins {
        let mut session = ModelSession::new(&c432, MixedSchemeConfig::default(), model);
        let summary = session.sweep(&[0, 50, 100]).expect("c432 solves");
        for (s, (p, d, coverage, prefix_coverage, area_bits, patterns)) in
            summary.solutions().iter().zip(points)
        {
            let text: String = s
                .generator
                .deterministic()
                .iter()
                .map(|pattern| format!("{pattern}\n"))
                .collect();
            assert_eq!((s.prefix_len, s.det_len), (p, d), "{model:?}");
            assert_eq!(report(s.coverage), coverage, "{model:?} p={p}");
            assert_eq!(
                report(s.prefix_coverage),
                prefix_coverage,
                "{model:?} p={p}"
            );
            assert_eq!(s.generator_area_mm2.to_bits(), area_bits, "{model:?} p={p}");
            assert_eq!(
                bist::engine::digest::sha256_hex(text.as_bytes()),
                patterns,
                "{model:?} p={p}"
            );
        }
    }
}
