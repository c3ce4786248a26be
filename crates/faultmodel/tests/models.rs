//! Cross-model contract of the fault subsystem: for every
//! [`FaultModel`] the packed word-parallel engine agrees with the naive
//! serial oracle fault for fault at every pool width, the coverage a
//! fixed LFSR sequence reaches on the reference circuits is pinned so
//! simulator changes cannot silently move the numbers the docs and the
//! paper comparison quote, and the transition and bridging solves are
//! pinned at every width.

use bist_bridging::BridgingFaultList;
use bist_core::prelude::*;
use bist_delay::TransitionFaultList;
use bist_faultmodel::{serial_grade, FaultModel, ModelSession};
use bist_faultsim::WordFault;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bridging kept small so the serial oracle stays fast.
const MODELS: [FaultModel; 3] = [
    FaultModel::StuckAt,
    FaultModel::Transition,
    FaultModel::Bridging {
        pairs: 64,
        seed: 0x1dd9,
    },
];

fn random_patterns(circuit: &Circuit, n: usize, seed: u64) -> Vec<Pattern> {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = circuit.inputs().len();
    (0..n).map(|_| Pattern::random(&mut rng, width)).collect()
}

/// Grades `patterns` over `model`'s standard universe with the packed
/// simulator at pool width `width` (`0` = automatic): each fault's first
/// detection, and the coverage report.
fn grade(
    circuit: &Circuit,
    model: FaultModel,
    patterns: &[Pattern],
    width: usize,
) -> (Vec<Option<u32>>, CoverageReport) {
    fn run<F: WordFault>(
        circuit: &Circuit,
        faults: impl IntoIterator<Item = F>,
        patterns: &[Pattern],
        width: usize,
    ) -> (Vec<Option<u32>>, CoverageReport) {
        let mut sim = FaultSim::new(circuit, faults).with_threads(width);
        sim.simulate(patterns);
        let first = (0..sim.faults().len())
            .map(|i| sim.first_detection(i))
            .collect();
        (first, sim.report())
    }
    match model {
        FaultModel::StuckAt => run(circuit, FaultList::mixed_model(circuit), patterns, width),
        FaultModel::Transition => run(
            circuit,
            TransitionFaultList::universe(circuit),
            patterns,
            width,
        ),
        FaultModel::Bridging { pairs, seed } => run(
            circuit,
            BridgingFaultList::sample(circuit, pairs as usize, seed),
            patterns,
            width,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn packed_engines_match_the_serial_oracle_for_every_model(seed in any::<u64>()) {
        for circuit in [bist_netlist::iscas85::c17(), bist_netlist::iscas89::s27()] {
            let patterns = random_patterns(&circuit, 48, seed);
            for model in MODELS {
                let serial = serial_grade(&circuit, model, &patterns);
                for width in [1, 2, 4] {
                    let (packed, _) = grade(&circuit, model, &patterns, width);
                    prop_assert_eq!(serial.len(), packed.len());
                    for (i, &reference) in serial.iter().enumerate() {
                        prop_assert_eq!(
                            reference,
                            packed[i],
                            "{} fault {i} of {} disagrees at width {width}",
                            model,
                            circuit.name()
                        );
                    }
                }
            }
        }
    }
}

/// Detected/universe counts of the flow's default LFSR sequence —
/// pinned, so a simulator change that moves them is a loud diff, not a
/// silent drift.
#[test]
fn pinned_coverage_of_the_default_lfsr_sequence() {
    let poly = MixedSchemeConfig::default().poly;
    let expect = [
        ("c432", FaultModel::StuckAt, (806usize, 1159usize)),
        ("c432", FaultModel::Transition, (627, 946)),
        ("c432", FaultModel::bridging(), (241, 256)),
        ("s27", FaultModel::StuckAt, (26, 55)),
        ("s27", FaultModel::Transition, (20, 44)),
        ("s27", FaultModel::bridging(), (60, 102)),
    ];
    let mut failed = false;
    for (name, model, (detected, universe)) in expect {
        let circuit =
            bist_netlist::iscas85::circuit(name).unwrap_or_else(bist_netlist::iscas89::s27);
        let patterns = pseudo_random_patterns(poly, circuit.inputs().len(), 256);
        let (_, report) = grade(&circuit, model, &patterns, 0);
        println!(
            "(\"{}\", {:?}, ({}, {})),",
            name,
            model,
            report.detected,
            report.total()
        );
        failed |= (report.detected, report.total()) != (detected, universe);
    }
    assert!(!failed, "a pinned coverage number moved (see stdout)");
}

/// The c432 solve at p = 100 under the transition and bridging models,
/// pinned at pool widths 1, 2 and 4: `d`, the SHA-256 of the
/// deterministic patterns (one per line), the coverage and
/// prefix-coverage reports as `[detected, redundant, aborted,
/// undetected]`, and the bits of the generator area. The transition
/// solve runs the shared prefix grader, the delay ATPG and the shared
/// compactor; the bridging solve the shared prefix grader and the
/// stuck-at flow.
#[test]
fn transition_and_bridging_solves_are_pinned_and_width_invariant() {
    type Pin = (usize, &'static str, [usize; 4], [usize; 4], u64);
    let pins: [(FaultModel, Pin); 2] = [
        (
            FaultModel::Transition,
            (
                98,
                "0d6b1c06ddc4c1a620de70b2dba835689b24d851a7f6c5d1163da84064b2fe65",
                [855, 62, 27, 2],
                [496, 0, 0, 450],
                0x4005_509a_671e_f30a,
            ),
        ),
        (
            FaultModel::bridging(),
            (
                165,
                "4acb7a05fe7c5f87fc143948900c6e535f5a6efb0059226a0bdfdeac8f9c0611",
                [254, 0, 0, 2],
                [231, 0, 0, 25],
                0x4012_145e_d4a1_ad64,
            ),
        ),
    ];
    let report = |r: CoverageReport| [r.detected, r.redundant, r.aborted, r.undetected];
    let c432 = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
    for (model, (d, sha, coverage, prefix_coverage, area_bits)) in pins {
        for width in [1usize, 2, 4] {
            let config = MixedSchemeConfig {
                threads: width,
                ..MixedSchemeConfig::default()
            };
            let mut session = ModelSession::new(&c432, config, model);
            let s = session.solve_at(100).expect("c432 solves at p=100");
            let text: String = s
                .generator
                .deterministic()
                .iter()
                .map(|pattern| format!("{pattern}\n"))
                .collect();
            let at = format!("{model} width {width}");
            assert_eq!((s.prefix_len, s.det_len), (100, d), "{at}");
            assert_eq!(
                bist_engine::digest::sha256_hex(text.as_bytes()),
                sha,
                "{at}"
            );
            assert_eq!(report(s.coverage), coverage, "{at}");
            assert_eq!(report(s.prefix_coverage), prefix_coverage, "{at}");
            assert_eq!(s.generator_area_mm2.to_bits(), area_bits, "{at}");
        }
    }
}
