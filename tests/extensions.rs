//! Cross-crate integration tests for the extension systems: delay faults
//! (`bist-delay`), baseline TPG architectures (`bist-baselines`) and HDL
//! emission (`bist-hdl`), exercised together with the core mixed-scheme
//! flow.

use bist_atpg::{AtpgOptions, TestCube};
use bist_baselines::{CounterPla, LfsromTpg, Reseeding, RomCounter, TestPatternGenerator};
use bist_core::prelude::*;
use bist_delay::{serial, DelayTestGenerator, TransitionFaultList};
use bist_hdl::{emit_verilog, emit_verilog_testbench, emit_vhdl, HdlOptions};
use bist_scan::ScanDesign;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

// ---------------------------------------------------------------------
// deterministic encoders are faithful replayers
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_encoder_replays_arbitrary_sequences(
        seed in any::<u64>(),
        width in 2usize..12,
        len in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let seq: Vec<Pattern> = (0..len).map(|_| Pattern::random(&mut rng, width)).collect();

        let rom = RomCounter::new(&seq).expect("valid set");
        prop_assert_eq!(rom.sequence(), seq.clone());

        let pla = CounterPla::synthesize(&seq).expect("valid set");
        prop_assert_eq!(pla.sequence(), seq.clone());

        let lfsrom = LfsromTpg::new(LfsromGenerator::synthesize(&seq).expect("valid set"));
        prop_assert_eq!(lfsrom.sequence(), seq);
    }

    #[test]
    fn reseeding_realizes_arbitrary_sparse_cubes(
        seed in any::<u64>(),
        width in 4usize..40,
        len in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cubes: Vec<TestCube> = (0..len)
            .map(|_| {
                let mut c = TestCube::unspecified(width);
                let spec = rng.gen_range(1..=width.min(12));
                for _ in 0..spec {
                    let pos = rng.gen_range(0..width);
                    c.set(pos, Some(rng.gen()));
                }
                c
            })
            .collect();
        let tpg = Reseeding::encode(&cubes).expect("sparse cubes encode");
        let seq = tpg.sequence();
        for (c, p) in cubes.iter().zip(&seq) {
            prop_assert!(c.matches(p), "cube {} vs pattern {}", c, p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scan_test_views_are_cycle_accurate_for_random_substrates(seed in any::<u64>()) {
        // a fresh synthetic sequential circuit per case: same profile
        // shape, different seed — scan insertion must stay equivalent
        let profile = bist_netlist::iscas89::SeqProfile {
            name: "prop",
            inputs: 5,
            outputs: 4,
            dffs: 6,
            gates: 40,
            seed,
        };
        let circuit = bist_netlist::iscas89::synthesize(&profile);
        let scan = ScanDesign::insert(&circuit).expect("has flip-flops");
        prop_assert_eq!(scan.verify(40, seed ^ 0xABCD), None);
        // split/concat round-trips
        let p = Pattern::from_fn(scan.pattern_width(), |i| i % 3 == 0);
        let (x, s) = scan.split_pattern(&p);
        prop_assert_eq!(x.len() + s.len(), p.len());
    }
}

// ---------------------------------------------------------------------
// delay-fault engine agreement and ATPG validity
// ---------------------------------------------------------------------

#[test]
fn packed_transition_sim_agrees_with_serial_reference_on_c432() {
    let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
    let faults = TransitionFaultList::universe(&c);
    let width = c.inputs().len();
    let mut rng = StdRng::seed_from_u64(432);
    for _ in 0..120 {
        let v1 = Pattern::random(&mut rng, width);
        let v2 = Pattern::random(&mut rng, width);
        let fi = rng.gen_range(0..faults.len());
        let fault = *faults.get(fi).expect("in range");

        let naive = serial::detects(&c, fault, &v1, &v2);
        let single: TransitionFaultList = [fault].into_iter().collect();
        let mut sim = FaultSim::new(&c, single);
        sim.simulate(&[v1.clone(), v2.clone()]);
        assert_eq!(
            naive,
            sim.report().detected == 1,
            "{} on ({v1}, {v2})",
            fault.describe(&c)
        );
    }
}

#[test]
fn delay_atpg_pairs_check_out_against_the_reference() {
    let c = bist_netlist::iscas85::circuit("c880").expect("known benchmark");
    let faults = TransitionFaultList::universe(&c);
    let run = DelayTestGenerator::new(&c, faults, AtpgOptions::default(), &[]).run();
    assert!(
        run.report.coverage_pct() > 85.0,
        "{:.2}",
        run.report.coverage_pct()
    );
    for unit in run.units.iter().take(60) {
        assert!(
            serial::detects(&c, unit.target, &unit.patterns[0], &unit.patterns[1]),
            "pair does not detect {}",
            unit.target.describe(&c)
        );
        for (cube, pattern) in unit.cubes.iter().zip(&unit.patterns) {
            assert!(cube.matches(pattern));
        }
    }
}

#[test]
fn mixed_sequence_beats_pure_random_on_transition_faults() {
    // the paper's §3.1 argument, end to end: same total test length,
    // mixed (random prefix + delay-targeted deterministic pairs) vs pure
    // random, graded on transition faults
    let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
    let width = c.inputs().len();
    let faults = TransitionFaultList::universe(&c);
    let p = 128usize;

    let prefix = pseudo_random_patterns(paper_poly(), width, p);
    let run = DelayTestGenerator::new(&c, faults.clone(), AtpgOptions::default(), &prefix).run();
    let mixed_cov = run.report.coverage_pct();
    let total = p + run.num_patterns();

    let pure = pseudo_random_patterns(paper_poly(), width, total);
    let mut sim = FaultSim::new(&c, faults);
    sim.simulate(&pure);
    let pure_cov = sim.report().coverage_pct();

    assert!(
        mixed_cov > pure_cov,
        "mixed {mixed_cov:.2}% must beat pure random {pure_cov:.2}% at length {total}"
    );
}

// ---------------------------------------------------------------------
// HDL emission of real generator hardware
// ---------------------------------------------------------------------

#[test]
fn mixed_generator_netlist_emits_lint_clean_hdl() {
    let c17 = bist_netlist::iscas85::c17();
    let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
    let solution = session.solve_at(8).expect("solvable");
    let netlist = solution.generator.netlist();

    let options = HdlOptions::default().with_module_name("c17_mixed_bist");
    let verilog = emit_verilog(netlist, &options);
    let vhdl = emit_vhdl(netlist, &options);
    bist_hdl::lint::check_verilog(&verilog).expect("clean Verilog");
    bist_hdl::lint::check_vhdl(&vhdl).expect("clean VHDL");
    assert!(verilog.contains("module c17_mixed_bist"));
    assert!(vhdl.contains("entity c17_mixed_bist is"));

    // the testbench must carry the generator's whole emitted sequence
    let (random, deterministic) = solution.generator.replay();
    let expected: Vec<Pattern> = random.into_iter().chain(deterministic).collect();
    let tb = emit_verilog_testbench(netlist, &options, &expected);
    assert!(tb.matches("expect_mem[").count() > expected.len());
    bist_hdl::lint::check_verilog(&tb).expect("clean testbench");
}

// ---------------------------------------------------------------------
// baseline encoders on a real ATPG set, cross-checked by fault grading
// ---------------------------------------------------------------------

#[test]
fn encoders_reproduce_atpg_coverage_on_c880() {
    let c = bist_netlist::iscas85::circuit("c880").expect("known benchmark");
    let faults = FaultList::mixed_model(&c);
    let run = bist_atpg::TestGenerator::new(&c, faults.clone(), Default::default()).run();
    let seq = run.sequence();

    for (name, replay) in [
        (
            "rom-counter",
            RomCounter::new(&seq).expect("valid").sequence(),
        ),
        (
            "counter-pla",
            CounterPla::synthesize(&seq).expect("valid").sequence(),
        ),
    ] {
        let mut sim = FaultSim::new(&c, faults.clone());
        sim.simulate(&replay);
        assert_eq!(
            sim.report().detected,
            run.report.detected,
            "{name} replay must grade identically"
        );
    }
}
