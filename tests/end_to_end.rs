//! Workspace-level integration tests: the complete mixed-BIST pipeline
//! across crates, on real (c17) and synthetic-profile benchmarks.

use bist_core::prelude::*;

/// The paper's Figure 2/3 story on the exact c17 netlist: a deterministic
/// sequence is found, encoded in hardware, and the hardware detects every
/// fault when its replayed patterns are graded.
#[test]
fn c17_hardware_patterns_detect_every_fault() {
    let c17 = iscas85::c17();
    let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
    let solution = session.solve_at(6).expect("flow succeeds");
    assert!(solution.generator.verify());

    // grade the *hardware-replayed* sequence from scratch
    let (random, det) = solution.generator.replay();
    let mut sim = FaultSim::new(&c17, FaultList::mixed_model(&c17));
    sim.simulate(&random);
    sim.simulate(&det);
    let report = sim.report();
    assert_eq!(
        report.undetected + report.aborted,
        0,
        "hardware sequence must detect the full universe: {report}"
    );
}

/// The deterministic suffix shrinks monotonically in the prefix length
/// (the lever all the paper's cost curves pull on).
#[test]
fn suffix_shrinks_with_prefix_on_c432() {
    let c = iscas85::circuit("c432").unwrap();
    // one monotone session: the prefix grading is shared across all three
    let mut session = BistSession::new(&c, MixedSchemeConfig::default());
    let d0 = session.solve_at(0).unwrap().det_len;
    let d200 = session.solve_at(200).unwrap().det_len;
    let d800 = session.solve_at(800).unwrap().det_len;
    assert_eq!(session.stats().patterns_simulated, 800);
    assert!(d0 > d200, "d(0)={d0} vs d(200)={d200}");
    assert!(d200 >= d800, "d(200)={d200} vs d(800)={d800}");
}

/// Coverage parity: solving with any prefix reaches the same detected
/// count as the pure deterministic run (ATPG tops up whatever the prefix
/// missed).
#[test]
fn all_prefixes_reach_equal_coverage_on_c880() {
    let c = iscas85::circuit("c880").unwrap();
    let mut session = BistSession::new(&c, MixedSchemeConfig::default());
    let a = session.solve_at(0).unwrap();
    let b = session.solve_at(300).unwrap();
    // abort collateral detection differs between the two runs (the ATPG
    // sees a different fault list either way), so the spread can lean a
    // few faults in either direction — but only a sliver of the universe
    let spread = b.coverage.detected.abs_diff(a.coverage.detected);
    assert!(
        spread * 100 <= a.coverage.total(),
        "coverage spread {spread} too wide"
    );
    assert!(b.generator_area_mm2 <= a.generator_area_mm2);
}

/// The synthesized mixed generator netlist is a well-formed circuit that
/// survives a `.bench` round-trip (so it could be handed to any other
/// tool).
#[test]
fn generator_netlist_round_trips_through_bench_format() {
    let c17 = iscas85::c17();
    let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
    let solution = session.solve_at(4).expect("flow succeeds");
    let netlist = solution.generator.netlist();
    let text = bist_netlist::bench::write(netlist);
    let back = bist_netlist::bench::parse("generator", &text).expect("round-trip parses");
    assert_eq!(back.num_nodes(), netlist.num_nodes());
    assert_eq!(back.num_dffs(), netlist.num_dffs());
}

/// Redundant faults cap the achievable coverage exactly as the paper's
/// 96.7 % ceiling story describes: the planted redundancies in the c3540
/// profile are proven by the ATPG and excluded from the efficiency
/// denominator.
#[test]
fn redundancy_creates_a_coverage_ceiling() {
    let c = iscas85::circuit("c1908").unwrap();
    let mut session = BistSession::new(&c, MixedSchemeConfig::default());
    let s = session.solve_at(100).unwrap();
    assert!(
        s.coverage.redundant > 0,
        "the c1908 profile plants redundant structures"
    );
    assert!(s.coverage.coverage_pct() < 100.0);
    assert!(s.coverage.achievable_pct() < 100.0);
    assert!(s.coverage.efficiency_pct() > s.coverage.coverage_pct());
}

/// The LFSR netlist, the software stepper and the scan expander agree —
/// across the whole pseudo-random phase of a mixed generator.
#[test]
fn pseudo_random_phase_matches_software_model() {
    let c = iscas85::circuit("c499").unwrap();
    let config = MixedSchemeConfig::default();
    let expected = pseudo_random_patterns(config.poly, c.inputs().len(), 40);
    let mut session = BistSession::new(&c, config);
    let s = session.solve_at(40).unwrap();
    assert_eq!(s.generator.expected_random(), &expected[..]);
    let (random, _) = s.generator.replay();
    assert_eq!(random, expected);
}
