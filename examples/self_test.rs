//! The complete Figure-1 BIST loop in simulation: mixed generator → CUT →
//! MISR signature → PASS/FAIL, including a fault-injection campaign.
//!
//! ```text
//! cargo run --release --example self_test
//! cargo run --release --example self_test -- c880 200
//! ```

use bist_core::prelude::*;
use bist_core::selftest;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "c432".to_owned());
    let prefix: usize = args.next().map(|s| s.parse()).transpose()?.unwrap_or(100);
    let circuit = iscas85::circuit(&name).ok_or_else(|| format!("unknown circuit `{name}`"))?;
    println!("self-test session for {circuit}");

    // 1. build and verify the mixed generator
    let mut session = BistSession::new(&circuit, MixedSchemeConfig::default());
    let solution = session.solve_at(prefix)?;
    assert!(solution.generator.verify());
    println!(
        "generator: p={}, d={}, {:.3} mm² ({:.1} % of chip)",
        solution.prefix_len,
        solution.det_len,
        solution.generator_area_mm2,
        solution.overhead_pct()
    );

    // 2. the stimulus is exactly what the hardware will emit
    let (random, det) = solution.generator.replay();
    let mut stimulus = random;
    stimulus.extend(det);

    // 3. golden signature via the MISR (the ORA of the paper's Figure 1)
    let golden = selftest::golden_signature(&circuit, &stimulus, paper_poly());
    println!(
        "golden signature: 0x{:04x} after {} patterns (MISR aliasing ≈ 2^-16)",
        golden.signature, golden.patterns_applied
    );

    // 4. fault-injection campaign: sampled faults must FAIL the signature
    let faults = FaultList::mixed_model(&circuit);
    let rate = selftest::fail_rate(&circuit, &stimulus, faults.faults(), paper_poly(), 60);
    println!(
        "fault injection: {:.1} % of sampled faults produce a failing signature",
        rate * 100.0
    );
    println!(
        "(sequence coverage is {:.1} %; the self-test flags what the sequence detects)",
        solution.coverage.coverage_pct()
    );

    // 5. where the random-resistant sites live (SCOAP testability estimate)
    let scoap = bist_lint::ScoapAnalysis::analyze(&circuit).summary(&circuit, 5);
    println!("\nfive most random-resistant nodes by SCOAP:");
    for node in &scoap.resistance {
        println!(
            "  {:<12} CC0={:<4} CC1={:<4} CO={:<4} score {}",
            node.name, node.cc0, node.cc1, node.co, node.score
        );
    }
    Ok(())
}
