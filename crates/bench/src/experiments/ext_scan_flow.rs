//! **Extension S** — the mixed scheme on scan-wrapped sequential
//! circuits, reported in tester clocks.
//!
//! The paper's introduction motivates BIST through scan chains but
//! evaluates only combinational ISCAS-85 circuits. This experiment runs
//! the complete flow on sequential ISCAS-89-profile circuits: full-scan
//! insertion (`bist-scan`), cycle-accurate test-view equivalence, the
//! mixed scheme on the view, and the chain-multiplied test time.
//!
//! ```text
//! bist-bench ext_scan_flow
//! bist-bench ext_scan_flow --quick
//! ```

use std::process::ExitCode;

use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_scan::ScanDesign;

pub fn run(argv: &[String]) -> ExitCode {
    let quick = ExperimentArgs::parse(argv, &[]).quick;
    banner(
        "Extension S",
        "mixed BIST on scan-wrapped sequential circuits (ISCAS-89 profiles)",
    );
    let names: &[&str] = if quick {
        &["s27", "s298"]
    } else {
        &["s27", "s298", "s344", "s641"]
    };
    for name in names {
        let sequential =
            bist_netlist::iscas89::circuit(name).unwrap_or_else(|| panic!("unknown `{name}`"));
        let scan = ScanDesign::insert(&sequential).expect("sequential circuit");
        assert_eq!(
            scan.verify(100, 1995),
            None,
            "{name}: test view must be cycle-accurate"
        );
        let mut session = BistSession::new(scan.test_view(), MixedSchemeConfig::default());
        println!(
            "\n{name}: {} flip-flops, {} gates, chain overhead {:.4} mm²",
            sequential.num_dffs(),
            sequential.num_gates(),
            scan.scan_overhead_mm2(&AreaModel::es2_1um())
        );
        println!(
            "{:>6}  {:>6}  {:>12}  {:>10}  {:>14}",
            "p", "d", "coverage %", "gen mm²", "tester clocks"
        );
        let mut last_area = f64::INFINITY;
        let mut coverages: Vec<f64> = Vec::new();
        for p in [0usize, 128, 512] {
            let solution = session.solve_at(p).expect("solvable");
            assert!(solution.generator.verify(), "{name}: replay must hold");
            println!(
                "{:>6}  {:>6}  {:>11.2}%  {:>10.3}  {:>14}",
                solution.prefix_len,
                solution.det_len,
                solution.coverage.coverage_pct(),
                solution.generator_area_mm2,
                scan.clocks_for(solution.total_len())
            );
            // tiny circuits invert the trade-off (the LFSR dominates the
            // whole generator; see EXPERIMENTS.md finding 4), so monotone
            // shrink is only a claim for CUTs wider than the LFSR
            if scan.pattern_width() > 16 {
                assert!(
                    solution.generator_area_mm2 <= last_area + 1e-9,
                    "{name}: generator must shrink with the prefix"
                );
            }
            last_area = solution.generator_area_mm2;
            coverages.push(solution.coverage.coverage_pct());
        }
        let spread = coverages.iter().cloned().fold(f64::MIN, f64::max)
            - coverages.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 1.5,
            "{name}: all compositions reach the same coverage"
        );
    }
    println!("\nShape claim: the paper's Figure 7 cost fall carries over unchanged to");
    println!("scan designs; the chain converts patterns to clocks at a fixed rate, so");
    println!("the (p, d) trade-off is also a tester-time trade-off.");
    ExitCode::SUCCESS
}
