//! **Extension B** — bake-off of the TPG architectures the paper's §1
//! surveys, on equal terms.
//!
//! The paper's Table 1 prices only the two extremes (full-deterministic
//! LFSROM vs plain LFSR). This experiment adds the surveyed baselines —
//! store-and-generate ROM, counter-addressed PLA embedding, hybrid
//! 90/150 cellular automaton, weighted random, multiple-polynomial LFSR
//! reseeding — each encoding the *same* ATPG test set or spending the
//! *same* random pattern budget, and re-grades every row by fault
//! simulation of the hardware's actual output. One `JobSpec::Bakeoff`
//! per circuit, batched across the engine pool.
//!
//! ```text
//! bist-bench ext_tpg_bakeoff
//! bist-bench ext_tpg_bakeoff --circuits c880 --quick
//! ```

use std::process::ExitCode;

use bist_bench::{banner, ExperimentArgs};
use bist_engine::JobSpec;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c432", "c880", "c1355"]);
    banner(
        "Extension B",
        "TPG architecture bake-off (area vs test length vs coverage)",
    );
    args.warn_fixed_format("ext_tpg_bakeoff");
    let random_length = if args.quick { 200 } else { 1000 };
    let jobs: Vec<JobSpec> = args
        .sources()
        .into_iter()
        .map(|source| JobSpec::bakeoff(source, random_length))
        .collect();
    for result in args.run_batch(jobs) {
        let outcome = result.as_bakeoff().expect("bakeoff outcome");
        let bakeoff = &outcome.bakeoff;
        println!(
            "\n{} — {} deterministic patterns, ceiling {:.2} %, ATPG {:.2} %",
            outcome.circuit,
            bakeoff.deterministic_patterns,
            bakeoff.achievable_pct,
            bakeoff.atpg_coverage_pct
        );
        println!(
            "{:<20} {:>8} {:>10} {:>10}   kind",
            "architecture", "patterns", "area mm²", "coverage"
        );
        for row in &bakeoff.rows {
            println!(
                "{:<20} {:>8} {:>10.3} {:>9.2}%   {}",
                row.architecture,
                row.test_length,
                row.area_mm2,
                row.coverage_pct,
                if row.deterministic {
                    "deterministic"
                } else {
                    "pseudo-random"
                }
            );
        }
        // the paper's two extreme claims, re-checked per circuit
        let lfsr = bakeoff.row("lfsr").expect("always present");
        for row in &bakeoff.rows {
            assert!(
                row.area_mm2 >= lfsr.area_mm2,
                "{} undercuts the plain LFSR",
                row.architecture
            );
        }
    }
    println!("\nShape claim: the LFSR is always the cheapest and never reaches the");
    println!("ceiling; all deterministic encoders reproduce the ATPG coverage at a");
    println!("silicon price that tracks how much test-set structure they can share.");
    ExitCode::SUCCESS
}
