//! **Extension D** — the mixed-scheme trade-off under the transition
//! (delay) fault model.
//!
//! The paper motivates the mixed scheme with delay faults (§2.2, §3.1)
//! but evaluates only stuck-at + stuck-open. This experiment re-runs the
//! Figure 5 sweep — coverage and deterministic top-up size versus
//! pseudo-random prefix length — under the gate-level transition fault
//! model, where every deterministic test is an ordered two-pattern pair
//! that the LFSROM's order-preserving replay applies verbatim.
//!
//! Each circuit is one `JobSpec::Sweep` with `fault_model: transition`,
//! batched across the engine pool — the exact code path `bist sweep <c>
//! --fault-model transition` runs, so these numbers cannot drift from
//! what users measure.
//!
//! ```text
//! bist-bench ext_delay_coverage
//! bist-bench ext_delay_coverage --circuits c432 --quick
//! ```

use std::process::ExitCode;

use bist_bench::{banner, ExperimentArgs};
use bist_engine::{FaultModel, JobSpec, MixedSchemeConfig, SweepSpec};

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c880", "c1355"]);
    banner(
        "Extension D",
        "transition-fault coverage vs mixed sequence composition",
    );
    args.warn_fixed_format("ext_delay_coverage");
    let prefixes: &[usize] = if args.quick {
        &[0, 64]
    } else {
        &[0, 64, 256, 1024]
    };
    let jobs: Vec<JobSpec> = args
        .sources()
        .into_iter()
        .map(|source| {
            JobSpec::Sweep(SweepSpec {
                circuit: source,
                config: MixedSchemeConfig::default(),
                prefix_lengths: prefixes.to_vec(),
                fault_model: FaultModel::Transition,
                estimate_first: false,
            })
        })
        .collect();
    for outcome in args.run_batch(jobs) {
        let sweep = outcome.as_sweep().expect("sweep outcome");
        let universe = sweep
            .summary
            .solutions()
            .first()
            .map_or(0, |s| s.coverage.total());
        println!("\n{} — {} transition faults", sweep.circuit, universe);
        println!(
            "{:>6}  {:>12}  {:>12}  {:>12}  {:>12}",
            "p", "prefix cov %", "top-up d", "final cov %", "redundant"
        );
        let mut last_d = usize::MAX;
        for solution in sweep.summary.solutions() {
            println!(
                "{:>6}  {:>11.2}%  {:>12}  {:>11.2}%  {:>12}",
                solution.prefix_len,
                solution.prefix_coverage.coverage_pct(),
                solution.det_len,
                solution.coverage.coverage_pct(),
                solution.coverage.redundant
            );
            assert!(
                solution.det_len <= last_d.saturating_add(12),
                "top-up must shrink as the prefix grows (compaction jitter aside)"
            );
            last_d = solution.det_len;
        }
    }
    println!("\nShape claim: like the paper's Figure 5, every prefix length reaches");
    println!("(essentially) the same final coverage; the deterministic pair count d");
    println!("falls monotonically with p.");
    ExitCode::SUCCESS
}
