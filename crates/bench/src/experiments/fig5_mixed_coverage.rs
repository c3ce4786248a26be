//! **Figure 5** — C3540 fault coverage versus *mixed* sequence length for
//! tuples `(p_i, d_i)`.
//!
//! Each curve point solves the whole mixed flow: `p` pseudo-random
//! patterns, fault simulation, ATPG top-up of length `d`, final coverage.
//! The paper's reading: every tuple reaches the maximal (ATPG-limited)
//! coverage, and a longer prefix buys a shorter deterministic suffix —
//! e.g. its `(p₇=200, d₇=64)` and `(p=1000, d=26)` examples. One
//! `JobSpec::Sweep` per circuit, batched across the engine pool.
//!
//! ```text
//! bist-bench fig5_mixed_coverage
//! bist-bench fig5_mixed_coverage --format json
//! ```

use std::process::ExitCode;

use bist_bench::output::{Cell, Report, Section, TableData};
use bist_bench::ExperimentArgs;
use bist_engine::JobSpec;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c3540"]);
    let prefixes: Vec<usize> = if args.quick {
        vec![0, 100]
    } else {
        vec![0, 100, 200, 500, 1000]
    };
    let jobs: Vec<JobSpec> = args
        .sources()
        .into_iter()
        .map(|source| JobSpec::sweep(source, prefixes.clone()))
        .collect();

    let mut report = Report::new(
        "Figure 5",
        "fault coverage vs mixed sequence length for (p, d) tuples",
    );
    for result in args.run_batch(jobs) {
        let outcome = result.as_sweep().expect("sweep outcome");
        let mut section = Section::new(&outcome.circuit);
        let mut table = TableData::new(&[
            ("p", "p"),
            ("d", "d"),
            ("total", "p+d"),
            ("prefix_coverage_pct", "prefix cov (%)"),
            ("coverage_pct", "final cov (%)"),
        ]);
        let mut final_covs = Vec::new();
        for s in outcome.summary.solutions() {
            table.row(vec![
                Cell::uint(s.prefix_len),
                Cell::uint(s.det_len),
                Cell::uint(s.total_len()),
                Cell::float(s.prefix_coverage.coverage_pct(), 2),
                Cell::float(s.coverage.coverage_pct(), 2),
            ]);
            final_covs.push(s.coverage.coverage_pct());
        }
        section.table(table);
        // the paper's claim: all tuples reach the same maximal coverage
        // (small spread allowed: longer prefixes may catch faults the
        // ATPG aborted on)
        let max = final_covs.iter().copied().fold(0.0f64, f64::max);
        assert!(
            final_covs.iter().all(|c| (c - max).abs() < 2.0),
            "all mixed tuples should converge to the maximal coverage"
        );
        section.note(format!(
            "all tuples reach the maximal coverage: {max:.2} % (spread < 2 %)"
        ));
        report.section(section);
    }
    report.emit(args.format);
    ExitCode::SUCCESS
}
