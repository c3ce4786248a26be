//! **Figure 4** — C3540 fault coverage versus pseudo-random sequence
//! length.
//!
//! The paper applies an LFSR sequence (degree-16 primitive polynomial,
//! scan expansion) to C3540 under the stuck-at + stuck-open model and
//! plots coverage against length: a fast rise (≈88.4 % at 200 patterns),
//! then a long flat tail limited by random-pattern-resistant and redundant
//! faults (ceiling 96.7 %). One `JobSpec::CoverageCurve` per circuit,
//! batched across the engine pool.
//!
//! ```text
//! bist-bench fig4_random_coverage
//! bist-bench fig4_random_coverage --circuits c432,c880 --quick
//! bist-bench fig4_random_coverage --format json
//! ```

use std::process::ExitCode;

use bist_bench::output::{Cell, Report, Section, TableData};
use bist_bench::{paper, ExperimentArgs, LENGTH_CHECKPOINTS};
use bist_engine::json::Json;
use bist_engine::JobSpec;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c3540"]);
    let checkpoints: Vec<usize> = if args.quick {
        vec![0, 50, 200]
    } else {
        LENGTH_CHECKPOINTS.to_vec()
    };
    let jobs: Vec<JobSpec> = args
        .sources()
        .into_iter()
        .map(|source| JobSpec::coverage_curve(source, checkpoints.clone()))
        .collect();

    let mut report = Report::new(
        "Figure 4",
        "fault coverage vs pseudo-random sequence length (stuck-at + stuck-open)",
    );
    for result in args.run_batch(jobs) {
        let outcome = result.as_coverage_curve().expect("curve outcome");
        let reference: &[(usize, f64)] = if outcome.circuit == "c3540" {
            &paper::FIG4_C3540
        } else {
            &[]
        };

        let mut section = Section::new(&outcome.circuit);
        section.fact("fault_universe", Json::uint(outcome.fault_universe));
        let mut table = TableData::new(&[
            ("length", "length"),
            ("coverage_pct", "coverage %"),
            ("paper_ref_pct", "paper (ref)"),
        ]);
        for &(len, cov) in outcome.curve.points() {
            let reference_cell = reference
                .iter()
                .find(|(l, _)| *l == len)
                .map(|&(_, c)| Cell::float(c, 1))
                .unwrap_or_else(|| Cell::text("-"));
            table.row(vec![Cell::uint(len), Cell::float(cov, 2), reference_cell]);
        }
        section.table(table);
        assert!(
            outcome.curve.is_monotone(),
            "coverage must be monotone in length"
        );
        if let Some(final_cov) = outcome.curve.final_coverage() {
            section.note(format!("final coverage: {final_cov:.2} %"));
            if outcome.circuit == "c3540" {
                section.note(format!(
                    "paper ceiling: {:.1} % (135 redundant faults)",
                    paper::C3540_MAX_COVERAGE_PCT
                ));
            }
        }
        report.section(section);
    }
    report.emit(args.format);
    ExitCode::SUCCESS
}
