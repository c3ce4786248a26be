//! **Table 2** — mixed test solutions for the larger ISCAS-85 circuits:
//! the `(p, d)` composition of each mixed sequence with the corresponding
//! generator cost and overhead.
//!
//! The paper sweeps prefix lengths per circuit (its rows run up to the
//! pure pseudo-random `∞` row); the reproduction runs one
//! `JobSpec::Sweep` per circuit plus one `JobSpec::CoverageCurve` point
//! for the `∞` row's coverage, with the bare LFSR priced by the shared
//! area model. (The `∞` row's grading is a separate job with its own
//! fault universe — slightly more total work than extending the sweep's
//! session, traded for the two jobs running concurrently on a parallel
//! pool.) The reading: every circuit exhibits the inverse
//! length/cost relationship, and a `p ≈ 1000` point cuts the overhead by
//! a factor of a few versus the deterministic extreme.
//!
//! ```text
//! bist-bench table2_mixed_solutions
//! bist-bench table2_mixed_solutions --circuits c3540 --quick
//! bist-bench table2_mixed_solutions --format json
//! ```

use std::process::ExitCode;

use bist_bench::output::{Cell, Report, Section, TableData};
use bist_bench::{paper, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::JobSpec;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &paper::TABLE2_CIRCUITS);
    let (prefixes, inf_len): (Vec<usize>, usize) = if args.quick {
        (vec![0, 200], 1000)
    } else {
        (vec![0, 100, 500, 1000, 2000], 5000)
    };
    let config = MixedSchemeConfig::default();
    let lfsr_mm2 = config.area.circuit_area_mm2(&lfsr_netlist(config.poly));

    let mut report = Report::new(
        "Table 2",
        "mixed test solutions for the larger ISCAS-85 circuits",
    );
    for source in args.sources() {
        let results = args.run_batch(vec![
            JobSpec::sweep(source.clone(), prefixes.clone()),
            JobSpec::coverage_curve(source, [inf_len]),
        ]);
        let (sweep, curve) = (&results[0], &results[1]);
        let outcome = sweep.as_sweep().expect("sweep outcome");
        let mut section = Section::new(&outcome.circuit);
        let mut table = TableData::new(&[
            ("p", "p"),
            ("d", "d"),
            ("total", "p+d"),
            ("cost_mm2", "cost (mm2)"),
            ("incr_pct", "incr %"),
            ("coverage_pct", "coverage %"),
        ]);
        let mut chip_mm2 = 1.0;
        for s in outcome.summary.solutions() {
            table.row(vec![
                Cell::uint(s.prefix_len),
                Cell::uint(s.det_len),
                Cell::uint(s.total_len()),
                Cell::float(s.generator_area_mm2, 3),
                Cell::float(s.overhead_pct(), 1),
                Cell::float(s.coverage.coverage_pct(), 2),
            ]);
            chip_mm2 = s.chip_area_mm2;
        }
        // the ∞ row: pure pseudo-random, coverage from the curve job
        let inf_cov = curve
            .as_coverage_curve()
            .expect("curve outcome")
            .curve
            .final_coverage()
            .unwrap_or(0.0);
        table.row(vec![
            Cell::text("inf"),
            Cell::uint(0),
            Cell::text("inf"),
            Cell::float(lfsr_mm2, 3),
            Cell::float(100.0 * lfsr_mm2 / chip_mm2, 1),
            Cell::float(inf_cov, 2),
        ]);
        section.table(table);
        section.note(format!(
            "(the `inf` row is the pure pseudo-random extreme, graded at p={inf_len})"
        ));
        report.section(section);
    }
    report.emit(args.format);
    ExitCode::SUCCESS
}
