//! **Figure 6** — silicon areas of the full-deterministic LFSROM hardware
//! generators for the ISCAS-85 family.
//!
//! Per circuit one `JobSpec::AreaReport`: ATPG computes the full
//! deterministic test set (stuck-at + stuck-open), the LFSROM synthesizer
//! turns it into hardware, and the calibrated ES2-1µm-style model prices
//! both the generator and the nominal chip. The paper annotates the
//! figure with the overhead percentages (560 % for c17 down to ≈12 % for
//! c6288) — the shape claim is that full-deterministic BIST is
//! prohibitively expensive for small and mid-size circuits.
//!
//! ```text
//! bist-bench fig6_deterministic_areas
//! bist-bench fig6_deterministic_areas --circuits c17,c432,c880
//! bist-bench fig6_deterministic_areas --format json
//! ```

use std::process::ExitCode;

use bist_bench::output::{Cell, Report, Section, TableData};
use bist_bench::{paper, ExperimentArgs};
use bist_engine::JobSpec;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(
        argv,
        &[
            "c17", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288",
            "c7552",
        ],
    );
    let jobs: Vec<JobSpec> = args
        .sources()
        .into_iter()
        .map(JobSpec::area_report)
        .collect();

    let mut report = Report::new(
        "Figure 6",
        "full deterministic LFSROM generator areas across ISCAS-85",
    );
    let mut section = Section::new("");
    let mut table = TableData::new(&[
        ("circuit", "circuit"),
        ("inputs", "#I"),
        ("patterns", "#patterns"),
        ("chip_mm2", "chip mm2"),
        ("lfsrom_mm2", "LFSROM mm2"),
        ("overhead_pct", "overhead %"),
        ("paper_pct", "paper %"),
    ]);
    for result in args.run_batch(jobs) {
        let r = result.as_area_report().expect("area outcome");
        let reference = paper::FIG6_OVERHEAD_PCT
            .iter()
            .find(|(n, _)| *n == r.circuit)
            .map(|&(_, v)| Cell::float(v, 0))
            .unwrap_or_else(|| Cell::text("-"));
        table.row(vec![
            Cell::text(&r.circuit),
            Cell::uint(r.inputs),
            Cell::uint(r.det_len),
            Cell::float(r.chip_mm2, 2),
            Cell::float(r.generator_mm2, 2),
            Cell::float(r.overhead_pct, 1),
            reference,
        ]);
    }
    section.table(table);
    section.note("shape check: overhead decreases as circuits grow (c17 >> c3540 > c6288)");
    report.section(section);
    report.emit(args.format);
    ExitCode::SUCCESS
}
