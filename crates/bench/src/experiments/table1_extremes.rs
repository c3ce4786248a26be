//! **Table 1** — the two extremes of the trade-off for every ISCAS-85
//! circuit: the full-deterministic LFSROM generator versus the pure
//! pseudo-random LFSR.
//!
//! One `JobSpec::AreaReport` per circuit prices the deterministic
//! extreme; the pure pseudo-random column is the paper's shared 16-bit
//! LFSR (0.25 mm² for every circuit), synthesized once with the same
//! area model. The paper's reading: full-deterministic costs
//! tens-to-hundreds of percent; the LFSR costs almost nothing but cannot
//! reach deterministic coverage.
//!
//! ```text
//! bist-bench table1_extremes
//! bist-bench table1_extremes --circuits c17,c432
//! bist-bench table1_extremes --format json
//! ```

use std::process::ExitCode;

use bist_bench::output::{Cell, Report, Section, TableData};
use bist_bench::ExperimentArgs;
use bist_core::prelude::*;
use bist_engine::json::Json;
use bist_engine::JobSpec;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(
        argv,
        &[
            "c17", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288",
            "c7552",
        ],
    );
    let config = MixedSchemeConfig::default();
    let lfsr_mm2 = config.area.circuit_area_mm2(&lfsr_netlist(config.poly));
    let jobs: Vec<JobSpec> = args
        .sources()
        .into_iter()
        .map(JobSpec::area_report)
        .collect();

    let mut report = Report::new(
        "Table 1",
        "full deterministic vs pure pseudo-random extremes, all ISCAS-85",
    );
    let mut section = Section::new("");
    section.fact("lfsr_mm2", Json::Float(lfsr_mm2));
    let mut table = TableData::new(&[
        ("circuit", "circuit"),
        ("inputs", "#I"),
        ("chip_mm2", "chip mm2"),
        ("patterns", "#patterns"),
        ("lfsrom_mm2", "LFSROM mm2"),
        ("lfsrom_incr_pct", "incr %"),
        ("lfsr_mm2", "LFSR mm2"),
        ("lfsr_incr_pct", "incr %"),
    ]);
    for result in args.run_batch(jobs) {
        let r = result.as_area_report().expect("area outcome");
        table.row(vec![
            Cell::text(&r.circuit),
            Cell::uint(r.inputs),
            Cell::float(r.chip_mm2, 2),
            Cell::uint(r.det_len),
            Cell::float(r.generator_mm2, 2),
            Cell::float(r.overhead_pct, 1),
            Cell::float(lfsr_mm2, 2),
            Cell::float(100.0 * lfsr_mm2 / r.chip_mm2, 1),
        ]);
    }
    section.table(table);
    section
        .note("(paper reference: C3540 row = 3.8 | 144 patterns, 2.5 mm², 68 % | 0.25 mm², 7.5 %)");
    report.section(section);
    report.emit(args.format);
    ExitCode::SUCCESS
}
