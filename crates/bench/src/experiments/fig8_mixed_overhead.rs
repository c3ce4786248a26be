//! **Figure 8** — C3540 mixed generator silicon increase as a percentage
//! of the nominal chip size, versus mixed sequence length.
//!
//! The same frontier as Figure 7 normalized to the chip: from the paper's
//! `d_max = 68 %` (pure deterministic) towards `p_min = 7.5 %` (bare
//! LFSR), with the highlighted practical point `(p = 1000, d = 26)` at
//! ≈20 %. One `JobSpec::Sweep` per circuit.
//!
//! ```text
//! bist-bench fig8_mixed_overhead
//! bist-bench fig8_mixed_overhead --format json
//! ```

use std::process::ExitCode;

use bist_bench::output::{Cell, Report, Section, TableData};
use bist_bench::{paper, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::JobSpec;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c3540"]);
    let prefixes: Vec<usize> = if args.quick {
        vec![0, 200]
    } else {
        vec![0, 100, 200, 500, 1000, 2000]
    };
    let config = MixedSchemeConfig::default();
    let lfsr_mm2 = config.area.circuit_area_mm2(&lfsr_netlist(config.poly));
    let jobs: Vec<JobSpec> = args
        .sources()
        .into_iter()
        .map(|source| JobSpec::sweep(source, prefixes.clone()))
        .collect();

    let mut report = Report::new(
        "Figure 8",
        "mixed generator overhead (% of nominal chip) vs mixed length",
    );
    for result in args.run_batch(jobs) {
        let outcome = result.as_sweep().expect("sweep outcome");
        let mut section = Section::new(&outcome.circuit);
        let mut table = TableData::new(&[
            ("p", "p"),
            ("d", "d"),
            ("total", "p+d"),
            ("cost_mm2", "cost (mm2)"),
            ("overhead_pct", "% of chip"),
        ]);
        let mut chip_mm2 = 0.0;
        for s in outcome.summary.solutions() {
            table.row(vec![
                Cell::uint(s.prefix_len),
                Cell::uint(s.det_len),
                Cell::uint(s.total_len()),
                Cell::float(s.generator_area_mm2, 3),
                Cell::float(s.overhead_pct(), 1),
            ]);
            chip_mm2 = s.chip_area_mm2;
        }
        section.table(table);
        section.note(format!(
            "bare LFSR asymptote: {:.1} % of chip (paper p-min: {:.1} %)",
            100.0 * lfsr_mm2 / chip_mm2,
            paper::c3540::LFSR_OVERHEAD_PCT
        ));
        if outcome.circuit == "c3540" {
            section.note(format!(
                "paper d-max: {:.0} %; paper highlighted point (p=1000): ≈{:.0} %",
                paper::c3540::LFSROM_OVERHEAD_PCT,
                paper::c3540::MIXED_OVERHEAD_PCT
            ));
        }
        report.section(section);
    }
    report.emit(args.format);
    ExitCode::SUCCESS
}
