//! **Figure 7** — C3540 mixed hardware generator cost versus mixed
//! sequence length.
//!
//! The frontier runs from the pure-deterministic extreme (the paper:
//! `d_max = 2.5 mm²`) down towards the bare-LFSR asymptote
//! (`p_min = 0.25 mm²`): the longer the pseudo-random prefix, the fewer
//! deterministic patterns remain to encode, the cheaper the generator.
//! One `JobSpec::Sweep` per circuit; the asymptote is the bare LFSR
//! netlist priced by the same area model.
//!
//! ```text
//! bist-bench fig7_mixed_cost
//! bist-bench fig7_mixed_cost --format json
//! ```

use std::process::ExitCode;

use bist_bench::output::{Cell, Report, Section, TableData};
use bist_bench::{paper, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::json::Json;
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

    let mut report = Report::new("Figure 7", "mixed generator cost vs mixed sequence length");
    for result in args.run_batch(jobs) {
        let outcome = result.as_sweep().expect("sweep outcome");
        let mut section = Section::new(&outcome.circuit);
        section.fact("lfsr_asymptote_mm2", Json::Float(lfsr_mm2));
        let mut table = TableData::new(&[
            ("p", "p"),
            ("d", "d"),
            ("total", "p+d"),
            ("cost_mm2", "cost (mm2)"),
        ]);
        for s in outcome.summary.solutions() {
            table.row(vec![
                Cell::uint(s.prefix_len),
                Cell::uint(s.det_len),
                Cell::uint(s.total_len()),
                Cell::float(s.generator_area_mm2, 3),
            ]);
        }
        section.table(table);
        section.note(format!(
            "bare LFSR asymptote: {:.3} mm² (paper p-min: {:.2} mm²)",
            lfsr_mm2,
            paper::c3540::LFSR_MM2
        ));
        if outcome.circuit == "c3540" {
            section.note(format!(
                "paper d-max: {:.1} mm² (full deterministic LFSROM)",
                paper::c3540::LFSROM_MM2
            ));
        }
        let areas: Vec<f64> = outcome
            .summary
            .solutions()
            .iter()
            .map(|s| s.generator_area_mm2)
            .collect();
        assert!(
            areas.first() > areas.last(),
            "cost must fall as the mixed sequence grows"
        );
        report.section(section);
    }
    report.emit(args.format);
    ExitCode::SUCCESS
}
