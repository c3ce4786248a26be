//! **BENCH_faultmodels** — wall-time and coverage of the mixed-scheme
//! sweep under every fault model, recorded machine-readably so the cost
//! of the model-generic engine is tracked over time.
//!
//! ```text
//! bist-bench bench_faultmodels
//! bist-bench bench_faultmodels --quick
//! bist-bench bench_faultmodels --circuits c432 --threads 4
//! ```
//!
//! One `JobSpec::Sweep` per circuit × model (stuck-at, transition,
//! bridging) through the `bist-engine` job API — the exact code path
//! `bist sweep <c> --fault-model <m>` runs. Writes
//! `BENCH_faultmodels.json` into the current directory: per circuit and
//! model the universe size, the end-to-end sweep wall-time, the solved
//! `(p, d)` frontier and the final coverage. The JSON carries the shared
//! `schema_version`; the pool width moves wall-clock only — solved
//! results are bit-identical at every width, so compare timings between
//! runs of the same width only.

use std::process::ExitCode;
use std::time::Instant;

use bist_bench::schema::{points, write_artifact};
use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::json::Json;
use bist_engine::{CircuitSource, Engine, FaultModel, JobSpec, SweepSpec};

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c432", "c880"]);
    banner(
        "BENCH faultmodels",
        "mixed-scheme sweep wall-time per fault model",
    );
    args.warn_fixed_format("bench_faultmodels");
    let prefixes: Vec<usize> = if args.quick {
        vec![0, 50, 100]
    } else {
        vec![0, 100, 200, 500]
    };
    let models = [
        FaultModel::StuckAt,
        FaultModel::Transition,
        FaultModel::bridging(),
    ];
    let config = MixedSchemeConfig {
        threads: args.threads,
        ..MixedSchemeConfig::default()
    };
    let engine = Engine::with_threads(args.threads);
    let threads = engine.threads();
    println!("prefix checkpoints: {prefixes:?}  ({threads} threads)\n");

    let mut rows: Vec<Json> = Vec::new();
    for named_source in args.sources() {
        let name = named_source.label().to_owned();
        // realize once, outside every timed region: no model pays
        // netlist synthesis, so the times compare only the flows
        let circuit = named_source.realize().unwrap_or_else(|e| {
            eprintln!("cannot load circuit: {e}");
            std::process::exit(2);
        });
        let source = CircuitSource::Inline(circuit);
        let mut model_rows = Vec::with_capacity(models.len());
        for model in models {
            let t = Instant::now();
            let outcome = engine
                .run(JobSpec::Sweep(SweepSpec {
                    circuit: source.clone(),
                    config: config.clone(),
                    prefix_lengths: prefixes.clone(),
                    fault_model: model,
                    estimate_first: false,
                }))
                .expect("sweep job succeeds");
            let seconds = t.elapsed().as_secs_f64();
            let sweep = outcome.as_sweep().expect("sweep outcome");
            let last = sweep
                .summary
                .solutions()
                .last()
                .expect("at least one checkpoint");
            let (universe, final_coverage_pct) =
                (last.coverage.total(), last.coverage.coverage_pct());
            println!(
                "{:>6} {:<12} {:>7} faults  {:>8.2}s  final {:>6.2}%  d(last) {}",
                name,
                model.name(),
                universe,
                seconds,
                final_coverage_pct,
                last.det_len
            );
            let mut row = Json::object();
            row.push("model", Json::str(model.to_string()))
                .push("universe", Json::uint(universe))
                .push("seconds", Json::Float(seconds))
                .push("final_coverage_pct", Json::Float(final_coverage_pct))
                .push("points", points(sweep.summary.solutions()));
            model_rows.push(row);
        }
        let mut row = Json::object();
        row.push("circuit", Json::str(name))
            .push("models", Json::Array(model_rows));
        rows.push(row);
    }

    write_artifact(
        "BENCH_faultmodels.json",
        "faultmodels",
        vec![
            ("threads", Json::uint(threads)),
            (
                "prefix_lengths",
                Json::Array(prefixes.iter().map(|&p| Json::uint(p)).collect()),
            ),
            ("circuits", Json::Array(rows)),
        ],
    );
    ExitCode::SUCCESS
}
