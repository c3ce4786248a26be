//! **BENCH_par** — scaling of the parallel PPSFP fault-simulation engine
//! across pool widths, with the bit-identity contract enforced on every
//! measurement.
//!
//! ```text
//! bist-bench bench_par
//! bist-bench bench_par --quick
//! bist-bench bench_par --circuits c3540 --threads 8
//! ```
//!
//! For each circuit one `JobSpec::CoverageCurve` (full mixed fault
//! universe, the pattern budget as its single checkpoint) runs per pool
//! width (1, 2, … up to `--threads` or the machine width), through an
//! `Engine` pinned to that width. Each width is timed as the best of
//! several repetitions — the first repetition doubles as the warm-up,
//! and the minimum is the stable estimate on a noisy container. After
//! every timed run the curve is compared against the one-thread
//! reference, and an *untimed* direct `FaultSim` pass at the same width
//! re-asserts the full bit-identity contract — per-fault statuses and
//! first-detection indices, not just the coverage percentage. Writes
//! `BENCH_par.json` with per-width wall-times and speedups (each timed
//! measurement includes the fault-list build, identically at every
//! width). Only a block's cone walks shard, and only when there are at
//! least `workers × 128` of them (`workers` being the pool width clamped
//! to the machine; see DESIGN.md §16): smaller blocks, and every width
//! on a machine narrower than the pool, grade inline, so the JSON then
//! documents the overhead-free fallback rather than the scaling. This
//! experiment is what placed that walk-count cutoff.

use std::process::ExitCode;
use std::time::Instant;

use bist_bench::schema::write_artifact;
use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::json::Json;
use bist_engine::{CoverageCurveSpec, Engine, JobSpec};

pub fn run(argv: &[String]) -> ExitCode {
    // c432's blocks never reach the sharding cutoff, so its row would
    // time the inline fallback at every width
    let args = ExperimentArgs::parse(argv, &["c3540", "c5315"]);
    banner(
        "BENCH par",
        "PPSFP fault-simulation scaling across pool widths",
    );
    args.warn_fixed_format("bench_par");
    let budget = if args.quick { 500 } else { 2000 };
    let max_threads = if args.threads > 0 {
        args.threads
    } else {
        bist_par::num_threads().max(4)
    };
    let widths: Vec<usize> = (0..)
        .map(|e| 1usize << e)
        .take_while(|&w| w <= max_threads)
        .collect();
    println!("pattern budget {budget}, pool widths {widths:?}\n");

    let poly = MixedSchemeConfig::default().poly;
    let mut rows: Vec<Json> = Vec::new();
    for source in args.sources() {
        let circuit = source.realize().unwrap_or_else(|e| {
            eprintln!("cannot load circuit: {e}");
            std::process::exit(2);
        });
        let fault_list = FaultList::mixed_model(&circuit);
        let patterns = pseudo_random_patterns(poly, circuit.inputs().len(), budget);

        let mut reference: Option<(f64, usize)> = None;
        let mut bit_reference: Option<FaultSim> = None;
        let mut times: Vec<(usize, f64)> = Vec::new();
        for &w in &widths {
            let engine = Engine::with_threads(w);
            let config = MixedSchemeConfig {
                threads: w,
                ..MixedSchemeConfig::default()
            };
            let spec = || {
                JobSpec::CoverageCurve(CoverageCurveSpec {
                    circuit: source.clone(),
                    config: config.clone(),
                    checkpoints: vec![budget],
                    fault_model: Default::default(),
                })
            };
            // best-of-N: repetition one is the warm-up, the minimum is
            // the measurement
            let reps = if args.quick { 3 } else { 5 };
            let mut seconds = f64::INFINITY;
            let mut result = None;
            for _ in 0..reps {
                let t = Instant::now();
                let r = engine.run(spec()).unwrap_or_else(|e| {
                    eprintln!("coverage job failed: {e}");
                    std::process::exit(2);
                });
                seconds = seconds.min(t.elapsed().as_secs_f64());
                result = Some(r);
            }
            let result = result.expect("at least one repetition");
            let outcome = result.as_coverage_curve().expect("curve outcome");
            let pct = outcome.curve.points()[0].1;
            times.push((w, seconds));
            match &reference {
                None => reference = Some((pct, outcome.fault_universe)),
                Some((serial_pct, universe)) => {
                    assert_eq!(
                        *serial_pct,
                        pct,
                        "{}: width {w} diverged from serial",
                        source.label()
                    );
                    assert_eq!(*universe, outcome.fault_universe);
                }
            }

            // the full contract, untimed: per-fault statuses and
            // first-detection indices must match the one-thread
            // reference bit for bit (coverage_pct alone could mask a
            // same-count-different-faults merge regression)
            let mut sim = FaultSim::new(&circuit, fault_list.clone()).with_threads(w);
            sim.simulate(&patterns);
            match &bit_reference {
                None => bit_reference = Some(sim),
                Some(serial) => {
                    assert_eq!(
                        serial.statuses(),
                        sim.statuses(),
                        "{}: width {w} statuses diverged from serial",
                        source.label()
                    );
                    for i in 0..fault_list.len() {
                        assert_eq!(
                            serial.first_detection(i),
                            sim.first_detection(i),
                            "{}: width {w}, fault {i}",
                            source.label()
                        );
                    }
                }
            }
        }
        let (_, faults) = reference.expect("at least one width measured");
        let serial_s = times[0].1;
        let line: Vec<String> = times
            .iter()
            .map(|&(w, s)| format!("{w}t {s:.3}s ({:.2}x)", serial_s / s))
            .collect();
        println!(
            "{:>6}: {} faults, {} patterns | {}",
            source.label(),
            faults,
            budget,
            line.join(" | ")
        );
        let runs = times
            .iter()
            .map(|&(w, s)| {
                let mut run = Json::object();
                run.push("threads", Json::uint(w))
                    .push("seconds", Json::Float(s))
                    .push("speedup", Json::Float(serial_s / s));
                run
            })
            .collect();
        let mut row = Json::object();
        row.push("circuit", Json::str(source.label()))
            .push("faults", Json::uint(faults))
            .push("patterns", Json::uint(budget))
            .push("runs", Json::Array(runs));
        rows.push(row);
    }

    write_artifact(
        "BENCH_par.json",
        "par_scaling",
        vec![
            ("pattern_budget", Json::uint(budget)),
            ("circuits", Json::Array(rows)),
        ],
    );
    ExitCode::SUCCESS
}
