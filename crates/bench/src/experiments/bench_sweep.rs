//! **BENCH_sweep** — wall-time of the trade-off sweep, old one-shot path
//! versus the incremental `BistSession` path, recorded machine-readably
//! so the perf trajectory of the workspace is tracked over time.
//!
//! ```text
//! bist-bench bench_sweep
//! bist-bench bench_sweep --quick
//! bist-bench bench_sweep --circuits c432
//! bist-bench bench_sweep --threads 4
//! ```
//!
//! Both paths run through the `bist-engine` job API: the session path is
//! one `JobSpec::Sweep` (a single incremental session), the historical
//! one-shot path is one `JobSpec::SolveAt` per point (a fresh session
//! each, exactly the pre-session behaviour). Writes `BENCH_sweep.json`
//! into the current directory: per circuit the end-to-end sweep
//! wall-times of both paths, the isolated *prefix-grading* wall-times
//! (fault-list construction + pseudo-random fault simulation — the
//! component the session de-quadratifies), the session's work counters
//! and the solved `(p, d)` frontier. Both paths must produce
//! bit-identical solutions — enforced here before the numbers are
//! written. A third pair of legs runs the same sweep on a direct
//! `BistSession::new` (representative-only grading, the default
//! everywhere) versus `BistSession::full_universe` (the
//! counterfactual): `collapsed_session_speedup` is what collapsing
//! buys inside the exact flow, and the shared `projected_digest` proves
//! both legs commit the same full-universe statuses at every
//! checkpoint.
//!
//! The JSON carries the shared artifact header (`schema_version`,
//! currently 2, and `available_parallelism`); `bench_check` refuses to
//! compare files of different versions. The emitted
//! `atpg_cache_hits` is the total deterministic-search reuse of the
//! session path: whole top-ups answered for an already-seen frontier
//! (`atpg_frontier_hits`) plus individual PODEM searches answered from
//! the per-fault cube cache (`podem_cache_hits`). The pool width
//! (`--threads`, default `BIST_THREADS`/machine) moves wall-clock only —
//! the *solved results* and the work counters are identical at every
//! width; compare timings only between runs of the same width.

use std::process::ExitCode;
use std::time::Instant;

use bist_bench::schema::{points, write_artifact, Fnv};
use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::json::Json;
use bist_engine::{CircuitSource, Engine, FaultModel, JobSpec, SolveAtSpec, SweepSpec};

/// FNV-1a over the full-universe status vector — the cross-leg
/// fingerprint written into the JSON.
fn absorb_statuses(digest: &mut Fnv, statuses: &[FaultStatus]) {
    for s in statuses {
        for byte in format!("{s:?}").bytes() {
            digest.push(byte);
        }
    }
}

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c432", "c3540"]);
    banner(
        "BENCH sweep",
        "incremental JobSpec::Sweep vs point-wise one-shot JobSpec::SolveAt",
    );
    args.warn_fixed_format("bench_sweep");
    let prefixes: Vec<usize> = if args.quick {
        vec![0, 50, 100]
    } else {
        vec![0, 100, 200, 500, 1000]
    };
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
        // realize once, outside every timed region, and hand all timed
        // jobs the same inline circuit: neither path pays netlist
        // synthesis, so the ratio compares only the flows themselves
        let circuit = named_source.realize().unwrap_or_else(|e| {
            eprintln!("cannot load circuit: {e}");
            std::process::exit(2);
        });
        let source = CircuitSource::Inline(circuit.clone());

        // --- new path: one sweep job = one incremental session ---
        let t = Instant::now();
        let sweep = engine
            .run(JobSpec::Sweep(SweepSpec {
                circuit: source.clone(),
                config: config.clone(),
                prefix_lengths: prefixes.clone(),
                fault_model: FaultModel::default(),
                estimate_first: false,
            }))
            .expect("sweep job succeeds");
        let session_s = t.elapsed().as_secs_f64();
        let sweep = sweep.as_sweep().expect("sweep outcome");
        let stats = sweep.stats;

        // --- old path: a fresh session per point (the historical
        // one-shot behaviour), as individual solve-at jobs ---
        let t = Instant::now();
        let mut oneshot = Vec::with_capacity(prefixes.len());
        for &p in &prefixes {
            let solved = engine
                .run(JobSpec::SolveAt(SolveAtSpec {
                    circuit: source.clone(),
                    config: config.clone(),
                    prefix_len: p,
                    fault_model: FaultModel::default(),
                    estimate_first: false,
                }))
                .expect("solve job succeeds");
            oneshot.push(
                solved
                    .as_solve_at()
                    .expect("solve outcome")
                    .solution
                    .clone(),
            );
        }
        let oneshot_s = t.elapsed().as_secs_f64();

        // both paths must agree bit-for-bit before the numbers count
        for (a, b) in sweep.summary.solutions().iter().zip(&oneshot) {
            assert_eq!(a.det_len, b.det_len, "paths diverge at p={}", a.prefix_len);
            assert_eq!(
                a.generator.deterministic(),
                b.generator.deterministic(),
                "paths diverge at p={}",
                a.prefix_len
            );
        }

        // --- the component the session de-quadratifies, in isolation:
        // fault-list construction + pseudo-random prefix grading ---
        let t = Instant::now();
        let curve = engine
            .run(JobSpec::CoverageCurve(bist_engine::CoverageCurveSpec {
                circuit: source.clone(),
                config: config.clone(),
                checkpoints: prefixes.clone(),
                fault_model: FaultModel::default(),
            }))
            .expect("curve job succeeds");
        let grading_session_s = t.elapsed().as_secs_f64();
        let curve = curve.as_coverage_curve().expect("curve outcome");

        let width = circuit.inputs().len();
        let poly = config.poly;
        let t = Instant::now();
        let mut oneshot_curve = Vec::with_capacity(prefixes.len());
        for &p in &prefixes {
            // the historical per-point restart: rebuild the universe,
            // regenerate and re-grade the whole prefix
            let mut sim = FaultSim::new(&circuit, FaultList::mixed_model(&circuit))
                .with_threads(config.threads);
            sim.simulate(&pseudo_random_patterns(poly, width, p));
            oneshot_curve.push((p, sim.report().coverage_pct()));
        }
        let grading_oneshot_s = t.elapsed().as_secs_f64();
        assert_eq!(
            curve.curve.points(),
            &oneshot_curve[..],
            "grading paths diverge"
        );

        // --- representative-only grading in the exact flow vs the
        // full-universe counterfactual: the same sweep on one direct
        // `BistSession` per universe. The projection at every
        // checkpoint ties the two legs bit-for-bit, so the timing ratio
        // is also an identity check. Each leg is timed twice on a fresh
        // session and the minimum kept: the legs are deterministic, so
        // min-of-N isolates the leg's true cost from scheduler and
        // allocator jitter, which on shared boxes reaches double digits. ---
        let t = Instant::now();
        let mut collapsed_session = BistSession::new(&circuit, config.clone());
        let collapsed_summary = collapsed_session
            .sweep(&prefixes)
            .expect("collapsed sweep succeeds");
        let mut collapsed_session_s = t.elapsed().as_secs_f64();
        {
            let mut retry = BistSession::new(&circuit, config.clone());
            let t = Instant::now();
            retry.sweep(&prefixes).expect("collapsed sweep succeeds");
            collapsed_session_s = collapsed_session_s.min(t.elapsed().as_secs_f64());
        }
        // the default session IS the engine path above: the committed
        // solutions must be bit-identical
        for (a, b) in sweep
            .summary
            .solutions()
            .iter()
            .zip(collapsed_summary.solutions())
        {
            assert_eq!(
                a.det_len, b.det_len,
                "collapsed session diverges from the engine sweep at p={}",
                a.prefix_len
            );
            assert_eq!(
                a.generator.deterministic(),
                b.generator.deterministic(),
                "collapsed session diverges from the engine sweep at p={}",
                a.prefix_len
            );
        }

        let t = Instant::now();
        let mut full_session = BistSession::full_universe(&circuit, config.clone());
        full_session
            .sweep(&prefixes)
            .expect("full-universe sweep succeeds");
        let mut full_universe_session_s = t.elapsed().as_secs_f64();
        {
            let mut retry = BistSession::full_universe(&circuit, config.clone());
            let t = Instant::now();
            retry
                .sweep(&prefixes)
                .expect("full-universe sweep succeeds");
            full_universe_session_s = full_universe_session_s.min(t.elapsed().as_secs_f64());
        }

        // both legs must agree on the full-universe statuses at every
        // checkpoint; the digest lands in the JSON so any drift is
        // visible across runs and machines
        let mut digest = Fnv::new();
        for &p in &prefixes {
            let a = collapsed_session.full_universe_statuses_at(p);
            let b = full_session.full_universe_statuses_at(p);
            assert_eq!(a, b, "full-universe projection diverges at p={p}");
            absorb_statuses(&mut digest, &a);
        }
        let projected_digest = digest.finish();

        println!(
            "{:>6}: collapsed session {collapsed_session_s:6.2}s vs full universe \
             {full_universe_session_s:6.2}s ({:4.2}x), digest {projected_digest:016x}",
            name,
            full_universe_session_s / collapsed_session_s,
        );
        println!(
            "{:>6}: sweep {session_s:8.2}s vs {oneshot_s:8.2}s ({:4.2}x) | prefix grading \
             {grading_session_s:6.2}s vs {grading_oneshot_s:6.2}s ({:4.2}x) | patterns {} \
             once vs {} re-graded | ATPG {} runs, {} frontier hits, {} cube hits",
            name,
            oneshot_s / session_s,
            grading_oneshot_s / grading_session_s,
            stats.patterns_simulated,
            prefixes.iter().sum::<usize>(),
            stats.atpg_runs,
            stats.atpg_cache_hits,
            stats.podem_cache_hits,
        );
        let mut row = Json::object();
        row.push("circuit", Json::str(name))
            .push("session_seconds", Json::Float(session_s))
            .push("oneshot_seconds", Json::Float(oneshot_s))
            .push("speedup", Json::Float(oneshot_s / session_s))
            .push(
                "prefix_grading_session_seconds",
                Json::Float(grading_session_s),
            )
            .push(
                "prefix_grading_oneshot_seconds",
                Json::Float(grading_oneshot_s),
            )
            .push(
                "prefix_grading_speedup",
                Json::Float(grading_oneshot_s / grading_session_s),
            )
            .push(
                "collapsed_session_seconds",
                Json::Float(collapsed_session_s),
            )
            .push(
                "full_universe_session_seconds",
                Json::Float(full_universe_session_s),
            )
            .push(
                "collapsed_session_speedup",
                Json::Float(full_universe_session_s / collapsed_session_s),
            )
            .push(
                "projected_digest",
                Json::str(format!("{projected_digest:016x}")),
            )
            .push("patterns_simulated", Json::uint(stats.patterns_simulated))
            .push(
                "patterns_resimulated",
                Json::uint(stats.patterns_resimulated),
            )
            .push("atpg_runs", Json::uint(stats.atpg_runs))
            .push(
                "atpg_cache_hits",
                Json::uint(stats.atpg_cache_hits + stats.podem_cache_hits),
            )
            .push("atpg_frontier_hits", Json::uint(stats.atpg_cache_hits))
            .push("podem_cache_hits", Json::uint(stats.podem_cache_hits))
            .push("points", points(sweep.summary.solutions()));
        rows.push(row);
    }

    write_artifact(
        "BENCH_sweep.json",
        "sweep",
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
