//! **BENCH_sweep** — wall-time of the trade-off sweep, old one-shot path
//! versus the incremental `BistSession` path, recorded machine-readably
//! so the perf trajectory of the workspace is tracked over time.
//!
//! ```text
//! cargo run --release -p bist-bench --bin bench_sweep
//! cargo run --release -p bist-bench --bin bench_sweep -- --quick
//! cargo run --release -p bist-bench --bin bench_sweep -- --circuits c432
//! cargo run --release -p bist-bench --bin bench_sweep -- --threads 4
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
//! The JSON carries a `schema_version` (currently 2); `bench_check`
//! refuses to compare files of different versions. The emitted
//! `atpg_cache_hits` is the total deterministic-search reuse of the
//! session path: whole top-ups answered for an already-seen frontier
//! (`atpg_frontier_hits`) plus individual PODEM searches answered from
//! the per-fault cube cache (`podem_cache_hits`). The pool width
//! (`--threads`, default `BIST_THREADS`/machine) moves wall-clock only —
//! the *solved results* and the work counters are identical at every
//! width; compare timings only between runs of the same width.

use std::fmt::Write as _;
use std::time::Instant;

use bist_bench::schema::{Fnv, SCHEMA_VERSION};
use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::{CircuitSource, Engine, FaultModel, JobSpec, SolveAtSpec, SweepSpec};

struct CircuitResult {
    name: String,
    session_s: f64,
    oneshot_s: f64,
    grading_session_s: f64,
    grading_oneshot_s: f64,
    collapsed_session_s: f64,
    full_universe_session_s: f64,
    projected_digest: u64,
    stats: SessionStats,
    points: Vec<(usize, usize)>,
}

/// FNV-1a over the full-universe status vector — the cross-leg
/// fingerprint written into the JSON.
fn absorb_statuses(digest: &mut Fnv, statuses: &[FaultStatus]) {
    for s in statuses {
        for byte in format!("{s:?}").bytes() {
            digest.push(byte);
        }
    }
}

fn main() {
    banner(
        "BENCH sweep",
        "incremental JobSpec::Sweep vs point-wise one-shot JobSpec::SolveAt",
    );
    let args = ExperimentArgs::parse(&["c432", "c3540"]);
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

    let mut results: Vec<CircuitResult> = Vec::new();
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
        results.push(CircuitResult {
            name,
            session_s,
            oneshot_s,
            grading_session_s,
            grading_oneshot_s,
            collapsed_session_s,
            full_universe_session_s,
            projected_digest,
            stats,
            points: sweep
                .summary
                .solutions()
                .iter()
                .map(|s| (s.prefix_len, s.det_len))
                .collect(),
        });
    }

    let json = render_json(&prefixes, threads, &results);
    std::fs::write("BENCH_sweep.json", &json).expect("writable working directory");
    println!("\nwrote BENCH_sweep.json ({} bytes)", json.len());
}

fn render_json(prefixes: &[usize], threads: usize, results: &[CircuitResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"sweep\",\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(
        out,
        "  \"prefix_lengths\": [{}],",
        prefixes
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str("  \"circuits\": [\n");
    for (i, r) in results.iter().enumerate() {
        let points = r
            .points
            .iter()
            .map(|(p, d)| format!("{{\"p\": {p}, \"d\": {d}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "    {{\n      \"circuit\": \"{}\",\n      \"session_seconds\": {:.4},\n      \
             \"oneshot_seconds\": {:.4},\n      \"speedup\": {:.3},\n      \
             \"prefix_grading_session_seconds\": {:.4},\n      \
             \"prefix_grading_oneshot_seconds\": {:.4},\n      \
             \"prefix_grading_speedup\": {:.3},\n      \
             \"collapsed_session_seconds\": {:.4},\n      \
             \"full_universe_session_seconds\": {:.4},\n      \
             \"collapsed_session_speedup\": {:.3},\n      \
             \"projected_digest\": \"{:016x}\",\n      \
             \"patterns_simulated\": {},\n      \"patterns_resimulated\": {},\n      \
             \"atpg_runs\": {},\n      \"atpg_cache_hits\": {},\n      \
             \"atpg_frontier_hits\": {},\n      \"podem_cache_hits\": {},\n      \
             \"points\": [{}]\n    }}",
            r.name,
            r.session_s,
            r.oneshot_s,
            r.oneshot_s / r.session_s,
            r.grading_session_s,
            r.grading_oneshot_s,
            r.grading_oneshot_s / r.grading_session_s,
            r.collapsed_session_s,
            r.full_universe_session_s,
            r.full_universe_session_s / r.collapsed_session_s,
            r.projected_digest,
            r.stats.patterns_simulated,
            r.stats.patterns_resimulated,
            r.stats.atpg_runs,
            r.stats.atpg_cache_hits + r.stats.podem_cache_hits,
            r.stats.atpg_cache_hits,
            r.stats.podem_cache_hits,
            points
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
