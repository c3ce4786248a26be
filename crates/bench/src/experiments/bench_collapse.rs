//! **BENCH_collapse** — what fault collapsing and sampled estimation
//! buy, recorded machine-readably so the universe cuts and the
//! representative-grading speedup are tracked over time.
//!
//! ```text
//! bist-bench bench_collapse
//! bist-bench bench_collapse --quick
//! bist-bench bench_collapse --circuits c880 --patterns 2048
//! ```
//!
//! Three measurements per circuit, all over the same LFSR pseudo-random
//! sequence:
//!
//! 1. **universe cut** — [`CollapsedUniverse`] sizes: full stuck-at
//!    faults, equivalence-class representatives, dominance-prime
//!    targets, and the cut percentage;
//! 2. **grading speedup** — one full-universe [`FaultSim`] pass versus
//!    one representatives-only pass projected back through the class
//!    map; the projected report is asserted equal to the full one, so
//!    the timing comparison is also an identity check;
//! 3. **estimation shortcut** — [`estimate_coverage`] with the default
//!    sample budget against the exact full pass, as a wall-clock ratio
//!    (`estimate_seconds / full_sim_seconds`);
//! 4. **collapsed session** — one `BistSession::solve_at` on
//!    `BistSession::new` (representative-only grading and ATPG, the
//!    default everywhere) versus one on `BistSession::full_universe`:
//!    the end-to-end win of collapsing *inside* the exact flow, with
//!    the full-universe projections of both legs asserted identical and
//!    their shared FNV digest written out.
//!
//! The sizes, coverage and interval fields are deterministic; only the
//! `*_seconds` and ratio fields move between machines. Writes
//! `BENCH_collapse.json` into the current directory.

use std::process::ExitCode;
use std::time::Instant;

use bist_bench::schema::{write_artifact, Fnv};
use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::json::Json;
use bist_fault::CollapsedUniverse;
use bist_faultmodel::estimate_coverage;
use bist_par::Pool;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c432", "c3540"]);
    banner(
        "BENCH collapse",
        "universe cuts, representative-grading speedup, estimate-vs-exact cost",
    );
    args.warn_fixed_format("bench_collapse");
    let patterns_budget = match args.patterns {
        Some(budget) => budget,
        None if args.quick => 512,
        None => 4_096,
    };
    let config = MixedSchemeConfig::default();
    println!("pattern budget: {patterns_budget}\n");

    let mut rows = Vec::new();
    for circuit in args.load_circuits() {
        let name = circuit.name().to_owned();
        let universe = CollapsedUniverse::build(&circuit);
        let stats = universe.stats();
        let patterns = pseudo_random_patterns(config.poly, circuit.inputs().len(), patterns_budget);

        // --- full-universe grading: the baseline cost and the oracle ---
        let mut full = FaultSim::new(&circuit, universe.full().clone()).with_threads(args.threads);
        let t = Instant::now();
        full.simulate(&patterns);
        let full_seconds = t.elapsed().as_secs_f64();
        let full_report = full.report();

        // --- representatives only, projected back: must be identical ---
        let mut reps =
            FaultSim::new(&circuit, universe.representatives().clone()).with_threads(args.threads);
        let t = Instant::now();
        reps.simulate(&patterns);
        let collapsed_seconds = t.elapsed().as_secs_f64();
        assert_eq!(
            reps.report_projected(&universe),
            full_report,
            "{name}: projected report must match full-universe grading"
        );

        // --- the sampling shortcut at the same prefix ---
        let t = Instant::now();
        let estimate = estimate_coverage(&circuit, &config, patterns_budget, 256, 95, 0xb157);
        let estimate_seconds = t.elapsed().as_secs_f64();
        let exact_pct = full_report.coverage_pct();
        assert!(
            estimate.lo_pct <= exact_pct && exact_pct <= estimate.hi_pct,
            "{name}: exact coverage {exact_pct:.3} outside the pinned interval \
             [{:.3}, {:.3}]",
            estimate.lo_pct,
            estimate.hi_pct
        );

        // --- the same cut inside the exact flow: a full solve (prefix
        // grading + ATPG top-up + synthesis) per universe ---
        let session_config = MixedSchemeConfig {
            threads: args.threads,
            ..MixedSchemeConfig::default()
        };
        let session_prefix = patterns_budget / 4;
        let t = Instant::now();
        let mut collapsed_session = BistSession::new(&circuit, session_config.clone());
        collapsed_session
            .solve_at(session_prefix)
            .expect("collapsed solve succeeds");
        let session_collapsed_seconds = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut full_session = BistSession::full_universe(&circuit, session_config);
        full_session
            .solve_at(session_prefix)
            .expect("full-universe solve succeeds");
        let session_full_seconds = t.elapsed().as_secs_f64();

        // identical full-universe statuses, or the timings don't count
        let a = collapsed_session.full_universe_statuses_at(session_prefix);
        let b = full_session.full_universe_statuses_at(session_prefix);
        assert_eq!(a, b, "{name}: session projection diverges");
        let mut digest = Fnv::new();
        for s in &a {
            for byte in format!("{s:?}").bytes() {
                digest.push(byte);
            }
        }
        let session_digest = digest.finish();

        println!(
            "{:>6}: {} faults -> {} reps ({:.1} % cut, {} prime) | grading {:.3}s -> {:.3}s \
             | estimate {:.2} % [{:.2}, {:.2}] in {:.0} % of exact time",
            name,
            stats.full,
            stats.representatives,
            stats.cut_pct,
            stats.prime,
            full_seconds,
            collapsed_seconds,
            estimate.estimate_pct,
            estimate.lo_pct,
            estimate.hi_pct,
            100.0 * estimate_seconds / full_seconds,
        );
        println!(
            "        session solve at p={session_prefix}: collapsed {:.3}s vs full universe \
             {:.3}s ({:.2}x), digest {session_digest:016x}",
            session_collapsed_seconds,
            session_full_seconds,
            session_full_seconds / session_collapsed_seconds,
        );
        let mut row = Json::object();
        row.push("circuit", Json::str(name))
            .push("patterns", Json::uint(patterns_budget))
            .push("full_universe", Json::uint(stats.full))
            .push("representatives", Json::uint(stats.representatives))
            .push("prime", Json::uint(stats.prime))
            .push("cut_pct", Json::Float(stats.cut_pct))
            .push("coverage_pct", Json::Float(exact_pct))
            .push("full_sim_seconds", Json::Float(full_seconds))
            .push("collapsed_sim_seconds", Json::Float(collapsed_seconds))
            .push(
                "grading_speedup",
                Json::Float(full_seconds / collapsed_seconds),
            )
            .push("estimate_samples", Json::uint(estimate.samples))
            .push("estimate_pct", Json::Float(estimate.estimate_pct))
            .push("estimate_lo_pct", Json::Float(estimate.lo_pct))
            .push("estimate_hi_pct", Json::Float(estimate.hi_pct))
            .push("estimate_seconds", Json::Float(estimate_seconds))
            .push(
                "estimate_vs_exact_pct",
                Json::Float(100.0 * estimate_seconds / full_seconds),
            )
            .push("session_prefix", Json::uint(session_prefix))
            .push(
                "session_collapsed_seconds",
                Json::Float(session_collapsed_seconds),
            )
            .push("session_full_seconds", Json::Float(session_full_seconds))
            .push(
                "session_speedup",
                Json::Float(session_full_seconds / session_collapsed_seconds),
            )
            .push(
                "session_digest",
                Json::str(format!("{session_digest:016x}")),
            );
        rows.push(row);
    }

    write_artifact(
        "BENCH_collapse.json",
        "collapse",
        vec![
            ("threads", Json::uint(Pool::resolve(args.threads).threads())),
            ("circuits", Json::Array(rows)),
        ],
    );
    ExitCode::SUCCESS
}
