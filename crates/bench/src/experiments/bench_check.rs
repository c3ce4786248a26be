//! **bench_check** — gates CI on a committed `BENCH_sweep.json` baseline.
//!
//! ```text
//! bist-bench bench_check BENCH_sweep.json ci/bench_baseline.json
//! bist-bench bench_check BENCH_sweep.json ci/bench_baseline.json 20
//! ```
//!
//! Four gates — a schema gate on each file, then three per circuit:
//!
//! 0. **Schema** — both files must declare `"schema_version"` equal to
//!    the version this checker understands; a missing or mismatched
//!    version aborts with a clear message instead of silently comparing
//!    incompatible layouts.
//! 1. **Correctness** — the solved `(p, d)` points and the
//!    `patterns_simulated` counter must match the baseline exactly; the
//!    flow is deterministic, so any drift is a real behaviour change.
//! 2. **Performance** — the session-vs-one-shot `speedup` may not fall
//!    more than the tolerance (default 20 %) below the baseline's.
//!    Absolute seconds are meaningless across runner generations; the
//!    one-shot path measured in the same process is the calibration that
//!    makes the ratio transferable.
//! 3. **Cache efficacy** — on multi-point sweeps `atpg_cache_hits` must
//!    stay positive: a sweep that stops reusing deterministic searches
//!    has silently lost its main optimization.
//!
//! Both files are parsed with [`bist_engine::json::parse`]. Exits 1
//! listing every violated gate, 2 on a usage error.

use std::process::ExitCode;

use bist_bench::schema::check_schema;
use bist_engine::json::{self, Json};

pub fn run(argv: &[String]) -> ExitCode {
    let (measured_path, baseline_path, tolerance) = match argv {
        [m, b] => (m, b, None),
        [m, b, t] => (m, b, Some(t)),
        _ => {
            eprintln!("usage: bench_check <measured.json> <baseline.json> [tolerance_pct]");
            return ExitCode::from(2);
        }
    };
    let tolerance_pct: f64 = match tolerance.map(|t| t.parse()) {
        None => 20.0,
        Some(Ok(t)) => t,
        Some(Err(_)) => {
            eprintln!("bench_check: tolerance must be a number, got `{}`", argv[2]);
            return ExitCode::from(2);
        }
    };

    let read = |path: &str| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("bench_check: cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("bench_check: {path}: {e}"))
    };
    let (measured, baseline) = match (read(measured_path), read(baseline_path)) {
        (Ok(measured), Ok(baseline)) => (measured, baseline),
        (measured, baseline) => {
            for message in [measured.err(), baseline.err()].into_iter().flatten() {
                eprintln!("{message}");
            }
            return ExitCode::FAILURE;
        }
    };

    // gate 0: never compare files of different layouts
    for schema in [
        check_schema(measured_path, &measured),
        check_schema(baseline_path, &baseline),
    ] {
        if let Err(message) = schema {
            eprintln!("bench_check FAILURE: {message}");
            return ExitCode::FAILURE;
        }
    }

    let shown = |value: Option<&Json>| value.map_or_else(|| "missing".to_owned(), Json::render);
    let mut failures: Vec<String> = Vec::new();
    if circuits(&baseline).is_empty() {
        failures.push(format!("baseline {baseline_path} lists no circuits"));
    }
    for base in circuits(&baseline) {
        let name = name_of(base).unwrap_or("?");
        let Some(meas) = circuits(&measured)
            .iter()
            .find(|c| name_of(c) == Some(name))
        else {
            failures.push(format!("{name}: missing from {measured_path}"));
            continue;
        };

        // gate 1: deterministic outputs
        let points = meas.get("points");
        if base.get("points").is_none() || base.get("points") != points {
            failures.push(format!(
                "{name}: solved points drifted from baseline\n  baseline: {}\n  measured: {}",
                shown(base.get("points")),
                shown(points)
            ));
        }
        let patterns = meas.get("patterns_simulated");
        if base.get("patterns_simulated") != patterns {
            failures.push(format!(
                "{name}: patterns_simulated {} != baseline {}",
                shown(patterns),
                shown(base.get("patterns_simulated"))
            ));
        }

        // gate 2: relative performance
        let speedup = |c: &Json| c.get("speedup").and_then(Json::as_f64);
        let (Some(base_speedup), Some(meas_speedup)) = (speedup(base), speedup(meas)) else {
            failures.push(format!(
                "{name}: speedup field missing from one of the files"
            ));
            continue;
        };
        let floor = base_speedup * (1.0 - tolerance_pct / 100.0);
        if meas_speedup < floor {
            failures.push(format!(
                "{name}: speedup {meas_speedup:.3} fell below {floor:.3} \
                 (baseline {base_speedup:.3} - {tolerance_pct}%)"
            ));
        } else {
            println!("{name}: speedup {meas_speedup:.3} (baseline {base_speedup:.3}, floor {floor:.3}) ok");
        }

        // gate 3: the sweep keeps reusing deterministic searches
        let points = points.and_then(Json::as_array).map_or(0, <[Json]>::len);
        let hits = meas
            .get("atpg_cache_hits")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if points > 1 && hits <= 0.0 {
            failures.push(format!(
                "{name}: multi-point sweep reports no ATPG cache reuse (atpg_cache_hits = {hits})"
            ));
        }
    }

    if failures.is_empty() {
        println!("bench_check: all gates passed (tolerance {tolerance_pct}%)");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_check FAILURE: {f}");
        }
        ExitCode::FAILURE
    }
}

fn circuits(doc: &Json) -> &[Json] {
    doc.get("circuits").and_then(Json::as_array).unwrap_or(&[])
}

fn name_of(circuit: &Json) -> Option<&str> {
    circuit.get("circuit").and_then(Json::as_str)
}
