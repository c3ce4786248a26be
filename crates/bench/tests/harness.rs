//! End-to-end tests of the `bist-bench` command: the experiment table,
//! usage errors, the `bench_check` gates on real files, and artifacts
//! that the checker and `bist_engine::json` read back.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use bist_engine::json::{self, Json};

const EXPERIMENTS: [&str; 18] = [
    "fig4_random_coverage",
    "fig5_mixed_coverage",
    "fig6_deterministic_areas",
    "fig7_mixed_cost",
    "fig8_mixed_overhead",
    "table1_extremes",
    "table2_mixed_solutions",
    "ext_bridging_coverage",
    "ext_delay_coverage",
    "ext_scan_flow",
    "ext_tpg_bakeoff",
    "bench_sweep",
    "bench_collapse",
    "bench_faultsim",
    "bench_par",
    "bench_faultmodels",
    "bench_check",
    "probe",
];

fn bench_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bist-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn bench(args: &[&str]) -> Output {
    bench_in(Path::new(env!("CARGO_MANIFEST_DIR")), args)
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("UTF-8 stdout")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("UTF-8 stderr")
}

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench_baseline.json")
}

fn fresh_dir(test: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "bist-bench-{test}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn no_argument_lists_every_experiment() {
    for args in [&[][..], &["help"], &["--help"]] {
        let output = bench(args);
        assert_eq!(output.status.code(), Some(0), "{args:?}");
        let text = stdout(&output);
        for name in EXPERIMENTS {
            assert!(
                text.contains(&format!("  {name} ")),
                "{args:?} lists {name}"
            );
        }
    }
}

#[test]
fn usage_errors_exit_2() {
    let unknown = bench(&["fig9_missing"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(stderr(&unknown).contains("unknown experiment `fig9_missing`"));
    assert!(
        stderr(&unknown).contains("table1_extremes"),
        "the table follows"
    );

    for (args, message) in [
        (
            &["table1_extremes", "--circuit", "c17"][..],
            "unknown flag `--circuit`",
        ),
        (
            &["table1_extremes", "--threads", "x"],
            "--threads takes a count, got `x`",
        ),
        (
            &["bench_faultsim", "--patterns"],
            "--patterns takes a value",
        ),
        (
            &["table1_extremes", "--format", "yaml"],
            "--format takes text or json, got `yaml`",
        ),
        (&["bench_check", "only-one.json"], "usage: bench_check"),
    ] {
        let output = bench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(stderr(&output).contains(message), "{args:?}");
        assert!(stdout(&output).is_empty(), "{args:?} ran nothing");
    }
}

#[test]
fn bench_check_passes_the_baseline_against_itself() {
    let baseline = baseline_path();
    let baseline = baseline.to_str().expect("UTF-8 path");
    let output = bench(&["bench_check", baseline, baseline]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert!(stdout(&output).contains("c432: speedup"));
    assert!(stdout(&output).contains("all gates passed (tolerance 20%)"));
}

#[test]
fn bench_check_fails_each_gate_naming_what_broke() {
    let baseline_text = std::fs::read_to_string(baseline_path()).expect("committed baseline");
    let dir = fresh_dir("check");
    let baseline = baseline_path();
    let baseline = baseline.to_str().expect("UTF-8 path");
    for (edit, message) in [
        (
            ("\"d\": 166", "\"d\": 167"),
            "c432: solved points drifted from baseline",
        ),
        (
            ("\"schema_version\": 2", "\"schema_version\": 1"),
            "measured.json: schema_version 1 does not match the supported version 2",
        ),
        (
            ("\"patterns_simulated\": 100", "\"patterns_simulated\": 101"),
            "c432: patterns_simulated 101 != baseline 100",
        ),
        (
            ("\"speedup\": 2.263", "\"speedup\": 1.0"),
            "c432: speedup 1.000 fell below 1.810",
        ),
        (
            ("\"atpg_cache_hits\": 397", "\"atpg_cache_hits\": 0"),
            "c432: multi-point sweep reports no ATPG cache reuse",
        ),
    ] {
        let edited = baseline_text.replacen(edit.0, edit.1, 1);
        assert_ne!(edited, baseline_text, "the baseline holds {}", edit.0);
        std::fs::write(dir.join("measured.json"), edited).expect("scratch file");
        let output = bench_in(&dir, &["bench_check", "measured.json", baseline]);
        assert_eq!(output.status.code(), Some(1), "{edit:?}");
        let errors = stderr(&output);
        assert!(errors.contains(message), "{edit:?}: {errors}");
    }
}

#[test]
fn table1_prints_one_parsable_json_document() {
    let output = bench(&["table1_extremes", "--circuits", "c17", "--format", "json"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let doc = json::parse(&stdout(&output)).expect("stdout is one JSON document");
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some("Table 1")
    );
    let sections = doc
        .get("sections")
        .and_then(Json::as_array)
        .expect("sections");
    let rows = sections[0]
        .get("rows")
        .and_then(Json::as_array)
        .expect("rows");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get("circuit").and_then(Json::as_str), Some("c17"));
}

#[test]
fn the_faultsim_artifact_carries_the_shared_header() {
    let dir = fresh_dir("faultsim");
    let output = bench_in(
        &dir,
        &[
            "bench_faultsim",
            "--circuits",
            "c17",
            "--patterns",
            "100",
            "--threads",
            "1",
        ],
    );
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = std::fs::read_to_string(dir.join("BENCH_faultsim.json")).expect("artifact");
    let doc = json::parse(&text).expect("the artifact is JSON");
    let keys: Vec<&str> = match &doc {
        Json::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("artifact is an object, got {other:?}"),
    };
    assert_eq!(
        keys,
        [
            "experiment",
            "schema_version",
            "available_parallelism",
            "threads",
            "circuits"
        ]
    );
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some("faultsim")
    );
    assert_eq!(doc.get("schema_version").and_then(Json::as_i64), Some(2));
    assert!(doc.get("available_parallelism").and_then(Json::as_usize) >= Some(1));
    let circuits = doc.get("circuits").and_then(Json::as_array).expect("rows");
    assert_eq!(circuits.len(), 1);
    assert_eq!(
        circuits[0].get("circuit").and_then(Json::as_str),
        Some("c17")
    );
    assert_eq!(
        circuits[0].get("patterns").and_then(Json::as_usize),
        Some(100)
    );
    assert_eq!(circuits[0].get("blocks").and_then(Json::as_usize), Some(2));
}
