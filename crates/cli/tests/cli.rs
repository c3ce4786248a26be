//! End-to-end tests of the `bist` binary: help snapshot, cache-served
//! reruns byte-identical to computed ones, estimates identical at every
//! pool width, estimate-first runs answered from the unflagged entry,
//! batch-vs-individual bit-identity, and diagnostic exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use bist_engine::json::{self, Json};

fn bist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bist"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("UTF-8 stdout")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("UTF-8 stderr")
}

fn fresh_dir(test: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "bist-cli-{test}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn help_matches_the_committed_snapshot() {
    let expected = include_str!("snapshots/help.txt");
    for args in [&["--help"][..], &["help"], &[]] {
        let output = bist(args);
        assert!(output.status.success(), "{args:?} exits 0");
        assert_eq!(
            stdout(&output),
            expected,
            "`bist {}` drifted from tests/snapshots/help.txt — update the \
             snapshot *and* docs/GUIDE.md together",
            args.join(" ")
        );
    }
    // every subcommand has its own help and exits 0
    for command in [
        "solve", "sweep", "curve", "bakeoff", "emit-hdl", "area", "lint", "batch", "cache",
    ] {
        let output = bist(&[command, "--help"]);
        assert!(output.status.success(), "{command} --help exits 0");
        assert!(
            stdout(&output).starts_with(&format!("bist {command}")),
            "{command} help names itself"
        );
    }
}

#[test]
fn warm_rerun_is_a_cache_hit_and_byte_identical() {
    let cache = fresh_dir("warm");
    let cache = cache.to_str().expect("UTF-8 path");
    let args = &[
        "sweep",
        "c17",
        "--points",
        "0,4,8",
        "--format",
        "json",
        "--cache-dir",
        cache,
    ];

    let cold = bist(args);
    assert!(cold.status.success());
    assert!(stderr(&cold).contains("cache: hits=0 misses=1 stores=1"));

    let warm = bist(args);
    assert!(warm.status.success());
    assert!(
        stderr(&warm).contains("cache: hits=1 misses=0 stores=0"),
        "second run must be served from the cache:\n{}",
        stderr(&warm)
    );
    assert_eq!(
        stdout(&cold),
        stdout(&warm),
        "cache-served JSON must be byte-identical to the computed run"
    );

    // cache stats sees the entry; clear empties it
    let stats = bist(&["cache", "stats", "--cache-dir", cache, "--format", "json"]);
    let doc = json::parse(&stdout(&stats)).expect("valid stats JSON");
    assert_eq!(doc.get("entries").and_then(Json::as_usize), Some(1));
    let clear = bist(&["cache", "clear", "--cache-dir", cache]);
    assert!(stdout(&clear).contains("removed 1 entries"));
    // --no-cache runs the job but leaves the directory alone
    let nocache = bist(&[
        "sweep",
        "c17",
        "--points",
        "0,4,8",
        "--cache-dir",
        cache,
        "--no-cache",
        "--quiet",
    ]);
    assert!(nocache.status.success());
    assert!(
        !stderr(&nocache).contains("cache:"),
        "--no-cache reports no cache line"
    );
    let stats = bist(&["cache", "stats", "--cache-dir", cache, "--format", "json"]);
    let doc = json::parse(&stdout(&stats)).expect("valid stats JSON");
    assert_eq!(doc.get("entries").and_then(Json::as_usize), Some(0));
}

#[test]
fn fault_model_runs_are_distinct_cache_entries_and_cache_cleanly() {
    let cache = fresh_dir("models");
    let cache = cache.to_str().expect("UTF-8 path");
    let args = |model: &'static str| {
        vec![
            "sweep",
            "c17",
            "--points",
            "0,8",
            "--fault-model",
            model,
            "--format",
            "json",
            "--cache-dir",
            cache,
        ]
    };

    // stuck-at, transition and bridging all run end-to-end and miss
    // each other's cache entries (three distinct digests)
    let mut outputs = Vec::new();
    for model in ["stuck-at", "transition", "bridging"] {
        let cold = bist(&args(model));
        assert!(cold.status.success(), "{model}: {}", stderr(&cold));
        assert!(
            stderr(&cold).contains("misses=1 stores=1"),
            "{model} is its own entry:\n{}",
            stderr(&cold)
        );
        let warm = bist(&args(model));
        assert!(warm.status.success());
        assert!(stderr(&warm).contains("hits=1 misses=0"));
        assert_eq!(
            stdout(&cold),
            stdout(&warm),
            "{model}: cache-served JSON must be byte-identical"
        );
        outputs.push(stdout(&cold));
    }
    assert_ne!(outputs[0], outputs[1], "models grade different universes");
    assert_ne!(outputs[0], outputs[2]);

    // the explicit default shares the implicit default's cache entry:
    // pre-existing stuck-at keys are unchanged
    let implicit = bist(&[
        "sweep",
        "c17",
        "--points",
        "0,8",
        "--format",
        "json",
        "--cache-dir",
        cache,
    ]);
    assert!(implicit.status.success());
    assert!(
        stderr(&implicit).contains("hits=1 misses=0"),
        "an unflagged sweep hits the stuck-at entry:\n{}",
        stderr(&implicit)
    );
    assert_eq!(stdout(&implicit), outputs[0]);

    // unknown models are usage errors, before any work
    let bad = bist(&["sweep", "c17", "--points", "0,8", "--fault-model", "warp"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("warp"));
}

#[test]
fn warm_estimate_is_a_flagged_byte_identical_cache_hit() {
    let cache = fresh_dir("estimate");
    let cache = cache.to_str().expect("UTF-8 path");
    let args = &[
        "estimate",
        "c432",
        "--prefix",
        "100",
        "--format",
        "json",
        "--cache-dir",
        cache,
    ];

    let cold = bist(args);
    assert!(cold.status.success(), "{}", stderr(&cold));
    assert!(stderr(&cold).contains("cache: hits=0 misses=1 stores=1"));
    assert!(stdout(&cold).contains("\"job\": \"estimate\""));

    let warm = bist(args);
    assert!(warm.status.success());
    assert!(
        stderr(&warm).contains("cache: hits=1 misses=0 stores=0"),
        "second estimate must be served from the cache:\n{}",
        stderr(&warm)
    );
    assert!(
        stderr(&warm).contains("finished (cache hit)"),
        "the hit is flagged:\n{}",
        stderr(&warm)
    );
    assert_eq!(stdout(&cold), stdout(&warm), "byte-identical estimate");
}

#[test]
fn estimate_is_byte_identical_at_widths_1_and_4() {
    let at_width = |threads: &str| {
        Command::new(env!("CARGO_BIN_EXE_bist"))
            .env("BIST_THREADS", threads)
            .args([
                "estimate",
                "c432",
                "--prefix",
                "100",
                "--no-cache",
                "--format",
                "json",
            ])
            .output()
            .expect("binary runs")
    };
    let (one, four) = (at_width("1"), at_width("4"));
    assert!(one.status.success() && four.status.success());
    assert_eq!(stdout(&one), stdout(&four), "the sample ignores the width");
}

#[test]
fn estimate_first_sweep_is_answered_from_the_unflagged_entry() {
    // a cold flagged run streams its preview …
    let preview = bist(&[
        "sweep",
        "c17",
        "--points",
        "0,8",
        "--estimate-first",
        "--no-cache",
    ]);
    assert!(preview.status.success());
    assert!(stderr(&preview).contains("estimate p="), "cold preview");

    // … but the flag stays out of the job digest: a flagged sweep is
    // answered exactly from the unflagged sweep's entry, preview-free
    let cache = fresh_dir("estimate-first");
    let cache = cache.to_str().expect("UTF-8 path");
    let sweep = |flagged: bool| {
        let mut args = vec![
            "sweep",
            "c432",
            "--points",
            "0,50",
            "--format",
            "json",
            "--cache-dir",
            cache,
        ];
        if flagged {
            args.push("--estimate-first");
        }
        bist(&args)
    };
    let plain = sweep(false);
    assert!(plain.status.success());
    assert!(stderr(&plain).contains("cache: hits=0 misses=1 stores=1"));
    let flagged = sweep(true);
    assert!(flagged.status.success());
    assert!(
        stderr(&flagged).contains("cache: hits=1 misses=0 stores=0"),
        "the flagged sweep hits the unflagged entry:\n{}",
        stderr(&flagged)
    );
    assert_eq!(stdout(&plain), stdout(&flagged), "byte-identical sweep");
    assert!(
        !stderr(&flagged).contains("estimate p="),
        "a warm hit streams no preview:\n{}",
        stderr(&flagged)
    );
}

const MANIFEST: &str = r#"
[defaults]
circuit = "c17"

[[job]]
kind = "sweep"
points = [0, 4, 8]

[[job]]
kind = "solve"
prefix = 6

[[job]]
kind = "curve"
points = [0, 8]
"#;

#[test]
fn batch_is_bit_identical_to_individual_invocations_and_caches() {
    let dir = fresh_dir("batch");
    let manifest_path = dir.join("jobs.toml");
    std::fs::write(&manifest_path, MANIFEST).expect("manifest written");
    let manifest_path = manifest_path.to_str().expect("UTF-8 path");
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("UTF-8 path");

    let batch = bist(&[
        "batch",
        manifest_path,
        "--format",
        "json",
        "--cache-dir",
        cache,
        "--quiet",
    ]);
    assert!(batch.status.success(), "batch fails: {}", stderr(&batch));
    let docs = json::parse(&stdout(&batch)).expect("valid batch JSON");
    let docs = docs.as_array().expect("array of results");
    assert_eq!(docs.len(), 3);

    // the same three jobs, one process each, against a *separate* cache
    // (so every result here is independently computed)
    let solo_cache = dir.join("solo-cache");
    let solo_cache = solo_cache.to_str().expect("UTF-8 path");
    let individual: Vec<Output> = [
        &["sweep", "c17", "--points", "0,4,8"][..],
        &["solve", "c17", "--prefix", "6"],
        &["curve", "c17", "--points", "0,8"],
    ]
    .iter()
    .map(|args| {
        let mut full: Vec<&str> = args.to_vec();
        full.extend_from_slice(&["--format", "json", "--cache-dir", solo_cache, "--quiet"]);
        bist(&full)
    })
    .collect();

    for (index, solo) in individual.iter().enumerate() {
        assert!(solo.status.success());
        let solo_doc = json::parse(&stdout(solo)).expect("valid solo JSON");
        assert_eq!(
            docs[index].render_pretty(),
            solo_doc.render_pretty(),
            "batch job {index} differs from its individual invocation"
        );
    }

    // warm rerun of the whole manifest: three hits, zero misses — i.e.
    // zero fault-simulation work
    let warm = bist(&[
        "batch",
        manifest_path,
        "--format",
        "json",
        "--cache-dir",
        cache,
    ]);
    assert!(warm.status.success());
    assert!(
        stderr(&warm).contains("cache: hits=3 misses=0 stores=0"),
        "warm manifest rerun must be all hits:\n{}",
        stderr(&warm)
    );
    assert_eq!(
        stdout(&batch),
        stdout(&warm),
        "warm batch JSON is byte-identical"
    );
}

#[test]
fn diagnostics_carry_sources_and_exit_codes() {
    // usage errors exit 2
    let usage = bist(&["sweep", "c17"]);
    assert_eq!(usage.status.code(), Some(2));
    assert!(stderr(&usage).contains("--points"));
    let unknown = bist(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2));

    // engine failures exit 1 with the typed diagnostic
    let missing = bist(&["solve", "c9999", "--prefix", "4", "--quiet"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(stderr(&missing).contains("unknown iscas85 circuit `c9999`"));

    // a malformed .bench file reports file:line: message
    let dir = fresh_dir("diag");
    let bad_bench = dir.join("broken.bench");
    std::fs::write(&bad_bench, "INPUT(a)\nOUTPUT(y)\nwat\n").expect("written");
    let bad_bench = bad_bench.to_str().expect("UTF-8 path");
    let parse = bist(&["area", bad_bench, "--quiet"]);
    assert_eq!(parse.status.code(), Some(1));
    assert!(
        stderr(&parse).contains(&format!("{bad_bench}:3:")),
        "parse diagnostics are file:line-located:\n{}",
        stderr(&parse)
    );

    // ...and so does a malformed manifest
    let bad_manifest = dir.join("bad.toml");
    std::fs::write(
        &bad_manifest,
        "[[job]]\nkind = \"sweep\"\npoints = [0, x]\n",
    )
    .expect("written");
    let bad_manifest = bad_manifest.to_str().expect("UTF-8 path");
    let manifest = bist(&["batch", bad_manifest, "--quiet"]);
    assert_eq!(manifest.status.code(), Some(1));
    assert!(stderr(&manifest).contains(&format!("{bad_manifest}:3:")));

    // a batch with one failing job still reports the others and exits 1
    let mixed = dir.join("mixed.toml");
    std::fs::write(
        &mixed,
        "[[job]]\nkind = \"solve\"\ncircuit = \"c17\"\nprefix = 4\n\n\
         [[job]]\nkind = \"solve\"\ncircuit = \"c9999\"\nprefix = 4\n",
    )
    .expect("written");
    let mixed = mixed.to_str().expect("UTF-8 path");
    let partial = bist(&["batch", mixed, "--format", "json", "--quiet"]);
    assert_eq!(partial.status.code(), Some(1));
    let docs = json::parse(&stdout(&partial)).expect("valid JSON");
    let docs = docs.as_array().expect("array");
    assert_eq!(docs[0].get("job").and_then(Json::as_str), Some("solve"));
    assert_eq!(docs[1].get("job").and_then(Json::as_str), Some("error"));
}

#[test]
fn lint_exit_codes_follow_the_report() {
    let dir = fresh_dir("lint");

    // a clean benchmark exits 0 and reports its testability summary
    let clean = bist(&["lint", "c17", "--format", "json", "--quiet"]);
    assert!(clean.status.success(), "c17 lints clean");
    let doc = json::parse(&stdout(&clean)).expect("valid lint JSON");
    assert_eq!(doc.get("job").and_then(Json::as_str), Some("lint"));
    assert_eq!(doc.get("errors").and_then(Json::as_usize), Some(0));
    assert!(doc.get("scoap").is_some_and(|s| !matches!(s, Json::Null)));

    // a warning-bearing netlist: exit 0 normally, 1 under --deny warnings
    let warny = dir.join("warny.bench");
    std::fs::write(&warny, "INPUT(a)\nINPUT(unused)\nOUTPUT(y)\ny = NOT(a)\n").expect("written");
    let warny = warny.to_str().expect("UTF-8 path");
    let lax = bist(&["lint", warny, "--quiet"]);
    assert!(lax.status.success(), "warnings alone do not fail");
    assert!(stdout(&lax).contains("[BL008]"), "floating input reported");
    let strict = bist(&["lint", warny, "--deny", "warnings", "--quiet"]);
    assert_eq!(strict.status.code(), Some(1), "--deny warnings fails");

    // an unparsable netlist is *reported* (exit 1), not a job failure —
    // stdout still carries the diagnostic with its source line
    let broken = dir.join("broken.bench");
    std::fs::write(&broken, "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").expect("written");
    let broken = broken.to_str().expect("UTF-8 path");
    let parse = bist(&["lint", broken, "--format", "json", "--quiet"]);
    assert_eq!(parse.status.code(), Some(1));
    let doc = json::parse(&stdout(&parse)).expect("valid lint JSON");
    assert_eq!(doc.get("errors").and_then(Json::as_usize), Some(1));
    let diags = doc
        .get("diagnostics")
        .and_then(Json::as_array)
        .expect("diagnostics array");
    assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("BL002"));
    assert_eq!(diags[0].get("line").and_then(Json::as_usize), Some(3));
}

#[test]
fn warm_lint_rerun_is_served_from_the_cache() {
    let cache = fresh_dir("lint-cache");
    let cache = cache.to_str().expect("UTF-8 path");
    let args = &["lint", "c432", "--format", "json", "--cache-dir", cache];

    let cold = bist(args);
    assert!(cold.status.success(), "c432 lints clean");
    assert!(stderr(&cold).contains("cache: hits=0 misses=1 stores=1"));
    assert!(
        stdout(&cold).contains("\"BL013\""),
        "c432's report carries the BL013 testability summary"
    );

    let warm = bist(args);
    assert!(warm.status.success());
    assert!(
        stderr(&warm).contains("cache: hits=1 misses=0 stores=0"),
        "warm lint must be served from the cache:\n{}",
        stderr(&warm)
    );
    assert_eq!(
        stdout(&cold),
        stdout(&warm),
        "cache-served report is byte-identical"
    );
    // served from the cache means zero analysis work: no pass events
    assert!(
        !stderr(&warm).contains("pass:"),
        "warm run must not enter analysis passes:\n{}",
        stderr(&warm)
    );
}

#[test]
fn hdl_artefacts_land_on_disk_with_out() {
    let dir = fresh_dir("hdl");
    let out = dir.join("hdl");
    let out_str = out.to_str().expect("UTF-8 path");
    let output = bist(&[
        "emit-hdl",
        "c17",
        "--prefix",
        "4",
        "--lang",
        "verilog",
        "--testbench",
        "--module",
        "c17_bist",
        "--out",
        out_str,
        "--quiet",
    ]);
    assert!(
        output.status.success(),
        "emit-hdl fails: {}",
        stderr(&output)
    );
    let verilog = std::fs::read_to_string(out.join("c17_bist.v")).expect("verilog file");
    assert!(verilog.contains("module c17_bist"));
    assert!(out.join("c17_bist_tb.v").exists(), "testbench written");
    assert!(!out.join("c17_bist.vhd").exists(), "vhdl not requested");
}
