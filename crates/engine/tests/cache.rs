//! End-to-end contract of the content-addressed result cache: warm runs
//! do zero flow work (observed through the hit/miss counters), results
//! served from disk are bit-identical to computed ones, and damaged
//! entries degrade to misses — never to wrong answers or panics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bist_engine::{
    BistError, CancelToken, CircuitSource, Engine, JobResult, JobSpec, ProgressEvent, ResultCache,
};

/// A fresh, private cache directory per test (under cargo's per-target
/// scratch space, cleaned with the target dir).
fn fresh_dir(test: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "bist-cache-{test}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one job with a sink that collects every event.
fn run_collecting(
    engine: &Engine,
    spec: JobSpec,
) -> (Result<JobResult, BistError>, Vec<ProgressEvent>) {
    let events = Mutex::new(Vec::new());
    let result = engine.run_with(spec, &CancelToken::new(), &|event| {
        events.lock().expect("event lock").push(event);
    });
    (result, events.into_inner().expect("event lock"))
}

fn three_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4, 8]),
        JobSpec::solve_at(CircuitSource::iscas85("c17"), 6),
        JobSpec::coverage_curve(CircuitSource::iscas85("c17"), [0, 8]),
    ]
}

fn sweep_fingerprint(result: &bist_engine::JobResult) -> String {
    let sweep = result.as_sweep().expect("sweep outcome");
    sweep
        .summary
        .solutions()
        .iter()
        .map(|s| {
            let det: Vec<String> = s
                .generator
                .deterministic()
                .iter()
                .map(ToString::to_string)
                .collect();
            format!(
                "p={} d={} cov={:?} area={:016x} det={}",
                s.prefix_len,
                s.det_len,
                s.coverage,
                s.generator_area_mm2.to_bits(),
                det.join(",")
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn warm_batch_rerun_is_all_hits_and_bit_identical() {
    let dir = fresh_dir("warm-batch");

    // cold: every job computes and stores
    let cold = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let cold_results: Vec<_> = cold
        .run_batch(three_jobs())
        .into_iter()
        .map(|r| r.expect("job succeeds"))
        .collect();
    let cache = cold.cache().expect("attached");
    assert_eq!(cache.hits(), 0, "nothing to hit on a cold cache");
    assert_eq!(cache.misses(), 3);
    assert_eq!(cache.stores(), 3);
    assert_eq!(cache.disk_stats().entries, 3);

    // warm: a fresh engine over the same directory answers every job
    // from disk — the cache-hit counters are the assertion that zero
    // flow work (fault simulation, ATPG, synthesis) happened
    let warm = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let events = Mutex::new(Vec::new());
    let results = warm.run_batch_with(three_jobs(), &CancelToken::new(), &|event| {
        events.lock().expect("event lock").push(event);
    });
    let events = events.into_inner().expect("event lock");
    let warm_results: Vec<_> = results
        .into_iter()
        .map(|r| r.expect("job succeeds"))
        .collect();
    let cache = warm.cache().expect("attached");
    assert_eq!(cache.hits(), 3, "every warm job must be a cache hit");
    assert_eq!(cache.misses(), 0);
    assert_eq!(cache.stores(), 0);

    // every member is announced before any starts
    let queued = events
        .iter()
        .take_while(|e| matches!(e, ProgressEvent::Queued { .. }))
        .count();
    assert_eq!(queued, 3, "{events:?}");

    // cached jobs still run the full lifecycle, minus checkpoints
    let mut ids: Vec<_> = events.iter().map(ProgressEvent::job).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 3, "three jobs, one id each: {events:?}");
    for id in ids {
        let events: Vec<_> = events.iter().filter(|e| e.job() == id).collect();
        assert!(
            events.iter().any(|e| matches!(
                e,
                ProgressEvent::Finished {
                    cache_hit: true,
                    ..
                }
            )),
            "warm job answered from the cache"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, ProgressEvent::Finished { .. }))
                .count(),
            1
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ProgressEvent::Checkpoint { .. })),
            "a cache hit performs no checkpointed work"
        );
    }

    // and the answers are bit-identical to the computed ones
    assert_eq!(
        sweep_fingerprint(&cold_results[0]),
        sweep_fingerprint(&warm_results[0])
    );
    let (a, b) = (
        cold_results[1].as_solve_at().expect("solve"),
        warm_results[1].as_solve_at().expect("solve"),
    );
    assert_eq!(a.solution.det_len, b.solution.det_len);
    assert_eq!(
        a.solution.generator.deterministic(),
        b.solution.generator.deterministic()
    );
    assert_eq!(a.stats, b.stats, "cached stats are the producing run's");
    let (a, b) = (
        cold_results[2].as_coverage_curve().expect("curve"),
        warm_results[2].as_coverage_curve().expect("curve"),
    );
    assert_eq!(a.curve.points(), b.curve.points());
}

#[test]
fn warm_estimate_first_job_skips_the_preview() {
    let dir = fresh_dir("estimate-first");
    let with_preview = || {
        let mut spec = JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]);
        if let JobSpec::Sweep(s) = &mut spec {
            s.estimate_first = true;
        }
        spec
    };

    // cold: the preview streams, then the exact run computes and stores
    let cold = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let (cold_result, events) = run_collecting(&cold, with_preview());
    let cold_result = cold_result.expect("sweep succeeds");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Estimate { .. })),
        "cold estimate-first run streams a preview"
    );

    // warm: the flag never feeds the digest, so even a plain spec hits
    // the entry — and a hit answers exactly, skipping the preview
    let warm = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    for spec in [
        JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]),
        with_preview(),
    ] {
        let (warm_result, events) = run_collecting(&warm, spec);
        let warm_result = warm_result.expect("sweep succeeds");
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ProgressEvent::Estimate { .. })),
            "a warm job answers exactly — no preview: {events:?}"
        );
        assert_eq!(
            sweep_fingerprint(&cold_result),
            sweep_fingerprint(&warm_result)
        );
    }
    let cache = warm.cache().expect("attached");
    assert_eq!(cache.hits(), 2, "both warm specs address one entry");
}

#[test]
fn cache_serves_across_pool_widths() {
    let dir = fresh_dir("widths");
    let spec = || JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]);

    let serial = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let computed = serial.run(spec()).expect("sweep succeeds");
    assert_eq!(serial.cache().expect("attached").stores(), 1);

    // the digest excludes the pool width: a 4-wide engine hits the
    // entry the 1-wide engine wrote
    let wide = Engine::with_threads(4).with_result_cache(ResultCache::at(&dir));
    let served = wide.run(spec()).expect("sweep succeeds");
    assert_eq!(wide.cache().expect("attached").hits(), 1);
    assert_eq!(sweep_fingerprint(&computed), sweep_fingerprint(&served));
}

#[test]
fn different_budgets_are_different_entries() {
    let dir = fresh_dir("budgets");
    let engine = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    engine
        .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]))
        .expect("sweep succeeds");
    engine
        .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4]))
        .expect("sweep succeeds");
    let cache = engine.cache().expect("attached");
    assert_eq!(cache.hits(), 0, "distinct budgets may not alias");
    assert_eq!(cache.disk_stats().entries, 2);
}

#[test]
fn corrupt_entries_degrade_to_misses() {
    let dir = fresh_dir("corrupt");
    let spec = || JobSpec::solve_at(CircuitSource::iscas85("c17"), 4);

    let engine = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let computed = engine.run(spec()).expect("solve succeeds");

    // truncate every entry mid-file
    for entry in std::fs::read_dir(&dir).expect("cache dir exists") {
        let path = entry.expect("entry").path();
        let text = std::fs::read_to_string(&path).expect("readable");
        std::fs::write(&path, &text[..text.len() / 2]).expect("writable");
    }

    let again = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let recomputed = again.run(spec()).expect("solve succeeds");
    let cache = again.cache().expect("attached");
    assert_eq!(cache.hits(), 0, "a torn entry must not be served");
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.stores(), 1, "the recomputed result heals the entry");
    assert_eq!(
        computed.as_solve_at().expect("solve").solution.det_len,
        recomputed.as_solve_at().expect("solve").solution.det_len
    );
}

#[test]
fn duplicate_jobs_in_one_batch_race_benignly() {
    // two identical specs in one parallel batch share a cache key; both
    // writers must produce a complete entry (per-writer temp names), and
    // a fresh engine must be able to decode and serve it
    let dir = fresh_dir("dup-batch");
    let spec = || JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]);
    let engine = Engine::with_threads(4).with_result_cache(ResultCache::at(&dir));
    let results: Vec<_> = engine
        .run_batch(vec![spec(), spec()])
        .into_iter()
        .map(|r| r.expect("job succeeds"))
        .collect();
    assert_eq!(
        sweep_fingerprint(&results[0]),
        sweep_fingerprint(&results[1])
    );
    assert_eq!(
        ResultCache::at(&dir).disk_stats().entries,
        1,
        "identical jobs share one entry"
    );
    assert!(
        !std::fs::read_dir(&dir)
            .expect("cache dir exists")
            .flatten()
            .any(|e| e.file_name().to_string_lossy().starts_with(".tmp-")),
        "no temporary files survive the batch"
    );

    let warm = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let served = warm.run(spec()).expect("sweep succeeds");
    assert_eq!(warm.cache().expect("attached").hits(), 1);
    assert_eq!(sweep_fingerprint(&results[0]), sweep_fingerprint(&served));
}

#[test]
fn clear_empties_the_directory() {
    let dir = fresh_dir("clear");
    let engine = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    engine
        .run(JobSpec::solve_at(CircuitSource::iscas85("c17"), 0))
        .expect("solve succeeds");
    let cache = ResultCache::at(&dir);
    assert_eq!(cache.disk_stats().entries, 1);
    assert_eq!(cache.clear().expect("clear succeeds"), 1);
    assert_eq!(cache.disk_stats().entries, 0);

    // an engine without a cache writes nothing
    let plain = Engine::with_threads(1);
    assert!(plain.cache().is_none());
    plain
        .run(JobSpec::solve_at(CircuitSource::iscas85("c17"), 0))
        .expect("solve succeeds");
    assert_eq!(cache.disk_stats().entries, 0);
}
