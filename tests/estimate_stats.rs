//! Deterministic statistical contract of the `CoverageEstimate` job.
//!
//! Nothing here is probabilistic at test time: every seed is pinned, so
//! each assertion is a reproducible fact about one specific sample. The
//! battery checks three things — the Wilson interval brackets the exact
//! coverage for the pinned samples on c17/s27/c432, re-running a spec
//! reproduces the interval byte for byte, and the result survives the
//! wire protocol and the on-disk result cache bit-identically (with the
//! warm run announcing itself via the `cache_hit` progress flag).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bist::engine::wire::{self, Response};
use bist::engine::{
    BistError, CancelToken, CircuitSource, Engine, JobResult, JobSpec, ProgressEvent, ResultCache,
};
use bist_core::prelude::*;
use bist_faultmodel::estimate_coverage;

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

/// A fresh, private cache directory per test (under cargo's per-target
/// scratch space, cleaned with the target dir).
fn fresh_dir(test: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "bist-estimate-{test}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Exact coverage of the first `prefix_len` pseudo-random patterns over
/// the full stuck-at universe — the same expander construction the
/// estimator grades, so the comparison is stream-for-stream.
fn exact_coverage_pct(circuit: &Circuit, config: &MixedSchemeConfig, prefix_len: usize) -> f64 {
    let mut sim = FaultSim::new(circuit, FaultList::stuck_at_full(circuit)).with_threads(1);
    let mut expander = ScanExpander::new(Lfsr::fibonacci(config.poly, 1), circuit.inputs().len());
    sim.simulate(&expander.patterns(prefix_len));
    sim.report().coverage_pct()
}

#[test]
fn pinned_intervals_contain_exact_coverage() {
    let config = MixedSchemeConfig::default();
    let cases: &[(Circuit, usize, usize)] = &[
        (iscas85::c17(), 32, 64),
        (bist::netlist::iscas89::s27(), 32, 64),
        (iscas85::circuit("c432").expect("known benchmark"), 200, 256),
    ];
    for (circuit, prefix, samples) in cases {
        let exact = exact_coverage_pct(circuit, &config, *prefix);
        for seed in [0xb157u64, 0xdead_beef, 1] {
            let e = estimate_coverage(circuit, &config, *prefix, *samples, 95, seed);
            assert!(
                e.lo_pct <= exact && exact <= e.hi_pct,
                "{}: exact {exact:.3} outside [{:.3}, {:.3}] for seed {seed:#x}",
                circuit.name(),
                e.lo_pct,
                e.hi_pct
            );
            assert!(e.lo_pct <= e.estimate_pct && e.estimate_pct <= e.hi_pct);
            assert_eq!(e.samples, (*samples).min(e.fault_universe));
            assert_eq!(e.confidence, 95);
            assert_eq!(e.seed, seed);
        }
    }
}

/// When the sample budget covers the whole universe, the estimate's
/// point value *is* the exact coverage — the sampler degrades to a
/// census, not an approximation.
#[test]
fn census_sized_samples_report_exact_coverage() {
    let config = MixedSchemeConfig::default();
    let c17 = iscas85::c17();
    let exact = exact_coverage_pct(&c17, &config, 16);
    let e = estimate_coverage(&c17, &config, 16, 10_000, 99, 7);
    assert_eq!(e.samples, e.fault_universe, "budget covers the universe");
    assert_eq!(e.estimate_pct.to_bits(), exact.to_bits());
}

#[test]
fn reruns_reproduce_the_interval_byte_identically() {
    let config = MixedSchemeConfig::default();
    let c432 = iscas85::circuit("c432").expect("known benchmark");
    let first = estimate_coverage(&c432, &config, 100, 128, 90, 0xb157);
    let again = estimate_coverage(&c432, &config, 100, 128, 90, 0xb157);
    assert_eq!(first, again);
    assert_eq!(first.estimate_pct.to_bits(), again.estimate_pct.to_bits());
    assert_eq!(first.lo_pct.to_bits(), again.lo_pct.to_bits());
    assert_eq!(first.hi_pct.to_bits(), again.hi_pct.to_bits());

    // and through the engine, at different pool widths
    let spec = || JobSpec::estimate(CircuitSource::iscas85("c432"), 100);
    let narrow = Engine::with_threads(1).run(spec()).expect("estimate runs");
    let wide = Engine::with_threads(4).run(spec()).expect("estimate runs");
    let encode = |result: bist::engine::JobResult| {
        wire::encode_response(&Response::Result {
            job: 1,
            cached: false,
            result: Box::new(result),
        })
    };
    assert_eq!(
        encode(narrow),
        encode(wide),
        "estimates are bit-identical at every pool width"
    );
}

#[test]
fn estimates_survive_wire_and_cache_round_trips() {
    let dir = fresh_dir("round-trip");
    let spec = || JobSpec::estimate(CircuitSource::iscas85("c17"), 24);

    // cold: computes and stores; the finished event is not a cache hit
    let cold = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let (cold_result, events) = run_collecting(&cold, spec());
    let cold_result = cold_result.expect("estimate runs");
    assert!(events.iter().any(|e| matches!(
        e,
        ProgressEvent::Finished {
            cache_hit: false,
            ..
        }
    )));

    // wire: encode → decode → re-encode is byte-identical
    let line = wire::encode_response(&Response::Result {
        job: 9,
        cached: false,
        result: Box::new(cold_result),
    });
    let decoded = wire::decode_response(&line).expect("estimate result decodes");
    assert_eq!(line, wire::encode_response(&decoded));

    // warm: a fresh engine over the same directory serves the same
    // bytes from disk and flags the hit in the progress stream
    let warm = Engine::with_threads(1).with_result_cache(ResultCache::at(&dir));
    let (warm_result, events) = run_collecting(&warm, spec());
    let warm_result = warm_result.expect("cached estimate loads");
    assert_eq!(warm.cache().expect("attached").hits(), 1);
    assert!(events.iter().any(|e| matches!(
        e,
        ProgressEvent::Finished {
            cache_hit: true,
            ..
        }
    )));
    let warm_line = wire::encode_response(&Response::Result {
        job: 9,
        cached: false,
        result: Box::new(warm_result),
    });
    assert_eq!(line, warm_line, "disk round-trip is bit-identical");
}
