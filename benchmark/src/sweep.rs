//! The two sweep workloads: one cold `Sweep` job with no result cache,
//! run on a `bist-engine` in the benchmark process.

use std::collections::BTreeMap;
use std::time::Instant;

use bist_core::{MixedSchemeConfig, SweepSummary};
use bist_engine::{CircuitSource, Engine, JobResult, JobSpec, SweepOutcome};
use bist_netlist::{bench, Circuit};

use crate::check;
use crate::metrics;
use crate::replay::{self, Counters};
use crate::trace::{self, Trace};
use crate::{cpu_seconds, peak_rss_mb, Outcome, Run};

/// A sweep workload: one circuit, its prefix lengths.
#[derive(Debug, Clone, Copy)]
pub struct SweepWorkload {
    pub circuit: &'static str,
    pub points: &'static [usize],
}

/// ATPG-bound: aborted PODEM searches dominate.
pub const DEEP: SweepWorkload = SweepWorkload {
    circuit: "c1908",
    points: &[0, 100, 200, 500, 1000],
};

/// Synthesis-bound: `MixedGenerator::build` of a 233-input generator
/// dominates.
pub const WIDE: SweepWorkload = SweepWorkload {
    circuit: "c2670",
    points: &[1000, 2000, 5000],
};

/// Setup takes about a millisecond, too short to time steadily once, so
/// it is repeated for this long and reported as its median.
const SETUP_SECONDS: f64 = 0.5;

fn spec(w: &SweepWorkload) -> JobSpec {
    JobSpec::sweep(CircuitSource::iscas85(w.circuit), w.points)
}

/// Realizes the circuit and the engine for `SETUP_SECONDS`; returns the
/// last realization, the median setup time and the repeat count.
fn setup(w: &SweepWorkload, width: usize) -> Result<(Circuit, Engine, f64, usize), String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.is_empty() || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        // each realization starts from the same heap: the previous one is
        // freed first
        drop(last.take());
        let once = Instant::now();
        let circuit = CircuitSource::iscas85(w.circuit)
            .realize()
            .map_err(|e| e.to_string())?;
        let engine = Engine::with_threads(width);
        times.push(once.elapsed().as_secs_f64());
        last = Some((circuit, engine));
    }
    let (circuit, engine) = last.expect("at least one setup");
    let setup_s = metrics::median(&times).expect("setup samples");
    Ok((circuit, engine, setup_s, times.len()))
}

/// One cold sweep job, with its wall time and the CPU time this process
/// spent on it, seconds.
fn sweep_job(engine: &Engine, w: &SweepWorkload) -> Result<(JobResult, f64, f64), String> {
    let cpu = || cpu_seconds(std::process::id()).ok_or("cannot read /proc/self/stat");
    let cpu_start = cpu()?;
    let start = Instant::now();
    let result = engine.run(spec(w)).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    Ok((result, wall, cpu()? - cpu_start))
}

/// Checks one sweep result: every point re-grades, and the digest
/// equals the run's first.
fn check_result(circuit: &Circuit, result: &JobResult, first: &mut Option<String>) -> Vec<String> {
    let mut errors: Vec<String> = check::solutions(result)
        .iter()
        .filter_map(|s| check::grade_solution(circuit, s).err())
        .collect();
    let digest = check::results_digest([result]);
    match first {
        Some(d) if *d != digest => errors.push(format!(
            "sweep digest changed within the run: {d} then {digest}"
        )),
        Some(_) => {}
        None => *first = Some(digest),
    }
    errors
}

fn print_points(result: &JobResult) {
    for s in check::solutions(result) {
        println!(
            "point p={:<5} d={:<4} coverage {:.4} %  aborted {:<4} area {:.4} mm2",
            s.prefix_len,
            s.det_len,
            s.coverage.coverage_pct(),
            s.coverage.aborted,
            s.generator_area_mm2
        );
    }
}

fn coverage_and_aborts(result: &JobResult) -> (f64, usize) {
    let solutions = check::solutions(result);
    let mean = solutions
        .iter()
        .map(|s| s.coverage.coverage_pct())
        .sum::<f64>()
        / solutions.len().max(1) as f64;
    let aborted = solutions.iter().map(|s| s.coverage.aborted).sum();
    (mean, aborted)
}

/// Untraced run: cold sweeps while another one is expected to end within
/// `run.seconds` (at least one), with the end-to-end metrics. Only the
/// sweeps are timed; each result is checked after its sweep.
pub fn run(w: &SweepWorkload, run: &Run) -> Result<Outcome, String> {
    println!(
        "circuit {}  points {:?}  pool width {}",
        w.circuit, w.points, run.width
    );
    let (circuit, engine, setup_s, setups) = setup(w, run.width)?;
    let mut walls: Vec<f64> = Vec::new();
    let mut cpus = Vec::new();
    let mut errors = Vec::new();
    let mut digest = None;
    let mut last = None;
    while walls.iter().sum::<f64>() + walls.last().copied().unwrap_or(0.0) <= run.seconds {
        match sweep_job(&engine, w) {
            Ok((result, wall, cpu)) => {
                walls.push(wall);
                cpus.push(cpu);
                errors.extend(check_result(&circuit, &result, &mut digest));
                last = Some(result);
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let attempted = walls.len() as u64 + errors.len() as u64;
    let (coverage_pct, aborted) = last.as_ref().map_or((f64::NAN, 0), coverage_and_aborts);
    if let Some(result) = &last {
        print_points(result);
        println!("results_digest {}", digest.as_deref().unwrap_or("-"));
    }
    let ms = |seconds: &[f64]| seconds.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    metrics::print("setup_s", setup_s, "s", &format!("  (median of {setups})"));
    metrics::print_median("wall_s", "s", &walls);
    metrics::print_median("job_ms_p50", "ms", &ms(&walls));
    let job_cpu_ms = metrics::print_median("job_cpu_ms", "ms", &ms(&cpus)).unwrap_or(f64::NAN);
    let jobs_per_s = walls.len() as f64 / walls.iter().sum::<f64>();
    metrics::print("jobs_per_s", jobs_per_s, "1/s", "");
    let rss_mb = peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    metrics::print("rss_mb", rss_mb, "MB", "");
    metrics::print("coverage_pct", coverage_pct, "%", "");
    metrics::print("aborted", aborted as f64, "count", "");
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("job_cpu_ms", job_cpu_ms),
        ("rss_mb", rss_mb),
        ("coverage_pct", coverage_pct),
    ]);
    Ok(Outcome::finish(values, attempted, errors))
}

/// Traced run: one untraced engine sweep, then the same sweep replayed
/// from public calls with spans, the per-target PODEM probe and a
/// `.bench` parse; the replay must digest like the engine's result.
pub fn run_traced(w: &SweepWorkload, run: &Run) -> Result<Outcome, String> {
    println!(
        "circuit {}  points {:?}  pool width {}  (traced)",
        w.circuit, w.points, run.width
    );
    let trace = Trace::new();
    let circuit = trace
        .span("netlist.realize", 0, || {
            CircuitSource::iscas85(w.circuit).realize()
        })
        .map_err(|e| e.to_string())?;
    let text = bench::write(&circuit);
    trace
        .span("netlist.parse", 0, || bench::parse(w.circuit, &text))
        .map_err(|e| e.to_string())?;
    let engine = Engine::with_threads(run.width);
    let (result, untraced_s, _) = sweep_job(&engine, w)?;
    let mut errors = Vec::new();
    let mut digest = None;
    errors.extend(check_result(&circuit, &result, &mut digest));

    let config = MixedSchemeConfig {
        threads: run.width,
        ..MixedSchemeConfig::default()
    };
    let mut counters = Counters::default();
    let solutions = replay::mixed(&trace, 1, &circuit, &config, w.points, &mut counters)?;
    let replayed = JobResult::Sweep(SweepOutcome {
        circuit: circuit.name().to_owned(),
        summary: SweepSummary::from_solutions(solutions),
        stats: result.as_sweep().map(|s| s.stats).unwrap_or_default(),
    });
    let replay_digest = check::results_digest([&replayed]);
    println!("results_digest {}", digest.as_deref().unwrap_or("-"));
    println!("replay results_digest {replay_digest}");
    if digest.as_deref() != Some(replay_digest.as_str()) {
        errors.push("the traced replay's results_digest differs from the engine's".to_owned());
    }
    let probe = replay::probe(&trace, 2, &circuit);

    let spans = trace.spans();
    let replay_s = trace::total(&spans, "replay.mixed");
    let mut values = layer_values(&spans, &counters, &probe, &["replay.mixed"]);
    for name in metrics::PER_LAYER
        .iter()
        .map(|d| d.name)
        .filter(|n| n.starts_with("engine.") || n.starts_with("wire.") || n.starts_with("serve."))
    {
        values.insert(name, 0.0);
    }
    values.insert("trace.overhead_pct", 100.0 * (replay_s / untraced_s - 1.0));
    println!("untraced sweep {untraced_s:.4} s, traced replay {replay_s:.4} s");
    print_profile(&spans, &["replay.mixed"]);
    crate::write_spans(run, &trace)?;
    crate::print_layer_metrics(&values);
    Ok(Outcome::finish(values, 1, errors))
}

/// The per-layer metrics the replays and the probe give (every layer but
/// `engine`, `wire` and `serve`). Shares are of the summed duration of
/// the `roots` spans.
pub fn layer_values(
    spans: &[trace::Span],
    c: &Counters,
    probe: &replay::Probe,
    roots: &[&str],
) -> BTreeMap<&'static str, f64> {
    let (root_s, layers) = profile(spans, roots);
    let share = |layer: &str| 100.0 * layers.get(layer).copied().unwrap_or(0.0) / root_s;
    let ms = |name: &str| 1e3 * trace::total(spans, name);
    let ratio = |a: usize, b: usize| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    BTreeMap::from([
        ("atpg.topup_s", trace::total(spans, "atpg.topup")),
        ("atpg.topups", c.topups as f64),
        ("atpg.calls", c.atpg_calls as f64),
        ("atpg.units", c.units as f64),
        ("atpg.aborted", c.aborted as f64),
        ("atpg.redundant", c.redundant as f64),
        ("atpg.cube_hit_ratio", ratio(c.cube_hits, c.cube_misses)),
        ("atpg.podem.test_s", probe.test_s),
        ("atpg.podem.redundant_s", probe.redundant_s),
        ("atpg.podem.aborted_s", probe.aborted_s),
        ("atpg.podem.tests", probe.tests as f64),
        ("atpg.podem.redundants", probe.redundants as f64),
        ("atpg.podem.aborts", probe.aborts as f64),
        ("atpg.podem.useful_ratio", probe.useful_ratio()),
        ("atpg.self_pct", share("atpg")),
        (
            "core.generator_build_s",
            trace::total(spans, "core.generator_build"),
        ),
        ("core.generator_builds", c.builds as f64),
        ("core.rom_patterns", c.rom_patterns as f64),
        ("core.area_ms", ms("core.area")),
        ("core.self_pct", share("core")),
        (
            "faultsim.grade_ms",
            ms("faultsim.simulate") + ms("faultsim.estimate"),
        ),
        ("faultsim.patterns", c.patterns as f64),
        ("faultsim.blocks", c.blocks as f64),
        ("faultsim.cone_events", c.cone_events as f64),
        ("faultsim.self_pct", share("faultsim")),
        ("fault.universe_ms", ms("fault.universe")),
        ("fault.collapse_ms", ms("fault.collapse")),
        ("fault.representatives", c.representatives as f64),
        ("netlist.realize_ms", ms("netlist.realize")),
        ("netlist.parse_ms", ms("netlist.parse")),
    ])
}

/// Each layer's self time within the `roots` spans, and the roots'
/// summed duration. Spans outside the roots (the PODEM probe, the cache
/// and wire calls) have metrics of their own.
fn profile(spans: &[trace::Span], roots: &[&str]) -> (f64, BTreeMap<&'static str, f64>) {
    let mut inside = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        inside[i] = roots.contains(&s.name) || s.parent.is_some_and(|p| inside[p]);
    }
    let root_s: f64 = roots.iter().map(|r| trace::total(spans, r)).sum();
    let mut layers = BTreeMap::new();
    for i in (0..spans.len()).filter(|&i| inside[i]) {
        *layers.entry(spans[i].layer()).or_default() += trace::self_time(spans, i);
    }
    (root_s, layers)
}

/// Prints the self-time profile of the `roots` spans.
pub fn print_profile(spans: &[trace::Span], roots: &[&str]) {
    let (root_s, layers) = profile(spans, roots);
    println!(
        "self-time profile of {} ({root_s:.4} s):",
        roots.join(" + ")
    );
    for (layer, s) in layers {
        println!("  {layer:<10} {s:>10.4} s  {:>6.2} %", 100.0 * s / root_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_passes_the_output_check_untraced_and_traced() {
        let w = SweepWorkload {
            circuit: "c432",
            points: &[0, 100],
        };
        let run = Run::smoke("sweep-smoke");
        let plain = super::run(&w, &run).expect("untraced smoke sweep");
        assert_eq!(plain.failed, 0, "{:?}", plain.errors);
        for def in metrics::END_TO_END {
            assert!(
                plain.values[def.name].is_finite() && plain.values[def.name] > 0.0,
                "{}",
                def.name
            );
        }
        let traced = run_traced(&w, &run).expect("traced smoke sweep");
        assert_eq!(traced.failed, 0, "{:?}", traced.errors);
        for def in metrics::PER_LAYER {
            assert!(traced.values[def.name].is_finite(), "{}", def.name);
        }
        assert!(traced.values["atpg.topups"] >= 1.0);
        assert_eq!(traced.values["core.generator_builds"], 2.0);
    }
}
