//! Metric definitions, the statistics they are reported with, and the
//! one-line JSON result the run ends with.

use std::collections::BTreeMap;

/// A metric's name, unit and direction, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// End-to-end metrics every workload reports with tracing off, the ones
/// `BENCHMARK.json` gates. Only metrics that apply to every workload, are
/// never 0 and hold still between runs on a shared host are gated: CPU
/// time per job rather than wall time, which moves with the host's load.
/// The rest of the end-to-end set, wall-time latency and throughput
/// included, is printed by the workloads that have it (see README.md).
pub const END_TO_END: &[Def] = &[
    lower("setup_s", "s"),
    lower("job_cpu_ms", "ms"),
    lower("rss_mb", "MB"),
    higher("coverage_pct", "%"),
];

/// Per-layer metrics every workload reports from its traced run. A layer
/// a workload never reaches reports 0.
pub const PER_LAYER: &[Def] = &[
    lower("atpg.topup_s", "s"),
    lower("atpg.topups", "count"),
    lower("atpg.calls", "count"),
    lower("atpg.units", "count"),
    lower("atpg.aborted", "count"),
    higher("atpg.redundant", "count"),
    higher("atpg.cube_hit_ratio", "ratio"),
    lower("atpg.podem.test_s", "s"),
    lower("atpg.podem.redundant_s", "s"),
    lower("atpg.podem.aborted_s", "s"),
    higher("atpg.podem.tests", "count"),
    higher("atpg.podem.redundants", "count"),
    lower("atpg.podem.aborts", "count"),
    higher("atpg.podem.useful_ratio", "ratio"),
    lower("atpg.self_pct", "%"),
    lower("core.generator_build_s", "s"),
    lower("core.generator_builds", "count"),
    lower("core.rom_patterns", "count"),
    lower("core.area_ms", "ms"),
    lower("core.self_pct", "%"),
    lower("faultsim.grade_ms", "ms"),
    lower("faultsim.patterns", "count"),
    lower("faultsim.blocks", "count"),
    lower("faultsim.cone_events", "count"),
    lower("faultsim.self_pct", "%"),
    lower("fault.universe_ms", "ms"),
    lower("fault.collapse_ms", "ms"),
    lower("fault.representatives", "count"),
    lower("netlist.realize_ms", "ms"),
    lower("netlist.parse_ms", "ms"),
    lower("engine.digest_ms", "ms"),
    lower("engine.store_ms", "ms"),
    lower("engine.lookup_ms", "ms"),
    lower("engine.encode_ms", "ms"),
    lower("engine.decode_ms", "ms"),
    lower("engine.entry_kb", "kB"),
    lower("wire.encode_ms", "ms"),
    lower("wire.decode_ms", "ms"),
    lower("wire.result_kb", "kB"),
    lower("serve.queue_ms_p50", "ms"),
    lower("serve.run_ms_p50", "ms"),
    lower("serve.deliver_ms_p50", "ms"),
    higher("serve.hit_ratio", "ratio"),
    lower("serve.rejected", "count"),
    lower("serve.hit_rebuild_pct", "%"),
    lower("trace.overhead_pct", "%"),
];

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of a tail (`q` above one half), or
/// `None` unless at least ten samples lie beyond it: fewer would make a
/// tail figure out of a handful of jobs.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= 10).then(|| sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Prints one metric line: name, value, unit and an optional note.
pub fn print(name: &str, value: f64, unit: &str, note: &str) {
    println!("metric {name:<26} {value:>14.4} {unit}{note}");
}

/// Prints a median with its sample count.
pub fn print_median(name: &str, unit: &str, samples: &[f64]) -> Option<f64> {
    let value = median(samples)?;
    print(name, value, unit, &format!("  (n={})", samples.len()));
    Some(value)
}

/// Prints a tail percentile with its sample count, or why it is withheld.
pub fn print_tail(name: &str, unit: &str, samples: &[f64], q: f64) {
    match tail_percentile(samples, q) {
        Some(value) => print(name, value, unit, &format!("  (n={})", samples.len())),
        None => println!(
            "metric {name:<26} {:>14} {unit}  (n={}: fewer than 10 samples beyond p{:.0})",
            "-",
            samples.len(),
            q * 100.0
        ),
    }
}

/// The run's last line: `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of `defs`. Metrics missing from `values` or not
/// finite make the run incorrect; they are left out of the line.
pub fn result_line(
    defs: &[Def],
    values: &BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
) -> (bool, String) {
    let mut correct = failed == 0;
    let mut fields = Vec::new();
    for def in defs {
        match values.get(def.name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )),
            _ => {
                eprintln!("bist-benchmark: metric {} was not measured", def.name);
                correct = false;
            }
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric-name alphabet `[A-Za-z0-9_.-]+`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(def.name.len() <= 64, "{}", def.name);
            assert!(matches!(def.better, "lower" | "higher"));
        }
        assert!(!valid_name(""));
        assert!(!valid_name("job ms"));
        assert!(!valid_name("p50/ms"));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = bist_engine::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|j| j.as_array()).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(|j| j.as_str()), Some(def.name));
                assert_eq!(entry.get("unit").and_then(|j| j.as_str()), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(|j| j.as_str()),
                    Some(def.better)
                );
            }
        }
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&samples[..99], 0.9), None);
        assert_eq!(tail_percentile(&samples, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_carries_every_metric_and_flags_gaps() {
        let defs = &END_TO_END[..2];
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.25);
        values.insert("job_cpu_ms", 1234.5);
        let (correct, line) = result_line(defs, &values, 3, 0);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"job_cpu_ms\": {\"value\": 1234.5, \"unit\": \"ms\"}}}"
        );
        values.insert("job_cpu_ms", f64::NAN);
        assert!(!result_line(defs, &values, 3, 0).0);
        values.remove("job_cpu_ms");
        assert!(!result_line(defs, &values, 3, 0).0);
        assert!(!result_line(&defs[..1], &values, 3, 1).0);
    }
}
