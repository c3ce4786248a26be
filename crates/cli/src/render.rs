//! Text and JSON rendering of job results and progress events.
//!
//! The JSON renderer is deterministic — same result, same bytes — which
//! is what lets CI assert that a cache-served rerun is byte-identical
//! to the run that computed it.

use std::fmt::Write as _;

use bist_engine::json::Json;
use bist_engine::{
    fmt_scoap, JobResult, MixedSolution, ProgressEvent, ScoapSummary, SessionStats, Severity,
};

/// One result as a JSON document (object; `bist batch` emits an array
/// of these).
pub fn result_json(result: &JobResult) -> Json {
    let mut doc = Json::object();
    match result {
        JobResult::SolveAt(o) => {
            doc.push("job", Json::str("solve"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push("solution", solution_json(&o.solution));
            doc.push("stats", stats_json(&o.stats));
        }
        JobResult::Sweep(o) => {
            doc.push("job", Json::str("sweep"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push(
                "points",
                Json::Array(o.summary.solutions().iter().map(solution_json).collect()),
            );
            doc.push("stats", stats_json(&o.stats));
        }
        JobResult::CoverageCurve(o) => {
            doc.push("job", Json::str("curve"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push("fault_universe", Json::uint(o.fault_universe));
            doc.push(
                "points",
                Json::Array(
                    o.curve
                        .points()
                        .iter()
                        .map(|&(len, pct)| {
                            let mut p = Json::object();
                            p.push("length", Json::uint(len));
                            p.push("coverage_pct", Json::Float(pct));
                            p
                        })
                        .collect(),
                ),
            );
        }
        JobResult::Bakeoff(o) => {
            doc.push("job", Json::str("bakeoff"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push("achievable_pct", Json::Float(o.bakeoff.achievable_pct));
            doc.push(
                "atpg_coverage_pct",
                Json::Float(o.bakeoff.atpg_coverage_pct),
            );
            doc.push(
                "deterministic_patterns",
                Json::uint(o.bakeoff.deterministic_patterns),
            );
            doc.push(
                "rows",
                Json::Array(
                    o.bakeoff
                        .rows
                        .iter()
                        .map(|r| {
                            let mut row = Json::object();
                            row.push("architecture", Json::str(r.architecture));
                            row.push("test_length", Json::uint(r.test_length));
                            row.push("area_mm2", Json::Float(r.area_mm2));
                            row.push("coverage_pct", Json::Float(r.coverage_pct));
                            row.push("deterministic", Json::Bool(r.deterministic));
                            row
                        })
                        .collect(),
                ),
            );
        }
        JobResult::EmitHdl(o) => {
            doc.push("job", Json::str("emit-hdl"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push("module", Json::str(&o.module));
            doc.push("solution", solution_json(&o.solution));
            for (key, text) in [
                ("verilog", &o.verilog),
                ("vhdl", &o.vhdl),
                ("testbench", &o.testbench),
            ] {
                doc.push(
                    key,
                    text.as_ref().map_or(Json::Null, |t| Json::str(t.clone())),
                );
            }
        }
        JobResult::AreaReport(o) => {
            doc.push("job", Json::str("area"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push("inputs", Json::uint(o.inputs));
            doc.push("det_len", Json::uint(o.det_len));
            doc.push("chip_mm2", Json::Float(o.chip_mm2));
            doc.push("generator_mm2", Json::Float(o.generator_mm2));
            doc.push("overhead_pct", Json::Float(o.overhead_pct));
            doc.push("coverage_pct", Json::Float(o.coverage_pct));
        }
        JobResult::Lint(o) => {
            doc.push("job", Json::str("lint"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push("errors", Json::uint(o.report.count(Severity::Error)));
            doc.push("warnings", Json::uint(o.report.count(Severity::Warn)));
            doc.push("infos", Json::uint(o.report.count(Severity::Info)));
            doc.push(
                "diagnostics",
                Json::Array(
                    o.report
                        .diagnostics
                        .iter()
                        .map(|d| {
                            let mut j = Json::object();
                            j.push("code", Json::str(d.code.code()));
                            j.push("severity", Json::str(d.severity.label()));
                            j.push("line", Json::uint(d.span.line));
                            j.push("message", Json::str(&d.message));
                            j
                        })
                        .collect(),
                ),
            );
            doc.push(
                "scoap",
                o.report.scoap.as_ref().map_or(Json::Null, scoap_json),
            );
        }
        JobResult::CoverageEstimate(o) => {
            doc.push("job", Json::str("estimate"));
            doc.push("circuit", Json::str(&o.circuit));
            doc.push("fault_universe", Json::uint(o.fault_universe));
            doc.push("representatives", Json::uint(o.representatives));
            doc.push("prefix_len", Json::uint(o.prefix_len));
            doc.push("samples", Json::uint(o.samples));
            doc.push("detected_samples", Json::uint(o.detected_samples));
            doc.push("estimate_pct", Json::Float(o.estimate_pct));
            doc.push("lo_pct", Json::Float(o.lo_pct));
            doc.push("hi_pct", Json::Float(o.hi_pct));
            doc.push("confidence", Json::uint(o.confidence as usize));
            doc.push("seed", Json::Str(format!("{:#x}", o.seed)));
        }
    }
    doc
}

fn scoap_json(s: &ScoapSummary) -> Json {
    fn worst(value: Option<&(String, u32)>) -> Json {
        value.map_or(Json::Null, |(name, v)| {
            let mut j = Json::object();
            j.push("node", Json::str(name));
            j.push("value", Json::uint(*v as usize));
            j
        })
    }
    let mut j = Json::object();
    j.push("nodes", Json::uint(s.nodes));
    j.push("max_cc0", worst(s.max_cc0.as_ref()));
    j.push("max_cc1", worst(s.max_cc1.as_ref()));
    j.push("max_co", worst(s.max_co.as_ref()));
    j.push(
        "resistance",
        Json::Array(
            s.resistance
                .iter()
                .map(|r| {
                    let mut node = Json::object();
                    node.push("node", Json::str(&r.name));
                    node.push("cc0", Json::uint(r.cc0 as usize));
                    node.push("cc1", Json::uint(r.cc1 as usize));
                    node.push("co", Json::uint(r.co as usize));
                    node.push("score", Json::uint(r.score as usize));
                    node
                })
                .collect(),
        ),
    );
    j
}

fn solution_json(s: &MixedSolution) -> Json {
    let mut o = Json::object();
    o.push("prefix_len", Json::uint(s.prefix_len));
    o.push("det_len", Json::uint(s.det_len));
    o.push("total_len", Json::uint(s.total_len()));
    o.push("coverage_pct", Json::Float(s.coverage.coverage_pct()));
    o.push(
        "prefix_coverage_pct",
        Json::Float(s.prefix_coverage.coverage_pct()),
    );
    o.push("generator_area_mm2", Json::Float(s.generator_area_mm2));
    o.push("chip_area_mm2", Json::Float(s.chip_area_mm2));
    o.push("overhead_pct", Json::Float(s.overhead_pct()));
    o
}

fn stats_json(s: &SessionStats) -> Json {
    let mut o = Json::object();
    o.push("patterns_simulated", Json::uint(s.patterns_simulated));
    o.push("patterns_resimulated", Json::uint(s.patterns_resimulated));
    o.push("atpg_runs", Json::uint(s.atpg_runs));
    o.push("atpg_cache_hits", Json::uint(s.atpg_cache_hits));
    o.push("podem_cache_hits", Json::uint(s.podem_cache_hits));
    o
}

/// One result as human-readable text (what `--format text` prints).
pub fn result_text(result: &JobResult) -> String {
    let mut out = String::new();
    match result {
        JobResult::SolveAt(o) => {
            let _ = writeln!(out, "{}: {}", o.circuit, o.solution);
            let _ = writeln!(out, "{}", stats_text(&o.stats));
        }
        JobResult::Sweep(o) => {
            let _ = writeln!(out, "{}", o.circuit);
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>8} {:>12} {:>12} {:>12}",
                "p", "d", "p+d", "cost (mm2)", "overhead %", "coverage %"
            );
            for s in o.summary.solutions() {
                let _ = writeln!(
                    out,
                    "{:>8} {:>8} {:>8} {:>12.3} {:>12.1} {:>12.2}",
                    s.prefix_len,
                    s.det_len,
                    s.total_len(),
                    s.generator_area_mm2,
                    s.overhead_pct(),
                    s.coverage.coverage_pct()
                );
            }
            let _ = writeln!(out, "{}", stats_text(&o.stats));
        }
        JobResult::CoverageCurve(o) => {
            let _ = writeln!(out, "{} ({} faults)", o.circuit, o.fault_universe);
            let _ = writeln!(out, "{:>8} {:>12}", "length", "coverage %");
            for &(len, pct) in o.curve.points() {
                let _ = writeln!(out, "{len:>8} {pct:>12.2}");
            }
        }
        JobResult::Bakeoff(o) => {
            let _ = writeln!(
                out,
                "{}: {} deterministic patterns, achievable {:.2} %, ATPG sequence {:.2} %",
                o.circuit,
                o.bakeoff.deterministic_patterns,
                o.bakeoff.achievable_pct,
                o.bakeoff.atpg_coverage_pct
            );
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>11} {:>11} {:>6}",
                "architecture", "length", "area (mm2)", "coverage %", "det"
            );
            for r in &o.bakeoff.rows {
                let _ = writeln!(
                    out,
                    "{:<20} {:>8} {:>11.3} {:>11.2} {:>6}",
                    r.architecture,
                    r.test_length,
                    r.area_mm2,
                    r.coverage_pct,
                    if r.deterministic { "yes" } else { "no" }
                );
            }
        }
        JobResult::EmitHdl(o) => {
            let _ = writeln!(out, "{}: module {} — {}", o.circuit, o.module, o.solution);
            for (label, text) in [
                ("verilog", &o.verilog),
                ("vhdl", &o.vhdl),
                ("testbench", &o.testbench),
            ] {
                if let Some(text) = text {
                    let _ = writeln!(
                        out,
                        "\n// ---- {label} ({} lines) ----",
                        text.lines().count()
                    );
                    out.push_str(text);
                }
            }
        }
        JobResult::AreaReport(o) => {
            let _ = writeln!(
                out,
                "{:>8} {:>6} {:>10} {:>10} {:>12} {:>11} {:>11}",
                "circuit", "#I", "#patterns", "chip mm2", "LFSROM mm2", "overhead %", "coverage %"
            );
            let _ = writeln!(
                out,
                "{:>8} {:>6} {:>10} {:>10.2} {:>12.2} {:>11.1} {:>11.2}",
                o.circuit,
                o.inputs,
                o.det_len,
                o.chip_mm2,
                o.generator_mm2,
                o.overhead_pct,
                o.coverage_pct
            );
        }
        JobResult::Lint(o) => {
            let r = &o.report;
            let _ = writeln!(
                out,
                "{}: {} error(s), {} warning(s), {} note(s)",
                o.circuit,
                r.count(Severity::Error),
                r.count(Severity::Warn),
                r.count(Severity::Info)
            );
            for d in &r.diagnostics {
                let _ = writeln!(out, "  {d}");
            }
            if let Some(s) = &r.scoap {
                if !s.resistance.is_empty() {
                    let _ = writeln!(out, "random-resistance ranking (hardest first):");
                    let _ = writeln!(
                        out,
                        "{:>24} {:>8} {:>8} {:>8} {:>8}",
                        "node", "CC0", "CC1", "CO", "score"
                    );
                    for n in &s.resistance {
                        let _ = writeln!(
                            out,
                            "{:>24} {:>8} {:>8} {:>8} {:>8}",
                            n.name,
                            fmt_scoap(n.cc0),
                            fmt_scoap(n.cc1),
                            fmt_scoap(n.co),
                            n.score
                        );
                    }
                }
            }
        }
        JobResult::CoverageEstimate(o) => {
            let _ = writeln!(
                out,
                "{}: estimated coverage {:.2} % [{:.2}, {:.2}] at {} % confidence",
                o.circuit, o.estimate_pct, o.lo_pct, o.hi_pct, o.confidence
            );
            let _ = writeln!(
                out,
                "sample: {}/{} faults detected (universe {}, {} representatives), prefix {}, seed {:#x}",
                o.detected_samples,
                o.samples,
                o.fault_universe,
                o.representatives,
                o.prefix_len,
                o.seed
            );
        }
    }
    out
}

fn stats_text(s: &SessionStats) -> String {
    format!(
        "session: {} patterns simulated, {} ATPG runs, {} frontier hits, {} cube hits",
        s.patterns_simulated, s.atpg_runs, s.atpg_cache_hits, s.podem_cache_hits
    )
}

/// One progress event as a stderr line.
pub fn event_line(event: &ProgressEvent) -> String {
    match event {
        ProgressEvent::Queued { job, label } => format!("[{job}] queued: {label}"),
        ProgressEvent::Started { job } => format!("[{job}] started"),
        ProgressEvent::Checkpoint {
            job,
            prefix_len,
            coverage_pct,
        } => format!("[{job}] p={prefix_len} coverage={coverage_pct:.2}%"),
        ProgressEvent::Estimate {
            job,
            prefix_len,
            samples,
            estimate_pct,
            lo_pct,
            hi_pct,
            confidence,
        } => format!(
            "[{job}] estimate p={prefix_len} coverage\u{2248}{estimate_pct:.2}% \
             [{lo_pct:.2}, {hi_pct:.2}] ({confidence}% ci, {samples} samples)"
        ),
        ProgressEvent::Pass { job, name } => format!("[{job}] pass: {name}"),
        ProgressEvent::Finished { job, cache_hit } => {
            if *cache_hit {
                format!("[{job}] finished (cache hit)")
            } else {
                format!("[{job}] finished")
            }
        }
        ProgressEvent::Failed { job, message } => format!("[{job}] failed: {message}"),
        ProgressEvent::Canceled { job } => format!("[{job}] canceled"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_engine::{CircuitSource, Engine, JobSpec};

    #[test]
    fn json_rendering_is_deterministic_and_parses() {
        let engine = Engine::with_threads(1);
        let result = engine
            .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]))
            .expect("c17 sweep");
        let a = result_json(&result).render_pretty();
        let b = result_json(&result).render_pretty();
        assert_eq!(a, b);
        let doc = bist_engine::json::parse(&a).expect("valid JSON");
        assert_eq!(doc.get("job").and_then(Json::as_str), Some("sweep"));
        assert_eq!(
            doc.get("points")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn text_rendering_covers_every_variant() {
        let engine = Engine::with_threads(1);
        for (spec, needle) in [
            (
                JobSpec::solve_at(CircuitSource::iscas85("c17"), 4),
                "session:",
            ),
            (
                JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4]),
                "coverage %",
            ),
            (
                JobSpec::coverage_curve(CircuitSource::iscas85("c17"), [0, 8]),
                "length",
            ),
            (
                JobSpec::bakeoff(CircuitSource::iscas85("c17"), 8),
                "architecture",
            ),
            (
                JobSpec::emit_hdl(CircuitSource::iscas85("c17"), 4),
                "// ---- verilog",
            ),
            (
                JobSpec::area_report(CircuitSource::iscas85("c17")),
                "LFSROM mm2",
            ),
            (JobSpec::lint(CircuitSource::iscas85("c17")), "[BL013]"),
            (
                JobSpec::estimate(CircuitSource::iscas85("c17"), 32),
                "% confidence",
            ),
        ] {
            let result = engine.run(spec).expect("c17 job succeeds");
            let text = result_text(&result);
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
