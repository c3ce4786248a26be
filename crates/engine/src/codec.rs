//! Serialization of [`JobResult`] for the on-disk result cache.
//!
//! The encoding is designed around one guarantee: **a decoded result is
//! bit-identical to the one that was stored**. Two consequences shape
//! the format:
//!
//! * every `f64` is stored as its IEEE-754 bit pattern
//!   ([`Json::f64_bits`]), never as a rounded decimal;
//! * the verified [`MixedGenerator`] is *not* flattened into the file.
//!   [`MixedGenerator::build`] is a pure function of
//!   `(width, poly, prefix_len, deterministic)`, so the cache stores
//!   exactly those inputs, and decoding restores the generator from them
//!   with [`MixedGenerator::restore`]. Nothing is synthesized on load:
//!   the netlist, replay model and hand-over decode are synthesized on
//!   first use of the hardware, which no cache hit or wire decode makes.
//!   That keeps cache entries a few kilobytes instead of megabytes of
//!   netlist, and a hit costs I/O and parsing, not synthesis.
//!
//! Decoding is total: any structural mismatch — truncated file, foreign
//! layout, a generator that fails `restore`'s shape checks, a generator
//! whose `prefix_len` or suffix length disagrees with its point —
//! returns `None` and the cache treats the entry as a miss. The layout
//! is versioned by [`CACHE_SCHEMA_VERSION`]; bump it whenever this
//! module (or anything a digest or encoding depends on) changes
//! meaning, and every stale entry invalidates itself.

use bist_baselines::{Bakeoff, BakeoffRow};
use bist_core::{MixedGenerator, MixedSolution, SessionStats, SweepSummary};
use bist_faultsim::{CoverageCurve, CoverageReport};
use bist_lfsr::Polynomial;
use bist_lint::{Diagnostic, LintReport, RankedNode, RuleCode, ScoapSummary, Severity, Span};
use bist_logicsim::Pattern;

use crate::json::Json;
use crate::result::{
    AreaReportOutcome, BakeoffOutcome, CurveOutcome, EstimateOutcome, HdlOutcome, JobResult,
    LintOutcome, SolveAtOutcome, SweepOutcome,
};

/// Version of the cached-result layout *and* of the cache-key digest
/// recipe. Participates in both, so bumping it orphans every existing
/// entry at the lookup stage already.
///
/// History: 1 = initial layout; 2 = added the `lint` kind; 3 = added
/// the `estimate` kind; 4 = the key became the job's wire encoding, and
/// `.bench` text follows node order (lint spans of named circuits
/// moved).
pub const CACHE_SCHEMA_VERSION: u64 = 4;

/// Every architecture name a [`BakeoffRow`] can carry. Rows intern their
/// names as `&'static str`; decoding maps file strings back through this
/// table (an unknown name fails the decode — by construction it was
/// written by a different tree).
const ARCHITECTURES: [&str; 8] = [
    "mixed",
    "lfsrom",
    "lfsr",
    "cellular-automaton",
    "counter-pla",
    "lfsr-reseeding",
    "rom-counter",
    "weighted-random",
];

/// Encodes one result as the full cache-file document.
pub fn encode_result(result: &JobResult) -> Json {
    let (kind, body) = match result {
        JobResult::SolveAt(o) => ("solve-at", encode_solve_at(o)),
        JobResult::Sweep(o) => ("sweep", encode_sweep(o)),
        JobResult::CoverageCurve(o) => ("coverage-curve", encode_curve(o)),
        JobResult::Bakeoff(o) => ("bakeoff", encode_bakeoff(o)),
        JobResult::EmitHdl(o) => ("emit-hdl", encode_hdl(o)),
        JobResult::AreaReport(o) => ("area-report", encode_area(o)),
        JobResult::Lint(o) => ("lint", encode_lint(o)),
        JobResult::CoverageEstimate(o) => ("estimate", encode_estimate(o)),
    };
    let mut doc = Json::object();
    doc.push("cache_schema", Json::uint(CACHE_SCHEMA_VERSION as usize));
    doc.push("kind", Json::str(kind));
    doc.push("result", body);
    doc
}

/// Decodes a cache-file document; `None` on any mismatch.
pub fn decode_result(doc: &Json) -> Option<JobResult> {
    if doc.get("cache_schema")?.as_usize()? != CACHE_SCHEMA_VERSION as usize {
        return None;
    }
    let body = doc.get("result")?;
    Some(match doc.get("kind")?.as_str()? {
        "solve-at" => JobResult::SolveAt(decode_solve_at(body)?),
        "sweep" => JobResult::Sweep(decode_sweep(body)?),
        "coverage-curve" => JobResult::CoverageCurve(decode_curve(body)?),
        "bakeoff" => JobResult::Bakeoff(decode_bakeoff(body)?),
        "emit-hdl" => JobResult::EmitHdl(decode_hdl(body)?),
        "area-report" => JobResult::AreaReport(decode_area(body)?),
        "lint" => JobResult::Lint(decode_lint(body)?),
        "estimate" => JobResult::CoverageEstimate(decode_estimate(body)?),
        _ => return None,
    })
}

fn encode_coverage(r: &CoverageReport) -> Json {
    let mut o = Json::object();
    o.push("detected", Json::uint(r.detected));
    o.push("redundant", Json::uint(r.redundant));
    o.push("aborted", Json::uint(r.aborted));
    o.push("undetected", Json::uint(r.undetected));
    o
}

fn decode_coverage(j: &Json) -> Option<CoverageReport> {
    Some(CoverageReport {
        detected: j.get("detected")?.as_usize()?,
        redundant: j.get("redundant")?.as_usize()?,
        aborted: j.get("aborted")?.as_usize()?,
        undetected: j.get("undetected")?.as_usize()?,
    })
}

fn encode_stats(s: &SessionStats) -> Json {
    let mut o = Json::object();
    o.push("patterns_simulated", Json::uint(s.patterns_simulated));
    o.push("patterns_resimulated", Json::uint(s.patterns_resimulated));
    o.push("atpg_runs", Json::uint(s.atpg_runs));
    o.push("atpg_cache_hits", Json::uint(s.atpg_cache_hits));
    o.push("podem_cache_hits", Json::uint(s.podem_cache_hits));
    o
}

fn decode_stats(j: &Json) -> Option<SessionStats> {
    Some(SessionStats {
        patterns_simulated: j.get("patterns_simulated")?.as_usize()?,
        patterns_resimulated: j.get("patterns_resimulated")?.as_usize()?,
        atpg_runs: j.get("atpg_runs")?.as_usize()?,
        atpg_cache_hits: j.get("atpg_cache_hits")?.as_usize()?,
        podem_cache_hits: j.get("podem_cache_hits")?.as_usize()?,
    })
}

fn encode_solution(s: &MixedSolution) -> Json {
    let g = &s.generator;
    let mut gen_j = Json::object();
    gen_j.push("width", Json::uint(g.width()));
    gen_j.push("poly", Json::Str(format!("{:016x}", g.poly().mask())));
    gen_j.push("prefix_len", Json::uint(g.prefix_len()));
    gen_j.push(
        "deterministic",
        Json::Array(
            g.deterministic()
                .iter()
                .map(|p| Json::Str(p.to_string()))
                .collect(),
        ),
    );

    let mut o = Json::object();
    o.push("prefix_len", Json::uint(s.prefix_len));
    o.push("det_len", Json::uint(s.det_len));
    o.push("coverage", encode_coverage(&s.coverage));
    o.push("prefix_coverage", encode_coverage(&s.prefix_coverage));
    o.push("generator_area_mm2", Json::f64_bits(s.generator_area_mm2));
    o.push("chip_area_mm2", Json::f64_bits(s.chip_area_mm2));
    o.push("generator", gen_j);
    o
}

fn decode_solution(j: &Json) -> Option<MixedSolution> {
    let g = j.get("generator")?;
    let width = g.get("width")?.as_usize()?;
    let poly = Polynomial::from_mask(u64::from_str_radix(g.get("poly")?.as_str()?, 16).ok()?);
    let prefix_len = g.get("prefix_len")?.as_usize()?;
    let deterministic: Vec<Pattern> = g
        .get("deterministic")?
        .as_array()?
        .iter()
        .map(|p| p.as_str()?.parse().ok())
        .collect::<Option<_>>()?;
    let generator = MixedGenerator::restore(width, poly, prefix_len, &deterministic).ok()?;

    let solution = MixedSolution {
        prefix_len: j.get("prefix_len")?.as_usize()?,
        det_len: j.get("det_len")?.as_usize()?,
        coverage: decode_coverage(j.get("coverage")?)?,
        prefix_coverage: decode_coverage(j.get("prefix_coverage")?)?,
        generator_area_mm2: j.get("generator_area_mm2")?.as_f64_bits()?,
        chip_area_mm2: j.get("chip_area_mm2")?.as_f64_bits()?,
        generator,
    };
    // internal consistency: the restored generator must implement the
    // point the solution claims
    if solution.generator.prefix_len() != solution.prefix_len
        || solution.generator.deterministic().len() != solution.det_len
    {
        return None;
    }
    Some(solution)
}

fn encode_solve_at(o: &SolveAtOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push("solution", encode_solution(&o.solution));
    j.push("stats", encode_stats(&o.stats));
    j
}

fn decode_solve_at(j: &Json) -> Option<SolveAtOutcome> {
    Some(SolveAtOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        solution: decode_solution(j.get("solution")?)?,
        stats: decode_stats(j.get("stats")?)?,
    })
}

fn encode_sweep(o: &SweepOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push(
        "solutions",
        Json::Array(o.summary.solutions().iter().map(encode_solution).collect()),
    );
    j.push("stats", encode_stats(&o.stats));
    j
}

fn decode_sweep(j: &Json) -> Option<SweepOutcome> {
    let solutions: Vec<MixedSolution> = j
        .get("solutions")?
        .as_array()?
        .iter()
        .map(decode_solution)
        .collect::<Option<_>>()?;
    Some(SweepOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        summary: SweepSummary::from_solutions(solutions),
        stats: decode_stats(j.get("stats")?)?,
    })
}

fn encode_curve(o: &CurveOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push(
        "points",
        Json::Array(
            o.curve
                .points()
                .iter()
                .map(|&(len, pct)| {
                    let mut p = Json::object();
                    p.push("len", Json::uint(len));
                    p.push("pct", Json::f64_bits(pct));
                    p
                })
                .collect(),
        ),
    );
    j.push("fault_universe", Json::uint(o.fault_universe));
    j
}

fn decode_curve(j: &Json) -> Option<CurveOutcome> {
    let points: Vec<(usize, f64)> = j
        .get("points")?
        .as_array()?
        .iter()
        .map(|p| Some((p.get("len")?.as_usize()?, p.get("pct")?.as_f64_bits()?)))
        .collect::<Option<_>>()?;
    Some(CurveOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        curve: CoverageCurve::new(points),
        fault_universe: j.get("fault_universe")?.as_usize()?,
    })
}

fn encode_bakeoff(o: &BakeoffOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push(
        "rows",
        Json::Array(
            o.bakeoff
                .rows
                .iter()
                .map(|r| {
                    let mut row = Json::object();
                    row.push("architecture", Json::str(r.architecture));
                    row.push("test_length", Json::uint(r.test_length));
                    row.push("area_mm2", Json::f64_bits(r.area_mm2));
                    row.push("coverage_pct", Json::f64_bits(r.coverage_pct));
                    row.push("deterministic", Json::Bool(r.deterministic));
                    row
                })
                .collect(),
        ),
    );
    j.push("achievable_pct", Json::f64_bits(o.bakeoff.achievable_pct));
    j.push(
        "atpg_coverage_pct",
        Json::f64_bits(o.bakeoff.atpg_coverage_pct),
    );
    j.push(
        "deterministic_patterns",
        Json::uint(o.bakeoff.deterministic_patterns),
    );
    j
}

fn decode_bakeoff(j: &Json) -> Option<BakeoffOutcome> {
    let rows: Vec<BakeoffRow> = j
        .get("rows")?
        .as_array()?
        .iter()
        .map(|r| {
            let name = r.get("architecture")?.as_str()?;
            let architecture = *ARCHITECTURES.iter().find(|a| **a == name)?;
            Some(BakeoffRow {
                architecture,
                test_length: r.get("test_length")?.as_usize()?,
                area_mm2: r.get("area_mm2")?.as_f64_bits()?,
                coverage_pct: r.get("coverage_pct")?.as_f64_bits()?,
                deterministic: r.get("deterministic")?.as_bool()?,
            })
        })
        .collect::<Option<_>>()?;
    Some(BakeoffOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        bakeoff: Bakeoff {
            rows,
            achievable_pct: j.get("achievable_pct")?.as_f64_bits()?,
            atpg_coverage_pct: j.get("atpg_coverage_pct")?.as_f64_bits()?,
            deterministic_patterns: j.get("deterministic_patterns")?.as_usize()?,
        },
    })
}

fn optional_text(value: Option<&String>) -> Json {
    match value {
        Some(text) => Json::str(text),
        None => Json::Null,
    }
}

fn decode_optional_text(j: &Json) -> Option<Option<String>> {
    match j {
        Json::Null => Some(None),
        Json::Str(s) => Some(Some(s.clone())),
        _ => None,
    }
}

fn encode_hdl(o: &HdlOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push("module", Json::str(&o.module));
    j.push("solution", encode_solution(&o.solution));
    j.push("verilog", optional_text(o.verilog.as_ref()));
    j.push("vhdl", optional_text(o.vhdl.as_ref()));
    j.push("testbench", optional_text(o.testbench.as_ref()));
    j
}

fn decode_hdl(j: &Json) -> Option<HdlOutcome> {
    Some(HdlOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        module: j.get("module")?.as_str()?.to_owned(),
        solution: decode_solution(j.get("solution")?)?,
        verilog: decode_optional_text(j.get("verilog")?)?,
        vhdl: decode_optional_text(j.get("vhdl")?)?,
        testbench: decode_optional_text(j.get("testbench")?)?,
    })
}

fn encode_area(o: &AreaReportOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push("inputs", Json::uint(o.inputs));
    j.push("det_len", Json::uint(o.det_len));
    j.push("chip_mm2", Json::f64_bits(o.chip_mm2));
    j.push("generator_mm2", Json::f64_bits(o.generator_mm2));
    j.push("overhead_pct", Json::f64_bits(o.overhead_pct));
    j.push("coverage_pct", Json::f64_bits(o.coverage_pct));
    j
}

fn decode_area(j: &Json) -> Option<AreaReportOutcome> {
    Some(AreaReportOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        inputs: j.get("inputs")?.as_usize()?,
        det_len: j.get("det_len")?.as_usize()?,
        chip_mm2: j.get("chip_mm2")?.as_f64_bits()?,
        generator_mm2: j.get("generator_mm2")?.as_f64_bits()?,
        overhead_pct: j.get("overhead_pct")?.as_f64_bits()?,
        coverage_pct: j.get("coverage_pct")?.as_f64_bits()?,
    })
}

fn encode_diagnostic(d: &Diagnostic) -> Json {
    let mut j = Json::object();
    j.push("code", Json::str(d.code.code()));
    j.push("severity", Json::str(d.severity.label()));
    j.push("line", Json::uint(d.span.line));
    j.push("message", Json::str(&d.message));
    j
}

fn decode_diagnostic(j: &Json) -> Option<Diagnostic> {
    let severity = match j.get("severity")?.as_str()? {
        "info" => Severity::Info,
        "warning" => Severity::Warn,
        "error" => Severity::Error,
        _ => return None,
    };
    Some(Diagnostic {
        code: RuleCode::from_code(j.get("code")?.as_str()?)?,
        severity,
        message: j.get("message")?.as_str()?.to_owned(),
        span: Span::line(j.get("line")?.as_usize()?),
    })
}

fn encode_worst(worst: Option<&(String, u32)>) -> Json {
    match worst {
        Some((name, value)) => {
            let mut j = Json::object();
            j.push("name", Json::str(name));
            j.push("value", Json::uint(*value as usize));
            j
        }
        None => Json::Null,
    }
}

fn decode_worst(j: &Json) -> Option<Option<(String, u32)>> {
    match j {
        Json::Null => Some(None),
        _ => Some(Some((
            j.get("name")?.as_str()?.to_owned(),
            u32::try_from(j.get("value")?.as_usize()?).ok()?,
        ))),
    }
}

fn encode_scoap(s: &ScoapSummary) -> Json {
    let mut j = Json::object();
    j.push("nodes", Json::uint(s.nodes));
    j.push("max_cc0", encode_worst(s.max_cc0.as_ref()));
    j.push("max_cc1", encode_worst(s.max_cc1.as_ref()));
    j.push("max_co", encode_worst(s.max_co.as_ref()));
    j.push(
        "resistance",
        Json::Array(
            s.resistance
                .iter()
                .map(|r| {
                    let mut node = Json::object();
                    node.push("name", Json::str(&r.name));
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

fn decode_scoap(j: &Json) -> Option<ScoapSummary> {
    let resistance: Vec<RankedNode> = j
        .get("resistance")?
        .as_array()?
        .iter()
        .map(|r| {
            Some(RankedNode {
                name: r.get("name")?.as_str()?.to_owned(),
                cc0: u32::try_from(r.get("cc0")?.as_usize()?).ok()?,
                cc1: u32::try_from(r.get("cc1")?.as_usize()?).ok()?,
                co: u32::try_from(r.get("co")?.as_usize()?).ok()?,
                score: r.get("score")?.as_usize()? as u64,
            })
        })
        .collect::<Option<_>>()?;
    Some(ScoapSummary {
        nodes: j.get("nodes")?.as_usize()?,
        max_cc0: decode_worst(j.get("max_cc0")?)?,
        max_cc1: decode_worst(j.get("max_cc1")?)?,
        max_co: decode_worst(j.get("max_co")?)?,
        resistance,
    })
}

fn encode_lint(o: &LintOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push(
        "diagnostics",
        Json::Array(o.report.diagnostics.iter().map(encode_diagnostic).collect()),
    );
    j.push(
        "scoap",
        match &o.report.scoap {
            Some(s) => encode_scoap(s),
            None => Json::Null,
        },
    );
    j
}

fn decode_lint(j: &Json) -> Option<LintOutcome> {
    let diagnostics: Vec<Diagnostic> = j
        .get("diagnostics")?
        .as_array()?
        .iter()
        .map(decode_diagnostic)
        .collect::<Option<_>>()?;
    let scoap = match j.get("scoap")? {
        Json::Null => None,
        s => Some(decode_scoap(s)?),
    };
    Some(LintOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        report: LintReport { diagnostics, scoap },
    })
}

fn encode_estimate(o: &EstimateOutcome) -> Json {
    let mut j = Json::object();
    j.push("circuit", Json::str(&o.circuit));
    j.push("fault_universe", Json::uint(o.fault_universe));
    j.push("representatives", Json::uint(o.representatives));
    j.push("prefix_len", Json::uint(o.prefix_len));
    j.push("samples", Json::uint(o.samples));
    j.push("detected_samples", Json::uint(o.detected_samples));
    j.push("estimate_pct", Json::f64_bits(o.estimate_pct));
    j.push("lo_pct", Json::f64_bits(o.lo_pct));
    j.push("hi_pct", Json::f64_bits(o.hi_pct));
    j.push("confidence", Json::uint(o.confidence as usize));
    j.push("seed", Json::Str(format!("{:016x}", o.seed)));
    j
}

fn decode_estimate(j: &Json) -> Option<EstimateOutcome> {
    Some(EstimateOutcome {
        circuit: j.get("circuit")?.as_str()?.to_owned(),
        fault_universe: j.get("fault_universe")?.as_usize()?,
        representatives: j.get("representatives")?.as_usize()?,
        prefix_len: j.get("prefix_len")?.as_usize()?,
        samples: j.get("samples")?.as_usize()?,
        detected_samples: j.get("detected_samples")?.as_usize()?,
        estimate_pct: j.get("estimate_pct")?.as_f64_bits()?,
        lo_pct: j.get("lo_pct")?.as_f64_bits()?,
        hi_pct: j.get("hi_pct")?.as_f64_bits()?,
        confidence: u32::try_from(j.get("confidence")?.as_usize()?).ok()?,
        seed: u64::from_str_radix(j.get("seed")?.as_str()?, 16).ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::{CircuitSource, JobSpec};
    use crate::Engine;

    fn round_trip(result: &JobResult) -> JobResult {
        let text = encode_result(result).render_pretty();
        let doc = json::parse(&text).expect("encoder emits valid JSON");
        decode_result(&doc).expect("own encoding decodes")
    }

    fn assert_solutions_identical(a: &MixedSolution, b: &MixedSolution) {
        assert_eq!(a.prefix_len, b.prefix_len);
        assert_eq!(a.det_len, b.det_len);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.prefix_coverage, b.prefix_coverage);
        assert_eq!(
            a.generator_area_mm2.to_bits(),
            b.generator_area_mm2.to_bits()
        );
        assert_eq!(a.chip_area_mm2.to_bits(), b.chip_area_mm2.to_bits());
        assert_eq!(a.generator.deterministic(), b.generator.deterministic());
        assert_eq!(a.generator.poly(), b.generator.poly());
        assert_eq!(
            bist_netlist::bench::write(a.generator.netlist()),
            bist_netlist::bench::write(b.generator.netlist())
        );
    }

    fn assert_sweeps_identical(a: &JobResult, b: &JobResult) {
        let (a, b) = (a.as_sweep().expect("sweep"), b.as_sweep().expect("sweep"));
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.summary.solutions().len(), b.summary.solutions().len());
        for (x, y) in a.summary.solutions().iter().zip(b.summary.solutions()) {
            assert_solutions_identical(x, y);
        }
    }

    #[test]
    fn sweep_round_trips_bit_identically() {
        let engine = Engine::with_threads(1);
        let result = engine
            .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4, 8]))
            .expect("c17 sweep");
        assert_sweeps_identical(&result, &round_trip(&result));
    }

    #[test]
    fn entries_carrying_the_dropped_snapshot_counters_still_decode() {
        // schema-4 entries written before the session's checkpoint
        // snapshots were deleted end their stats with two more counters;
        // decoding ignores them
        let engine = Engine::with_threads(1);
        let result = engine
            .run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4, 8]))
            .expect("c17 sweep");
        let mut doc = encode_result(&result);
        let stats = field(field(&mut doc, "result"), "stats");
        stats.push("snapshots_taken", Json::uint(2));
        stats.push("snapshots_skipped", Json::uint(1));
        let text = doc.render_pretty();
        assert!(text.contains("\"snapshots_skipped\": 1"), "{text}");
        let old = decode_result(&json::parse(&text).expect("valid JSON")).expect("still decodes");
        assert_sweeps_identical(&result, &old);
    }

    fn field<'j>(object: &'j mut Json, key: &str) -> &'j mut Json {
        match object {
            Json::Object(pairs) => pairs
                .iter_mut()
                .find_map(|(k, v)| (k == key).then_some(v))
                .expect("field present"),
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn hdl_round_trips_artefacts_byte_exactly() {
        let engine = Engine::with_threads(1);
        let result = engine
            .run(JobSpec::emit_hdl(CircuitSource::iscas85("c17"), 4))
            .expect("c17 hdl");
        let back = round_trip(&result);
        let (a, b) = (
            result.as_emit_hdl().expect("hdl"),
            back.as_emit_hdl().expect("hdl"),
        );
        assert_eq!(a.module, b.module);
        assert_eq!(a.verilog, b.verilog);
        assert_eq!(a.vhdl, b.vhdl);
        assert_eq!(a.testbench, b.testbench);
        assert_solutions_identical(&a.solution, &b.solution);
    }

    #[test]
    fn curve_and_area_round_trip() {
        let engine = Engine::with_threads(1);
        let curve = engine
            .run(JobSpec::coverage_curve(
                CircuitSource::iscas85("c17"),
                [0, 8],
            ))
            .expect("c17 curve");
        let back = round_trip(&curve);
        let (a, b) = (
            curve.as_coverage_curve().expect("curve"),
            back.as_coverage_curve().expect("curve"),
        );
        assert_eq!(a.fault_universe, b.fault_universe);
        assert_eq!(a.curve.points().len(), b.curve.points().len());
        for ((l1, c1), (l2, c2)) in a.curve.points().iter().zip(b.curve.points()) {
            assert_eq!(l1, l2);
            assert_eq!(c1.to_bits(), c2.to_bits());
        }

        let area = engine
            .run(JobSpec::area_report(CircuitSource::iscas85("c17")))
            .expect("c17 area");
        let back = round_trip(&area);
        let (a, b) = (
            area.as_area_report().expect("area"),
            back.as_area_report().expect("area"),
        );
        assert_eq!(a.det_len, b.det_len);
        assert_eq!(a.chip_mm2.to_bits(), b.chip_mm2.to_bits());
        assert_eq!(a.overhead_pct.to_bits(), b.overhead_pct.to_bits());
    }

    #[test]
    fn bakeoff_round_trips_and_interns_architectures() {
        let engine = Engine::with_threads(1);
        let result = engine
            .run(JobSpec::bakeoff(CircuitSource::iscas85("c17"), 16))
            .expect("c17 bakeoff");
        let back = round_trip(&result);
        let (a, b) = (
            result.as_bakeoff().expect("bakeoff"),
            back.as_bakeoff().expect("bakeoff"),
        );
        assert_eq!(a.bakeoff.rows.len(), b.bakeoff.rows.len());
        for (x, y) in a.bakeoff.rows.iter().zip(&b.bakeoff.rows) {
            // pointer-equal interned names, value-equal payloads
            assert_eq!(x.architecture, y.architecture);
            assert_eq!(x.test_length, y.test_length);
            assert_eq!(x.area_mm2.to_bits(), y.area_mm2.to_bits());
            assert_eq!(x.coverage_pct.to_bits(), y.coverage_pct.to_bits());
        }
        assert_eq!(
            a.bakeoff.achievable_pct.to_bits(),
            b.bakeoff.achievable_pct.to_bits()
        );
    }

    #[test]
    fn lint_round_trips_exactly() {
        let engine = Engine::with_threads(1);
        let result = engine
            .run(JobSpec::lint(CircuitSource::iscas85("c17")))
            .expect("c17 lint");
        let back = round_trip(&result);
        let (a, b) = (
            result.as_lint().expect("lint"),
            back.as_lint().expect("lint"),
        );
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.report, b.report);
        assert!(a.report.scoap.is_some());

        // a parse-failure report (no SCOAP summary) round-trips too
        let broken = engine
            .run(JobSpec::lint(CircuitSource::bench(
                "broken",
                "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)",
            )))
            .expect("lint reports defects instead of failing");
        let back = round_trip(&broken);
        assert_eq!(
            broken.as_lint().expect("lint").report,
            back.as_lint().expect("lint").report
        );
    }

    #[test]
    fn estimate_round_trips_bit_identically() {
        let engine = Engine::with_threads(1);
        let result = engine
            .run(JobSpec::estimate(CircuitSource::iscas85("c17"), 32))
            .expect("c17 estimate");
        let back = round_trip(&result);
        let (a, b) = (
            result.as_estimate().expect("estimate"),
            back.as_estimate().expect("estimate"),
        );
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.fault_universe, b.fault_universe);
        assert_eq!(a.representatives, b.representatives);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.detected_samples, b.detected_samples);
        assert_eq!(a.estimate_pct.to_bits(), b.estimate_pct.to_bits());
        assert_eq!(a.lo_pct.to_bits(), b.lo_pct.to_bits());
        assert_eq!(a.hi_pct.to_bits(), b.hi_pct.to_bits());
        assert_eq!(a.confidence, b.confidence);
        assert_eq!(a.seed, b.seed);
    }

    /// A c17 sweep entry (`bist sweep c17 --points 0,4,8`) as the cache
    /// stored it when decoding still synthesized every generator; the
    /// encoder has not changed since, so it must re-encode byte for byte.
    const C17_SWEEP_ENTRY: &str = include_str!("../tests/fixtures/c17_sweep_entry.json");

    #[test]
    fn a_stored_entry_re_encodes_byte_identically_and_its_generators_verify() {
        let doc = json::parse(C17_SWEEP_ENTRY).expect("valid JSON");
        let decoded = decode_result(&doc).expect("the entry decodes");
        assert_eq!(encode_result(&decoded).render_pretty(), C17_SWEEP_ENTRY);
        let solutions = decoded.as_sweep().expect("sweep").summary.solutions();
        assert_eq!(solutions.len(), 3);
        for s in solutions {
            assert!(s.generator.verify(), "p={}", s.prefix_len);
        }
    }

    /// The first solved point (p = 0) of the stored c17 entry.
    fn first_solution(doc: &mut Json) -> &mut Json {
        match field(field(doc, "result"), "solutions") {
            Json::Array(items) => &mut items[0],
            _ => panic!("solutions is an array"),
        }
    }

    /// Applies `edit` to the stored c17 entry; the edited entry must
    /// still be valid JSON and decode to a miss.
    fn assert_edit_is_a_miss(what: &str, edit: impl FnOnce(&mut Json)) {
        let mut doc = json::parse(C17_SWEEP_ENTRY).expect("valid JSON");
        edit(&mut doc);
        let back = json::parse(&doc.render_pretty()).expect("still valid JSON");
        assert!(decode_result(&back).is_none(), "{what} must be a miss");
    }

    #[test]
    fn entries_whose_generators_fail_the_shape_checks_are_misses() {
        assert_edit_is_a_miss("a deterministic pattern one bit short", |doc| {
            let generator = field(first_solution(doc), "generator");
            let Json::Array(det) = field(generator, "deterministic") else {
                panic!("deterministic is an array");
            };
            det[3] = Json::str("0110");
        });
        // the point's own d agrees, so only the shape check can refuse it
        assert_edit_is_a_miss("prefix_len 0 with an empty suffix", |doc| {
            let solution = first_solution(doc);
            *field(solution, "det_len") = Json::uint(0);
            *field(field(solution, "generator"), "deterministic") = Json::Array(Vec::new());
        });
        assert_edit_is_a_miss("width 0", |doc| {
            *field(field(first_solution(doc), "generator"), "width") = Json::uint(0);
        });
        assert_edit_is_a_miss("a polynomial of degree 0", |doc| {
            let generator = field(first_solution(doc), "generator");
            *field(generator, "poly") = Json::str("0000000000000001");
        });
        assert_edit_is_a_miss("a generator prefix_len that is not the point's", |doc| {
            *field(field(first_solution(doc), "generator"), "prefix_len") = Json::uint(4);
        });
    }

    #[test]
    fn foreign_documents_decode_to_none() {
        for text in [
            "{}",
            r#"{"cache_schema": 999, "kind": "sweep", "result": {}}"#,
            r#"{"cache_schema": 4, "kind": "unheard-of", "result": {}}"#,
            r#"{"cache_schema": 4, "kind": "sweep", "result": {"circuit": "x"}}"#,
            // entries written under earlier schemas
            r#"{"cache_schema": 1, "kind": "sweep", "result": {}}"#,
            r#"{"cache_schema": 2, "kind": "sweep", "result": {}}"#,
            r#"{"cache_schema": 3, "kind": "sweep", "result": {}}"#,
        ] {
            let doc = json::parse(text).expect("well-formed JSON");
            assert!(decode_result(&doc).is_none(), "`{text}` must not decode");
        }
    }
}
