//! The versioned newline-delimited-JSON wire protocol of `bist serve`.
//!
//! Every message is one compact JSON object on one line (the [`Json`]
//! renderer never emits a raw newline — control characters are escaped
//! — so NDJSON framing is safe by construction). Every line carries a
//! `"v"` field holding [`WIRE_SCHEMA_VERSION`]; decoding a line from a
//! different version fails with a typed [`WireError`] instead of
//! misinterpreting fields.
//!
//! The protocol is a compatibility contract, unlike the cache-internal
//! [`codec`] layout: field names in this module are
//! stable. Result payloads delegate to [`codec::encode_result`] and
//! carry its embedded `cache_schema` version, so the two layers version
//! jointly — a result produced by a different tree fails to decode
//! rather than decoding wrongly. Bit-exactness survives the wire: every
//! `f64` crosses as its IEEE-754 bit pattern ([`Json::f64_bits`]), and
//! an [`CircuitSource::Inline`] circuit crosses as its canonical
//! `.bench` serialization (it decodes as [`CircuitSource::Bench`],
//! which realizes to the identical circuit, node for node). The
//! encoding of a spec is also its identity: the result cache's key is
//! [`encode_spec`] of the spec with its circuit inline
//! ([`job_digest`](crate::cache::job_digest)).
//!
//! See `docs/PROTOCOL.md` for the session flow and a field-by-field
//! reference.

use bist_netlist::bench;
use bist_synth::CellKind;

use crate::codec;
use crate::json::Json;
use crate::progress::{JobId, ProgressEvent};
use crate::result::JobResult;
use crate::spec::{
    AreaReportSpec, BakeoffSpec, CircuitSource, CoverageCurveSpec, EmitHdlSpec, EstimateSpec,
    HdlLanguage, JobSpec, LintSpec, SolveAtSpec, SweepSpec,
};
use bist_core::MixedSchemeConfig;
use bist_faultmodel::{FaultModel, ParseFaultModelError};
use bist_lfsr::Polynomial;
use bist_synth::AreaModel;

/// Version of the wire schema. Bump on any change to field names,
/// value encodings or message kinds; peers at different versions
/// reject each other's lines with a [`WireError`] naming both versions.
pub const WIRE_SCHEMA_VERSION: u64 = 1;

/// A malformed, foreign-version or otherwise undecodable wire line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What failed to decode.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.message)
    }
}

impl std::error::Error for WireError {}

fn err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

/// One client-to-server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a job for execution.
    Submit {
        /// The job to run (boxed: a spec dwarfs the other variants).
        spec: Box<JobSpec>,
    },
    /// Ask for the server's lifetime statistics.
    Stats,
    /// Ask the server to shut down gracefully (drain in-flight jobs,
    /// then exit).
    Shutdown,
}

/// One server-to-client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// The submission was admitted; `job` identifies it in every
    /// subsequent event on this connection.
    Accepted {
        /// Server-assigned job number.
        job: u64,
    },
    /// The submission was refused — the queue is full or the server is
    /// draining. The client should retry after `retry_after_ms` (when
    /// given) or give up.
    Rejected {
        /// Human-readable refusal reason.
        reason: String,
        /// Suggested retry delay, milliseconds; `None` means "don't".
        retry_after_ms: Option<u64>,
    },
    /// A progress event from a running job (its [`ProgressEvent::job`]
    /// carries the server-assigned job number).
    Event {
        /// The event.
        event: ProgressEvent,
    },
    /// A job finished successfully.
    Result {
        /// Server-assigned job number.
        job: u64,
        /// True when the result was answered from the server's result
        /// cache without re-simulation.
        cached: bool,
        /// The result payload (boxed: it dwarfs the other variants).
        result: Box<JobResult>,
    },
    /// A job failed; the rendered [`BistError`](crate::BistError).
    Failed {
        /// Server-assigned job number.
        job: u64,
        /// Rendered error message.
        error: String,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The server's lifetime statistics.
        stats: ServerStats,
    },
    /// Answer to [`Request::Shutdown`]: the server stopped accepting
    /// work and is draining.
    Stopping {
        /// Jobs still queued at the time of the request.
        queued: u64,
        /// Jobs executing at the time of the request.
        running: u64,
    },
}

/// Server-lifetime statistics, answered to [`Request::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Jobs admitted over the server's lifetime.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Jobs currently waiting in the queue.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Result-cache statistics, when the server runs with a cache.
    pub cache: Option<WireCacheStats>,
}

/// Result-cache statistics inside [`ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Results written.
    pub stores: u64,
    /// Entries evicted by the size cap.
    pub evictions: u64,
    /// Entries on disk right now.
    pub entries: u64,
    /// Bytes on disk right now.
    pub bytes: u64,
    /// The configured size cap, when one is set.
    pub capacity_bytes: Option<u64>,
}

fn uint64(v: u64) -> Json {
    match i64::try_from(v) {
        Ok(v) => Json::Int(v),
        // the JSON layer's integer is i64; the (theoretical) upper half
        // of the u64 domain crosses as a 16-hex-digit string instead of
        // panicking or truncating
        Err(_) => hex64(v),
    }
}

fn hex64(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    obj.get(key).ok_or_else(|| err(format!("missing `{key}`")))
}

fn get_u64(obj: &Json, key: &str) -> Result<u64, WireError> {
    let value = get(obj, key)?;
    if let Some(v) = value.as_i64() {
        return u64::try_from(v).map_err(|_| err(format!("`{key}` is not a non-negative integer")));
    }
    // the hex-string fallback [`uint64`] uses above i64::MAX
    if let Some(s) = value.as_str() {
        if s.len() == 16 {
            if let Ok(v) = u64::from_str_radix(s, 16) {
                return Ok(v);
            }
        }
    }
    Err(err(format!("`{key}` is not a non-negative integer")))
}

fn get_usize(obj: &Json, key: &str) -> Result<usize, WireError> {
    get(obj, key)?
        .as_usize()
        .ok_or_else(|| err(format!("`{key}` is not a non-negative integer")))
}

fn get_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, WireError> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| err(format!("`{key}` is not a string")))
}

fn get_bool(obj: &Json, key: &str) -> Result<bool, WireError> {
    get(obj, key)?
        .as_bool()
        .ok_or_else(|| err(format!("`{key}` is not a boolean")))
}

fn get_hex64(obj: &Json, key: &str) -> Result<u64, WireError> {
    let s = get_str(obj, key)?;
    if s.len() != 16 {
        return Err(err(format!("`{key}` is not a 16-hex-digit word")));
    }
    u64::from_str_radix(s, 16).map_err(|_| err(format!("`{key}` is not a 16-hex-digit word")))
}

fn get_f64_bits(obj: &Json, key: &str) -> Result<f64, WireError> {
    get(obj, key)?
        .as_f64_bits()
        .ok_or_else(|| err(format!("`{key}` is not a bit-exact f64")))
}

fn envelope(kind: &str) -> Json {
    let mut o = Json::object();
    o.push("v", uint64(WIRE_SCHEMA_VERSION));
    o.push("type", Json::str(kind));
    o
}

fn open_envelope<'a>(line: &str, doc: &'a Json) -> Result<&'a str, WireError> {
    let _ = line;
    let v = get_u64(doc, "v")?;
    if v != WIRE_SCHEMA_VERSION {
        return Err(err(format!(
            "schema version {v} (this peer speaks {WIRE_SCHEMA_VERSION})"
        )));
    }
    get_str(doc, "type")
}

// ---------------------------------------------------------------- specs

fn encode_circuit(circuit: &CircuitSource) -> Json {
    let mut o = Json::object();
    match circuit {
        CircuitSource::Iscas85 { name } => {
            o.push("family", Json::str("iscas85"));
            o.push("name", Json::str(name));
        }
        CircuitSource::Iscas89 { name } => {
            o.push("family", Json::str("iscas89"));
            o.push("name", Json::str(name));
        }
        CircuitSource::Bench { name, text } => {
            o.push("family", Json::str("bench"));
            o.push("name", Json::str(name));
            o.push("text", Json::str(text));
        }
        // an inline circuit crosses the wire as its canonical `.bench`
        // serialization; it decodes as Bench and realizes identically
        CircuitSource::Inline(c) => {
            o.push("family", Json::str("bench"));
            o.push("name", Json::str(c.name()));
            o.push("text", Json::str(bench::write(c)));
        }
    }
    o
}

fn decode_circuit(j: &Json) -> Result<CircuitSource, WireError> {
    let name = get_str(j, "name")?.to_owned();
    match get_str(j, "family")? {
        "iscas85" => Ok(CircuitSource::Iscas85 { name }),
        "iscas89" => Ok(CircuitSource::Iscas89 { name }),
        "bench" => Ok(CircuitSource::Bench {
            name,
            text: get_str(j, "text")?.to_owned(),
        }),
        other => Err(err(format!("unknown circuit family `{other}`"))),
    }
}

fn encode_config(config: &MixedSchemeConfig) -> Json {
    let mut atpg = Json::object();
    atpg.push(
        "backtrack_limit",
        Json::uint(config.atpg.podem.backtrack_limit as usize),
    );
    atpg.push("fill_seed", hex64(config.atpg.podem.fill_seed));
    atpg.push("no_compaction", Json::Bool(config.atpg.no_compaction));
    atpg.push("threads", Json::uint(config.atpg.threads));
    let mut cells = Json::object();
    for kind in CellKind::ALL {
        cells.push(
            kind.to_string(),
            Json::f64_bits(config.area.cell_area_um2(kind)),
        );
    }
    let mut area = Json::object();
    area.push(
        "routing_factor",
        Json::f64_bits(config.area.routing_factor()),
    );
    area.push("cells_um2", cells);
    let mut o = Json::object();
    o.push("poly", hex64(config.poly.mask()));
    o.push("atpg", atpg);
    o.push("area", area);
    // advisory: the receiving engine re-resolves its own pool width
    // when 0; results are bit-identical at every width regardless
    o.push("threads", Json::uint(config.threads));
    o
}

fn decode_config(j: &Json) -> Result<MixedSchemeConfig, WireError> {
    let atpg = get(j, "atpg")?;
    let area = get(j, "area")?;
    let cells = get(area, "cells_um2")?;
    let mut areas = std::collections::BTreeMap::new();
    for kind in CellKind::ALL {
        areas.insert(kind, get_f64_bits(cells, &kind.to_string())?);
    }
    let backtrack_limit = u32::try_from(get_usize(atpg, "backtrack_limit")?)
        .map_err(|_| err("`backtrack_limit` exceeds u32"))?;
    let mut config = MixedSchemeConfig {
        poly: Polynomial::from_mask(get_hex64(j, "poly")?),
        area: AreaModel::with_areas(areas, get_f64_bits(area, "routing_factor")?),
        ..MixedSchemeConfig::default()
    };
    config.atpg.podem.backtrack_limit = backtrack_limit;
    config.atpg.podem.fill_seed = get_hex64(atpg, "fill_seed")?;
    config.atpg.no_compaction = get_bool(atpg, "no_compaction")?;
    config.atpg.threads = get_usize(atpg, "threads")?;
    config.threads = get_usize(j, "threads")?;
    Ok(config)
}

fn encode_lengths(lengths: &[usize]) -> Json {
    Json::Array(lengths.iter().map(|&l| Json::uint(l)).collect())
}

fn decode_lengths(obj: &Json, key: &str) -> Result<Vec<usize>, WireError> {
    get(obj, key)?
        .as_array()
        .ok_or_else(|| err(format!("`{key}` is not an array")))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| err(format!("`{key}` holds a non-integer")))
        })
        .collect()
}

fn language_name(language: HdlLanguage) -> &'static str {
    match language {
        HdlLanguage::Verilog => "verilog",
        HdlLanguage::Vhdl => "vhdl",
        HdlLanguage::Both => "both",
    }
}

/// Encodes one [`JobSpec`] as a wire document (the `"spec"` payload of
/// a submit request).
pub fn encode_spec(spec: &JobSpec) -> Json {
    let mut o = Json::object();
    o.push("kind", Json::str(spec.kind()));
    o.push("circuit", encode_circuit(spec.circuit()));
    o.push("config", encode_config(spec.config()));
    match spec {
        JobSpec::SolveAt(s) => {
            o.push("prefix_len", Json::uint(s.prefix_len));
            // emitted only when set: default specs keep the wire bytes
            // peers that predate estimate-first serving expect
            if s.estimate_first {
                o.push("estimate_first", Json::Bool(true));
            }
        }
        JobSpec::Sweep(s) => {
            o.push("prefix_lengths", encode_lengths(&s.prefix_lengths));
            if s.estimate_first {
                o.push("estimate_first", Json::Bool(true));
            }
        }
        JobSpec::CoverageCurve(s) => {
            o.push("checkpoints", encode_lengths(&s.checkpoints));
        }
        JobSpec::Bakeoff(s) => {
            o.push("random_length", Json::uint(s.random_length));
        }
        JobSpec::EmitHdl(s) => {
            o.push("prefix_len", Json::uint(s.prefix_len));
            o.push("language", Json::str(language_name(s.language)));
            o.push(
                "module_name",
                match &s.module_name {
                    Some(name) => Json::str(name),
                    None => Json::Null,
                },
            );
            o.push("testbench", Json::Bool(s.testbench));
        }
        JobSpec::CoverageEstimate(s) => {
            o.push("prefix_len", Json::uint(s.prefix_len));
            o.push("samples", Json::uint(s.samples));
            o.push("confidence", Json::uint(s.confidence as usize));
            o.push("seed", hex64(s.seed));
        }
        JobSpec::AreaReport(_) | JobSpec::Lint(_) => {}
    }
    // Emitted only when the job grades something other than stuck-at:
    // the default spec's wire bytes are unchanged from schema-v1 peers
    // that predate the field, and such peers keep decoding our default
    // specs.
    let model = spec.fault_model();
    if !model.is_default() {
        o.push("fault_model", Json::str(model.to_string()));
    }
    o
}

/// The optional `fault_model` field: absent means stuck-at, the only
/// model that existed when the wire schema was minted.
fn decode_fault_model(j: &Json) -> Result<FaultModel, WireError> {
    match j.get("fault_model") {
        None | Some(Json::Null) => Ok(FaultModel::default()),
        Some(v) => v
            .as_str()
            .ok_or_else(|| err("`fault_model` is not a string"))?
            .parse()
            .map_err(|e: ParseFaultModelError| err(e.to_string())),
    }
}

/// The optional `estimate_first` flag: absent means off — the only
/// behaviour that existed before estimate-first serving.
fn decode_estimate_first(j: &Json) -> bool {
    j.get("estimate_first")
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

/// Decodes a wire document produced by [`encode_spec`].
///
/// # Errors
///
/// [`WireError`] naming the first malformed or missing field.
pub fn decode_spec(j: &Json) -> Result<JobSpec, WireError> {
    let circuit = decode_circuit(get(j, "circuit")?)?;
    let config = decode_config(get(j, "config")?)?;
    match get_str(j, "kind")? {
        "solve-at" => Ok(JobSpec::SolveAt(SolveAtSpec {
            circuit,
            config,
            prefix_len: get_usize(j, "prefix_len")?,
            fault_model: decode_fault_model(j)?,
            estimate_first: decode_estimate_first(j),
        })),
        "sweep" => Ok(JobSpec::Sweep(SweepSpec {
            circuit,
            config,
            prefix_lengths: decode_lengths(j, "prefix_lengths")?,
            fault_model: decode_fault_model(j)?,
            estimate_first: decode_estimate_first(j),
        })),
        "coverage-curve" => Ok(JobSpec::CoverageCurve(CoverageCurveSpec {
            circuit,
            config,
            checkpoints: decode_lengths(j, "checkpoints")?,
            fault_model: decode_fault_model(j)?,
        })),
        "bakeoff" => Ok(JobSpec::Bakeoff(BakeoffSpec {
            circuit,
            config,
            random_length: get_usize(j, "random_length")?,
        })),
        "emit-hdl" => Ok(JobSpec::EmitHdl(EmitHdlSpec {
            circuit,
            config,
            prefix_len: get_usize(j, "prefix_len")?,
            language: match get_str(j, "language")? {
                "verilog" => HdlLanguage::Verilog,
                "vhdl" => HdlLanguage::Vhdl,
                "both" => HdlLanguage::Both,
                other => return Err(err(format!("unknown HDL language `{other}`"))),
            },
            module_name: match get(j, "module_name")? {
                Json::Null => None,
                name => Some(
                    name.as_str()
                        .ok_or_else(|| err("`module_name` is not a string or null"))?
                        .to_owned(),
                ),
            },
            testbench: get_bool(j, "testbench")?,
        })),
        "area-report" => Ok(JobSpec::AreaReport(AreaReportSpec { circuit, config })),
        "lint" => Ok(JobSpec::Lint(LintSpec { circuit, config })),
        "estimate" => Ok(JobSpec::CoverageEstimate(EstimateSpec {
            circuit,
            config,
            prefix_len: get_usize(j, "prefix_len")?,
            samples: get_usize(j, "samples")?,
            confidence: u32::try_from(get_usize(j, "confidence")?)
                .map_err(|_| err("`confidence` exceeds u32"))?,
            seed: get_hex64(j, "seed")?,
        })),
        other => Err(err(format!("unknown job kind `{other}`"))),
    }
}

// --------------------------------------------------------------- events

/// Encodes one [`ProgressEvent`] as a wire document.
pub fn encode_event(event: &ProgressEvent) -> Json {
    let mut o = Json::object();
    let (kind, job) = match event {
        ProgressEvent::Queued { job, .. } => ("queued", job),
        ProgressEvent::Started { job } => ("started", job),
        ProgressEvent::Checkpoint { job, .. } => ("checkpoint", job),
        ProgressEvent::Estimate { job, .. } => ("estimate", job),
        ProgressEvent::Pass { job, .. } => ("pass", job),
        ProgressEvent::Finished { job, .. } => ("finished", job),
        ProgressEvent::Failed { job, .. } => ("failed", job),
        ProgressEvent::Canceled { job } => ("canceled", job),
    };
    o.push("event", Json::str(kind));
    o.push("job", uint64(job.0));
    match event {
        ProgressEvent::Queued { label, .. } => {
            o.push("label", Json::str(label));
        }
        ProgressEvent::Checkpoint {
            prefix_len,
            coverage_pct,
            ..
        } => {
            o.push("prefix_len", Json::uint(*prefix_len));
            o.push("coverage_pct", Json::f64_bits(*coverage_pct));
        }
        ProgressEvent::Estimate {
            prefix_len,
            samples,
            estimate_pct,
            lo_pct,
            hi_pct,
            confidence,
            ..
        } => {
            o.push("prefix_len", Json::uint(*prefix_len));
            o.push("samples", Json::uint(*samples));
            o.push("estimate_pct", Json::f64_bits(*estimate_pct));
            o.push("lo_pct", Json::f64_bits(*lo_pct));
            o.push("hi_pct", Json::f64_bits(*hi_pct));
            o.push("confidence", Json::uint(*confidence as usize));
        }
        ProgressEvent::Pass { name, .. } => {
            o.push("name", Json::str(name));
        }
        ProgressEvent::Failed { message, .. } => {
            o.push("message", Json::str(message));
        }
        // emitted only when true: warm-cache answers flag themselves,
        // computed results keep the field-free bytes older peers expect
        ProgressEvent::Finished {
            cache_hit: true, ..
        } => {
            o.push("cache_hit", Json::Bool(true));
        }
        _ => {}
    }
    o
}

/// Decodes a wire document produced by [`encode_event`].
///
/// # Errors
///
/// [`WireError`] naming the first malformed or missing field.
pub fn decode_event(j: &Json) -> Result<ProgressEvent, WireError> {
    let job = JobId(get_u64(j, "job")?);
    match get_str(j, "event")? {
        "queued" => Ok(ProgressEvent::Queued {
            job,
            label: get_str(j, "label")?.to_owned(),
        }),
        "started" => Ok(ProgressEvent::Started { job }),
        "checkpoint" => Ok(ProgressEvent::Checkpoint {
            job,
            prefix_len: get_usize(j, "prefix_len")?,
            coverage_pct: get_f64_bits(j, "coverage_pct")?,
        }),
        "estimate" => Ok(ProgressEvent::Estimate {
            job,
            prefix_len: get_usize(j, "prefix_len")?,
            samples: get_usize(j, "samples")?,
            estimate_pct: get_f64_bits(j, "estimate_pct")?,
            lo_pct: get_f64_bits(j, "lo_pct")?,
            hi_pct: get_f64_bits(j, "hi_pct")?,
            confidence: u32::try_from(get_usize(j, "confidence")?)
                .map_err(|_| err("`confidence` exceeds u32"))?,
        }),
        "pass" => Ok(ProgressEvent::Pass {
            job,
            name: get_str(j, "name")?.to_owned(),
        }),
        "finished" => Ok(ProgressEvent::Finished {
            job,
            // absent on lines from peers that predate the flag (and on
            // every computed result): decodes as "not a cache hit"
            cache_hit: j.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
        }),
        "failed" => Ok(ProgressEvent::Failed {
            job,
            message: get_str(j, "message")?.to_owned(),
        }),
        "canceled" => Ok(ProgressEvent::Canceled { job }),
        other => Err(err(format!("unknown event `{other}`"))),
    }
}

// ---------------------------------------------------------------- stats

fn encode_stats(stats: &ServerStats) -> Json {
    let mut o = Json::object();
    o.push("uptime_ms", uint64(stats.uptime_ms));
    o.push("submitted", uint64(stats.submitted));
    o.push("completed", uint64(stats.completed));
    o.push("failed", uint64(stats.failed));
    o.push("rejected", uint64(stats.rejected));
    o.push("queued", uint64(stats.queued));
    o.push("running", uint64(stats.running));
    match &stats.cache {
        Some(c) => {
            let mut cache = Json::object();
            cache.push("hits", uint64(c.hits));
            cache.push("misses", uint64(c.misses));
            cache.push("stores", uint64(c.stores));
            cache.push("evictions", uint64(c.evictions));
            cache.push("entries", uint64(c.entries));
            cache.push("bytes", uint64(c.bytes));
            cache.push(
                "capacity_bytes",
                match c.capacity_bytes {
                    Some(cap) => uint64(cap),
                    None => Json::Null,
                },
            );
            o.push("cache", cache);
        }
        None => {
            o.push("cache", Json::Null);
        }
    }
    o
}

fn decode_stats(j: &Json) -> Result<ServerStats, WireError> {
    let cache = match get(j, "cache")? {
        Json::Null => None,
        c => Some(WireCacheStats {
            hits: get_u64(c, "hits")?,
            misses: get_u64(c, "misses")?,
            stores: get_u64(c, "stores")?,
            evictions: get_u64(c, "evictions")?,
            entries: get_u64(c, "entries")?,
            bytes: get_u64(c, "bytes")?,
            capacity_bytes: match get(c, "capacity_bytes")? {
                Json::Null => None,
                _ => Some(get_u64(c, "capacity_bytes")?),
            },
        }),
    };
    Ok(ServerStats {
        uptime_ms: get_u64(j, "uptime_ms")?,
        submitted: get_u64(j, "submitted")?,
        completed: get_u64(j, "completed")?,
        failed: get_u64(j, "failed")?,
        rejected: get_u64(j, "rejected")?,
        queued: get_u64(j, "queued")?,
        running: get_u64(j, "running")?,
        cache,
    })
}

// ---------------------------------------------------------------- lines

/// Renders one request as its single-line wire form (no trailing
/// newline; the transport adds the `\n` framing).
pub fn encode_request(request: &Request) -> String {
    let mut o = match request {
        Request::Submit { .. } => envelope("submit"),
        Request::Stats => envelope("stats"),
        Request::Shutdown => envelope("shutdown"),
    };
    if let Request::Submit { spec } = request {
        o.push("spec", encode_spec(spec));
    }
    o.render()
}

/// Parses one request line.
///
/// # Errors
///
/// [`WireError`] on malformed JSON, a foreign schema version, or any
/// missing/mistyped field.
pub fn decode_request(line: &str) -> Result<Request, WireError> {
    let doc = crate::json::parse(line).map_err(|e| err(format!("malformed JSON: {e}")))?;
    match open_envelope(line, &doc)? {
        "submit" => Ok(Request::Submit {
            spec: Box::new(decode_spec(get(&doc, "spec")?)?),
        }),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(err(format!("unknown request type `{other}`"))),
    }
}

/// Renders one response as its single-line wire form (no trailing
/// newline; the transport adds the `\n` framing).
pub fn encode_response(response: &Response) -> String {
    let mut o = match response {
        Response::Accepted { .. } => envelope("accepted"),
        Response::Rejected { .. } => envelope("rejected"),
        Response::Event { .. } => envelope("event"),
        Response::Result { .. } => envelope("result"),
        Response::Failed { .. } => envelope("failed"),
        Response::Stats { .. } => envelope("stats"),
        Response::Stopping { .. } => envelope("stopping"),
    };
    match response {
        Response::Accepted { job } => {
            o.push("job", uint64(*job));
        }
        Response::Rejected {
            reason,
            retry_after_ms,
        } => {
            o.push("reason", Json::str(reason));
            o.push(
                "retry_after_ms",
                match retry_after_ms {
                    Some(ms) => uint64(*ms),
                    None => Json::Null,
                },
            );
        }
        Response::Event { event } => {
            o.push("payload", encode_event(event));
        }
        Response::Result {
            job,
            cached,
            result,
        } => {
            o.push("job", uint64(*job));
            o.push("cached", Json::Bool(*cached));
            o.push("result", codec::encode_result(result));
        }
        Response::Failed { job, error } => {
            o.push("job", uint64(*job));
            o.push("error", Json::str(error));
        }
        Response::Stats { stats } => {
            o.push("stats", encode_stats(stats));
        }
        Response::Stopping { queued, running } => {
            o.push("queued", uint64(*queued));
            o.push("running", uint64(*running));
        }
    }
    o.render()
}

/// Parses one response line.
///
/// # Errors
///
/// [`WireError`] on malformed JSON, a foreign schema version, or any
/// missing/mistyped field.
pub fn decode_response(line: &str) -> Result<Response, WireError> {
    let doc = crate::json::parse(line).map_err(|e| err(format!("malformed JSON: {e}")))?;
    match open_envelope(line, &doc)? {
        "accepted" => Ok(Response::Accepted {
            job: get_u64(&doc, "job")?,
        }),
        "rejected" => Ok(Response::Rejected {
            reason: get_str(&doc, "reason")?.to_owned(),
            retry_after_ms: match get(&doc, "retry_after_ms")? {
                Json::Null => None,
                ms => Some(
                    ms.as_i64()
                        .and_then(|v| u64::try_from(v).ok())
                        .ok_or_else(|| err("`retry_after_ms` is not an integer or null"))?,
                ),
            },
        }),
        "event" => Ok(Response::Event {
            event: decode_event(get(&doc, "payload")?)?,
        }),
        "result" => Ok(Response::Result {
            job: get_u64(&doc, "job")?,
            cached: get_bool(&doc, "cached")?,
            result: Box::new(
                codec::decode_result(get(&doc, "result")?)
                    .ok_or_else(|| err("undecodable result payload (foreign cache schema?)"))?,
            ),
        }),
        "failed" => Ok(Response::Failed {
            job: get_u64(&doc, "job")?,
            error: get_str(&doc, "error")?.to_owned(),
        }),
        "stats" => Ok(Response::Stats {
            stats: decode_stats(get(&doc, "stats")?)?,
        }),
        "stopping" => Ok(Response::Stopping {
            queued: get_u64(&doc, "queued")?,
            running: get_u64(&doc, "running")?,
        }),
        other => Err(err(format!("unknown response type `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: &Request) -> String {
        let line = encode_request(request);
        let back = decode_request(&line).expect("decodes");
        let again = encode_request(&back);
        assert_eq!(line, again, "re-encode is bit-identical");
        line
    }

    #[test]
    fn submit_round_trips_every_kind() {
        let circuit = || CircuitSource::iscas85("c17");
        let specs = vec![
            JobSpec::solve_at(circuit(), 8),
            JobSpec::sweep(circuit(), [0, 8, 16]),
            JobSpec::coverage_curve(circuit(), [4, 32]),
            JobSpec::bakeoff(circuit(), 100),
            JobSpec::emit_hdl(circuit(), 4),
            JobSpec::area_report(circuit()),
            JobSpec::lint(circuit()),
            JobSpec::estimate(circuit(), 32),
        ];
        for spec in specs {
            let line = round_trip_request(&Request::Submit {
                spec: Box::new(spec),
            });
            assert!(line.starts_with("{\"v\": 1, \"type\": \"submit\""));
            assert!(!line.contains('\n'), "NDJSON frames stay single-line");
        }
    }

    #[test]
    fn fault_models_cross_the_wire_only_when_non_default() {
        let circuit = || CircuitSource::iscas85("c17");
        // default model: no field on the wire — bytes identical to a
        // peer that predates the concept
        let line = round_trip_request(&Request::Submit {
            spec: Box::new(JobSpec::sweep(circuit(), [0, 8])),
        });
        assert!(!line.contains("fault_model"), "{line}");

        for model in [
            FaultModel::Transition,
            FaultModel::bridging(),
            FaultModel::Bridging {
                pairs: 12,
                seed: 99,
            },
        ] {
            let mut spec = JobSpec::sweep(circuit(), [0, 8]);
            if let JobSpec::Sweep(s) = &mut spec {
                s.fault_model = model;
            }
            let line = round_trip_request(&Request::Submit {
                spec: Box::new(spec),
            });
            assert!(line.contains("fault_model"), "{line}");
            let Request::Submit { spec } = decode_request(&line).expect("decodes") else {
                panic!("submit round-trips as submit");
            };
            assert_eq!(spec.fault_model(), model);
        }

        // absent field decodes as stuck-at; a malformed one fails typed
        let stripped = line.replace(", \"fault_model\": \"transition\"", "");
        assert_eq!(stripped, line, "default line never carried the field");
        let bad = line.replace("\"sweep\"", "\"sweep\", \"fault_model\": \"warp\"");
        assert!(decode_request(&bad).is_err());
    }

    #[test]
    fn inline_circuits_cross_as_bench_text() {
        for name in ["c17", "c432"] {
            let circuit = CircuitSource::iscas85(name).realize().expect("known");
            let spec = JobSpec::lint(CircuitSource::Inline(circuit.clone()));
            let line = encode_request(&Request::Submit {
                spec: Box::new(spec),
            });
            let back = decode_request(&line).expect("decodes");
            let Request::Submit { spec } = back else {
                panic!("submit round-trips as submit");
            };
            assert!(matches!(spec.circuit(), CircuitSource::Bench { .. }));
            // the bench text realizes to the identical circuit, node for node
            let realized = spec.circuit().realize().expect("bench text realizes");
            assert_eq!(realized.name(), circuit.name());
            assert_eq!(realized.nodes(), circuit.nodes(), "{name}");
            assert_eq!(realized.inputs(), circuit.inputs(), "{name}");
            assert_eq!(realized.outputs(), circuit.outputs(), "{name}");
            // and the bench form is the fixed point: it re-encodes identically
            round_trip_request(&Request::Submit { spec });
        }
    }

    #[test]
    fn control_requests_round_trip() {
        assert_eq!(
            round_trip_request(&Request::Stats),
            "{\"v\": 1, \"type\": \"stats\"}"
        );
        assert_eq!(
            round_trip_request(&Request::Shutdown),
            "{\"v\": 1, \"type\": \"shutdown\"}"
        );
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Accepted { job: 3 },
            Response::Rejected {
                reason: "queue full".to_owned(),
                retry_after_ms: Some(200),
            },
            Response::Rejected {
                reason: "shutting down".to_owned(),
                retry_after_ms: None,
            },
            Response::Event {
                event: ProgressEvent::Checkpoint {
                    job: JobId(3),
                    prefix_len: 16,
                    coverage_pct: 93.518_283_2,
                },
            },
            Response::Failed {
                job: 3,
                error: "solve-at: boom".to_owned(),
            },
            Response::Stats {
                stats: ServerStats {
                    uptime_ms: 1234,
                    submitted: 5,
                    completed: 4,
                    failed: 1,
                    rejected: 2,
                    queued: 0,
                    running: 0,
                    cache: Some(WireCacheStats {
                        hits: 3,
                        misses: 2,
                        stores: 2,
                        evictions: 1,
                        entries: 1,
                        bytes: 4096,
                        capacity_bytes: Some(1 << 20),
                    }),
                },
            },
            Response::Stopping {
                queued: 1,
                running: 2,
            },
        ];
        for response in responses {
            let line = encode_response(&response);
            let back = decode_response(&line).expect("decodes");
            assert_eq!(line, encode_response(&back), "re-encode is bit-identical");
        }
    }

    #[test]
    fn foreign_versions_are_rejected_by_name() {
        let line = "{\"v\":999,\"type\":\"stats\"}";
        let e = decode_request(line).expect_err("foreign version");
        assert!(e.message.contains("999"), "{e}");
        assert!(e.message.contains('1'), "{e}");
    }

    #[test]
    fn garbage_lines_fail_typed() {
        assert!(decode_request("not json").is_err());
        assert!(decode_request("{\"v\":1}").is_err());
        assert!(decode_response("{\"v\":1,\"type\":\"warp\"}").is_err());
    }

    #[test]
    fn events_round_trip_bit_exactly() {
        // a coverage value with no short decimal form survives the wire
        let pct = f64::from_bits(0x4057_6b0a_3d70_a3d7);
        let event = ProgressEvent::Checkpoint {
            job: JobId(9),
            prefix_len: 128,
            coverage_pct: pct,
        };
        let doc = encode_event(&event);
        let back = decode_event(&doc).expect("decodes");
        assert_eq!(back, event);
    }

    #[test]
    fn finished_carries_cache_hit_only_when_warm() {
        let cold = ProgressEvent::Finished {
            job: JobId(4),
            cache_hit: false,
        };
        let doc = encode_event(&cold);
        assert!(doc.get("cache_hit").is_none(), "cold line stays field-free");
        assert_eq!(decode_event(&doc).expect("decodes"), cold);

        let warm = ProgressEvent::Finished {
            job: JobId(4),
            cache_hit: true,
        };
        let doc = encode_event(&warm);
        assert_eq!(doc.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(decode_event(&doc).expect("decodes"), warm);
    }

    #[test]
    fn estimate_first_crosses_the_wire_only_when_set() {
        let circuit = || CircuitSource::iscas85("c17");
        // off (the default): no field — bytes identical to a peer that
        // predates estimate-first serving
        for spec in [
            JobSpec::solve_at(circuit(), 8),
            JobSpec::sweep(circuit(), [0, 8]),
        ] {
            let line = round_trip_request(&Request::Submit {
                spec: Box::new(spec),
            });
            assert!(!line.contains("estimate_first"), "{line}");
        }

        for mut spec in [
            JobSpec::solve_at(circuit(), 8),
            JobSpec::sweep(circuit(), [0, 8]),
        ] {
            match &mut spec {
                JobSpec::SolveAt(s) => s.estimate_first = true,
                JobSpec::Sweep(s) => s.estimate_first = true,
                _ => unreachable!(),
            }
            let line = round_trip_request(&Request::Submit {
                spec: Box::new(spec),
            });
            assert!(line.contains("\"estimate_first\": true"), "{line}");
            let Request::Submit { spec } = decode_request(&line).expect("decodes") else {
                panic!("submit round-trips as submit");
            };
            let set = match spec.as_ref() {
                JobSpec::SolveAt(s) => s.estimate_first,
                JobSpec::Sweep(s) => s.estimate_first,
                _ => unreachable!(),
            };
            assert!(set, "flag survives the round trip");
        }
    }

    #[test]
    fn estimate_events_round_trip_bit_exactly() {
        let event = ProgressEvent::Estimate {
            job: JobId(7),
            prefix_len: 200,
            samples: 256,
            estimate_pct: f64::from_bits(0x4056_f5c2_8f5c_28f6),
            lo_pct: f64::from_bits(0x4055_b0a3_d70a_3d71),
            hi_pct: f64::from_bits(0x4057_9999_9999_999a),
            confidence: 95,
        };
        let doc = encode_event(&event);
        let back = decode_event(&doc).expect("decodes");
        assert_eq!(back, event);

        // the event sits inside the same response envelope as every
        // other progress line
        let line = encode_response(&Response::Event {
            event: event.clone(),
        });
        let back = decode_response(&line).expect("decodes");
        assert_eq!(line, encode_response(&back), "re-encode is bit-identical");
    }
}
