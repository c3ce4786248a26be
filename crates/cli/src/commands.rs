//! One function per subcommand, plus the dispatcher the binary calls.

use bist_engine::json::Json;
use bist_engine::{
    AreaReportSpec, BakeoffSpec, BistError, CancelToken, CoverageCurveSpec, EmitHdlSpec, Engine,
    EstimateSpec, FaultModel, HdlLanguage, JobResult, JobSpec, LintSpec, ResultCache, SolveAtSpec,
    SweepSpec, DEFAULT_ESTIMATE_CONFIDENCE, DEFAULT_ESTIMATE_SAMPLES, DEFAULT_ESTIMATE_SEED,
};

use crate::client::{self, Connect};
use crate::opts::{
    parse_lengths, resolve_circuit, split_common, take_flag, take_value, CommonOpts, Format,
    UsageError,
};
use crate::render::{event_line, result_json, result_text};
use crate::serve::{ServeConfig, Server};
use crate::{help, manifest, EXIT_JOB_FAILED, EXIT_USAGE};

/// Runs the command line (everything after the program name) and
/// returns the process exit code.
pub fn dispatch(args: &[String]) -> u8 {
    let Some((command, rest)) = args.split_first() else {
        print!("{}", help::TOP);
        return 0;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{}", help::TOP);
        return 0;
    }
    let (opts, mut rest) = match split_common(rest) {
        Ok(split) => split,
        Err(e) => return usage_error(&e),
    };
    if opts.help {
        let text = match command.as_str() {
            "solve" => help::SOLVE,
            "sweep" => help::SWEEP,
            "curve" => help::CURVE,
            "bakeoff" => help::BAKEOFF,
            "emit-hdl" => help::EMIT_HDL,
            "area" => help::AREA,
            "estimate" => help::ESTIMATE,
            "lint" => help::LINT,
            "batch" => help::BATCH,
            "cache" => help::CACHE,
            "serve" => help::SERVE,
            "server" => help::SERVER,
            _ => help::TOP,
        };
        print!("{text}");
        return 0;
    }
    let mut run = || -> Result<u8, CommandError> {
        match command.as_str() {
            "solve" | "sweep" | "curve" | "bakeoff" | "emit-hdl" | "area" | "estimate" => {
                job_command(command, &opts, &mut rest)
            }
            "lint" => lint_command(&opts, &mut rest),
            "batch" => batch_command(&opts, &rest),
            "cache" => cache_command(&opts, &rest),
            "serve" => serve_command(&opts, &mut rest),
            "server" => server_command(&opts, &rest),
            other => Err(UsageError(format!("unknown command `{other}` (try `bist help`)")).into()),
        }
    };
    match run() {
        Ok(code) => code,
        Err(CommandError::Usage(e)) => usage_error(&e),
        Err(CommandError::Job(e)) => {
            eprintln!("bist: {e}");
            EXIT_JOB_FAILED
        }
        Err(CommandError::Io(message)) => {
            eprintln!("bist: {message}");
            EXIT_JOB_FAILED
        }
    }
}

/// Either kind of failure a subcommand can produce.
#[derive(Debug)]
pub enum CommandError {
    /// Malformed command line, rejected before any work (exit 2).
    Usage(UsageError),
    /// The engine rejected or failed the job (exit 1).
    Job(BistError),
    /// Work succeeded or partially ran but an I/O step failed — writing
    /// HDL artefacts, clearing the cache (exit 1, never 2: the command
    /// line was fine).
    Io(String),
}

impl From<UsageError> for CommandError {
    fn from(e: UsageError) -> Self {
        CommandError::Usage(e)
    }
}

impl From<BistError> for CommandError {
    fn from(e: BistError) -> Self {
        CommandError::Job(e)
    }
}

fn usage_error(e: &UsageError) -> u8 {
    eprintln!("bist: {e} (try `bist help`)");
    EXIT_USAGE
}

/// The one circuit positional every job command takes.
fn the_circuit(command: &str, rest: &[String]) -> Result<String, UsageError> {
    match rest {
        [one] => Ok(one.clone()),
        [] => Err(UsageError(format!("{command} needs a circuit argument"))),
        many => Err(UsageError(format!(
            "{command} takes one circuit, got `{}`",
            many.join(" ")
        ))),
    }
}

fn job_command(
    command: &str,
    opts: &CommonOpts,
    rest: &mut Vec<String>,
) -> Result<u8, CommandError> {
    let mut out_dir: Option<String> = None;
    let spec = match command {
        "solve" => {
            let prefix = required_usize(rest, "--prefix", "solve")?;
            let fault_model = fault_model_flag(rest)?;
            let estimate_first = take_flag(rest, "--estimate-first");
            JobSpec::SolveAt(SolveAtSpec {
                circuit: resolve_circuit(&the_circuit(command, rest)?)?,
                config: Default::default(),
                prefix_len: prefix,
                fault_model,
                estimate_first,
            })
        }
        "sweep" => {
            let points = required_lengths(rest, "--points", "sweep")?;
            let fault_model = fault_model_flag(rest)?;
            let estimate_first = take_flag(rest, "--estimate-first");
            JobSpec::Sweep(SweepSpec {
                circuit: resolve_circuit(&the_circuit(command, rest)?)?,
                config: Default::default(),
                prefix_lengths: points,
                fault_model,
                estimate_first,
            })
        }
        "curve" => {
            let points = required_lengths(rest, "--points", "curve")?;
            let fault_model = fault_model_flag(rest)?;
            JobSpec::CoverageCurve(CoverageCurveSpec {
                circuit: resolve_circuit(&the_circuit(command, rest)?)?,
                config: Default::default(),
                checkpoints: points,
                fault_model,
            })
        }
        "bakeoff" => {
            let random_length = match take_value(rest, "--random-length")? {
                None => 1000,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("--random-length: `{v}` is not a length")))?,
            };
            JobSpec::Bakeoff(BakeoffSpec {
                circuit: resolve_circuit(&the_circuit(command, rest)?)?,
                config: Default::default(),
                random_length,
            })
        }
        "emit-hdl" => {
            let prefix = required_usize(rest, "--prefix", "emit-hdl")?;
            let language = match take_value(rest, "--lang")?.as_deref() {
                None | Some("both") => HdlLanguage::Both,
                Some("verilog") => HdlLanguage::Verilog,
                Some("vhdl") => HdlLanguage::Vhdl,
                Some(other) => {
                    return Err(UsageError(format!(
                        "--lang takes verilog | vhdl | both, got `{other}`"
                    ))
                    .into())
                }
            };
            let module_name = take_value(rest, "--module")?;
            let testbench = take_flag(rest, "--testbench");
            out_dir = take_value(rest, "--out")?;
            JobSpec::EmitHdl(EmitHdlSpec {
                circuit: resolve_circuit(&the_circuit(command, rest)?)?,
                config: Default::default(),
                prefix_len: prefix,
                language,
                module_name,
                testbench,
            })
        }
        "area" => JobSpec::AreaReport(AreaReportSpec {
            circuit: resolve_circuit(&the_circuit(command, rest)?)?,
            config: Default::default(),
        }),
        "estimate" => {
            let prefix = required_usize(rest, "--prefix", "estimate")?;
            let samples = match take_value(rest, "--samples")? {
                None => DEFAULT_ESTIMATE_SAMPLES,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("--samples: `{v}` is not a count")))?,
            };
            let confidence = match take_value(rest, "--confidence")? {
                None => DEFAULT_ESTIMATE_CONFIDENCE,
                Some(v) => v
                    .parse()
                    .map_err(|_| UsageError(format!("--confidence: `{v}` is not a percentage")))?,
            };
            let seed = match take_value(rest, "--seed")? {
                None => DEFAULT_ESTIMATE_SEED,
                Some(v) => parse_seed(&v)?,
            };
            JobSpec::CoverageEstimate(EstimateSpec {
                circuit: resolve_circuit(&the_circuit(command, rest)?)?,
                config: Default::default(),
                prefix_len: prefix,
                samples,
                confidence,
                seed,
            })
        }
        _ => unreachable!("caller matched the command"),
    };

    let result = run_one(opts, spec)?;

    if let (Some(dir), JobResult::EmitHdl(hdl)) = (&out_dir, &result) {
        write_artefacts(dir, hdl)?;
        if opts.format == Format::Text {
            println!("{}: module {} — {}", hdl.circuit, hdl.module, hdl.solution);
            return Ok(0);
        }
    }
    match opts.format {
        Format::Text => print!("{}", result_text(&result)),
        Format::Json => print!("{}", result_json(&result).render_pretty()),
    }
    Ok(0)
}

/// `--fault-model stuck-at | transition | bridging[:PAIRS[:SEED]]`;
/// absent means stuck-at, the paper's model.
fn fault_model_flag(rest: &mut Vec<String>) -> Result<FaultModel, UsageError> {
    match take_value(rest, "--fault-model")? {
        None => Ok(FaultModel::default()),
        Some(v) => v
            .parse()
            .map_err(|e| UsageError(format!("--fault-model: {e}"))),
    }
}

/// `--seed` accepts a decimal or `0x`-prefixed hexadecimal 64-bit word.
fn parse_seed(value: &str) -> Result<u64, UsageError> {
    let parsed = match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| UsageError(format!("--seed: `{value}` is not a 64-bit seed")))
}

fn required_usize(rest: &mut Vec<String>, flag: &str, command: &str) -> Result<usize, UsageError> {
    let value = take_value(rest, flag)?
        .ok_or_else(|| UsageError(format!("{command} needs `{flag} <n>`")))?;
    value
        .parse()
        .map_err(|_| UsageError(format!("{flag}: `{value}` is not a length")))
}

fn required_lengths(
    rest: &mut Vec<String>,
    flag: &str,
    command: &str,
) -> Result<Vec<usize>, UsageError> {
    let value = take_value(rest, flag)?
        .ok_or_else(|| UsageError(format!("{command} needs `{flag} <n,n,..>`")))?;
    parse_lengths(flag, &value)
}

/// `bist lint` has its own driver because — unlike every other job
/// command — its exit code depends on the report's content: errors (or,
/// under `--deny warnings`, warnings) fail the process even though the
/// job itself succeeded.
fn lint_command(opts: &CommonOpts, rest: &mut Vec<String>) -> Result<u8, CommandError> {
    let deny_warnings = match take_value(rest, "--deny")?.as_deref() {
        None => false,
        Some("warnings") => true,
        Some(other) => {
            return Err(UsageError(format!("--deny takes `warnings`, got `{other}`")).into())
        }
    };
    let spec = JobSpec::Lint(LintSpec {
        circuit: resolve_circuit(&the_circuit("lint", rest)?)?,
        config: Default::default(),
    });

    let result = run_one(opts, spec)?;
    match opts.format {
        Format::Text => print!("{}", result_text(&result)),
        Format::Json => print!("{}", result_json(&result).render_pretty()),
    }

    let report = &result
        .as_lint()
        .expect("lint jobs yield lint outcomes")
        .report;
    let failing = report.has_errors() || (deny_warnings && report.has_warnings());
    Ok(if failing { EXIT_JOB_FAILED } else { 0 })
}

fn batch_command(opts: &CommonOpts, rest: &[String]) -> Result<u8, CommandError> {
    if opts.connect.is_some() {
        return Err(UsageError(
            "batch runs locally; submit jobs one at a time with --connect".to_owned(),
        )
        .into());
    }
    let path = match rest {
        [one] => one.clone(),
        _ => return Err(UsageError("batch takes one manifest path".to_owned()).into()),
    };
    let manifest = manifest::load(&path)?;
    // precedence: --threads flag > [defaults] threads > automatic
    let threads = if opts.threads != 0 {
        opts.threads
    } else {
        manifest.threads.unwrap_or(0)
    };
    let (engine, cache) = build_engine(opts, threads);
    let results = run_with_progress(&engine, manifest.jobs, opts.quiet);
    report_cache(&cache, opts.quiet);

    let mut failed = 0usize;
    match opts.format {
        Format::Text => {
            for (index, result) in results.iter().enumerate() {
                if index > 0 {
                    println!();
                }
                match result {
                    Ok(result) => print!("{}", result_text(result)),
                    Err(e) => {
                        failed += 1;
                        eprintln!("bist: job {} failed: {e}", index + 1);
                    }
                }
            }
        }
        Format::Json => {
            let docs: Vec<Json> = results
                .iter()
                .map(|result| match result {
                    Ok(result) => result_json(result),
                    Err(e) => {
                        failed += 1;
                        let mut doc = Json::object();
                        doc.push("job", Json::str("error"));
                        doc.push("error", Json::str(e.to_string()));
                        doc
                    }
                })
                .collect();
            for result in &results {
                if let Err(e) = result {
                    eprintln!("bist: {e}");
                }
            }
            print!("{}", Json::Array(docs).render_pretty());
        }
    }
    Ok(if failed == 0 { 0 } else { EXIT_JOB_FAILED })
}

fn cache_command(opts: &CommonOpts, rest: &[String]) -> Result<u8, CommandError> {
    let action = match rest {
        [one] => one.as_str(),
        _ => return Err(UsageError("cache takes `stats` or `clear`".to_owned()).into()),
    };
    let cache = opts.cache().ok_or_else(|| {
        UsageError("no cache directory configured (use --cache-dir or $BIST_CACHE_DIR)".to_owned())
    })?;
    match action {
        "stats" => {
            let stats = cache.disk_stats();
            match opts.format {
                Format::Text => println!(
                    "{}: {} entries, {} bytes, {} evicted",
                    cache.dir().display(),
                    stats.entries,
                    stats.bytes,
                    stats.evictions
                ),
                Format::Json => {
                    let mut doc = Json::object();
                    doc.push("dir", Json::str(cache.dir().display().to_string()));
                    doc.push("entries", Json::uint(stats.entries));
                    doc.push("bytes", Json::uint(stats.bytes as usize));
                    doc.push("evictions", Json::uint(stats.evictions as usize));
                    print!("{}", doc.render_pretty());
                }
            }
            Ok(0)
        }
        "clear" => {
            let removed = cache.clear().map_err(|e| {
                CommandError::Io(format!("cannot clear {}: {e}", cache.dir().display()))
            })?;
            println!("removed {removed} entries from {}", cache.dir().display());
            Ok(0)
        }
        other => Err(UsageError(format!("cache takes `stats` or `clear`, got `{other}`")).into()),
    }
}

/// Runs one job spec — on a `bist serve` daemon when `--connect` is
/// given, in-process otherwise. The two paths feed the same renderers,
/// so a served result is byte-identical on stdout to a local run.
fn run_one(opts: &CommonOpts, spec: JobSpec) -> Result<JobResult, CommandError> {
    if let Some(target) = &opts.connect {
        let connect = Connect::parse(target)?;
        return client::run_remote(&connect, spec, opts.quiet);
    }
    let (engine, cache) = build_engine(opts, opts.threads);
    let result = run_with_progress(&engine, vec![spec], opts.quiet)
        .pop()
        .expect("one job in, one result out");
    report_cache(&cache, opts.quiet);
    Ok(result?)
}

/// `bist serve`: bind the configured listeners and run until a
/// `shutdown` request drains the queue.
fn serve_command(opts: &CommonOpts, rest: &mut Vec<String>) -> Result<u8, CommandError> {
    let listen = take_value(rest, "--listen")?;
    let socket = take_value(rest, "--socket")?.map(std::path::PathBuf::from);
    let jobs = match take_value(rest, "--jobs")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| UsageError(format!("--jobs: `{v}` is not a worker count")))?,
    };
    let queue_capacity = match take_value(rest, "--queue")? {
        None => 64,
        Some(v) => v
            .parse()
            .map_err(|_| UsageError(format!("--queue: `{v}` is not a queue depth")))?,
    };
    let cache_capacity: Option<u64> = match take_value(rest, "--cache-capacity")? {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| UsageError(format!("--cache-capacity: `{v}` is not a byte count")))?,
        ),
    };
    if !rest.is_empty() {
        return Err(UsageError(format!("serve does not take `{}`", rest.join(" "))).into());
    }
    // default to loopback TCP so a bare `bist serve` works out of the box
    let listen = match (&listen, &socket) {
        (None, None) => Some("127.0.0.1:7117".to_owned()),
        _ => listen,
    };
    let cache = match (opts.cache(), cache_capacity) {
        (Some(c), Some(bytes)) => Some(c.with_capacity(bytes)),
        (c, _) => c,
    };
    let server = Server::bind(ServeConfig {
        listen,
        socket,
        jobs,
        queue_capacity,
        retry_after_ms: 500,
        cache,
    })?;
    if !opts.quiet {
        if let Some(addr) = server.tcp_addr() {
            eprintln!("bist serve: listening on {addr}");
        }
        if let Some(path) = server.socket_path() {
            eprintln!("bist serve: listening on unix:{}", path.display());
        }
    }
    server.serve()?;
    if !opts.quiet {
        eprintln!("bist serve: drained, shutting down");
    }
    Ok(0)
}

/// `bist server <stats|shutdown> --connect <target>`: control verbs
/// against a running daemon.
fn server_command(opts: &CommonOpts, rest: &[String]) -> Result<u8, CommandError> {
    let action = match rest {
        [one] => one.as_str(),
        _ => return Err(UsageError("server takes `stats` or `shutdown`".to_owned()).into()),
    };
    let target = opts.connect.as_deref().ok_or_else(|| {
        UsageError("server needs `--connect <host:port | unix:/path>`".to_owned())
    })?;
    let connect = Connect::parse(target)?;
    match action {
        "stats" => {
            let stats = client::server_stats(&connect)?;
            match opts.format {
                Format::Text => {
                    println!(
                        "uptime: {} ms\njobs: submitted={} completed={} failed={} rejected={} queued={} running={}",
                        stats.uptime_ms,
                        stats.submitted,
                        stats.completed,
                        stats.failed,
                        stats.rejected,
                        stats.queued,
                        stats.running
                    );
                    match stats.cache {
                        Some(c) => println!(
                            "cache: hits={} misses={} stores={} evictions={} entries={} bytes={} capacity={}",
                            c.hits,
                            c.misses,
                            c.stores,
                            c.evictions,
                            c.entries,
                            c.bytes,
                            c.capacity_bytes
                                .map_or("none".to_owned(), |b| b.to_string())
                        ),
                        None => println!("cache: off"),
                    }
                }
                Format::Json => {
                    let mut doc = Json::object();
                    doc.push("uptime_ms", Json::uint(stats.uptime_ms as usize));
                    doc.push("submitted", Json::uint(stats.submitted as usize));
                    doc.push("completed", Json::uint(stats.completed as usize));
                    doc.push("failed", Json::uint(stats.failed as usize));
                    doc.push("rejected", Json::uint(stats.rejected as usize));
                    doc.push("queued", Json::uint(stats.queued as usize));
                    doc.push("running", Json::uint(stats.running as usize));
                    doc.push(
                        "cache",
                        stats.cache.map_or(Json::Null, |c| {
                            let mut j = Json::object();
                            j.push("hits", Json::uint(c.hits as usize));
                            j.push("misses", Json::uint(c.misses as usize));
                            j.push("stores", Json::uint(c.stores as usize));
                            j.push("evictions", Json::uint(c.evictions as usize));
                            j.push("entries", Json::uint(c.entries as usize));
                            j.push("bytes", Json::uint(c.bytes as usize));
                            j.push(
                                "capacity_bytes",
                                c.capacity_bytes
                                    .map_or(Json::Null, |b| Json::uint(b as usize)),
                            );
                            j
                        }),
                    );
                    print!("{}", doc.render_pretty());
                }
            }
            Ok(0)
        }
        "shutdown" => {
            let (queued, running) = client::server_shutdown(&connect)?;
            println!("server stopping: {queued} queued, {running} running jobs draining");
            Ok(0)
        }
        other => {
            Err(UsageError(format!("server takes `stats` or `shutdown`, got `{other}`")).into())
        }
    }
}

fn build_engine(opts: &CommonOpts, threads: usize) -> (Engine, Option<ResultCache>) {
    let cache = opts.cache();
    let mut engine = Engine::with_threads(threads);
    if let Some(cache) = cache.clone() {
        engine = engine.with_result_cache(cache);
    }
    (engine, cache)
}

/// Runs a batch on this thread, printing each progress event to stderr
/// as it happens (nothing under `--quiet`).
fn run_with_progress(
    engine: &Engine,
    specs: Vec<JobSpec>,
    quiet: bool,
) -> Vec<Result<JobResult, BistError>> {
    engine.run_batch_with(specs, &CancelToken::new(), &|event| {
        if !quiet {
            eprintln!("{}", event_line(&event));
        }
    })
}

/// The greppable cache summary CI asserts on (stderr, one line).
fn report_cache(cache: &Option<ResultCache>, quiet: bool) {
    if let (Some(cache), false) = (cache, quiet) {
        eprintln!(
            "cache: hits={} misses={} stores={} dir={}",
            cache.hits(),
            cache.misses(),
            cache.stores(),
            cache.dir().display()
        );
    }
}

fn write_artefacts(dir: &str, hdl: &bist_engine::HdlOutcome) -> Result<(), CommandError> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)
        .map_err(|e| CommandError::Io(format!("cannot create {}: {e}", dir.display())))?;
    for (suffix, text) in [
        (".v", &hdl.verilog),
        (".vhd", &hdl.vhdl),
        ("_tb.v", &hdl.testbench),
    ] {
        if let Some(text) = text {
            let path = dir.join(format!("{}{suffix}", hdl.module));
            std::fs::write(&path, text)
                .map_err(|e| CommandError::Io(format!("cannot write {}: {e}", path.display())))?;
            eprintln!("wrote {} ({} lines)", path.display(), text.lines().count());
        }
    }
    Ok(())
}
