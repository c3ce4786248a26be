//! The repository's benchmark: three workloads over the solve/sweep/serve
//! path, end-to-end metrics with tracing off and per-layer metrics from a
//! traced run. See README.md; `bash benchmark/run.sh` builds and runs it.
//!
//! ```text
//! bist-benchmark --bist <path to bist> --workload <sweep-deep|sweep-wide|serve-mix>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```

mod check;
mod metrics;
mod replay;
mod serve;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Environment switches that would change what the library computes or
/// where it caches; the benchmark refuses to run under any of them.
const REFUSED_ENV: [&str; 3] = ["BIST_COLLAPSE", "BIST_THREADS", "BIST_CACHE_DIR"];

/// Pool width, daemon workers and client connections: the machine width,
/// capped at 2 so the figures stay comparable across machines.
const MAX_WIDTH: usize = 2;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub width: usize,
    /// Scratch space for result caches and span files.
    pub dir: PathBuf,
}

impl Run {
    #[cfg(test)]
    pub fn smoke(name: &str) -> Self {
        Run {
            workload: name.to_owned(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            width: width(),
            dir: std::env::temp_dir().join(format!("bist-benchmark-{name}-{}", std::process::id())),
        }
    }
}

fn width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MAX_WIDTH)
}

/// What a workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn finish(
        values: BTreeMap<&'static str, f64>,
        attempted: u64,
        errors: Vec<String>,
    ) -> Self {
        for e in &errors {
            eprintln!("bist-benchmark: check failed: {e}");
        }
        Outcome {
            values,
            attempted,
            failed: (errors.len() as u64).min(attempted.max(1)),
            errors,
        }
    }
}

/// Peak resident set of process `pid`, MB (Linux `VmHWM`).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system, every thread, living or exited) process
/// `pid` has used so far, seconds. Linux counts it in ticks of 1/100 s
/// and leaves out time a virtual machine's host took the CPU away, so
/// it holds still on a shared host where wall time does not.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name may hold spaces; the fields after it do not
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Writes the run's spans next to its other scratch files.
pub fn write_spans(run: &Run, trace: &trace::Trace) -> Result<(), String> {
    let path = run
        .dir
        .parent()
        .unwrap_or(&run.dir)
        .join(format!("spans-{}-seed{}.tsv", run.workload, run.seed));
    std::fs::write(&path, trace.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// Prints every per-layer metric.
pub fn print_layer_metrics(values: &BTreeMap<&'static str, f64>) {
    for def in metrics::PER_LAYER {
        metrics::print(
            def.name,
            values.get(def.name).copied().unwrap_or(f64::NAN),
            def.unit,
            "",
        );
    }
}

struct Args {
    bist: Option<PathBuf>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        bist: None,
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--bist" => parsed.bist = Some(PathBuf::from(&value)),
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a duration"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad("a positive duration"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn run_workload(args: &Args, run: &Run) -> Result<Outcome, String> {
    let launch = |dir: &Path| {
        let bist = args
            .bist
            .as_deref()
            .ok_or("serve-mix needs --bist <path to the bist binary>")?;
        serve::Daemon::spawn(bist, dir, run.width)
    };
    match (args.workload.as_str(), run.trace) {
        ("sweep-deep", false) => sweep::run(&sweep::DEEP, run),
        ("sweep-deep", true) => sweep::run_traced(&sweep::DEEP, run),
        ("sweep-wide", false) => sweep::run(&sweep::WIDE, run),
        ("sweep-wide", true) => sweep::run_traced(&sweep::WIDE, run),
        ("serve-mix", _) => serve::run(&serve::workload_mix(), run, &launch),
        (other, _) => Err(format!(
            "unknown workload `{other}` (sweep-deep, sweep-wide or serve-mix)"
        )),
    }
}

fn main() -> ExitCode {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("bist-benchmark: refusing to run with {var} set; unset it and retry");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bist-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(".bench_run");
    let run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        width: width(),
        dir: base.join(format!("{}-{}", args.workload, std::process::id())),
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}  pool width {} (available parallelism {})",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.width,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let outcome = std::fs::create_dir_all(&run.dir)
        .map_err(|e| format!("{}: {e}", run.dir.display()))
        .and_then(|()| run_workload(&args, &run));
    let _ = std::fs::remove_dir_all(&run.dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("bist-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    metrics::print(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        &format!("  ({} of {} jobs)", outcome.failed, outcome.attempted),
    );
    let defs = if run.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let (correct, line) =
        metrics::result_line(defs, &outcome.values, outcome.attempted, outcome.failed);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
