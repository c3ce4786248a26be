//! Engine smoke: one `JobSpec::Sweep` end-to-end, with the progress
//! stream printed — the example CI drives under `BIST_THREADS=2`.
//!
//! ```text
//! cargo run --release --example engine_sweep
//! cargo run --release --example engine_sweep -- c432 0,50,100
//! ```
//!
//! Arguments: circuit name (default `c432`) and a comma-separated prefix
//! ladder (default `0,50,100`). The engine validates the spec, runs the
//! sweep on this thread with the `bist-par` pool (`BIST_THREADS` sets
//! the width), prints queued/started/checkpoint/finished events as the
//! sink receives them, and returns the solved frontier.

use bist::engine::{CancelToken, CircuitSource, Engine, JobSpec, ProgressEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = std::env::args().nth(1).unwrap_or_else(|| "c432".to_owned());
    let ladder = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "0,50,100".to_owned());
    let prefixes = ladder
        .split(',')
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<Vec<_>, _>>()?;

    let engine = Engine::new();
    println!(
        "sweeping {circuit} at p = {prefixes:?} on {} thread(s)\n",
        engine.threads()
    );
    // the progress sink: every lifecycle step and per-point checkpoint
    // (with fault coverage so far), printed as it happens
    let print = |event: ProgressEvent| match event {
        ProgressEvent::Queued { job, label } => println!("{job}: queued   {label}"),
        ProgressEvent::Started { job } => println!("{job}: started"),
        ProgressEvent::Checkpoint {
            job,
            prefix_len,
            coverage_pct,
        } => println!("{job}: solved   p={prefix_len:<6} coverage so far {coverage_pct:.2} %"),
        ProgressEvent::Finished { job, .. } => println!("{job}: finished"),
        other => println!("{}: {other:?}", other.job()),
    };
    let spec = JobSpec::sweep(CircuitSource::iscas85(&circuit), prefixes);
    let result = engine.run_with(spec, &CancelToken::new(), &print)?;

    let sweep = result.as_sweep().expect("sweep jobs yield sweep outcomes");
    println!("\n{}", sweep.summary);
    println!(
        "session work: {} patterns graded once, {} ATPG runs, {} cached answers",
        sweep.stats.patterns_simulated,
        sweep.stats.atpg_runs,
        sweep.stats.atpg_cache_hits + sweep.stats.podem_cache_hits
    );
    Ok(())
}
