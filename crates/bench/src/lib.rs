//! Experiment harness for the LFSROM mixed-BIST reproduction.
//!
//! One binary, `bist-bench`, whose first argument names the experiment:
//! the paper's figures and tables (`fig4_random_coverage` …
//! `table2_mixed_solutions`), the extensions (`ext_*`), the perf
//! harness that writes the `BENCH_*.json` artifacts (`bench_*`), the CI
//! gate on them (`bench_check`) and the PODEM probe (`probe`);
//! `bist-bench help` lists them. This library holds the pieces they
//! share: the paper's reference numbers, the one argument parser,
//! result formatting and the artifact schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod output;
pub mod paper;
pub mod schema;

use bist_core::prelude::*;
use bist_engine::{CircuitSource, Engine, JobResult, JobSpec};

use crate::output::OutputFormat;

/// The default sequence-length checkpoints of the paper's Figures 4/5
/// (its x-axis runs 0..1000).
pub const LENGTH_CHECKPOINTS: [usize; 11] = [0, 25, 50, 100, 200, 300, 400, 500, 700, 900, 1000];

/// The flags every experiment accepts, parsed from the arguments after
/// the experiment name.
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Benchmark circuits to run on (`--circuits a,b,c`).
    pub circuits: Vec<String>,
    /// Reduced parameter ranges for smoke runs (`--quick`).
    pub quick: bool,
    /// Pool width for the parallel engines (`--threads N`; `0` =
    /// automatic: `BIST_THREADS` or the machine width).
    pub threads: usize,
    /// Output format (`--format text|json`).
    pub format: OutputFormat,
    /// Pattern budget of the experiments that grade one fixed-length
    /// sequence (`--patterns N`); `None` keeps each one's default.
    pub patterns: Option<usize>,
}

impl ExperimentArgs {
    /// Parses `args`, with `default_circuits` when none are requested.
    /// An unknown flag, a flag without its value or a malformed value
    /// is a usage error: it prints the problem and exits with status 2.
    pub fn parse(args: &[String], default_circuits: &[&str]) -> Self {
        Self::try_parse(args, default_circuits).unwrap_or_else(|message| {
            eprintln!("usage error: {message}");
            eprintln!(
                "flags: --circuits a,b  --quick  --threads N  --format text|json  --patterns N"
            );
            std::process::exit(2);
        })
    }

    fn try_parse(args: &[String], default_circuits: &[&str]) -> Result<Self, String> {
        let mut parsed = ExperimentArgs {
            circuits: default_circuits.iter().map(|s| (*s).to_owned()).collect(),
            quick: false,
            threads: 0,
            format: OutputFormat::Text,
            patterns: None,
        };
        let count = |flag: &str, value: &str| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{flag} takes a count, got `{value}`"))
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if flag == "--quick" {
                parsed.quick = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} takes a value"));
            match flag.as_str() {
                "--circuits" => parsed.circuits = value?.split(',').map(str::to_owned).collect(),
                "--threads" => parsed.threads = count(flag, value?)?,
                "--patterns" => parsed.patterns = Some(count(flag, value?)?),
                "--format" => {
                    parsed.format = match value?.as_str() {
                        "text" => OutputFormat::Text,
                        "json" => OutputFormat::Json,
                        other => return Err(format!("--format takes text or json, got `{other}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(parsed)
    }

    /// For experiments whose output format is fixed (perf harness,
    /// probe): warns when `--format` asked for anything else, instead
    /// of silently ignoring it.
    pub fn warn_fixed_format(&self, experiment: &str) {
        if self.format != OutputFormat::Text {
            eprintln!("note: {experiment} emits a fixed output format; --format json is ignored");
        }
    }

    /// The requested circuits as engine [`CircuitSource`]s (ISCAS-85 by
    /// name); unknown names surface as typed job failures instead of
    /// panics.
    pub fn sources(&self) -> Vec<CircuitSource> {
        self.circuits.iter().map(CircuitSource::iscas85).collect()
    }

    /// Loads the requested circuits eagerly, exiting with a clear message
    /// on unknown names (for experiments that drive the substrate crates
    /// directly rather than through the engine).
    pub fn load_circuits(&self) -> Vec<Circuit> {
        self.circuits
            .iter()
            .map(|n| {
                iscas85::circuit(n).unwrap_or_else(|| {
                    eprintln!("unknown ISCAS-85 circuit `{n}`");
                    std::process::exit(2);
                })
            })
            .collect()
    }

    /// Runs `jobs` as one batch on an engine of the `--threads` width
    /// and returns their results in order; a failed job prints its
    /// error and exits with status 2.
    pub fn run_batch(&self, jobs: Vec<JobSpec>) -> Vec<JobResult> {
        Engine::with_threads(self.threads)
            .run_batch(jobs)
            .into_iter()
            .map(|result| {
                result.unwrap_or_else(|e| {
                    eprintln!("job failed: {e}");
                    std::process::exit(2);
                })
            })
            .collect()
    }
}

/// A standard banner so every experiment's output is self-dating and
/// self-describing.
pub fn banner(experiment: &str, what: &str) {
    println!("================================================================");
    println!("{experiment} — {what}");
    println!("reproduction of Dufaza/Viallon/Chevalier, ED&TC 1995");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_circuits_load() {
        let parsed = ExperimentArgs::parse(&[], &["c17"]);
        assert_eq!(parsed.load_circuits().len(), 1);
        assert!(!parsed.quick);
        assert_eq!(parsed.patterns, None);
    }

    #[test]
    fn every_flag_parses() {
        let words = [
            "--circuits",
            "c432,c880",
            "--quick",
            "--threads",
            "4",
            "--format",
            "json",
            "--patterns",
            "2048",
        ];
        let parsed = ExperimentArgs::parse(&words.map(str::to_owned), &["c17"]);
        assert_eq!(parsed.circuits, ["c432", "c880"]);
        assert!(parsed.quick);
        assert_eq!(parsed.threads, 4);
        assert_eq!(parsed.format, OutputFormat::Json);
        assert_eq!(parsed.patterns, Some(2048));
    }
}
