//! PODEM probe: one search per collapsed stuck-at representative at the
//! default budget, with no fault dropping — what each outcome costs and
//! how much work the search kernel does for it.
//!
//! ```text
//! bist-bench probe                  # c432, c1908
//! bist-bench probe --circuits c3540
//! ```
//!
//! Per circuit it prints the outcome split (tests / redundant / aborted),
//! the wall time per outcome, the summed deterministic search counters
//! (decisions, backtracks, gate evaluations, trail restores) and an
//! outcome digest: FNV-1a over every target's outcome and pre-fill cube.
//! Each search implies only the fan-in closure of its fault's fan-out
//! cone, so the evaluations count only nodes inside that scope. A
//! search-kernel change that keeps every decision leaves the split, the
//! digest, the decisions and the backtracks unchanged; the evaluations
//! and the seconds are what it may move. The figures come from
//! `bist_atpg::podem_probe`, which `crates/atpg/tests/podem_decisions.rs`
//! pins for c432 (and, through `podem_probe_every`, for every 8th c2670
//! representative).

use std::process::ExitCode;

use bist_atpg::podem_probe;
use bist_bench::{banner, ExperimentArgs};

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c432", "c1908"]);
    banner(
        "PODEM probe",
        "one search per stuck-at representative: outcomes, time, work counters",
    );
    args.warn_fixed_format("probe");
    for circuit in args.load_circuits() {
        let probe = podem_probe(&circuit);
        let (split, seconds, counters) = (probe.split, probe.seconds, probe.counters);
        let total: f64 = seconds.iter().sum();
        println!(
            "{}: {} targets: {} tests / {} redundant / {} aborted  digest {:016x}",
            circuit.name(),
            split.iter().sum::<usize>(),
            split[0],
            split[1],
            split[2],
            probe.digest
        );
        println!(
            "  time {total:.3} s: test {:.3} s, redundant {:.3} s, aborted {:.3} s",
            seconds[0], seconds[1], seconds[2]
        );
        println!(
            "  decisions {}  backtracks {}  evaluations {}  trail restores {}",
            counters.decisions, counters.backtracks, counters.evaluations, counters.trail_restores
        );
        println!(
            "  {:.0} decisions/s, {:.1} evaluations per decision",
            counters.decisions as f64 / total,
            counters.evaluations as f64 / counters.decisions.max(1) as f64
        );
    }
    ExitCode::SUCCESS
}
