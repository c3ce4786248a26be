//! **BENCH_faultsim** — raw throughput of the flattened simulation core,
//! recorded machine-readably so the hot-loop trajectory is tracked over
//! time independently of the end-to-end sweep numbers.
//!
//! ```text
//! bist-bench bench_faultsim
//! bist-bench bench_faultsim --quick
//! bist-bench bench_faultsim --circuits c432 --patterns 2048
//! bist-bench bench_faultsim --threads 1   # the committed artifact
//! ```
//!
//! Two phases per circuit, both over the same LFSR pseudo-random
//! sequence:
//!
//! 1. **good-machine simulation** — [`PackedSim`] over every 64-pattern
//!    block, isolating the CSR gate-evaluation loop
//!    (`good_gate_evals_per_sec`);
//! 2. **PPSFP fault grading** — a full [`FaultSim`] run over the mixed
//!    fault universe, reporting the engine's own work counters
//!    ([`FaultSim::counters`]): blocks, good-sim gate evaluations,
//!    cone-propagation events of the stem walks and per-fault
//!    evaluations, with derived per-second rates (`cone_events_per_sec`,
//!    `blocks_per_sec`).
//!
//! The *work counters* (blocks, gate evals, cone events, fault
//! evaluations, detections) are
//! deterministic — identical at every thread width and across machines
//! for a given circuit and pattern budget; only the `*_seconds` and
//! `*_per_sec` fields move. A change in the counters at a fixed budget
//! means the engine's work changed, not just its speed. Writes
//! `BENCH_faultsim.json` into the current directory.

use std::process::ExitCode;
use std::time::Instant;

use bist_bench::schema::write_artifact;
use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_engine::json::Json;
use bist_logicsim::PatternBlock;
use bist_par::Pool;

pub fn run(argv: &[String]) -> ExitCode {
    let args = ExperimentArgs::parse(argv, &["c432", "c5315", "c7552"]);
    banner(
        "BENCH faultsim",
        "flattened-core throughput: good-machine gate evals, cone events, blocks",
    );
    args.warn_fixed_format("bench_faultsim");
    let patterns_budget = match args.patterns {
        Some(budget) => budget,
        None if args.quick => 1_024,
        None => 8_192,
    };
    let config = MixedSchemeConfig::default();
    println!("pattern budget: {patterns_budget}\n");

    let mut rows = Vec::new();
    for circuit in args.load_circuits() {
        let name = circuit.name().to_owned();
        let width = circuit.inputs().len();
        let patterns = pseudo_random_patterns(config.poly, width, patterns_budget);

        // --- phase 1: good-machine throughput in isolation ---
        let blocks: Vec<PatternBlock> = patterns
            .chunks(64)
            .map(|chunk| PatternBlock::pack(&circuit, chunk))
            .collect();
        let mut packed = PackedSim::new(&circuit);
        let t = Instant::now();
        let mut sink = 0u64;
        for block in &blocks {
            for word in packed.run(block) {
                sink ^= word;
            }
        }
        let good_seconds = t.elapsed().as_secs_f64();
        let good_gate_evals = circuit.num_gates() as u64 * blocks.len() as u64;
        std::hint::black_box(sink);

        // --- phase 2: full PPSFP grading over the mixed universe ---
        let faults = FaultList::mixed_model(&circuit);
        let universe = faults.len();
        let mut sim = FaultSim::new(&circuit, faults).with_threads(args.threads);
        let t = Instant::now();
        let detected = sim.simulate(&patterns);
        let sim_seconds = t.elapsed().as_secs_f64();
        let counters = sim.counters();
        assert_eq!(
            counters.blocks as usize,
            patterns_budget.div_ceil(64),
            "every 64-pattern chunk is one block"
        );

        println!(
            "{:>6}: good sim {:>7.0}k gate-evals/s | grading {:>7.0}k cone-events/s, \
             {:>6.1} blocks/s | {}/{} faults detected",
            name,
            good_gate_evals as f64 / good_seconds / 1e3,
            counters.cone_events as f64 / sim_seconds / 1e3,
            counters.blocks as f64 / sim_seconds,
            detected,
            universe,
        );
        let count = |v: u64| Json::uint(v as usize);
        let mut row = Json::object();
        row.push("circuit", Json::str(name))
            .push("patterns", Json::uint(patterns_budget))
            .push("faults", Json::uint(universe))
            .push("detected", Json::uint(detected))
            .push("good_sim_seconds", Json::Float(good_seconds))
            .push("good_gate_evals", count(good_gate_evals))
            .push(
                "good_gate_evals_per_sec",
                Json::Float(good_gate_evals as f64 / good_seconds),
            )
            .push("sim_seconds", Json::Float(sim_seconds))
            .push("blocks", count(counters.blocks))
            .push(
                "blocks_per_sec",
                Json::Float(counters.blocks as f64 / sim_seconds),
            )
            .push("cone_events", count(counters.cone_events))
            .push(
                "cone_events_per_sec",
                Json::Float(counters.cone_events as f64 / sim_seconds),
            )
            .push("fault_evals", count(counters.fault_evals));
        rows.push(row);
    }

    write_artifact(
        "BENCH_faultsim.json",
        "faultsim",
        vec![
            ("threads", Json::uint(Pool::resolve(args.threads).threads())),
            ("circuits", Json::Array(rows)),
        ],
    );
    ExitCode::SUCCESS
}
