//! **BENCH_faultsim** — raw throughput of the flattened simulation core,
//! recorded machine-readably so the hot-loop trajectory is tracked over
//! time independently of the end-to-end sweep numbers.
//!
//! ```text
//! cargo run --release -p bist-bench --bin bench_faultsim
//! cargo run --release -p bist-bench --bin bench_faultsim -- --quick
//! cargo run --release -p bist-bench --bin bench_faultsim -- --circuits c432 --patterns 2048
//! cargo run --release -p bist-bench --bin bench_faultsim -- --threads 1   # the committed artifact
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

use std::fmt::Write as _;
use std::time::Instant;

use bist_bench::schema::SCHEMA_VERSION;
use bist_bench::{banner, ExperimentArgs};
use bist_core::prelude::*;
use bist_logicsim::PatternBlock;
use bist_par::Pool;

struct CircuitResult {
    name: String,
    patterns: usize,
    faults: usize,
    detected: usize,
    good_seconds: f64,
    good_gate_evals: u64,
    sim_seconds: f64,
    counters: SimCounters,
}

fn main() {
    banner(
        "BENCH faultsim",
        "flattened-core throughput: good-machine gate evals, cone events, blocks",
    );
    let args = ExperimentArgs::parse(&["c432", "c5315", "c7552"]);
    args.warn_fixed_format("bench_faultsim");
    let patterns_budget = match args
        .extra
        .iter()
        .position(|a| a == "--patterns")
        .and_then(|i| args.extra.get(i + 1))
    {
        Some(v) => v.parse().expect("--patterns takes a pattern count"),
        None if args.quick => 1_024,
        None => 8_192,
    };
    let config = MixedSchemeConfig::default();
    println!("pattern budget: {patterns_budget}\n");

    let mut results = Vec::new();
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
        results.push(CircuitResult {
            name,
            patterns: patterns_budget,
            faults: universe,
            detected,
            good_seconds,
            good_gate_evals,
            sim_seconds,
            counters,
        });
    }

    let json = render_json(args.threads, &results);
    std::fs::write("BENCH_faultsim.json", &json).expect("writable working directory");
    println!("\nwrote BENCH_faultsim.json ({} bytes)", json.len());
}

fn render_json(threads: usize, results: &[CircuitResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"faultsim\",\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"threads\": {},", Pool::resolve(threads).threads());
    out.push_str("  \"circuits\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"circuit\": \"{}\",\n      \"patterns\": {},\n      \
             \"faults\": {},\n      \"detected\": {},\n      \
             \"good_sim_seconds\": {:.6},\n      \"good_gate_evals\": {},\n      \
             \"good_gate_evals_per_sec\": {:.0},\n      \"sim_seconds\": {:.6},\n      \
             \"blocks\": {},\n      \"blocks_per_sec\": {:.1},\n      \
             \"cone_events\": {},\n      \"cone_events_per_sec\": {:.0},\n      \
             \"fault_evals\": {}\n    }}",
            r.name,
            r.patterns,
            r.faults,
            r.detected,
            r.good_seconds,
            r.good_gate_evals,
            r.good_gate_evals as f64 / r.good_seconds,
            r.sim_seconds,
            r.counters.blocks,
            r.counters.blocks as f64 / r.sim_seconds,
            r.counters.cone_events,
            r.counters.cone_events as f64 / r.sim_seconds,
            r.counters.fault_evals,
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
