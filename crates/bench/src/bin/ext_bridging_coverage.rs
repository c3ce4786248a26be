//! **Extension I** — the \[Hwa93\] cross-check: how well do the paper's
//! stuck-at/stuck-open-derived BIST sequences detect *bridging* defects?
//!
//! The paper's coverage ceiling cites \[Hwa93\] and its §3 lists Iddq
//! merging among BIST's advantages. This experiment samples a
//! non-feedback wired-AND/wired-OR short universe per circuit and grades
//! the pure-random and mixed sequences against it, under both detection
//! criteria: voltage-sense (propagate to an output) and Iddq (merely
//! excite the short).
//!
//! The voltage numbers come straight from engine jobs —
//! `JobSpec::CoverageCurve` and `JobSpec::SolveAt` with
//! `fault_model: bridging` — the exact path `bist curve/solve <c>
//! --fault-model bridging:N` runs. Only the Iddq column (a criterion
//! the engine's voltage-sense outcomes don't carry) is re-graded here:
//! [`FaultSim`] over the same bridge universe and sequences, reading its
//! per-fault excitation flags.
//!
//! ```text
//! cargo run --release -p bist-bench --bin ext_bridging_coverage
//! cargo run --release -p bist-bench --bin ext_bridging_coverage -- --circuits c432 --quick
//! ```

use bist_bench::{banner, ExperimentArgs};
use bist_bridging::BridgingFaultList;
use bist_core::prelude::*;
use bist_engine::{CircuitSource, CoverageCurveSpec, Engine, FaultModel, JobSpec, SolveAtSpec};

/// Grades `patterns` under the Iddq criterion: a short counts as soon
/// as it is excited, whether or not the discrepancy reaches an output.
fn iddq_pct(circuit: &Circuit, universe: &BridgingFaultList, patterns: &[Pattern]) -> f64 {
    let mut sim = FaultSim::new(circuit, universe.iter().copied());
    sim.simulate(patterns);
    sim.excited_pct()
}

fn main() {
    banner(
        "Extension I",
        "bridging-fault coverage of stuck-at-derived BIST sequences ([Hwa93] cross-check)",
    );
    let args = ExperimentArgs::parse(&["c432", "c880"]);
    args.warn_fixed_format("ext_bridging_coverage");
    let samples: u32 = if args.quick { 150 } else { 400 };
    let seed = 0x1dd9;
    let model = FaultModel::Bridging {
        pairs: samples,
        seed,
    };
    let p = if args.quick { 128 } else { 512 };
    let engine = Engine::with_threads(args.threads);
    let config = MixedSchemeConfig {
        threads: args.threads,
        ..MixedSchemeConfig::default()
    };
    for circuit in args.load_circuits() {
        let source = CircuitSource::Inline(circuit.clone());
        let universe = BridgingFaultList::sample(&circuit, samples as usize, seed);
        println!(
            "\n{} — {} sampled non-feedback bridges",
            circuit.name(),
            universe.len()
        );
        println!(
            "{:<26} {:>9} {:>12} {:>10}",
            "sequence", "patterns", "voltage %", "Iddq %"
        );

        let curve = engine
            .run(JobSpec::CoverageCurve(CoverageCurveSpec {
                circuit: source.clone(),
                config: config.clone(),
                checkpoints: vec![p],
                fault_model: model,
            }))
            .expect("curve job succeeds");
        let curve = curve.as_coverage_curve().expect("curve outcome");
        let (_, rand_v) = curve.curve.points()[0];
        let width = circuit.inputs().len();
        let random_only = pseudo_random_patterns(config.poly, width, p);
        let rand_q = iddq_pct(&circuit, &universe, &random_only);
        println!(
            "{:<26} {:>9} {:>11.2}% {:>9.2}%",
            format!("pseudo-random (p={p})"),
            p,
            rand_v,
            rand_q
        );

        let solved = engine
            .run(JobSpec::SolveAt(SolveAtSpec {
                circuit: source,
                config: config.clone(),
                prefix_len: p,
                fault_model: model,
                estimate_first: false,
            }))
            .expect("solve job succeeds");
        let solution = &solved.as_solve_at().expect("solve outcome").solution;
        let (prefix, suffix) = solution.generator.replay();
        let mixed: Vec<Pattern> = prefix.into_iter().chain(suffix).collect();
        let (mix_v, mix_q) = (
            solution.coverage.coverage_pct(),
            iddq_pct(&circuit, &universe, &mixed),
        );
        println!(
            "{:<26} {:>9} {:>11.2}% {:>9.2}%",
            format!("mixed (p={p}, d={})", solution.det_len),
            mixed.len(),
            mix_v,
            mix_q
        );

        assert!(
            mix_v >= rand_v - 1e-9,
            "the mixed sequence extends the random prefix, so bridge coverage \
             cannot drop: {mix_v:.2} vs {rand_v:.2}"
        );
        assert!(mix_q >= mix_v, "Iddq (excitation) dominates voltage-sense");
    }
    println!("\nShape claim ([Hwa93]): stuck-at-derived sequences detect a large");
    println!("fraction of realistic shorts, and the Iddq criterion — excitation");
    println!("without propagation — always reads higher than voltage-sense, which");
    println!("is exactly why the paper lists Iddq merging among BIST's advantages.");
}
