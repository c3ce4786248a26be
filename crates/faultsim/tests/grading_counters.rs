//! Pins the grading work of c432's mixed universe over the first 8192
//! patterns of the paper's LFSR — the `bench_faultsim` c432 row — and of
//! c5315's over the first 2000, the length of `serve-mix`'s curves. The
//! detections are the simulator's answer; the block, cone-event and
//! fault-evaluation counts are its work. A kernel change that alters an
//! answer fails here loudly, and so does one that changes how much cone
//! work a block does; the timings `bench_faultsim` prints may move
//! freely.

use bist_fault::FaultList;
use bist_faultsim::FaultSim;
use bist_lfsr::{paper_poly, pseudo_random_patterns};

#[test]
fn c432_grading_counters_are_pinned() {
    let circuit = bist_netlist::iscas85::circuit("c432").expect("c432");
    let patterns = pseudo_random_patterns(paper_poly(), circuit.inputs().len(), 8192);
    let mut sim = FaultSim::new(&circuit, FaultList::mixed_model(&circuit));
    let detected = sim.simulate(&patterns);
    let counters = sim.counters();
    assert_eq!(detected, 947, "detected");
    assert_eq!(counters.blocks, 128, "blocks");
    assert_eq!(counters.cone_events, 15_562, "cone events");
    assert_eq!(counters.fault_evals, 33_260, "fault evaluations");
}

#[test]
fn c5315_grading_counters_are_pinned() {
    let circuit = bist_netlist::iscas85::circuit("c5315").expect("c5315");
    let patterns = pseudo_random_patterns(paper_poly(), circuit.inputs().len(), 2000);
    let mut sim = FaultSim::new(&circuit, FaultList::mixed_model(&circuit));
    let detected = sim.simulate(&patterns);
    let counters = sim.counters();
    assert_eq!(detected, 14_206, "detected");
    assert_eq!(counters.blocks, 32, "blocks");
    assert_eq!(counters.cone_events, 1_234_942, "cone events");
    assert_eq!(counters.fault_evals, 72_285, "fault evaluations");
}
