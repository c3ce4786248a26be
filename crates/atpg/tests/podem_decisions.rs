//! Pins PODEM's decisions on c432 and on a sample of c2670: one search per
//! collapsed stuck-at representative at the default budget, no fault
//! dropping. The outcome split, the digest of every outcome and cube, and
//! the decision and backtrack totals are fixed. A change to the
//! implication kernel, the backtrace or the objective that alters any
//! decision fails here loudly; one that only changes how much work
//! implication does (the gate evaluation count) does not.
//!
//! `podem_probe` is what the `probe` bench binary prints, so these are the
//! figures it reports for c432.

use bist_atpg::{podem_probe, podem_probe_every};

#[test]
fn c432_podem_decisions_are_pinned() {
    let circuit = bist_netlist::iscas85::circuit("c432").expect("c432");
    let probe = podem_probe(&circuit);
    assert_eq!(probe.split, [601, 43, 23], "tests / redundant / aborted");
    assert_eq!(
        format!("{:016x}", probe.digest),
        "9629f216712ab0eb",
        "outcome digest"
    );
    assert_eq!(probe.counters.decisions, 91_866, "decisions");
    assert_eq!(probe.counters.backtracks, 81_244, "backtracks");
}

/// Every 8th c2670 representative. A detect search implies only the fan-in
/// closure of its fault's fan-out cone, which on c2670 is about 0.6 of the
/// circuit per target (0.87 on c432), so this pin exercises that scoping
/// far harder than the c432 one.
#[test]
fn c2670_podem_decisions_are_pinned() {
    let circuit = bist_netlist::iscas85::circuit("c2670").expect("c2670");
    let probe = podem_probe_every(&circuit, 8);
    assert_eq!(probe.split, [583, 4, 53], "tests / redundant / aborted");
    assert_eq!(
        format!("{:016x}", probe.digest),
        "8744a44344f9aa03",
        "outcome digest"
    );
    assert_eq!(probe.counters.decisions, 140_905, "decisions");
    assert_eq!(probe.counters.backtracks, 109_393, "backtracks");
}
