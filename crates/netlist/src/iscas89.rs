//! ISCAS-89 sequential benchmark substrate: the exact `s27` plus
//! deterministic synthetic stand-ins for the larger circuits.
//!
//! The paper's introduction frames the whole BIST problem around scan:
//! internal nodes become controllable/observable by inserting memory
//! elements "in the form of a scan chain" and the TPG drives that chain.
//! The 1995 evaluation stays combinational (ISCAS-85), but the flow is
//! *built* for scan-wrapped sequential logic — `bist-scan` performs the
//! wrapping, and this module supplies the sequential circuits to wrap.
//!
//! As with [`iscas85`](crate::iscas85), the original ISCAS-89 netlists
//! are not redistributable here: `s27` is small enough to embed exactly,
//! and the larger circuits are profile-matched synthetic stand-ins
//! (published #PI / #PO / #DFF / #gates, seeded and reproducible). Real
//! `.bench` files — the format carries `DFF(...)` lines — drop in
//! through [`bench::parse`](crate::bench::parse()) unchanged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bench;
use crate::builder::CircuitBuilder;
use crate::circuit::Circuit;
use crate::gate::GateKind;

/// The exact ISCAS-89 `s27` netlist in `.bench` syntax: 4 inputs, 1
/// output, 3 flip-flops, 10 gates.
pub const S27_BENCH: &str = "\
# ISCAS-89 s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

/// Every benchmark this module can produce.
pub const NAMES: [&str; 6] = ["s27", "s298", "s344", "s641", "s1196", "s5378"];

/// Published profile of one ISCAS-89 circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqProfile {
    /// Benchmark name, e.g. `"s1196"`.
    pub name: &'static str,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of D flip-flops.
    pub dffs: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Generator seed (fixed: stand-ins are reproducible).
    pub seed: u64,
}

/// Profiles for the synthetic stand-ins (published ISCAS-89 statistics).
pub const PROFILES: [SeqProfile; 5] = [
    SeqProfile {
        name: "s298",
        inputs: 3,
        outputs: 6,
        dffs: 14,
        gates: 119,
        seed: 0x89_0298,
    },
    SeqProfile {
        name: "s344",
        inputs: 9,
        outputs: 11,
        dffs: 15,
        gates: 160,
        seed: 0x89_0344,
    },
    SeqProfile {
        name: "s641",
        inputs: 35,
        outputs: 24,
        dffs: 19,
        gates: 379,
        seed: 0x89_0641,
    },
    SeqProfile {
        name: "s1196",
        inputs: 14,
        outputs: 14,
        dffs: 18,
        gates: 529,
        seed: 0x89_1196,
    },
    SeqProfile {
        name: "s5378",
        inputs: 35,
        outputs: 49,
        dffs: 179,
        gates: 2779,
        seed: 0x89_5378,
    },
];

/// Looks up the profile of a synthetic stand-in.
pub fn profile(name: &str) -> Option<&'static SeqProfile> {
    PROFILES.iter().find(|p| p.name == name)
}

/// The exact ISCAS-89 `s27` circuit.
///
/// # Panics
///
/// Never panics: the embedded source is validated by tests.
pub fn s27() -> Circuit {
    bench::parse("s27", S27_BENCH).expect("embedded s27 netlist is valid")
}

/// Any benchmark by name — the exact `s27`, or a synthesized stand-in.
pub fn circuit(name: &str) -> Option<Circuit> {
    if name == "s27" {
        return Some(s27());
    }
    profile(name).map(synthesize)
}

/// Synthesizes a sequential stand-in from its profile: a layered random
/// combinational body over the primary inputs and flip-flop outputs, with
/// flip-flop D-pins and primary outputs tapped from the deepest layers —
/// giving real feedback loops (state → logic → next state) through every
/// flip-flop.
pub fn synthesize(profile: &SeqProfile) -> Circuit {
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let mut b = CircuitBuilder::new(profile.name);

    let mut sources: Vec<String> = Vec::new();
    for i in 0..profile.inputs {
        let name = format!("pi{i}");
        b.add_input(&name).expect("fresh name");
        sources.push(name);
    }
    // flip-flop outputs are sources too; their D fan-in is declared by
    // name now and resolved at build (forward references are supported)
    for i in 0..profile.dffs {
        let q = format!("q{i}");
        b.add_gate(&q, GateKind::Dff, &[&format!("d{i}")])
            .expect("fresh name");
        sources.push(q);
    }

    const KINDS: [GateKind; 6] = [
        GateKind::Nand,
        GateKind::Nor,
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Not,
    ];
    let mut nodes = sources.clone();
    let mut fanin_record: Vec<(String, Vec<String>)> = Vec::with_capacity(profile.gates);
    for g in 0..profile.gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let fanin_count = match kind {
            GateKind::Not => 1,
            _ => rng.gen_range(2..=3.min(nodes.len())),
        };
        let name = format!("g{g}");
        // bias fan-in toward recent nodes so depth grows
        let mut fanin: Vec<String> = Vec::with_capacity(fanin_count);
        for _ in 0..fanin_count {
            let lo = nodes.len().saturating_sub(40);
            let idx = if rng.gen_bool(0.7) && lo > 0 {
                rng.gen_range(lo..nodes.len())
            } else {
                rng.gen_range(0..nodes.len())
            };
            let candidate = nodes[idx].clone();
            if !fanin.contains(&candidate) {
                fanin.push(candidate);
            }
        }
        if fanin.is_empty() {
            fanin.push(nodes[rng.gen_range(0..nodes.len())].clone());
        }
        let refs: Vec<&str> = fanin.iter().map(String::as_str).collect();
        b.add_gate(&name, kind, &refs).expect("fresh name");
        fanin_record.push((name.clone(), fanin));
        nodes.push(name);
    }

    // D-pins and primary outputs tap the deepest third of the body
    let tail_start = sources.len() + (profile.gates * 2) / 3;
    let tail: Vec<String> = nodes[tail_start.min(nodes.len() - 1)..].to_vec();
    // determinism-vetted: dedup membership only; output order comes from
    // the rng-driven selection loop, not from set iteration
    #[allow(clippy::disallowed_types)]
    let mut marked = std::collections::HashSet::new();
    let mut o = 0;
    while o < profile.outputs {
        let src = tail[rng.gen_range(0..tail.len())].clone();
        if marked.insert(src.clone()) {
            b.mark_output(&src).expect("node exists");
            o += 1;
        }
        if marked.len() >= tail.len() {
            break;
        }
    }
    // every body node must be observable (through a PO or through state),
    // or the fault universe fills up with structurally untestable faults
    // no real circuit has: fold dangling nodes into the D-pin gates as
    // extra XOR fan-ins, round-robin across the flip-flops
    // determinism-vetted: membership probe only (`dangling` is collected
    // by scanning `nodes` in declaration order)
    #[allow(clippy::disallowed_types)]
    let mut used: std::collections::HashSet<String> = marked.iter().cloned().collect();
    for (name, fanin) in &fanin_record {
        let _ = name;
        for f in fanin {
            used.insert(f.clone());
        }
    }
    let dangling: Vec<String> = nodes[sources.len()..]
        .iter()
        .filter(|n| !used.contains(*n))
        .cloned()
        .collect();
    let mut d_fanin: Vec<Vec<String>> = (0..profile.dffs)
        .map(|_| vec![tail[rng.gen_range(0..tail.len())].clone()])
        .collect();
    for (k, extra) in dangling.into_iter().enumerate() {
        let slot = &mut d_fanin[k % profile.dffs];
        if !slot.contains(&extra) {
            slot.push(extra);
        }
    }
    for (i, fanin) in d_fanin.iter().enumerate() {
        let refs: Vec<&str> = fanin.iter().map(String::as_str).collect();
        let kind = if refs.len() == 1 {
            GateKind::Buf
        } else {
            GateKind::Xor
        };
        b.add_gate(&format!("d{i}"), kind, &refs)
            .expect("fresh name");
    }
    b.build().expect("synthetic sequential netlist is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    #[test]
    fn s27_matches_published_statistics() {
        let c = s27();
        assert_eq!(c.inputs().len(), 4);
        assert_eq!(c.outputs().len(), 1);
        assert_eq!(c.num_dffs(), 3);
        assert_eq!(c.num_gates(), 10);
    }

    #[test]
    fn s27_has_state_feedback() {
        // every flip-flop's D cone must reach some flip-flop output —
        // otherwise it would not be sequential logic
        let c = s27();
        let dffs: Vec<_> = c
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind() == GateKind::Dff)
            .map(|(i, _)| crate::NodeId::from_index(i))
            .collect();
        assert_eq!(dffs.len(), 3);
        for &q in &dffs {
            let d = c.node(q).fanin()[0];
            // walk the fan-in cone of d looking for any DFF
            let mut stack = vec![d];
            let mut seen = vec![false; c.num_nodes()];
            let mut found = false;
            while let Some(n) = stack.pop() {
                if seen[n.index()] {
                    continue;
                }
                seen[n.index()] = true;
                if c.node(n).kind() == GateKind::Dff {
                    found = true;
                    break;
                }
                stack.extend(c.node(n).fanin().iter().copied());
            }
            assert!(found, "{} has no state feedback", c.node(q).name());
        }
    }

    #[test]
    fn profiles_synthesize_to_their_statistics() {
        for p in &PROFILES[..4] {
            let c = synthesize(p);
            assert_eq!(c.inputs().len(), p.inputs, "{}", p.name);
            assert_eq!(c.outputs().len(), p.outputs, "{}", p.name);
            assert_eq!(c.num_dffs(), p.dffs, "{}", p.name);
            // gates: body + one Buf per DFF D-pin
            assert_eq!(c.num_gates(), p.gates + p.dffs, "{}", p.name);
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let p = profile("s344").expect("known profile");
        let a = bench::write(&synthesize(p));
        let b = bench::write(&synthesize(p));
        assert_eq!(a, b);
    }

    #[test]
    fn circuits_round_trip_through_bench_format() {
        for name in NAMES {
            bench::assert_exact_round_trip(&circuit(name).expect("known benchmark"));
        }
    }

    #[test]
    fn unknown_names_are_none() {
        assert!(circuit("s9999").is_none());
        assert!(profile("c17").is_none());
    }
}
