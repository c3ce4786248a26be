//! ISCAS-85 benchmark substrate.
//!
//! The paper evaluates on the eleven ISCAS-85 circuits (Brglez & Fujiwara,
//! 1985). This module embeds the exact, tiny `c17` netlist — the circuit the
//! paper uses to illustrate the LFSROM — and provides a **deterministic
//! synthetic generator** for the ten larger circuits, reproducing each
//! circuit's published profile: primary input/output counts, gate count,
//! approximate depth and gate mix, plus planted *random-pattern-resistant
//! cones* (deep AND/OR trees with detection probability `2^-k`) and
//! *redundant substructures* (reconvergent fan-out of the form
//! `OR(a, AND(a, b))` whose internal stuck-at faults are untestable). These
//! are the two testability features the paper's experiments hinge on: the
//! coverage-versus-length curve of Figure 4 flattens because of the hard
//! cones, and the 96.7 % coverage ceiling of C3540 exists because of
//! redundant faults.
//!
//! The substitution is documented in `DESIGN.md`: original ISCAS-85 netlists
//! are not redistributable here, and every experiment depends only on these
//! gross testability statistics. Real `.bench` files drop in via
//! [`bench::parse`](crate::bench::parse()) unchanged.
//!
//! # Example
//!
//! ```
//! use bist_netlist::iscas85;
//!
//! let c432 = iscas85::circuit("c432").expect("known benchmark");
//! let profile = iscas85::profile("c432").expect("known benchmark");
//! assert_eq!(c432.inputs().len(), profile.inputs);
//! assert_eq!(c432.outputs().len(), profile.outputs);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bench;
use crate::builder::CircuitBuilder;
use crate::circuit::Circuit;
use crate::gate::GateKind;

/// The exact ISCAS-85 `c17` netlist in `.bench` form (public domain).
pub const C17_BENCH: &str = "\
# c17 (exact ISCAS-85 netlist)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

/// Names of the eleven ISCAS-85 benchmark circuits, smallest first.
pub const NAMES: [&str; 11] = [
    "c17", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552",
];

/// Published profile of one ISCAS-85 circuit, used to drive the synthetic
/// generator and reported in the experiment tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name, e.g. `"c3540"`.
    pub name: &'static str,
    /// Number of primary inputs (the test pattern width).
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Published combinational depth (informative; the synthetic stand-in
    /// approximates it).
    pub depth: u32,
    /// Weighted gate mix used by the generator.
    pub mix: &'static [(GateKind, u32)],
    /// Number of planted random-pattern-resistant cones.
    pub hard_cones: usize,
    /// Number of planted redundant reconvergent substructures.
    pub redundant_structs: usize,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

const MIX_NAND: &[(GateKind, u32)] = &[
    (GateKind::Nand, 26),
    (GateKind::And, 6),
    (GateKind::Nor, 14),
    (GateKind::Or, 6),
    (GateKind::Not, 16),
    (GateKind::Buf, 6),
    (GateKind::Xor, 20),
    (GateKind::Xnor, 8),
];

const MIX_XOR_RICH: &[(GateKind, u32)] = &[
    (GateKind::Xor, 30),
    (GateKind::Nand, 18),
    (GateKind::And, 16),
    (GateKind::Nor, 8),
    (GateKind::Or, 8),
    (GateKind::Not, 14),
    (GateKind::Buf, 6),
];

const MIX_ADDER: &[(GateKind, u32)] = &[
    (GateKind::Xor, 28),
    (GateKind::Xnor, 6),
    (GateKind::And, 22),
    (GateKind::Nor, 12),
    (GateKind::Or, 8),
    (GateKind::Nand, 16),
    (GateKind::Not, 8),
];

/// Profiles of the ten synthesized ISCAS-85 circuits (c17 is exact).
/// I/O and gate counts follow the published benchmark statistics.
pub const PROFILES: [Profile; 10] = [
    Profile {
        name: "c432",
        inputs: 36,
        outputs: 7,
        gates: 160,
        depth: 17,
        mix: MIX_NAND,
        hard_cones: 4,
        redundant_structs: 2,
        seed: 0x1985_0432,
    },
    Profile {
        name: "c499",
        inputs: 41,
        outputs: 32,
        gates: 202,
        depth: 11,
        mix: MIX_XOR_RICH,
        hard_cones: 4,
        redundant_structs: 3,
        seed: 0x1985_0499,
    },
    Profile {
        name: "c880",
        inputs: 60,
        outputs: 26,
        gates: 383,
        depth: 24,
        mix: MIX_NAND,
        hard_cones: 6,
        redundant_structs: 0,
        seed: 0x1985_0880,
    },
    Profile {
        name: "c1355",
        inputs: 41,
        outputs: 32,
        gates: 546,
        depth: 24,
        mix: MIX_XOR_RICH,
        hard_cones: 8,
        redundant_structs: 3,
        seed: 0x1985_1355,
    },
    Profile {
        name: "c1908",
        inputs: 33,
        outputs: 25,
        gates: 880,
        depth: 40,
        mix: MIX_NAND,
        hard_cones: 12,
        redundant_structs: 4,
        seed: 0x1985_1908,
    },
    Profile {
        name: "c2670",
        inputs: 233,
        outputs: 140,
        gates: 1193,
        depth: 32,
        mix: MIX_NAND,
        hard_cones: 18,
        redundant_structs: 25,
        seed: 0x1985_2670,
    },
    Profile {
        name: "c3540",
        inputs: 50,
        outputs: 22,
        gates: 1669,
        depth: 47,
        mix: MIX_NAND,
        hard_cones: 26,
        redundant_structs: 40,
        seed: 0x1985_3540,
    },
    Profile {
        name: "c5315",
        inputs: 178,
        outputs: 123,
        gates: 2307,
        depth: 49,
        mix: MIX_NAND,
        hard_cones: 30,
        redundant_structs: 18,
        seed: 0x1985_5315,
    },
    Profile {
        name: "c6288",
        inputs: 32,
        outputs: 32,
        gates: 2416,
        depth: 124,
        mix: MIX_ADDER,
        hard_cones: 6,
        redundant_structs: 10,
        seed: 0x1985_6288,
    },
    Profile {
        name: "c7552",
        inputs: 207,
        outputs: 108,
        gates: 3512,
        depth: 43,
        mix: MIX_NAND,
        hard_cones: 40,
        redundant_structs: 45,
        seed: 0x1985_7552,
    },
];

/// Returns the profile for a synthesized benchmark (`None` for `"c17"`,
/// which is exact, and for unknown names).
pub fn profile(name: &str) -> Option<&'static Profile> {
    PROFILES.iter().find(|p| p.name == name)
}

/// The exact ISCAS-85 `c17` circuit (6 NAND gates, 5 inputs, 2 outputs).
///
/// # Panics
///
/// Never panics: the embedded source is validated by tests.
pub fn c17() -> Circuit {
    bench::parse("c17", C17_BENCH).expect("embedded c17 netlist is valid")
}

/// Returns the named ISCAS-85 benchmark: the exact `c17`, or the synthetic
/// profile stand-in for the ten larger circuits. `None` for unknown names.
///
/// The result is deterministic: repeated calls return identical netlists.
pub fn circuit(name: &str) -> Option<Circuit> {
    if name == "c17" {
        return Some(c17());
    }
    profile(name).map(synthesize)
}

/// Generates all eleven benchmarks, smallest first.
pub fn all() -> Vec<Circuit> {
    NAMES
        .iter()
        .map(|n| circuit(n).expect("known name"))
        .collect()
}

/// Synthesizes a circuit matching `profile` (deterministic in
/// `profile.seed`).
///
/// Guarantees:
/// * exact primary input and output counts,
/// * gate count within a few gates of `profile.gates` (funnelling to the
///   requested output count can add a final collector layer),
/// * every primary input drives logic, every gate reaches an output,
/// * `hard_cones` deep AND/OR trees (detection probability `2^-k`,
///   `k ∈ 7..=11`) and `redundant_structs` untestable reconvergent
///   substructures are embedded.
pub fn synthesize(profile: &Profile) -> Circuit {
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let mut g = Generator::new(profile);

    g.plant_inputs();
    g.plant_hard_cones(&mut rng);
    g.plant_redundant_structs(&mut rng);
    g.grow_body(&mut rng);
    g.collect_outputs(&mut rng);
    g.finish()
}

/// Internal growth state for the synthetic generator.
struct Generator<'p> {
    profile: &'p Profile,
    builder: CircuitBuilder,
    /// Names of all value-producing nodes created so far.
    nodes: Vec<String>,
    /// Approximate logic level per entry of `nodes`.
    levels: Vec<u32>,
    /// Fan-out count per entry of `nodes` (to track dangling nodes).
    fanout_count: Vec<usize>,
    /// Gates created so far (excludes inputs).
    gates_made: usize,
    next_id: usize,
    mix_total: u32,
}

impl<'p> Generator<'p> {
    fn new(profile: &'p Profile) -> Self {
        Generator {
            profile,
            builder: CircuitBuilder::new(profile.name),
            nodes: Vec::new(),
            levels: Vec::new(),
            fanout_count: Vec::new(),
            gates_made: 0,
            next_id: 0,
            mix_total: profile.mix.iter().map(|(_, w)| w).sum(),
        }
    }

    fn fresh_name(&mut self) -> String {
        let n = format!("g{}", self.next_id);
        self.next_id += 1;
        n
    }

    fn plant_inputs(&mut self) {
        for i in 0..self.profile.inputs {
            let name = format!("i{i}");
            self.builder.add_input(&name).expect("fresh input name");
            self.nodes.push(name);
            self.levels.push(0);
            self.fanout_count.push(0);
        }
    }

    fn add_gate(&mut self, kind: GateKind, fanin_idx: &[usize]) -> usize {
        let name = self.fresh_name();
        let fanin_names: Vec<&str> = fanin_idx.iter().map(|&i| self.nodes[i].as_str()).collect();
        self.builder
            .add_gate(&name, kind, &fanin_names)
            .expect("generator produces valid gates");
        let level = fanin_idx.iter().map(|&i| self.levels[i]).max().unwrap_or(0) + 1;
        for &i in fanin_idx {
            self.fanout_count[i] += 1;
        }
        self.nodes.push(name);
        self.levels.push(level);
        self.fanout_count.push(0);
        self.gates_made += 1;
        self.nodes.len() - 1
    }

    fn pick_kind(&self, rng: &mut StdRng) -> GateKind {
        let mut roll = rng.gen_range(0..self.mix_total);
        for &(kind, w) in self.profile.mix {
            if roll < w {
                return kind;
            }
            roll -= w;
        }
        GateKind::Nand
    }

    /// Deep 2-input AND (or OR) trees over distinct primary inputs: the
    /// output is 1 (resp. 0) with probability `2^-k`, so its stuck-at-0
    /// (resp. stuck-at-1) fault is random-pattern resistant.
    fn plant_hard_cones(&mut self, rng: &mut StdRng) {
        let n_pi = self.profile.inputs;
        for c in 0..self.profile.hard_cones {
            let k = rng.gen_range(5..=8usize).min(n_pi);
            let use_and = c % 2 == 0;
            let kind = if use_and { GateKind::And } else { GateKind::Or };
            // k distinct PIs
            let mut pis: Vec<usize> = (0..n_pi).collect();
            for i in 0..k {
                let j = rng.gen_range(i..n_pi);
                pis.swap(i, j);
            }
            let mut acc = pis[0];
            for &pi in &pis[1..k] {
                acc = self.add_gate(kind, &[acc, pi]);
            }
        }
    }

    /// `r = OR(a, AND(a, b))` is functionally `a`: the AND output stuck-at-0
    /// (and faults inside the AND) are untestable. The dual
    /// `r = AND(a, OR(a, b))` plants the stuck-at-1 counterpart.
    fn plant_redundant_structs(&mut self, rng: &mut StdRng) {
        for s in 0..self.profile.redundant_structs {
            let a = rng.gen_range(0..self.nodes.len());
            let mut b = rng.gen_range(0..self.nodes.len());
            if b == a {
                b = (b + 1) % self.nodes.len();
            }
            if s % 2 == 0 {
                let t = self.add_gate(GateKind::And, &[a, b]);
                self.add_gate(GateKind::Or, &[a, t]);
            } else {
                let t = self.add_gate(GateKind::Or, &[a, b]);
                self.add_gate(GateKind::And, &[a, t]);
            }
        }
    }

    /// Picks a distinct fan-in from `pool` (falling back to any earlier
    /// node), avoiding duplicates within one gate.
    fn pick_from(&self, rng: &mut StdRng, pool: &[usize], exclude: &[usize]) -> usize {
        for _ in 0..32 {
            let cand = if !pool.is_empty() && rng.gen_bool(0.8) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(0..self.nodes.len())
            };
            if !exclude.contains(&cand) {
                return cand;
            }
        }
        (0..self.nodes.len())
            .find(|i| !exclude.contains(i))
            .expect("more nodes than pins")
    }

    fn grow_body(&mut self, rng: &mut StdRng) {
        // ensure every primary input is consumed at least once
        let unused: Vec<usize> = (0..self.profile.inputs)
            .filter(|&i| self.fanout_count[i] == 0)
            .collect();
        for pair in unused.chunks(2) {
            let a = pair[0];
            let b = if pair.len() == 2 {
                pair[1]
            } else {
                self.pick_from(rng, &[], &[a])
            };
            self.add_gate(GateKind::Nand, &[a, b]);
        }

        // level-quota growth: gates are laid out in bands so the circuit
        // stays as shallow and wide as the published benchmark, instead of
        // degenerating into deep random-pattern-resistant chains
        let reserve = self.profile.outputs * 4; // head-room for collectors
        let body_gates = self
            .profile
            .gates
            .saturating_sub(self.gates_made + reserve)
            .max(1);
        let body_levels = ((self.profile.depth as usize / 2).saturating_sub(2)).max(3);
        let per_level = (body_gates / body_levels).max(1);

        let mut prev_band: Vec<usize> = (0..self.nodes.len()).collect();
        let mut made = 0usize;
        for l in 1..=body_levels {
            if made >= body_gates {
                break;
            }
            let quota = if l == body_levels {
                body_gates - made
            } else {
                per_level.min(body_gates - made)
            };
            // consume the previous band's dangling nodes first so signals
            // keep moving towards the outputs
            let mut queue: Vec<usize> = prev_band
                .iter()
                .copied()
                .filter(|&i| self.fanout_count[i] == 0)
                .collect();
            // deterministic shuffle
            for i in (1..queue.len()).rev() {
                let j = rng.gen_range(0..=i);
                queue.swap(i, j);
            }
            let mut band = Vec::with_capacity(quota);
            for _ in 0..quota {
                let kind = self.pick_kind(rng);
                let arity = match kind {
                    GateKind::Not | GateKind::Buf => 1,
                    _ => match rng.gen_range(0..20) {
                        0..=14 => 2,
                        15..=18 => 3,
                        _ => 4,
                    },
                };
                let mut fanin: Vec<usize> = Vec::with_capacity(arity);
                if let Some(first) = queue.pop() {
                    fanin.push(first);
                }
                while fanin.len() < arity {
                    let f = self.pick_from(rng, &prev_band, &fanin);
                    fanin.push(f);
                }
                band.push(self.add_gate(kind, &fanin));
                made += 1;
            }
            prev_band = band;
        }
    }

    /// Builds exactly `profile.outputs` primary outputs. Dangling internal
    /// nodes are distributed over per-output *balanced trees* of 2-input
    /// gates with a healthy XOR share — wide masking gates at the outputs
    /// would make the whole circuit artificially random-pattern resistant.
    fn collect_outputs(&mut self, rng: &mut StdRng) {
        let n_po = self.profile.outputs;
        let dangling: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.fanout_count[i] == 0)
            .collect();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_po];
        for (i, node) in dangling.into_iter().enumerate() {
            buckets[i % n_po].push(node);
        }
        for mut bucket in buckets {
            // tap a few already-consumed mid-level nodes too: real circuits
            // observe signals at every depth, not just the last band
            let taps = 4 + rng.gen_range(0..4);
            for _ in 0..taps {
                let extra = self.pick_from(rng, &[], &bucket);
                bucket.push(extra);
            }
            while bucket.len() < 2 {
                let extra = self.pick_from(rng, &[], &bucket);
                bucket.push(extra);
            }
            // balanced reduction keeps the tree shallow and observable
            while bucket.len() > 1 {
                let mut next = Vec::with_capacity(bucket.len() / 2 + 1);
                for pair in bucket.chunks(2) {
                    if pair.len() == 1 {
                        next.push(pair[0]);
                        continue;
                    }
                    let kind = match rng.gen_range(0..20) {
                        0..=7 => GateKind::Xor,
                        8..=11 => GateKind::Nand,
                        12..=14 => GateKind::Or,
                        15..=17 => GateKind::And,
                        _ => GateKind::Nor,
                    };
                    next.push(self.add_gate(kind, &[pair[0], pair[1]]));
                }
                bucket = next;
            }
            let out_name = self.nodes[bucket[0]].clone();
            self.builder
                .mark_output(&out_name)
                .expect("collector outputs are gates with fresh names");
        }
    }

    fn finish(self) -> Circuit {
        self.builder
            .build()
            .expect("generator maintains structural invariants")
    }
}

/// Convenience: the set of node ids of planted hard-cone outputs is not
/// tracked; this helper instead reports the number of nodes with level 0
/// fan-in only (a cheap sanity probe used in tests).
pub fn count_pi_fed_gates(circuit: &Circuit) -> usize {
    circuit
        .nodes()
        .iter()
        .filter(|n| {
            n.kind().is_combinational()
                && n.fanin()
                    .iter()
                    .all(|f| circuit.node(*f).kind() == GateKind::Input)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_matches_published_shape() {
        let c = c17();
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.num_gates(), 6);
        assert!(c
            .nodes()
            .iter()
            .filter(|n| n.kind().is_combinational())
            .all(|n| n.kind() == GateKind::Nand));
    }

    #[test]
    fn profiles_cover_all_large_benchmarks() {
        for name in NAMES {
            if name == "c17" {
                assert!(profile(name).is_none());
            } else {
                assert!(profile(name).is_some(), "missing profile for {name}");
            }
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = circuit("c432").expect("known benchmark");
        let b = circuit("c432").expect("known benchmark");
        assert_eq!(a.num_nodes(), b.num_nodes());
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn synthesis_matches_io_profile() {
        for p in &PROFILES {
            let c = synthesize(p);
            assert_eq!(c.inputs().len(), p.inputs, "{}", p.name);
            assert_eq!(c.outputs().len(), p.outputs, "{}", p.name);
            // gate count is close to the published number
            let got = c.num_gates();
            let want = p.gates;
            let tol = want / 10 + 40;
            assert!(
                got + tol >= want && got <= want + tol,
                "{}: {} gates vs profile {}",
                p.name,
                got,
                want
            );
        }
    }

    #[test]
    fn every_gate_reaches_an_output() {
        let c = circuit("c880").expect("known benchmark");
        let mut reaches = vec![false; c.num_nodes()];
        for &o in c.outputs() {
            reaches[o.index()] = true;
        }
        for &id in c.topo_order().iter().rev() {
            if reaches[id.index()] {
                for f in c.node(id).fanin() {
                    reaches[f.index()] = true;
                }
            }
        }
        for (i, n) in c.nodes().iter().enumerate() {
            assert!(
                reaches[i],
                "node {} ({:?}) does not reach any output",
                n.name(),
                n.kind()
            );
        }
    }

    #[test]
    fn every_input_drives_logic() {
        for name in ["c432", "c3540"] {
            let c = circuit(name).expect("known benchmark");
            for &pi in c.inputs() {
                assert!(
                    !c.fanout(pi).is_empty(),
                    "{name}: input {} has no fan-out",
                    c.node(pi).name()
                );
            }
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(circuit("c9000").is_none());
    }

    #[test]
    fn all_returns_eleven() {
        // only build the small ones here to keep the test fast; `all` is
        // exercised in release-mode integration tests
        assert_eq!(NAMES.len(), 11);
        let c432 = circuit("c432").expect("known benchmark");
        assert!(c432.num_gates() > 100);
    }

    #[test]
    fn bench_round_trip_of_synthetic() {
        for name in NAMES {
            bench::assert_exact_round_trip(&circuit(name).expect("known benchmark"));
        }
    }
}
