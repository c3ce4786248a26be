// determinism-vetted: the only hash map here counts per-pattern
// occurrences via entry() in sequence order and is never iterated
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::fmt;

use bist_logicsim::{Pattern, SeqSim};
use bist_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};
use bist_synth::{count_cells, synthesize_pla, AreaModel, CellCount, TwoLevelNetwork};

/// Error returned by [`LfsromGenerator::synthesize`] and
/// [`next_state_network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesizeLfsromError {
    /// The target sequence holds no patterns.
    EmptySequence,
    /// Pattern `index` has a different width than pattern 0.
    WidthMismatch {
        /// Offending pattern position.
        index: usize,
        /// Width of pattern 0.
        expected: usize,
        /// Width found.
        got: usize,
    },
    /// The sequence has zero-width patterns.
    ZeroWidth,
    /// The synthesized next-state network does not map the state at
    /// sequence position `step` to the state at the next position. This
    /// is a minimizer defect; the network is never used.
    BrokenNetwork {
        /// The first step whose successor the network gets wrong.
        step: usize,
    },
}

impl fmt::Display for SynthesizeLfsromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesizeLfsromError::EmptySequence => write!(f, "empty test sequence"),
            SynthesizeLfsromError::WidthMismatch {
                index,
                expected,
                got,
            } => write!(f, "pattern {index} is {got} bits wide, expected {expected}"),
            SynthesizeLfsromError::ZeroWidth => write!(f, "patterns have zero width"),
            SynthesizeLfsromError::BrokenNetwork { step } => {
                write!(f, "next-state network broken at step {step}")
            }
        }
    }
}

impl std::error::Error for SynthesizeLfsromError {}

/// A synthesized LFSROM: pattern register + two-level next-pattern network,
/// with its structural netlist and cost accounting.
///
/// See the [crate docs](crate) for the architecture; construct with
/// [`LfsromGenerator::synthesize`].
#[derive(Debug, Clone)]
pub struct LfsromGenerator {
    width: usize,
    sequence: Vec<Pattern>,
    codes: Vec<u64>,
    code_bits: usize,
    network: TwoLevelNetwork,
    netlist: Circuit,
}

impl LfsromGenerator {
    /// Synthesizes a generator replaying `sequence`.
    ///
    /// The generator is periodic: after the last pattern it wraps to the
    /// first (BIST controllers stop it after `sequence.len()` cycles).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesizeLfsromError`] for empty sequences, inconsistent
    /// pattern widths, or a next-state network that fails its check (see
    /// [`next_state_network`]).
    pub fn synthesize(sequence: &[Pattern]) -> Result<Self, SynthesizeLfsromError> {
        let (network, codes) = next_state_network(sequence)?;
        let width = sequence[0].len();
        let code_bits = network.width() - width;
        let netlist = build_netlist(network.width(), width, &network);
        Ok(LfsromGenerator {
            width,
            sequence: sequence.to_vec(),
            codes,
            code_bits,
            network,
            netlist,
        })
    }

    /// The test pattern width (number of CUT primary inputs).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The target sequence the generator encodes.
    pub fn sequence(&self) -> &[Pattern] {
        &self.sequence
    }

    /// Number of disambiguation flip-flops added for duplicate patterns
    /// (0 when the sequence is duplicate-free).
    pub fn extra_flip_flops(&self) -> usize {
        self.code_bits
    }

    /// The disambiguation code assigned to each sequence position (all
    /// zero when the sequence is duplicate-free). The full generator state
    /// at step `i` is `(sequence[i], codes[i])`.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }

    /// Total flip-flop count (pattern register + disambiguation bits).
    pub fn num_flip_flops(&self) -> usize {
        self.width + self.code_bits
    }

    /// The synthesized next-state network.
    pub fn network(&self) -> &TwoLevelNetwork {
        &self.network
    }

    /// The structural hardware netlist (D flip-flops + gates). Pattern bit
    /// `b` is the flip-flop named `q{b}`; the primary outputs are the
    /// pattern bits.
    pub fn netlist(&self) -> &Circuit {
        &self.netlist
    }

    /// The generator's standard-cell inventory.
    pub fn cells(&self) -> CellCount {
        count_cells(&self.netlist)
    }

    /// Silicon area in mm² under `model`.
    pub fn area_mm2(&self, model: &AreaModel) -> f64 {
        model.area_mm2(&self.cells())
    }

    /// Clocks the hardware netlist for `cycles` cycles (seeding the
    /// register with the first state) and returns the emitted patterns.
    ///
    /// `replay(sequence.len()) == sequence` is the synthesis contract,
    /// enforced by the test suite and cheap to re-check in release code.
    pub fn replay(&self, cycles: usize) -> Vec<Pattern> {
        let mut sim = SeqSim::new(&self.netlist);
        // seed with state 0
        for b in 0..self.width {
            sim.set_state(self.ff(b), self.sequence[0].get(b));
        }
        for cb in 0..self.code_bits {
            sim.set_state(self.ff(self.width + cb), (self.codes[0] >> cb) & 1 == 1);
        }
        let watch: Vec<NodeId> = (0..self.width).map(|b| self.ff(b)).collect();
        sim.trace(&[false], &watch, cycles)
    }

    fn ff(&self, b: usize) -> NodeId {
        self.netlist
            .find(&format!("q{b}"))
            .expect("flip-flop exists by construction")
    }
}

/// Synthesizes the next-state network of an LFSROM replaying `sequence`
/// and returns it with the disambiguation code of each sequence position
/// (see [`LfsromGenerator::codes`]), without emitting the generator's
/// netlist.
///
/// The network's inputs and outputs are the full state: the pattern bits,
/// then the code bits. Its care table maps the state at each position to
/// the state at the next one, wrapping from the last position to the
/// first. Every step of that table is checked against the synthesized
/// network in every build, so a minimizer defect surfaces as an error
/// instead of as a generator that replays the wrong sequence.
///
/// # Errors
///
/// Returns [`SynthesizeLfsromError`] for empty sequences, zero-width or
/// inconsistent pattern widths, and [`SynthesizeLfsromError::BrokenNetwork`]
/// when the network misses a step.
pub fn next_state_network(
    sequence: &[Pattern],
) -> Result<(TwoLevelNetwork, Vec<u64>), SynthesizeLfsromError> {
    if sequence.is_empty() {
        return Err(SynthesizeLfsromError::EmptySequence);
    }
    let width = sequence[0].len();
    if width == 0 {
        return Err(SynthesizeLfsromError::ZeroWidth);
    }
    for (index, p) in sequence.iter().enumerate() {
        if p.len() != width {
            return Err(SynthesizeLfsromError::WidthMismatch {
                index,
                expected: width,
                got: p.len(),
            });
        }
    }

    let codes = disambiguation_codes(sequence);
    let max_code = codes.iter().copied().max().unwrap_or(0);
    let code_bits = (u64::BITS - max_code.leading_zeros()) as usize;
    let total = width + code_bits;

    // full states: pattern bits then code bits
    let states: Vec<Pattern> = sequence
        .iter()
        .zip(&codes)
        .map(|(p, &c)| {
            Pattern::from_fn(total, |b| {
                if b < width {
                    p.get(b)
                } else {
                    (c >> (b - width)) & 1 == 1
                }
            })
        })
        .collect();
    let mut next = states.clone();
    next.rotate_left(1);
    let network = synthesize_pla(total, &states, &next);

    // the network must walk the sequence
    if let Some(step) = (0..states.len()).find(|&i| network.eval(&states[i]) != next[i]) {
        return Err(SynthesizeLfsromError::BrokenNetwork { step });
    }
    Ok((network, codes))
}

/// Assigns each sequence position a disambiguation code: positions holding
/// the same pattern get distinct codes (0, 1, 2, …), so (pattern, code)
/// states are unique and the next-state function is well-defined.
#[allow(clippy::disallowed_types)] // per-key counter, never iterated
fn disambiguation_codes(sequence: &[Pattern]) -> Vec<u64> {
    let mut seen: HashMap<&Pattern, u64> = HashMap::new();
    sequence
        .iter()
        .map(|p| {
            let c = seen.entry(p).or_insert(0);
            let code = *c;
            *c += 1;
            code
        })
        .collect()
}

fn build_netlist(total: usize, width: usize, network: &TwoLevelNetwork) -> Circuit {
    let mut b = CircuitBuilder::new("lfsrom");
    b.add_input("bist_en").expect("fresh name");
    let ff_names: Vec<String> = (0..total).map(|i| format!("q{i}")).collect();
    let ff_refs: Vec<&str> = ff_names.iter().map(String::as_str).collect();
    let next_names = {
        // flip-flops must exist before the network references them; declare
        // them with placeholder fan-in resolved after emission
        // (CircuitBuilder supports forward references, so emit the network
        // first, then the flip-flops pointing at its outputs)
        let mut names = Vec::new();
        names.extend(
            network
                .emit(&mut b, &ff_refs, "ns")
                .expect("fresh namespace"),
        );
        names
    };
    for (i, ff) in ff_names.iter().enumerate() {
        b.add_gate(ff, GateKind::Dff, &[&next_names[i]])
            .expect("fresh name");
    }
    for ff in ff_names.iter().take(width) {
        b.mark_output(ff).expect("flip-flop exists");
    }
    b.build().expect("LFSROM netlist is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn replays_the_c17_paper_style_sequence() {
        // a 5-pattern, 5-bit deterministic set as in the paper's Figure 2
        let seq = vec![p("00101"), p("11010"), p("00011"), p("11100"), p("01110")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.replay(5), seq);
        assert_eq!(generator.extra_flip_flops(), 0);
        assert_eq!(generator.num_flip_flops(), 5);
    }

    #[test]
    fn wraps_around_periodically() {
        let seq = vec![p("001"), p("110"), p("100")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        let twice = generator.replay(6);
        assert_eq!(&twice[..3], &seq[..]);
        assert_eq!(&twice[3..], &seq[..]);
    }

    #[test]
    fn duplicate_patterns_get_disambiguation_ffs() {
        let seq = vec![p("0101"), p("1100"), p("0101"), p("0011")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.extra_flip_flops(), 1);
        assert_eq!(generator.replay(4), seq);
    }

    #[test]
    fn heavily_repeated_patterns_need_more_code_bits() {
        let seq = vec![p("01"); 5]; // the same pattern five times
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.extra_flip_flops(), 3); // codes 0..=4
        assert_eq!(generator.replay(5), seq);
    }

    #[test]
    fn single_pattern_sequence() {
        let seq = vec![p("1010")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.replay(3), vec![seq[0].clone(); 3]);
    }

    #[test]
    fn random_sequences_always_replay() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..10 {
            let width = 4 + trial;
            let len = 3 + trial * 2;
            let seq: Vec<Pattern> = (0..len).map(|_| Pattern::random(&mut rng, width)).collect();
            let generator = LfsromGenerator::synthesize(&seq).unwrap();
            assert_eq!(generator.replay(len), seq, "trial {trial}");
        }
    }

    #[test]
    fn longer_sequences_cost_more() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = AreaModel::es2_1um();
        let short: Vec<Pattern> = (0..8).map(|_| Pattern::random(&mut rng, 20)).collect();
        let long: Vec<Pattern> = (0..80).map(|_| Pattern::random(&mut rng, 20)).collect();
        let a_short = LfsromGenerator::synthesize(&short)
            .unwrap()
            .area_mm2(&model);
        let a_long = LfsromGenerator::synthesize(&long).unwrap().area_mm2(&model);
        assert!(
            a_long > a_short,
            "area must grow with sequence length: {a_short:.3} vs {a_long:.3}"
        );
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            LfsromGenerator::synthesize(&[]),
            Err(SynthesizeLfsromError::EmptySequence)
        ));
        let err = LfsromGenerator::synthesize(&[p("01"), p("011")]).unwrap_err();
        assert!(matches!(
            err,
            SynthesizeLfsromError::WidthMismatch { index: 1, .. }
        ));
    }

    #[test]
    fn cells_include_register_and_network() {
        let seq = vec![p("00101"), p("11010"), p("00011")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        let cells = generator.cells();
        assert_eq!(cells.get(bist_synth::CellKind::Dff), 5);
        assert!(cells.total() > 5, "next-state logic contributes cells");
    }
}
