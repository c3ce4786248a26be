use std::fmt;

use bist_logicsim::{Pattern, SeqSim};
use bist_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};
use bist_synth::{count_cells, synthesize_pla, CellCount, TwoLevelNetwork};

use bist_tpg::Tpg;

use crate::tpg::address_bits;

/// Error returned by [`CounterPla::synthesize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildCounterPlaError {
    /// The test set holds no patterns.
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
}

impl fmt::Display for BuildCounterPlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildCounterPlaError::EmptySequence => write!(f, "empty test sequence"),
            BuildCounterPlaError::WidthMismatch {
                index,
                expected,
                got,
            } => write!(f, "pattern {index} is {got} bits wide, expected {expected}"),
        }
    }
}

impl std::error::Error for BuildCounterPlaError {}

/// The *test-set-embedding* baseline (\[Ake89\]; the paper's "Counters and
/// Decoders" family): a binary counter walks addresses `0..d` and a
/// two-level decoding network maps each count to its test pattern.
///
/// Structurally this is the LFSROM with the state register swapped: the
/// LFSROM's register holds the *pattern itself* (`w` flip-flops, next-state
/// logic from pattern to pattern), while the counter-PLA holds only a
/// ⌈log₂ d⌉-bit count and pays for a full `count → pattern` decode of every
/// output bit. Comparing the two isolates the paper's key architectural
/// choice — it is the `pattern-as-state` trick, not two-level minimization
/// alone, that makes the LFSROM cheap.
///
/// # Example
///
/// ```
/// use bist_baselines::{CounterPla, Tpg};
/// use bist_logicsim::Pattern;
///
/// let patterns: Vec<Pattern> =
///     ["00101", "11010", "00011"].iter().map(|s| s.parse()).collect::<Result<_, _>>()?;
/// let tpg = CounterPla::synthesize(&patterns)?;
/// assert_eq!(tpg.sequence(), patterns); // replayed from the netlist
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CounterPla {
    patterns: Vec<Pattern>,
    width: usize,
    addr_bits: usize,
    network: TwoLevelNetwork,
    netlist: Circuit,
}

impl CounterPla {
    /// Synthesizes a counter-addressed decoder replaying `patterns`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildCounterPlaError`] for empty sequences or
    /// inconsistent widths.
    pub fn synthesize(patterns: &[Pattern]) -> Result<Self, BuildCounterPlaError> {
        if patterns.is_empty() {
            return Err(BuildCounterPlaError::EmptySequence);
        }
        let width = patterns[0].len();
        for (index, p) in patterns.iter().enumerate() {
            if p.len() != width {
                return Err(BuildCounterPlaError::WidthMismatch {
                    index,
                    expected: width,
                    got: p.len(),
                });
            }
        }
        let addr_bits = address_bits(patterns.len());

        // one care row per pattern: counter code -> pattern; codes >= d
        // are don't-cares (never reached before BIST stop)
        let codes: Vec<Pattern> = (0..patterns.len())
            .map(|i| Pattern::from_fn(addr_bits, |b| (i >> b) & 1 == 1))
            .collect();
        let network = synthesize_pla(addr_bits, &codes, patterns);
        let netlist = build_netlist(addr_bits, &network);
        Ok(CounterPla {
            patterns: patterns.to_vec(),
            width,
            addr_bits,
            network,
            netlist,
        })
    }

    /// Width of the address counter in flip-flops.
    pub fn addr_bits(&self) -> usize {
        self.addr_bits
    }

    /// The synthesized decode network.
    pub fn network(&self) -> &TwoLevelNetwork {
        &self.network
    }

    /// The structural hardware netlist (counter + decode gates).
    pub fn netlist(&self) -> &Circuit {
        &self.netlist
    }

    /// Clocks the hardware netlist for `cycles` cycles and returns the
    /// emitted patterns (wrapping past `test_length` re-enters the counter
    /// range, where outputs follow the minimizer's don't-care choices).
    pub fn replay(&self, cycles: usize) -> Vec<Pattern> {
        let mut sim = SeqSim::new(&self.netlist);
        let watch: Vec<NodeId> = (0..self.width)
            .map(|b| {
                self.netlist
                    .find(&format!("pla_y{b}"))
                    .expect("output exists by construction")
            })
            .collect();
        sim.trace(&[false], &watch, cycles)
    }
}

fn build_netlist(addr_bits: usize, network: &TwoLevelNetwork) -> Circuit {
    let mut b = CircuitBuilder::new("counter_pla");
    b.add_input("bist_en").expect("fresh name");
    let ff_names: Vec<String> = (0..addr_bits).map(|i| format!("q{i}")).collect();
    // ripple increment: inc0 = NOT q0; inc_i = q_i XOR carry_i with
    // carry_1 = q0, carry_i = carry_{i-1} AND q_{i-1}
    b.add_gate("inc0", GateKind::Not, &["q0"]).expect("fresh");
    let mut carry = "q0".to_string();
    for i in 1..addr_bits {
        if i > 1 {
            let c = format!("carry{i}");
            b.add_gate(&c, GateKind::And, &[&carry, &format!("q{}", i - 1)])
                .expect("fresh");
            carry = c;
        }
        b.add_gate(
            &format!("inc{i}"),
            GateKind::Xor,
            &[&format!("q{i}"), &carry],
        )
        .expect("fresh");
    }
    let ff_refs: Vec<&str> = ff_names.iter().map(String::as_str).collect();
    let out_names = network
        .emit(&mut b, &ff_refs, "pla")
        .expect("fresh namespace");
    for (i, ff) in ff_names.iter().enumerate() {
        b.add_gate(ff, GateKind::Dff, &[&format!("inc{i}")])
            .expect("fresh");
    }
    for name in &out_names {
        b.mark_output(name).expect("output exists");
    }
    b.build()
        .expect("counter-PLA netlist is structurally valid")
}

impl Tpg for CounterPla {
    fn architecture(&self) -> &'static str {
        "counter-pla"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn test_length(&self) -> usize {
        self.patterns.len()
    }

    fn sequence(&self) -> Vec<Pattern> {
        self.replay(self.patterns.len())
    }

    fn cells(&self) -> CellCount {
        count_cells(&self.netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_synth::AreaModel;
    use rand::{rngs::StdRng, SeedableRng};

    fn p(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn replays_a_small_set() {
        let seq = vec![p("00101"), p("11010"), p("00011"), p("11100"), p("01110")];
        let tpg = CounterPla::synthesize(&seq).unwrap();
        assert_eq!(tpg.replay(5), seq);
        assert_eq!(tpg.sequence(), seq);
        assert_eq!(tpg.addr_bits(), 3);
    }

    #[test]
    fn duplicate_patterns_are_fine() {
        // unlike the LFSROM, the counter distinguishes repeats for free
        let seq = vec![p("0101"), p("1100"), p("0101"), p("0011")];
        let tpg = CounterPla::synthesize(&seq).unwrap();
        assert_eq!(tpg.replay(4), seq);
    }

    #[test]
    fn random_sets_replay() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..8 {
            let width = 4 + trial;
            let len = 3 + 3 * trial;
            let seq: Vec<Pattern> = (0..len).map(|_| Pattern::random(&mut rng, width)).collect();
            let tpg = CounterPla::synthesize(&seq).unwrap();
            assert_eq!(tpg.replay(len), seq, "trial {trial}");
        }
    }

    #[test]
    fn counter_state_is_smaller_but_decode_is_larger() {
        // the architectural trade the paper's LFSROM wins: few FFs here,
        // but every pattern bit pays a full decode
        let mut rng = StdRng::seed_from_u64(77);
        let seq: Vec<Pattern> = (0..32).map(|_| Pattern::random(&mut rng, 24)).collect();
        let tpg = CounterPla::synthesize(&seq).unwrap();
        let cells = tpg.cells();
        assert_eq!(cells.get(bist_synth::CellKind::Dff), 5, "ceil(log2 32)");
        assert!(cells.total() > 50, "decode logic dominates: {cells}");
        assert!(tpg.area_mm2(&AreaModel::es2_1um()) > 0.0);
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            CounterPla::synthesize(&[]).unwrap_err(),
            BuildCounterPlaError::EmptySequence
        );
        assert!(matches!(
            CounterPla::synthesize(&[p("01"), p("011")]).unwrap_err(),
            BuildCounterPlaError::WidthMismatch { index: 1, .. }
        ));
    }
}
