use std::fmt;
use std::sync::OnceLock;

use bist_lfsr::{Lfsr, Polynomial, ScanExpander};
use bist_lfsrom::{next_state_network, SynthesizeLfsromError};
use bist_logicsim::{Pattern, SeqSim};
use bist_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};
use bist_synth::{count_cells, AreaModel, CellCount};

/// Error returned by [`MixedGenerator::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildMixedError {
    /// Both the prefix and the deterministic suffix are empty.
    NoPatterns,
    /// Pattern width must be positive.
    ZeroWidth,
    /// The LFSR polynomial has degree 0, so there is no LFSR to run.
    ZeroDegreePoly,
    /// Deterministic pattern `index` has the wrong width.
    WidthMismatch {
        /// Offending pattern position.
        index: usize,
        /// Expected width (the CUT's input count).
        expected: usize,
        /// Width found.
        got: usize,
    },
    /// The LFSROM synthesis failed.
    Lfsrom(SynthesizeLfsromError),
}

impl fmt::Display for BuildMixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildMixedError::NoPatterns => write!(f, "mixed scheme with p = 0 and d = 0"),
            BuildMixedError::ZeroWidth => write!(f, "pattern width must be positive"),
            BuildMixedError::ZeroDegreePoly => write!(f, "LFSR polynomial has degree 0"),
            BuildMixedError::WidthMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "deterministic pattern {index} is {got} bits wide, expected {expected}"
            ),
            BuildMixedError::Lfsrom(e) => write!(f, "LFSROM synthesis failed: {e}"),
        }
    }
}

impl std::error::Error for BuildMixedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildMixedError::Lfsrom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthesizeLfsromError> for BuildMixedError {
    fn from(e: SynthesizeLfsromError) -> Self {
        BuildMixedError::Lfsrom(e)
    }
}

/// How the hand-over from the pseudo-random to the deterministic phase is
/// detected in hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverDecode {
    /// The paper's scheme: an AND decoder recognizes the LFSR-part state
    /// reached after the `p`-th pattern. Only sound while `p·w` does not
    /// exceed the LFSR period — states are unique within one period.
    LfsrState {
        /// The recognized state (LFSR-part bit mask).
        state: u64,
    },
    /// A clock counter with a terminal-count decoder. Used automatically
    /// when `p·w` exceeds the LFSR period `2^k − 1`, where state decoding
    /// would fire early — an engineering correction to the paper, which is
    /// silent on this case (see `DESIGN.md`).
    ClockCounter {
        /// The terminal count (`p·w`).
        count: u64,
        /// Counter width in flip-flops.
        bits: u32,
    },
    /// Single-phase generator (pure LFSR or pure LFSROM): nothing to
    /// decode.
    None,
}

/// The shared-register mixed BIST hardware generator (the paper's
/// Figure 3).
///
/// One register of `max(width, k)` D flip-flops plays both roles: during
/// the pseudo-random phase its first `k` cells run the LFSR recurrence
/// (the rest extending it as a delay line), and after the hand-over a
/// two-level LFSROM network drives it through the deterministic suffix.
/// Per-bit multiplexers select the feedback source; a decoder plus a mode
/// latch performs the switch.
///
/// A generator is a pure function of its four inputs: width, polynomial,
/// prefix length and deterministic suffix. [`MixedGenerator::build`]
/// synthesizes the hardware at once; [`MixedGenerator::restore`] keeps
/// only the inputs and synthesizes on first use of the hardware. Either
/// way every generator carries its structural netlist, and
/// [`MixedGenerator::verify`] replays it cycle-accurately and checks both
/// phases bit-exactly.
///
/// # Example
///
/// ```
/// use bist_core::MixedGenerator;
/// use bist_lfsr::paper_poly;
/// use bist_logicsim::Pattern;
///
/// let det: Vec<Pattern> = ["00110", "11001"].iter().map(|s| s.parse().expect("valid pattern")).collect();
/// let generator = MixedGenerator::build(5, paper_poly(), 4, &det)?;
/// assert!(generator.verify());
/// # Ok::<(), bist_core::BuildMixedError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MixedGenerator {
    width: usize,
    poly: Polynomial,
    prefix_len: usize,
    deterministic: Vec<Pattern>,
    hardware: OnceLock<Hardware>,
}

/// Everything synthesis derives from a generator's four inputs.
#[derive(Debug, Clone)]
struct Hardware {
    codes: Vec<u64>,
    code_bits: usize,
    decode: HandoverDecode,
    netlist: Circuit,
}

impl MixedGenerator {
    /// Builds the mixed generator for a CUT with `width` primary inputs:
    /// `prefix_len` pseudo-random patterns from a Fibonacci LFSR on
    /// `poly` (seed 1), then the `deterministic` sequence. The hardware
    /// (hand-over decode, LFSROM network, netlist) is synthesized before
    /// this returns; the prefix itself is not stored, and
    /// [`MixedGenerator::expected_random`] expands it on demand.
    ///
    /// # Errors
    ///
    /// Returns [`BuildMixedError`] when both phases are empty, widths
    /// mismatch, the polynomial has degree 0, or LFSROM synthesis fails.
    pub fn build(
        width: usize,
        poly: Polynomial,
        prefix_len: usize,
        deterministic: &[Pattern],
    ) -> Result<Self, BuildMixedError> {
        check_shape(width, poly, prefix_len, deterministic)?;
        let hardware = synthesize(width, poly, prefix_len, deterministic)?;
        Ok(MixedGenerator {
            width,
            poly,
            prefix_len,
            deterministic: deterministic.to_vec(),
            hardware: OnceLock::from(hardware),
        })
    }

    /// Restores a generator from the inputs a successful
    /// [`MixedGenerator::build`] took, without synthesizing it. Runs the
    /// same shape checks as `build` and nothing else; the hardware is
    /// synthesized on first use of any accessor that needs it.
    ///
    /// Decoding stored results is what this is for: the inputs come from
    /// a generator that was built once already, so synthesizing them
    /// again cannot fail.
    ///
    /// # Errors
    ///
    /// Returns [`BuildMixedError`] when both phases are empty, widths
    /// mismatch, or the polynomial has degree 0.
    pub fn restore(
        width: usize,
        poly: Polynomial,
        prefix_len: usize,
        deterministic: &[Pattern],
    ) -> Result<Self, BuildMixedError> {
        check_shape(width, poly, prefix_len, deterministic)?;
        Ok(MixedGenerator {
            width,
            poly,
            prefix_len,
            deterministic: deterministic.to_vec(),
            hardware: OnceLock::new(),
        })
    }

    /// The derived hardware, synthesized on first use.
    fn hardware(&self) -> &Hardware {
        self.hardware.get_or_init(|| {
            // Only a restored generator gets here: `build` fills the lock.
            // Synthesis fails only where `build` fails on the same four
            // inputs, and `restore` takes the inputs of a successful
            // `build` (the result cache and the wire store exactly those,
            // under one `CACHE_SCHEMA_VERSION`), so this cannot fail.
            synthesize(self.width, self.poly, self.prefix_len, &self.deterministic)
                .expect("a restored generator's inputs were built once")
        })
    }

    /// The test pattern width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The LFSR feedback polynomial.
    pub fn poly(&self) -> Polynomial {
        self.poly
    }

    /// Length `p` of the pseudo-random prefix.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// The deterministic suffix (length `d`).
    pub fn deterministic(&self) -> &[Pattern] {
        &self.deterministic
    }

    /// Total mixed sequence length `p + d`.
    pub fn total_len(&self) -> usize {
        self.prefix_len + self.deterministic.len()
    }

    /// The pseudo-random patterns the hardware will emit (software model),
    /// expanded from the LFSR stream on each call.
    pub fn expected_random(&self) -> Vec<Pattern> {
        ScanExpander::new(Lfsr::fibonacci(self.poly, 1), self.width).patterns(self.prefix_len)
    }

    /// How the hand-over is decoded.
    pub fn decode(&self) -> HandoverDecode {
        self.hardware().decode
    }

    /// Number of disambiguation flip-flops in the LFSROM part.
    pub fn extra_flip_flops(&self) -> usize {
        self.hardware().code_bits
    }

    /// Per-step disambiguation codes of the LFSROM part (empty for pure
    /// pseudo-random generators). `codes()[0]` is the reset value of the
    /// disambiguation flip-flops of a pure-deterministic generator.
    pub fn codes(&self) -> &[u64] {
        &self.hardware().codes
    }

    /// The structural netlist of the generator.
    pub fn netlist(&self) -> &Circuit {
        &self.hardware().netlist
    }

    /// The generator's standard-cell inventory.
    pub fn cells(&self) -> CellCount {
        count_cells(self.netlist())
    }

    /// Silicon area in mm² under `model`.
    pub fn area_mm2(&self, model: &AreaModel) -> f64 {
        model.area_mm2(&self.cells())
    }

    /// The register reset state that makes the netlist emit the verified
    /// sequence from power-on: `q0 = 1` seeds the LFSR recurrence when a
    /// pseudo-random phase exists; a pure-deterministic generator instead
    /// resets to the first suffix pattern plus its disambiguation code.
    /// Flip-flops not listed reset to `0`.
    ///
    /// This is the authoritative seeding — [`MixedGenerator::replay`]
    /// starts from it, and HDL emitters turn it into reset values so the
    /// synthesized module and the software model agree cycle for cycle.
    pub fn reset_states(&self) -> Vec<(NodeId, bool)> {
        let hw = self.hardware();
        let mut values = Vec::new();
        if self.prefix_len > 0 {
            let q0 = hw.netlist.find("q0").expect("q0 exists");
            values.push((q0, true));
        } else if let Some(first) = self.deterministic.first() {
            for b in 0..self.width {
                let q = hw
                    .netlist
                    .find(&format!("q{}", self.width - 1 - b))
                    .expect("pattern flip-flop exists");
                values.push((q, first.get(b)));
            }
            for cb in 0..hw.code_bits {
                let c = hw.netlist.find(&format!("c{cb}")).expect("code FF");
                values.push((c, (hw.codes[0] >> cb) & 1 == 1));
            }
        }
        values
    }

    /// Clocks the netlist through both phases; returns the emitted
    /// (pseudo-random, deterministic) pattern sequences.
    pub fn replay(&self) -> (Vec<Pattern>, Vec<Pattern>) {
        let netlist = self.netlist();
        let mut sim = SeqSim::new(netlist);
        let pattern_ffs: Vec<NodeId> = (0..self.width)
            .map(|b| {
                netlist
                    .find(&format!("q{}", self.width - 1 - b))
                    .expect("pattern flip-flop exists")
            })
            .collect();
        let sample = |sim: &SeqSim<'_>| Pattern::from_fn(self.width, |b| sim.state(pattern_ffs[b]));

        for (ff, value) in self.reset_states() {
            sim.set_state(ff, value);
        }
        let mut random = Vec::with_capacity(self.prefix_len);
        let mut det = Vec::with_capacity(self.deterministic.len());
        if self.prefix_len > 0 {
            for _ in 0..self.prefix_len {
                for _ in 0..self.width {
                    sim.step(&[false]);
                }
                random.push(sample(&sim));
            }
            for _ in 0..self.deterministic.len() {
                sim.step(&[false]);
                det.push(sample(&sim));
            }
        } else {
            for t in 0..self.deterministic.len() {
                det.push(sample(&sim));
                if t + 1 < self.deterministic.len() {
                    sim.step(&[false]);
                }
            }
        }
        (random, det)
    }

    /// Replays the hardware and checks both phases bit-exactly against the
    /// software model / target sequence.
    pub fn verify(&self) -> bool {
        let (random, det) = self.replay();
        random == self.expected_random() && det == self.deterministic
    }
}

/// The checks [`MixedGenerator::build`] and [`MixedGenerator::restore`]
/// share: a positive width, an LFSR polynomial of positive degree, a
/// non-empty mixed sequence, and a suffix of `width`-bit patterns.
fn check_shape(
    width: usize,
    poly: Polynomial,
    prefix_len: usize,
    deterministic: &[Pattern],
) -> Result<(), BuildMixedError> {
    if width == 0 {
        return Err(BuildMixedError::ZeroWidth);
    }
    if poly.degree() == 0 {
        return Err(BuildMixedError::ZeroDegreePoly);
    }
    if prefix_len == 0 && deterministic.is_empty() {
        return Err(BuildMixedError::NoPatterns);
    }
    for (index, p) in deterministic.iter().enumerate() {
        if p.len() != width {
            return Err(BuildMixedError::WidthMismatch {
                index,
                expected: width,
                got: p.len(),
            });
        }
    }
    Ok(())
}

/// Everything [`MixedGenerator::build`] derives from its four inputs:
/// the hand-over decode, the LFSROM next-state network and the netlist.
fn synthesize(
    width: usize,
    poly: Polynomial,
    prefix_len: usize,
    deterministic: &[Pattern],
) -> Result<Hardware, BuildMixedError> {
    let k = poly.degree() as usize;

    // the pseudo-random phase's end: the hand-over state and the last
    // prefix pattern, which the LFSROM's first transition starts from
    let mut expander = ScanExpander::new(Lfsr::fibonacci(poly, 1), width);
    for _ in 0..prefix_len {
        expander.next_pattern();
    }
    let handover_state = expander.lfsr_state();
    let bridge = expander.chain();

    // LFSROM next-state network over (bridge +) deterministic suffix
    let (network, codes) = if deterministic.is_empty() {
        (None, Vec::new())
    } else {
        let mut seq = Vec::with_capacity(deterministic.len() + 1);
        if prefix_len > 0 {
            seq.push(bridge);
        }
        seq.extend(deterministic.iter().cloned());
        let (network, codes) = next_state_network(&seq)?;
        (Some(network), codes)
    };
    let code_bits = network.as_ref().map_or(0, |net| net.width() - width);

    let decode = if prefix_len == 0 || deterministic.is_empty() {
        HandoverDecode::None
    } else {
        let clocks = (prefix_len * width) as u64;
        let period = (1u64 << k) - 1;
        if clocks <= period {
            HandoverDecode::LfsrState {
                state: handover_state,
            }
        } else {
            HandoverDecode::ClockCounter {
                count: clocks,
                bits: 64 - clocks.leading_zeros(),
            }
        }
    };

    let netlist = build_netlist(width, poly, prefix_len, network.as_ref(), code_bits, decode);

    Ok(Hardware {
        codes,
        code_bits,
        decode,
        netlist,
    })
}

impl bist_tpg::Tpg for MixedGenerator {
    fn architecture(&self) -> &'static str {
        "mixed"
    }

    fn width(&self) -> usize {
        self.width
    }

    fn test_length(&self) -> usize {
        self.total_len()
    }

    fn sequence(&self) -> Vec<Pattern> {
        let mut sequence = self.expected_random();
        sequence.extend_from_slice(&self.deterministic);
        sequence
    }

    fn cells(&self) -> CellCount {
        MixedGenerator::cells(self)
    }

    fn netlist(&self) -> Option<&Circuit> {
        Some(MixedGenerator::netlist(self))
    }

    fn replay_netlist(&self) -> Option<Vec<Pattern>> {
        let (random, det) = self.replay();
        Some(random.into_iter().chain(det).collect())
    }
}

/// Emits the shared-register mixed generator netlist.
fn build_netlist(
    width: usize,
    poly: Polynomial,
    prefix_len: usize,
    network: Option<&bist_synth::TwoLevelNetwork>,
    code_bits: usize,
    decode: HandoverDecode,
) -> Circuit {
    let k = poly.degree() as usize;
    let has_random = prefix_len > 0;
    let has_det = network.is_some();
    let r_shift = if has_random { width.max(k) } else { width };

    let mut b = CircuitBuilder::new("mixed_generator");
    b.add_input("bist_en").expect("fresh name");

    let q_names: Vec<String> = (0..r_shift).map(|i| format!("q{i}")).collect();
    let c_names: Vec<String> = (0..code_bits).map(|j| format!("c{j}")).collect();

    // deterministic next-state network (over pattern-order inputs)
    let net_outs: Vec<String> = if let Some(net) = network {
        let mut inputs: Vec<&str> = (0..width)
            .map(|bit| q_names[width - 1 - bit].as_str())
            .collect();
        inputs.extend(c_names.iter().map(String::as_str));
        net.emit(&mut b, &inputs, "ns").expect("fresh namespace")
    } else {
        Vec::new()
    };

    // LFSR feedback
    if has_random {
        let taps: Vec<&str> = poly
            .taps()
            .iter()
            .map(|&t| q_names[(t - 1) as usize].as_str())
            .collect();
        if taps.len() == 1 {
            b.add_gate("lfsr_fb", GateKind::Buf, &taps).expect("fresh");
        } else {
            b.add_gate("lfsr_fb", GateKind::Xor, &taps).expect("fresh");
        }
    }

    // hand-over decoder + mode latch
    let mode_select = match decode {
        HandoverDecode::None => None,
        HandoverDecode::LfsrState { state } => {
            let mut literals: Vec<String> = Vec::with_capacity(k);
            for (i, q) in q_names.iter().enumerate().take(k) {
                if (state >> i) & 1 == 1 {
                    literals.push(q.clone());
                } else {
                    let inv = format!("dec_inv{i}");
                    b.add_gate(&inv, GateKind::Not, &[q]).expect("fresh");
                    literals.push(inv);
                }
            }
            let refs: Vec<&str> = literals.iter().map(String::as_str).collect();
            b.add_gate("dec", GateKind::And, &refs).expect("fresh");
            Some(emit_mode_latch(&mut b))
        }
        HandoverDecode::ClockCounter { count, bits } => {
            // ripple-increment counter: cnt_i' = cnt_i XOR carry_{i-1},
            // carry_i = cnt_i AND carry_{i-1}, carry_{-1} = 1
            let mut carry: Option<String> = None;
            let mut literals: Vec<String> = Vec::with_capacity(bits as usize);
            for i in 0..bits {
                let q = format!("cnt{i}");
                let next = format!("cnt{i}_n");
                match &carry {
                    None => {
                        b.add_gate(&next, GateKind::Not, &[&q]).expect("fresh");
                    }
                    Some(cy) => {
                        b.add_gate(&next, GateKind::Xor, &[&q, cy]).expect("fresh");
                    }
                }
                let new_carry = format!("cnt{i}_c");
                match &carry {
                    None => {
                        b.add_gate(&new_carry, GateKind::Buf, &[&q]).expect("fresh");
                    }
                    Some(cy) => {
                        b.add_gate(&new_carry, GateKind::And, &[&q, cy])
                            .expect("fresh");
                    }
                }
                carry = Some(new_carry);
                b.add_gate(&q, GateKind::Dff, &[&next]).expect("fresh");
                if (count >> i) & 1 == 1 {
                    literals.push(q);
                } else {
                    let inv = format!("dec_inv{i}");
                    b.add_gate(&inv, GateKind::Not, &[&q]).expect("fresh");
                    literals.push(inv);
                }
            }
            let refs: Vec<&str> = literals.iter().map(String::as_str).collect();
            b.add_gate("dec", GateKind::And, &refs).expect("fresh");
            Some(emit_mode_latch(&mut b))
        }
    };

    // per-cell feedback selection
    for i in 0..r_shift {
        let random_next = if i == 0 {
            "lfsr_fb".to_owned()
        } else {
            q_names[i - 1].clone()
        };
        let det_next = if has_det && i < width {
            Some(net_outs[width - 1 - i].clone())
        } else {
            None
        };
        let d_input = match (&mode_select, det_next) {
            (Some(sel), Some(dn)) => {
                let a = format!("mx{i}_r");
                let bb = format!("mx{i}_d");
                let y = format!("mx{i}");
                b.add_gate(&a, GateKind::And, &[&sel.not_mode, &random_next])
                    .expect("fresh");
                b.add_gate(&bb, GateKind::And, &[&sel.mode_next, &dn])
                    .expect("fresh");
                b.add_gate(&y, GateKind::Or, &[&a, &bb]).expect("fresh");
                y
            }
            (None, Some(dn)) if !has_random => dn,
            _ => random_next,
        };
        b.add_gate(&q_names[i], GateKind::Dff, &[&d_input])
            .expect("fresh");
    }

    // disambiguation flip-flops
    for (j, c) in c_names.iter().enumerate() {
        let out = &net_outs[width + j];
        let d_input = match &mode_select {
            Some(sel) => {
                let gated = format!("cgate{j}");
                b.add_gate(&gated, GateKind::And, &[&sel.mode_next, out])
                    .expect("fresh");
                gated
            }
            None => out.clone(),
        };
        b.add_gate(c, GateKind::Dff, &[&d_input]).expect("fresh");
    }

    // primary outputs in pattern order
    for bit in 0..width {
        b.mark_output(&q_names[width - 1 - bit]).expect("exists");
    }
    b.build().expect("mixed generator netlist is valid")
}

struct ModeSelect {
    mode_next: String,
    not_mode: String,
}

fn emit_mode_latch(b: &mut CircuitBuilder) -> ModeSelect {
    b.add_gate("mode_next", GateKind::Or, &["mode", "dec"])
        .expect("fresh");
    b.add_gate("mode", GateKind::Dff, &["mode_next"])
        .expect("fresh");
    b.add_gate("mode_next_n", GateKind::Not, &["mode_next"])
        .expect("fresh");
    ModeSelect {
        mode_next: "mode_next".to_owned(),
        not_mode: "mode_next_n".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_lfsr::{paper_poly, primitive_poly};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_patterns(rng: &mut StdRng, width: usize, count: usize) -> Vec<Pattern> {
        (0..count).map(|_| Pattern::random(rng, width)).collect()
    }

    #[test]
    fn verifies_small_mixed_generator() {
        let mut rng = StdRng::seed_from_u64(5);
        let det = random_patterns(&mut rng, 8, 6);
        let g = MixedGenerator::build(8, primitive_poly(8), 10, &det).expect("valid generator");
        assert!(g.verify());
        assert_restores_identically(&g);
        assert_eq!(g.total_len(), 16);
        assert!(matches!(g.decode(), HandoverDecode::LfsrState { .. }));
    }

    #[test]
    fn wide_register_narrow_lfsr() {
        // width > k: the register extends the LFSR
        let mut rng = StdRng::seed_from_u64(6);
        let det = random_patterns(&mut rng, 24, 4);
        let g = MixedGenerator::build(24, primitive_poly(8), 12, &det).expect("valid generator");
        assert!(g.verify());
        assert_restores_identically(&g);
    }

    #[test]
    fn narrow_register_wide_lfsr() {
        // width < k (the c17 situation: 5 inputs, 16-bit LFSR)
        let mut rng = StdRng::seed_from_u64(7);
        let det = random_patterns(&mut rng, 5, 4);
        let g = MixedGenerator::build(5, paper_poly(), 8, &det).expect("valid generator");
        assert!(g.verify());
        assert_restores_identically(&g);
    }

    #[test]
    fn pure_deterministic_generator() {
        let mut rng = StdRng::seed_from_u64(8);
        let det = random_patterns(&mut rng, 10, 7);
        let g = MixedGenerator::build(10, paper_poly(), 0, &det).expect("valid generator");
        assert!(g.verify());
        assert_restores_identically(&g);
        assert_eq!(g.decode(), HandoverDecode::None);
        let (random, replayed) = g.replay();
        assert!(random.is_empty());
        assert_eq!(replayed, det);
    }

    #[test]
    fn pure_pseudo_random_generator() {
        let g = MixedGenerator::build(12, primitive_poly(8), 20, &[]).expect("valid generator");
        assert!(g.verify());
        assert_restores_identically(&g);
        assert_eq!(g.decode(), HandoverDecode::None);
        let (random, det) = g.replay();
        assert_eq!(random.len(), 20);
        assert!(det.is_empty());
    }

    #[test]
    fn counter_decode_kicks_in_past_the_lfsr_period() {
        // p·w > 2^k − 1 forces the clock-counter hand-over
        let mut rng = StdRng::seed_from_u64(9);
        let det = random_patterns(&mut rng, 16, 3);
        let g = MixedGenerator::build(16, primitive_poly(6), 8, &det).expect("valid generator");
        assert!(matches!(g.decode(), HandoverDecode::ClockCounter { .. }));
        assert!(g.verify());
        assert_restores_identically(&g);
    }

    #[test]
    fn random_configurations_always_verify() {
        let mut rng = StdRng::seed_from_u64(10);
        for trial in 0..8 {
            let width = rng.gen_range(3..20);
            let p = rng.gen_range(0..12);
            let d = rng.gen_range(if p == 0 { 1 } else { 0 }..8);
            let det = random_patterns(&mut rng, width, d);
            let g =
                MixedGenerator::build(width, primitive_poly(8), p, &det).expect("valid generator");
            assert!(
                g.verify(),
                "trial {trial}: width {width}, p {p}, d {d} failed replay"
            );
        }
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            MixedGenerator::build(8, paper_poly(), 0, &[]),
            Err(BuildMixedError::NoPatterns)
        ));
        let det = vec![Pattern::zeros(5)];
        assert!(matches!(
            MixedGenerator::build(8, paper_poly(), 4, &det),
            Err(BuildMixedError::WidthMismatch { index: 0, .. })
        ));
    }

    /// Asserts that a restored twin of `built` leaves its hardware
    /// unsynthesized until asked, then derives exactly `built`'s.
    fn assert_restores_identically(built: &MixedGenerator) {
        assert!(built.hardware.get().is_some(), "build synthesizes eagerly");
        let restored = MixedGenerator::restore(
            built.width(),
            built.poly(),
            built.prefix_len(),
            built.deterministic(),
        )
        .expect("a built generator's inputs restore");
        assert!(
            restored.hardware.get().is_none(),
            "restore synthesizes nothing"
        );
        assert_eq!(restored.total_len(), built.total_len());
        assert!(
            restored.hardware.get().is_none(),
            "inputs need no synthesis"
        );
        assert_eq!(
            bist_netlist::bench::write(restored.netlist()),
            bist_netlist::bench::write(built.netlist())
        );
        assert!(restored.hardware.get().is_some(), "first use synthesizes");
        assert_eq!(restored.cells(), built.cells());
        assert_eq!(restored.codes(), built.codes());
        assert_eq!(restored.extra_flip_flops(), built.extra_flip_flops());
        assert_eq!(restored.decode(), built.decode());
        assert_eq!(restored.reset_states(), built.reset_states());
        assert_eq!(restored.expected_random(), built.expected_random());
        assert_eq!(restored.replay(), built.replay());
        assert!(restored.verify());
    }

    #[test]
    fn restore_runs_the_shape_checks_of_build() {
        let det = [Pattern::zeros(5)];
        let constant = Polynomial::from_mask(1);
        for (width, poly, p, det) in [
            (8, paper_poly(), 0, &[][..]),
            (0, paper_poly(), 4, &[][..]),
            (8, paper_poly(), 4, &det[..]),
            (5, constant, 4, &det[..]),
        ] {
            let refused = MixedGenerator::restore(width, poly, p, det).err();
            assert!(refused.is_some(), "width {width}, poly {poly}, p {p}");
            assert_eq!(refused, MixedGenerator::build(width, poly, p, det).err());
        }
    }

    #[test]
    fn mixed_costs_little_more_than_lfsrom_alone() {
        // the paper's §2.3 claim: sharing the D cells keeps the mixed
        // generator in the same cost class as the LFSROM
        let mut rng = StdRng::seed_from_u64(11);
        let det = random_patterns(&mut rng, 20, 12);
        let model = AreaModel::es2_1um();
        let mixed = MixedGenerator::build(20, paper_poly(), 50, &det).expect("valid generator");
        let lfsrom = bist_lfsrom::LfsromGenerator::synthesize(&det).expect("valid generator");
        let a_mixed = mixed.area_mm2(&model);
        let a_lfsrom = lfsrom.area_mm2(&model);
        assert!(
            a_mixed < a_lfsrom * 2.0,
            "mixed {a_mixed:.3} mm² vs LFSROM {a_lfsrom:.3} mm²"
        );
    }
}
