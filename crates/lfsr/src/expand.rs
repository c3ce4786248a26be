use std::fmt;

use bist_logicsim::{transpose64, Pattern};

use crate::poly::Polynomial;
use crate::stepper::Lfsr;

/// Expansion of an LFSR's bit stream into test patterns of arbitrary
/// width, modelling the *shared-register* BIST arrangement of the paper's
/// mixed generator (its Figure 3, citing \[Hel92\] for wide circuits).
///
/// The hardware picture: one register of `max(width, k)` D flip-flops.
/// Cells `q0..q{k-1}` run the LFSR recurrence (the feedback bit enters
/// `q0`), and any cells beyond `q{k-1}` extend the register as a delay
/// line. One *pattern* is the register window `q0..q{width-1}` sampled
/// every `width` clocks, with pattern bit `i` = cell `q{width-1-i}` (the
/// oldest bit of the window first). This software model is **bit-exact**
/// against the synthesized mixed-generator netlist — that equivalence is
/// what lets the mode decoder recognize the hand-over state.
///
/// # The stream model
///
/// The register is a window onto one bit stream `s`, with `s(τ)` the bit
/// that enters `q0` at clock `τ`:
///
/// * `s(τ) = ⊕ s(τ − t)` over the polynomial's taps `t`, for `τ ≥ 1`;
/// * `s(−i)` is bit `i` of the starting LFSR state for `i < k`, and `0`
///   past the degree (the delay line powers up clear);
/// * after `t` clocks cell `q{i}` holds `s(t − i)`, so pattern `n`
///   (counting from 1) is `s((n−1)·w + 1) … s(n·w)` in bit order;
/// * [`ScanExpander::lfsr_state`] is the last `k` stream bits (bit `i` =
///   `s(t − i)`), and [`ScanExpander::chain`] is the `width`-bit window
///   ending at the current clock.
///
/// The next 64 stream bits are a linear function of the `k`-bit state,
/// so the expander produces the stream 64 bits per step from byte-sliced
/// tables built once per expander, and cuts patterns out of it with word
/// shifts. The state after a step is the step's last `k` bits, since
/// `k ≤ 63`.
///
/// # Example
///
/// ```
/// use bist_lfsr::{paper_poly, Lfsr, ScanExpander};
///
/// let lfsr = Lfsr::fibonacci(paper_poly(), 1);
/// let mut expander = ScanExpander::new(lfsr, 50); // e.g. C3540 has 50 inputs
/// let patterns = expander.patterns(200);
/// assert_eq!(patterns.len(), 200);
/// assert_eq!(patterns[0].len(), 50);
/// ```
#[derive(Clone)]
pub struct ScanExpander {
    poly: Polynomial,
    width: usize,
    /// The state at the current clock `t`: bit `i` is `s(t − i)`.
    state: u64,
    /// The state where the last pattern began, `width` clocks ago.
    last: u64,
    clocks: u64,
    leap: Leap,
}

impl ScanExpander {
    /// Creates an expander emitting `width`-bit patterns, taking the
    /// polynomial and current state from `lfsr`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    pub fn new(lfsr: Lfsr, width: usize) -> Self {
        assert!(width > 0, "pattern width must be positive");
        let poly = lfsr.poly();
        ScanExpander {
            poly,
            width,
            state: lfsr.state(),
            last: lfsr.state(),
            clocks: 0,
            leap: Leap::new(poly),
        }
    }

    /// The pattern width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The feedback polynomial.
    pub fn poly(&self) -> Polynomial {
        self.poly
    }

    /// Total register length, `max(width, k)`.
    pub fn register_len(&self) -> usize {
        self.width.max(self.poly.degree() as usize)
    }

    /// Clocks consumed so far (`width` per emitted pattern).
    pub fn clocks(&self) -> u64 {
        self.clocks
    }

    /// Advances `width` clocks and returns the resulting pattern.
    pub fn next_pattern(&mut self) -> Pattern {
        let mut state = self.state;
        let pattern = self.cut(&mut state);
        self.last = std::mem::replace(&mut self.state, state);
        self.clocks += self.width as u64;
        pattern
    }

    /// Emits the next `count` patterns.
    pub fn patterns(&mut self, count: usize) -> Vec<Pattern> {
        (0..count).map(|_| self.next_pattern()).collect()
    }

    /// The LFSR-part state (cells `q0..q{k-1}` as a bit mask) — the value
    /// the mixed generator's mode decoder recognizes at hand-over.
    pub fn lfsr_state(&self) -> u64 {
        self.state
    }

    /// The current pattern window (pattern bit `i` = cell
    /// `q{width-1-i}`).
    pub fn chain(&self) -> Pattern {
        if self.clocks == 0 {
            // the register as loaded: the state in q0..q{k-1}, clear above
            let k = self.poly.degree() as usize;
            return Pattern::from_fn(self.width, |i| {
                let cell = self.width - 1 - i;
                cell < k && (self.state >> cell) & 1 == 1
            });
        }
        self.cut(&mut self.last.clone())
    }

    /// The `width` stream bits after `state`, as a pattern; moves `state`
    /// past them.
    fn cut(&self, state: &mut u64) -> Pattern {
        let words = (0..self.width)
            .step_by(64)
            .map(|at| self.leap.take(state, (self.width - at).min(64) as u32))
            .collect();
        Pattern::from_words(self.width, words)
    }
}

impl fmt::Debug for ScanExpander {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanExpander")
            .field("poly", &self.poly)
            .field("width", &self.width)
            .field("clocks", &self.clocks)
            .field("lfsr_state", &self.state)
            .finish_non_exhaustive()
    }
}

/// The next 64 stream bits as a linear function of the `k`-bit state,
/// byte-sliced: `tables[b][v]` is the contribution of state byte `b`
/// holding `v`, and the bits after a state are the XOR of its bytes'
/// entries.
#[derive(Clone)]
struct Leap {
    tables: Vec<[u64; 256]>,
    /// The `k` state bits.
    mask: u64,
}

impl Leap {
    fn new(poly: Polynomial) -> Self {
        let k = poly.degree() as usize;
        // Run the recurrence from every unit state at once: lane `i` of
        // each word starts from state bit `i` alone, and `ring[(head + j)
        // % 64]` holds the lanes where `s(τ − 1 − j)` is 1. Tap `t` reads
        // `s(τ − t)`, state bit `t − 1`.
        let taps = poly.mask() >> 1;
        let mut ring = [0u64; 64];
        for (i, cell) in ring.iter_mut().enumerate().take(k) {
            *cell = 1 << i;
        }
        let mut head = 0usize;
        let mut bits = [0u64; 64];
        for out in &mut bits {
            let mut fb = 0;
            let mut rest = taps;
            while rest != 0 {
                fb ^= ring[(head + rest.trailing_zeros() as usize) % 64];
                rest &= rest - 1;
            }
            head = (head + 63) % 64;
            ring[head] = fb;
            *out = fb;
        }
        // bits[j] bit i → unit[i] bit j: the 64 bits after unit state i
        transpose64(&mut bits);
        let tables = (0..k.div_ceil(8))
            .map(|byte| {
                let mut table = [0u64; 256];
                for v in 1..256usize {
                    let bit = 8 * byte + v.trailing_zeros() as usize;
                    let unit = if bit < k { bits[bit] } else { 0 };
                    table[v] = table[v & (v - 1)] ^ unit;
                }
                table
            })
            .collect();
        Leap {
            tables,
            mask: (1u64 << k) - 1,
        }
    }

    /// The next `n` (1..=64) stream bits after `state`, the first in bit
    /// 0; moves `state` past them.
    #[inline]
    fn take(&self, state: &mut u64, n: u32) -> u64 {
        debug_assert!((1..=64).contains(&n));
        let next = self
            .tables
            .iter()
            .enumerate()
            .fold(0, |acc, (byte, table)| {
                acc ^ table[((*state >> (8 * byte)) & 0xff) as usize]
            });
        // new state bit i = s(t + n − i): stream bit n − 1 − i for i < n,
        // old state bit i − n above
        let shifted = state.checked_shl(n).unwrap_or(0);
        *state = (shifted | (next.reverse_bits() >> (64 - n))) & self.mask;
        next & (u64::MAX >> (64 - n))
    }
}

/// Convenience: the first `count` pseudo-random `width`-bit patterns from a
/// Fibonacci LFSR with polynomial `poly` and seed 1 — the configuration
/// every experiment in the paper uses.
pub fn pseudo_random_patterns(poly: crate::Polynomial, width: usize, count: usize) -> Vec<Pattern> {
    let lfsr = Lfsr::fibonacci(poly, 1);
    ScanExpander::new(lfsr, width).patterns(count)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::poly::{paper_poly, paper_poly_printed, primitive_poly};

    /// The register-level expander the stream model replaced, kept as the
    /// oracle: one `Vec<bool>` rotation per clock.
    struct SerialExpander {
        taps: Vec<u32>,
        reg: Vec<bool>,
        width: usize,
        k: usize,
        clocks: u64,
    }

    impl SerialExpander {
        fn new(lfsr: &Lfsr, width: usize) -> Self {
            let k = lfsr.poly().degree() as usize;
            let mut reg = vec![false; width.max(k)];
            for (i, cell) in reg.iter_mut().enumerate().take(k) {
                *cell = (lfsr.state() >> i) & 1 == 1;
            }
            SerialExpander {
                taps: lfsr.poly().taps(),
                reg,
                width,
                k,
                clocks: 0,
            }
        }

        fn clock(&mut self) {
            let fb = self
                .taps
                .iter()
                .fold(false, |acc, &t| acc ^ self.reg[(t - 1) as usize]);
            self.reg.rotate_right(1);
            self.reg[0] = fb;
            self.clocks += 1;
        }

        fn next_pattern(&mut self) -> Pattern {
            for _ in 0..self.width {
                self.clock();
            }
            self.chain()
        }

        fn lfsr_state(&self) -> u64 {
            (0..self.k).fold(0u64, |acc, i| acc | (u64::from(self.reg[i]) << i))
        }

        fn chain(&self) -> Pattern {
            Pattern::from_fn(self.width, |i| self.reg[self.width - 1 - i])
        }
    }

    /// A degree-`degree` polynomial with `x^degree`, `1` and a spread of
    /// middle terms picked by `salt` (primitive or not, the stream model
    /// holds for any).
    fn poly_of_degree(degree: u32, salt: u64) -> Polynomial {
        let middle = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << degree) - 1);
        Polynomial::from_mask((1u64 << degree) | middle | 1)
    }

    /// The starting state an LFSR on `poly` reaches from `seed` after
    /// `steps` clocks, in Fibonacci or Galois form.
    fn start(poly: Polynomial, seed: u64, steps: usize, galois: bool) -> Lfsr {
        let seed = (seed & ((1u64 << poly.degree()) - 1)).max(1);
        let mut lfsr = if galois {
            Lfsr::galois(poly, seed)
        } else {
            Lfsr::fibonacci(poly, seed)
        };
        lfsr.bits(steps);
        lfsr
    }

    /// Drives the stream expander and the serial oracle side by side
    /// through `next_pattern` and `patterns`, comparing every observable
    /// after every step.
    fn assert_matches_oracle(lfsr: &Lfsr, width: usize, rounds: usize) {
        let mut fast = ScanExpander::new(lfsr.clone(), width);
        let mut slow = SerialExpander::new(lfsr, width);
        let same = |fast: &ScanExpander, slow: &SerialExpander, at: &str| {
            let case = format!("{:?} width {width}, {at}", lfsr.poly());
            assert_eq!(fast.lfsr_state(), slow.lfsr_state(), "state: {case}");
            assert_eq!(fast.chain(), slow.chain(), "chain: {case}");
            assert_eq!(fast.clocks(), slow.clocks, "clocks: {case}");
        };
        same(&fast, &slow, "start");
        for round in 0..rounds {
            assert_eq!(fast.next_pattern(), slow.next_pattern(), "round {round}");
            same(&fast, &slow, "next_pattern");
            let batch = fast.patterns(round % 3);
            let expected: Vec<Pattern> = (0..round % 3).map(|_| slow.next_pattern()).collect();
            assert_eq!(batch, expected, "patterns, round {round}");
            same(&fast, &slow, "patterns");
        }
    }

    #[test]
    fn every_width_to_300_matches_the_serial_register() {
        for width in 1..=300 {
            let degree = 1 + (width as u32 * 7) % 63;
            let lfsr = start(
                poly_of_degree(degree, width as u64),
                1,
                width % 5,
                width % 2 == 0,
            );
            assert_matches_oracle(&lfsr, width, 4);
        }
    }

    #[test]
    fn every_degree_matches_the_serial_register_at_word_edges() {
        for degree in 1..=63 {
            let poly = poly_of_degree(degree, u64::from(degree));
            for width in [1, 63, 64, 65, 127, 128, 129] {
                for galois in [false, true] {
                    assert_matches_oracle(&start(poly, 0x5eed, 3, galois), width, 3);
                }
            }
        }
    }

    #[test]
    fn named_polynomials_match_the_serial_register() {
        // the paper's primitive polynomial, its printed non-primitive
        // form, and the tabulated primitive ones
        let mut polys = vec![paper_poly(), paper_poly_printed()];
        polys.extend([2, 8, 16, 32].map(primitive_poly));
        for poly in polys {
            for width in [5, 36, 178, 207, 233] {
                assert_matches_oracle(&start(poly, 1, 0, false), width, 6);
                assert_matches_oracle(&start(poly, 0xace1, 17, true), width, 6);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_expanders_match_the_serial_register(
            width in 1usize..=300,
            degree in 1u32..=63,
            salt in any::<u64>(),
            seed in any::<u64>(),
            galois in any::<bool>(),
        ) {
            let lfsr = start(poly_of_degree(degree, salt), seed, (seed >> 58) as usize, galois);
            assert_matches_oracle(&lfsr, width, 5);
        }
    }

    #[test]
    fn patterns_are_deterministic() {
        let a = ScanExpander::new(Lfsr::fibonacci(paper_poly(), 1), 36).patterns(50);
        let b = ScanExpander::new(Lfsr::fibonacci(paper_poly(), 1), 36).patterns(50);
        assert_eq!(a, b);
    }

    #[test]
    fn patterns_look_random() {
        // ones density near 50 % over a long stretch
        let ps = ScanExpander::new(Lfsr::fibonacci(paper_poly(), 1), 64).patterns(500);
        let ones: usize = ps.iter().map(Pattern::count_ones).sum();
        let total = 500 * 64;
        let density = ones as f64 / total as f64;
        assert!((0.45..0.55).contains(&density), "density {density}");
    }

    #[test]
    fn consecutive_patterns_differ() {
        let ps = ScanExpander::new(Lfsr::fibonacci(paper_poly(), 1), 50).patterns(100);
        for w in ps.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn chain_matches_last_pattern() {
        let mut e = ScanExpander::new(Lfsr::fibonacci(primitive_poly(8), 1), 20);
        let p = e.next_pattern();
        assert_eq!(e.chain(), p);
    }

    #[test]
    fn lfsr_part_tracks_the_software_stepper() {
        // the register's first k cells must follow the plain LFSR stepped
        // the same number of clocks
        let poly = primitive_poly(8);
        let mut e = ScanExpander::new(Lfsr::fibonacci(poly, 1), 20);
        let mut sw = Lfsr::fibonacci(poly, 1);
        for _ in 0..7 {
            e.next_pattern();
            for _ in 0..20 {
                sw.step();
            }
            assert_eq!(e.lfsr_state(), sw.state());
        }
    }

    #[test]
    fn narrow_patterns_are_state_windows() {
        // width <= k: pattern bit i = state bit (width-1-i)
        let poly = primitive_poly(8);
        let mut e = ScanExpander::new(Lfsr::fibonacci(poly, 1), 5);
        let mut sw = Lfsr::fibonacci(poly, 1);
        for _ in 0..10 {
            let p = e.next_pattern();
            for _ in 0..5 {
                sw.step();
            }
            for i in 0..5 {
                assert_eq!(p.get(i), (sw.state() >> (4 - i)) & 1 == 1);
            }
        }
    }

    #[test]
    fn convenience_helper_matches_expander() {
        let a = pseudo_random_patterns(paper_poly(), 41, 30);
        let b = ScanExpander::new(Lfsr::fibonacci(paper_poly(), 1), 41).patterns(30);
        assert_eq!(a, b);
    }

    #[test]
    fn clock_accounting() {
        let mut e = ScanExpander::new(Lfsr::fibonacci(paper_poly(), 1), 33);
        e.patterns(4);
        assert_eq!(e.clocks(), 4 * 33);
        assert_eq!(e.register_len(), 33);
    }
}
