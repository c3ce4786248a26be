use std::fmt;
use std::str::FromStr;

use bist_netlist::Circuit;
use rand::Rng;

/// A single test pattern: an ordered vector of input bits.
///
/// Bit `i` drives primary input `circuit.inputs()[i]`. Patterns are the
/// currency of the whole workspace: the LFSR emits them, the fault
/// simulator grades them, the ATPG produces them and the LFSROM synthesizer
/// encodes them into hardware.
///
/// # Example
///
/// ```
/// use bist_logicsim::Pattern;
///
/// let p: Pattern = "10110".parse()?;
/// assert_eq!(p.len(), 5);
/// assert!(p.get(0));
/// assert!(!p.get(1));
/// assert_eq!(p.to_string(), "10110");
/// # Ok::<(), bist_logicsim::ParsePatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    words: Vec<u64>,
    len: usize,
}

impl Pattern {
    /// All-zero pattern of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Pattern {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Builds a pattern by evaluating `f` at every bit position.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut p = Pattern::zeros(len);
        for i in 0..len {
            if f(i) {
                p.set(i, true);
            }
        }
        p
    }

    /// Builds a pattern from its bits packed 64 to a word, bit `i` at
    /// `words[i / 64] >> (i % 64)` (the layout of [`Pattern::words`]).
    /// Bits past `len` are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold exactly `len.div_ceil(64)` words.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "{len} bits take {} words",
            len.div_ceil(64)
        );
        let mut p = Pattern { words, len };
        p.mask_tail();
        p
    }

    /// Builds a pattern from a bit slice (`bits[i]` becomes bit `i`).
    pub fn from_bits(bits: &[bool]) -> Self {
        Pattern::from_fn(bits.len(), |i| bits[i])
    }

    /// Uniformly random pattern of `len` bits.
    pub fn random(rng: &mut impl Rng, len: usize) -> Self {
        let mut p = Pattern::zeros(len);
        for w in &mut p.words {
            *w = rng.gen();
        }
        p.mask_tail();
        p
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the pattern has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        if value {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// The bits packed 64 to a word, bit `i` at `words()[i / 64] >> (i %
    /// 64)`. Bits past `len()` in the last word are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits set to 1.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the bits, LSB (input 0) first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The bits as a `Vec<bool>`.
    pub fn to_bits(&self) -> Vec<bool> {
        self.iter().collect()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

/// Error returned when parsing a [`Pattern`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError {
    offset: usize,
    found: char,
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid pattern character `{}` at offset {}",
            self.found, self.offset
        )
    }
}

impl std::error::Error for ParsePatternError {}

impl FromStr for Pattern {
    type Err = ParsePatternError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Pattern::zeros(s.chars().count());
        for (i, c) in s.chars().enumerate() {
            match c {
                '0' => {}
                '1' => p.set(i, true),
                found => return Err(ParsePatternError { offset: i, found }),
            }
        }
        Ok(p)
    }
}

/// Up to 64 patterns packed bit-parallel: one `u64` word per primary input,
/// bit `j` of each word belonging to pattern `j`.
///
/// This is the input format of [`PackedSim`](crate::PackedSim) and of the
/// PPSFP fault simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    words: Vec<u64>,
    count: usize,
}

impl PatternBlock {
    /// Packs up to 64 patterns for `circuit` (the pattern width must equal
    /// the circuit's input count).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are supplied, if `patterns` is
    /// empty, or if any pattern width mismatches the circuit.
    pub fn pack(circuit: &Circuit, patterns: &[Pattern]) -> Self {
        let mut block = PatternBlock {
            words: Vec::new(),
            count: 0,
        };
        block.pack_into(circuit, patterns);
        block
    }

    /// Re-packs `patterns` into this block, reusing its word buffer — the
    /// allocation-free form of [`PatternBlock::pack`] for engines that pack
    /// one block per 64-pattern chunk of a long sequence.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PatternBlock::pack`].
    pub fn pack_into(&mut self, circuit: &Circuit, patterns: &[Pattern]) {
        assert!(!patterns.is_empty(), "cannot pack zero patterns");
        assert!(patterns.len() <= 64, "a block holds at most 64 patterns");
        let width = circuit.inputs().len();
        for p in patterns {
            assert_eq!(
                p.len(),
                width,
                "pattern width {} does not match circuit inputs {}",
                p.len(),
                width
            );
        }
        // one 64 × 64 tile per word of input positions: row j is pattern
        // j's word, and the transpose turns it into one word per input
        self.words.clear();
        let mut tile = [0u64; 64];
        for w in 0..width.div_ceil(64) {
            tile.fill(0);
            for (row, p) in tile.iter_mut().zip(patterns) {
                *row = p.words[w];
            }
            transpose64(&mut tile);
            self.words.extend(&tile[..(width - 64 * w).min(64)]);
        }
        self.count = patterns.len();
    }

    /// Number of patterns in the block (1..=64).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Bit-mask with one bit set per valid pattern slot.
    pub fn valid_mask(&self) -> u64 {
        if self.count == 64 {
            !0
        } else {
            (1u64 << self.count) - 1
        }
    }

    /// The packed word for primary input `i`.
    pub fn input_word(&self, i: usize) -> u64 {
        self.words[i]
    }

    /// All packed words, indexed by primary input position.
    pub fn input_words(&self) -> &[u64] {
        &self.words
    }
}

/// Transposes a 64 × 64 bit matrix in place: bit `j` of word `i` moves to
/// bit `i` of word `j`. Six rounds of block swaps, each exchanging the
/// off-diagonal halves of every block (32 × 32 blocks first, then 16 ×
/// 16, down to single bits).
pub fn transpose64(m: &mut [u64; 64]) {
    let mut span = 32;
    let mut mask = 0x0000_0000_FFFF_FFFF_u64;
    while span != 0 {
        for i in (0..64).filter(|i| i & span == 0) {
            let t = ((m[i] >> span) ^ m[i | span]) & mask;
            m[i] ^= t << span;
            m[i | span] ^= t;
        }
        span >>= 1;
        mask ^= mask << span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn set_get_round_trip() {
        let mut p = Pattern::zeros(130);
        p.set(0, true);
        p.set(64, true);
        p.set(129, true);
        assert!(p.get(0) && p.get(64) && p.get(129));
        assert!(!p.get(1) && !p.get(63) && !p.get(128));
        assert_eq!(p.count_ones(), 3);
    }

    #[test]
    fn parse_display_round_trip() {
        let s = "0110010111";
        let p: Pattern = s.parse().unwrap();
        assert_eq!(p.to_string(), s);
    }

    #[test]
    fn parse_rejects_garbage() {
        let e = "01x".parse::<Pattern>().unwrap_err();
        assert_eq!(e.to_string(), "invalid pattern character `x` at offset 2");
    }

    #[test]
    fn random_respects_width() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = Pattern::random(&mut rng, 70);
        assert_eq!(p.len(), 70);
        // tail bits beyond len are zero: re-set them and compare
        let q = Pattern::from_fn(70, |i| p.get(i));
        assert_eq!(p, q);
    }

    #[test]
    fn pack_transposes_correctly() {
        let c17 = bist_netlist::iscas85::c17();
        let p0: Pattern = "10000".parse().unwrap();
        let p1: Pattern = "01000".parse().unwrap();
        let block = PatternBlock::pack(&c17, &[p0, p1]);
        assert_eq!(block.count(), 2);
        assert_eq!(block.input_word(0), 0b01); // input 0 high in pattern 0
        assert_eq!(block.input_word(1), 0b10); // input 1 high in pattern 1
        assert_eq!(block.input_word(2), 0);
        assert_eq!(block.valid_mask(), 0b11);
    }

    #[test]
    fn pack_into_reuses_buffer_and_matches_pack() {
        let c17 = bist_netlist::iscas85::c17();
        let mut rng = StdRng::seed_from_u64(3);
        let a: Vec<Pattern> = (0..64).map(|_| Pattern::random(&mut rng, 5)).collect();
        let b: Vec<Pattern> = (0..17).map(|_| Pattern::random(&mut rng, 5)).collect();
        let mut reused = PatternBlock::pack(&c17, &a);
        reused.pack_into(&c17, &b);
        assert_eq!(reused, PatternBlock::pack(&c17, &b));
        assert_eq!(reused.count(), 17);
        assert_eq!(reused.valid_mask(), (1u64 << 17) - 1);
    }

    #[test]
    fn transpose64_moves_every_bit() {
        let mut rng = StdRng::seed_from_u64(64);
        let original: [u64; 64] = std::array::from_fn(|_| rng.gen());
        let mut m = original;
        transpose64(&mut m);
        for (i, row) in original.iter().enumerate() {
            for (j, col) in m.iter().enumerate() {
                assert_eq!((row >> j) & 1, (col >> i) & 1, "bit ({i}, {j})");
            }
        }
    }

    /// The packing the tiled transpose replaced: one `get` per (pattern,
    /// input).
    fn pack_per_bit(width: usize, patterns: &[Pattern]) -> Vec<u64> {
        (0..width)
            .map(|i| {
                patterns
                    .iter()
                    .enumerate()
                    .fold(0, |word, (j, p)| word | (u64::from(p.get(i)) << j))
            })
            .collect()
    }

    #[test]
    fn pack_into_equals_the_per_bit_loop() {
        let mut rng = StdRng::seed_from_u64(0x7a11);
        for width in [1usize, 63, 64, 65, 130] {
            let mut b = bist_netlist::CircuitBuilder::new("wide");
            for i in 0..width {
                b.add_input(&format!("i{i}")).expect("fresh name");
            }
            b.add_gate("y", bist_netlist::GateKind::Buf, &["i0"])
                .expect("gate");
            b.mark_output("y").expect("exists");
            let circuit = b.build().expect("valid");
            let mut block = PatternBlock::pack(&circuit, &[Pattern::zeros(width)]);
            for count in 1..=64 {
                let ps: Vec<Pattern> = (0..count)
                    .map(|_| Pattern::random(&mut rng, width))
                    .collect();
                block.pack_into(&circuit, &ps);
                assert_eq!(
                    block.input_words(),
                    &pack_per_bit(width, &ps)[..],
                    "width {width}, {count} patterns"
                );
                assert_eq!(block.count(), count);
            }
        }
    }

    #[test]
    fn from_words_clears_bits_past_len() {
        let p = Pattern::from_words(70, vec![!0, !0]);
        assert_eq!(p.count_ones(), 70);
        assert_eq!(p, Pattern::from_fn(70, |_| true));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn pack_rejects_oversize_block() {
        let c17 = bist_netlist::iscas85::c17();
        let ps: Vec<Pattern> = (0..65).map(|_| Pattern::zeros(5)).collect();
        PatternBlock::pack(&c17, &ps);
    }

    #[test]
    fn from_bits_matches_iter() {
        let bits = vec![true, false, true, true];
        let p = Pattern::from_bits(&bits);
        assert_eq!(p.to_bits(), bits);
    }
}
