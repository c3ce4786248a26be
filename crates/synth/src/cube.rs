use std::fmt;

use bist_logicsim::Pattern;

/// A product term (cube) over `width` boolean variables, stored as two
/// multi-word literal masks: `pos` marks variables appearing as positive
/// literals, `neg` as negative literals. A variable in neither mask is
/// absent (don't-care within the cube).
///
/// # Example
///
/// ```
/// use bist_synth::Cube;
///
/// let minterm: bist_logicsim::Pattern = "101".parse()?;
/// let mut cube = Cube::from_minterm(&minterm); // a·b̄·c
/// assert_eq!(cube.num_literals(), 3);
/// cube.remove_literal(1);
/// assert_eq!(cube.num_literals(), 2); // a·c
/// assert!(cube.contains(&"101".parse()?));
/// assert!(cube.contains(&"111".parse()?));
/// assert!(!cube.contains(&"011".parse()?));
/// # Ok::<(), bist_logicsim::ParsePatternError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    width: usize,
    pos: Vec<u64>,
    neg: Vec<u64>,
}

impl Cube {
    /// The cube covering the whole space (no literals).
    pub fn universe(width: usize) -> Self {
        let words = width.div_ceil(64);
        Cube {
            width,
            pos: vec![0; words],
            neg: vec![0; words],
        }
    }

    /// The full minterm cube of `pattern` (every variable a literal).
    pub fn from_minterm(pattern: &Pattern) -> Self {
        let width = pattern.len();
        let mut cube = Cube::universe(width);
        for i in 0..width {
            if pattern.get(i) {
                cube.pos[i / 64] |= 1 << (i % 64);
            } else {
                cube.neg[i / 64] |= 1 << (i % 64);
            }
        }
        cube
    }

    /// Number of variables of the underlying space.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The polarity of variable `var` inside the cube (`None` if absent).
    pub fn literal(&self, var: usize) -> Option<bool> {
        assert!(var < self.width, "variable {var} out of range");
        if (self.pos[var / 64] >> (var % 64)) & 1 == 1 {
            Some(true)
        } else if (self.neg[var / 64] >> (var % 64)) & 1 == 1 {
            Some(false)
        } else {
            None
        }
    }

    /// Sets variable `var` to the given polarity.
    pub fn set_literal(&mut self, var: usize, polarity: bool) {
        assert!(var < self.width, "variable {var} out of range");
        let (w, b) = (var / 64, 1u64 << (var % 64));
        if polarity {
            self.pos[w] |= b;
            self.neg[w] &= !b;
        } else {
            self.neg[w] |= b;
            self.pos[w] &= !b;
        }
    }

    /// Drops variable `var` from the cube (expanding it).
    pub fn remove_literal(&mut self, var: usize) {
        assert!(var < self.width, "variable {var} out of range");
        let (w, b) = (var / 64, 1u64 << (var % 64));
        self.pos[w] &= !b;
        self.neg[w] &= !b;
    }

    /// Number of literals in the cube.
    pub fn num_literals(&self) -> usize {
        self.pos
            .iter()
            .chain(self.neg.iter())
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Iterates over `(variable, polarity)` literals in ascending variable
    /// order (the fan-in order [`TwoLevelNetwork::emit`] gives each AND
    /// gate).
    ///
    /// [`TwoLevelNetwork::emit`]: crate::TwoLevelNetwork::emit
    pub fn literals(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let vars = self.pos.iter().zip(&self.neg).map(|(&p, &n)| p | n);
        set_bits(vars).map(|v| (v, (self.pos[v / 64] >> (v % 64)) & 1 == 1))
    }

    /// True if `minterm` satisfies every literal of the cube.
    pub fn contains(&self, minterm: &Pattern) -> bool {
        assert_eq!(minterm.len(), self.width, "minterm width mismatch");
        self.pos
            .iter()
            .zip(&self.neg)
            .zip(minterm.words())
            .all(|((&pos, &neg), &m)| m & pos == pos && m & neg == 0)
    }

    /// True if every minterm of `other` is contained in `self`
    /// (single-cube containment check).
    pub fn covers_cube(&self, other: &Cube) -> bool {
        assert_eq!(self.width, other.width);
        for (w, (&sp, &sn)) in self.pos.iter().zip(&self.neg).enumerate() {
            // every literal of self must appear in other with same polarity
            if sp & !other.pos[w] != 0 || sn & !other.neg[w] != 0 {
                return false;
            }
        }
        true
    }
}

/// Indices of the set bits of a bit set packed 64 to a word, ascending.
pub(crate) fn set_bits(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(w, word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(w * 64 + b)
        })
    })
}

impl fmt::Display for Cube {
    /// PLA-style row: `1` positive, `0` negative, `-` absent.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.width {
            let c = match self.literal(v) {
                Some(true) => '1',
                Some(false) => '0',
                None => '-',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_round_trip() {
        let p: Pattern = "0110".parse().unwrap();
        let c = Cube::from_minterm(&p);
        assert_eq!(c.num_literals(), 4);
        assert_eq!(c.to_string(), "0110");
        assert!(c.contains(&p));
        assert!(!c.contains(&"0111".parse().unwrap()));
    }

    #[test]
    fn expansion_grows_containment() {
        let p: Pattern = "0110".parse().unwrap();
        let mut c = Cube::from_minterm(&p);
        c.remove_literal(0);
        assert_eq!(c.to_string(), "-110");
        assert!(c.contains(&"1110".parse().unwrap()));
        assert!(c.contains(&"0110".parse().unwrap()));
        assert!(!c.contains(&"0100".parse().unwrap()));
    }

    #[test]
    fn universe_contains_everything() {
        let u = Cube::universe(7);
        assert_eq!(u.num_literals(), 0);
        assert!(u.contains(&"1010101".parse().unwrap()));
        assert_eq!(u.to_string(), "-------");
    }

    #[test]
    fn covers_cube_ordering() {
        let big: Cube = {
            let mut c = Cube::from_minterm(&"110".parse().unwrap());
            c.remove_literal(2);
            c
        };
        let small = Cube::from_minterm(&"110".parse().unwrap());
        assert!(big.covers_cube(&small));
        assert!(!small.covers_cube(&big));
        assert!(big.covers_cube(&big));
    }

    #[test]
    fn set_literal_flips_polarity() {
        let mut c = Cube::universe(3);
        c.set_literal(1, true);
        assert_eq!(c.literal(1), Some(true));
        c.set_literal(1, false);
        assert_eq!(c.literal(1), Some(false));
        assert_eq!(c.num_literals(), 1);
    }

    #[test]
    fn wide_cubes_cross_word_boundaries() {
        let p = Pattern::from_fn(130, |i| i % 3 == 0);
        let c = Cube::from_minterm(&p);
        assert_eq!(c.num_literals(), 130);
        assert_eq!(c.literal(129), Some(p.get(129)));
        assert!(c.contains(&p));
    }

    #[test]
    fn literals_ascend_across_word_boundaries() {
        let mut c = Cube::universe(130);
        for (v, pol) in [(129, true), (64, false), (0, true), (63, false), (65, true)] {
            c.set_literal(v, pol);
        }
        let lits: Vec<(usize, bool)> = c.literals().collect();
        assert_eq!(
            lits,
            [(0, true), (63, false), (64, false), (65, true), (129, true)]
        );
        let by_var: Vec<(usize, bool)> = (0..130)
            .filter_map(|v| c.literal(v).map(|p| (v, p)))
            .collect();
        assert_eq!(lits, by_var);
    }

    #[test]
    fn contains_agrees_with_every_literal_at_word_edges() {
        for width in [64, 65, 130] {
            let m = Pattern::from_fn(width, |i| i % 5 < 2);
            let mut c = Cube::universe(width);
            for v in [0, 1, 2, 63, width - 2, width - 1] {
                c.set_literal(v, m.get(v));
            }
            assert!(c.contains(&m), "width {width}");
            for v in [0, 63, width - 1] {
                let mut flipped = m.clone();
                flipped.set(v, !m.get(v));
                assert!(!c.contains(&flipped), "width {width}, variable {v}");
            }
            // a variable the cube omits may take either value
            let mut free = m.clone();
            free.set(32, !m.get(32));
            assert!(c.contains(&free), "width {width}");
            assert!(Cube::universe(width).contains(&free), "width {width}");
        }
    }
}
