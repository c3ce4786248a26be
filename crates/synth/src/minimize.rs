// determinism-vetted: the one hash map below deduplicates one output's
// expanded cubes via insert()/get() in row order and is never iterated
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

use bist_logicsim::Pattern;

use crate::cube::{set_bits, Cube};
use crate::network::{OutputFunc, TwoLevelNetwork};

#[cfg(test)]
mod reference;

/// A care table transposed into row masks: bit `i` of a mask (word `i /
/// 64`, bit `i % 64`) stands for row `i`. Every row set the minimizer
/// handles (an output's on- and off-rows, the rows a cube contains) is
/// such a mask, so set tests are word operations.
struct Table<'a> {
    width: usize,
    words: usize,
    inputs: &'a [Pattern],
    /// `lits[(2 * v + p) * words..][..words]`: the rows whose input
    /// variable `v` equals `p` (the rows literal `(v, p)` agrees with).
    lits: Vec<u64>,
    /// `outs[b * words..][..words]`: the rows where output `b` is 1.
    outs: Vec<u64>,
    valid: Vec<u64>,
}

impl<'a> Table<'a> {
    fn new(width: usize, inputs: &'a [Pattern], outputs: &[Pattern]) -> Self {
        assert_eq!(inputs.len(), outputs.len(), "one output row per input row");
        let num_outputs = outputs.first().map_or(0, Pattern::len);
        let words = inputs.len().div_ceil(64).max(1);
        let mut valid = vec![0u64; words];
        let mut ones = vec![0u64; width * words];
        let mut outs = vec![0u64; num_outputs * words];
        for (i, (input, output)) in inputs.iter().zip(outputs).enumerate() {
            assert_eq!(input.len(), width, "row {i}: input width mismatch");
            assert_eq!(output.len(), num_outputs, "row {i}: output width mismatch");
            let (w, bit) = (i / 64, 1u64 << (i % 64));
            valid[w] |= bit;
            for v in set_bits(input.words().iter().copied()) {
                ones[v * words + w] |= bit;
            }
            for b in set_bits(output.words().iter().copied()) {
                outs[b * words + w] |= bit;
            }
        }
        let mut lits = Vec::with_capacity(2 * width * words);
        for col in ones.chunks_exact(words) {
            lits.extend(col.iter().zip(&valid).map(|(&c, &ok)| !c & ok));
            lits.extend_from_slice(col);
        }
        Table {
            width,
            words,
            inputs,
            lits,
            outs,
            valid,
        }
    }

    /// The rows literal `(var, polarity)` agrees with.
    fn lit(&self, var: usize, polarity: bool) -> &[u64] {
        let at = (2 * var + usize::from(polarity)) * self.words;
        &self.lits[at..at + self.words]
    }

    /// Expands row `row`'s minterm against the `off` rows in one greedy
    /// pass: literals are dropped, in the order `(k + rotation) % width`,
    /// whenever the grown cube still avoids every off row. On return
    /// `prefix` holds the rows the cube contains; `suffix` is scratch of
    /// `(width + 1) * words` words.
    ///
    /// # Panics
    ///
    /// Panics if an off row has the same input as `row`.
    fn expand(
        &self,
        row: usize,
        off: &[u64],
        rotation: usize,
        suffix: &mut [u64],
        prefix: &mut [u64],
    ) -> Cube {
        let (width, words) = (self.width, self.words);
        let m = &self.inputs[row];
        let var = |k: usize| (k + rotation) % width;
        // suffix block k: the rows agreeing with every literal var(k..)
        suffix[width * words..].copy_from_slice(&self.valid);
        for k in (0..width).rev() {
            let v = var(k);
            let (head, tail) = suffix.split_at_mut((k + 1) * words);
            for ((s, &rest), &a) in head[k * words..]
                .iter_mut()
                .zip(&tail[..words])
                .zip(self.lit(v, m.get(v)))
            {
                *s = rest & a;
            }
        }
        assert!(
            !intersects(&suffix[..words], off),
            "inconsistent table: row {row}'s input is also an off row"
        );
        prefix.copy_from_slice(&self.valid);
        let mut cube = Cube::from_minterm(m);
        for k in 0..width {
            let v = var(k);
            // dropping v would cover an off row only if one agrees with
            // every literal kept so far and every later one
            let rest = &suffix[(k + 1) * words..(k + 2) * words];
            let covers_off = prefix
                .iter()
                .zip(rest)
                .zip(off)
                .any(|((&p, &r), &o)| p & r & o != 0);
            if covers_off {
                for (p, &a) in prefix.iter_mut().zip(self.lit(v, m.get(v))) {
                    *p &= a;
                }
            } else {
                cube.remove_literal(v);
            }
        }
        cube
    }
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

fn popcount_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

/// Greedy set cover of the `on` rows by candidates given as row masks
/// (`masks`, `words` words each). Each round takes the candidate covering
/// the most still-uncovered rows, the *last* one on ties; returns the
/// chosen candidates in selection order.
fn greedy_cover(on: &[u64], masks: &[u64], words: usize) -> Vec<usize> {
    let mut uncovered = on.to_vec();
    let mut remaining: usize = on.iter().map(|w| w.count_ones() as usize).sum();
    let mut selected = Vec::new();
    while remaining > 0 {
        let (best, gain) = masks
            .chunks_exact(words)
            .map(|mask| popcount_and(mask, &uncovered))
            .enumerate()
            .max_by_key(|&(_, gain)| gain)
            .expect("on-set non-empty implies candidates exist");
        assert!(gain > 0, "cover stalled: inconsistent candidates");
        for (u, &m) in uncovered.iter_mut().zip(&masks[best * words..]) {
            *u &= !m;
        }
        remaining -= gain;
        selected.push(best);
    }
    selected
}

/// One output's cover candidate.
enum Candidate {
    /// A cube expanded from one of the output's on-rows, new to the pool.
    Expanded(Cube),
    /// The pooled term with this index.
    Pooled(usize),
}

/// Synthesizes a multi-output two-level network from a care table.
///
/// Row `i` maps `inputs[i]` (`width` bits) to `outputs[i]` (one bit per
/// network output; the output count is the rows' output width, zero for
/// an empty table). Every input no row lists is a don't-care. This is
/// exactly the LFSROM situation: of the `2^w` register states only the
/// `d` sequence states are ever visited, so the minimizer has an
/// astronomically large don't-care set to expand into.
///
/// Outputs are minimized in order, each by espresso-style EXPAND of its
/// on-rows against its off-rows (single-pass greedy literal removal)
/// and a greedy irredundant cover. A product term selected for one output
/// is offered to later outputs whose off-rows it avoids, modelling
/// PLA-style AND-plane sharing. An output with no on-row is constant 0;
/// one with no off-row is constant 1.
///
/// # Panics
///
/// Panics if `inputs` and `outputs` differ in length, if an input is not
/// `width` bits wide or the outputs differ in width, or if two rows with
/// the same input disagree on an output (an inconsistent table).
pub fn synthesize_pla(width: usize, inputs: &[Pattern], outputs: &[Pattern]) -> TwoLevelNetwork {
    let table = Table::new(width, inputs, outputs);
    let words = table.words;
    let mut suffix = vec![0u64; (width + 1) * words];
    let mut prefix = vec![0u64; words];
    let mut off = vec![0u64; words];

    let mut terms: Vec<Cube> = Vec::new();
    // the rows each term contains, `words` words per term
    let mut term_masks: Vec<u64> = Vec::new();
    // this output's candidates, their row masks, and the candidate index
    // of each expanded cube
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut masks: Vec<u64> = Vec::new();
    #[allow(clippy::disallowed_types)]
    let mut seen: HashMap<Cube, usize> = HashMap::new();

    let mut funcs = Vec::new();
    for on in table.outs.chunks_exact(words) {
        for ((o, &v), &n) in off.iter_mut().zip(&table.valid).zip(on) {
            *o = v & !n;
        }
        if on.iter().all(|&w| w == 0) {
            funcs.push(OutputFunc::Const(false));
            continue;
        }
        if off.iter().all(|&w| w == 0) {
            funcs.push(OutputFunc::Const(true));
            continue;
        }
        seen.clear();
        candidates.clear();
        masks.clear();
        for (j, row) in set_bits(on.iter().copied()).enumerate() {
            let cube = table.expand(row, &off, j % width.max(1), &mut suffix, &mut prefix);
            if !seen.contains_key(&cube) {
                seen.insert(cube.clone(), candidates.len());
                candidates.push(Candidate::Expanded(cube));
                masks.extend_from_slice(&prefix);
            }
        }
        // offer pooled terms that avoid this output's off rows and cover
        // one of its on rows; one that was also expanded keeps its place
        for (t, mask) in term_masks.chunks_exact(words).enumerate() {
            if !intersects(mask, &off) && intersects(mask, on) {
                match seen.get(&terms[t]) {
                    Some(&c) => candidates[c] = Candidate::Pooled(t),
                    None => {
                        candidates.push(Candidate::Pooled(t));
                        masks.extend_from_slice(mask);
                    }
                }
            }
        }
        let mut indices: Vec<usize> = greedy_cover(on, &masks, words)
            .into_iter()
            .map(|c| match &candidates[c] {
                Candidate::Pooled(t) => *t,
                Candidate::Expanded(cube) => {
                    terms.push(cube.clone());
                    term_masks.extend_from_slice(&masks[c * words..(c + 1) * words]);
                    terms.len() - 1
                }
            })
            .collect();
        indices.sort_unstable();
        funcs.push(OutputFunc::Terms(indices));
    }
    TwoLevelNetwork::new(width, terms, funcs)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn p(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    /// The care table of `(input, output)` rows.
    fn table(rows: &[(&str, &str)]) -> (Vec<Pattern>, Vec<Pattern>) {
        rows.iter().map(|&(i, o)| (p(i), p(o))).unzip()
    }

    #[test]
    fn single_literal_collapse() {
        // on = {110, 111}, off = {000, 001}: variable 0 separates them.
        let (inputs, outputs) = table(&[("110", "1"), ("111", "1"), ("000", "0"), ("001", "0")]);
        let net = synthesize_pla(3, &inputs, &outputs);
        assert_eq!(net.num_terms(), 1);
        assert_eq!(net.num_literals(), 1);
    }

    #[test]
    fn cover_is_correct_on_all_care_minterms() {
        let (inputs, outputs) = table(&[
            ("0011", "10"),
            ("1011", "11"),
            ("1110", "10"),
            ("0000", "00"),
            ("1000", "01"),
            ("0110", "00"),
        ]);
        let net = synthesize_pla(4, &inputs, &outputs);
        for (input, output) in inputs.iter().zip(&outputs) {
            assert_eq!(&net.eval(input), output, "row {input}");
        }
    }

    #[test]
    fn dont_cares_shrink_the_cover() {
        // with a full truth table (no DCs) the parity function needs 2^{n-1}
        // terms; with only 2 care minterms it needs 1.
        let (inputs, outputs) = table(&[("10101010", "1"), ("01010101", "0")]);
        let net = synthesize_pla(8, &inputs, &outputs);
        assert_eq!(net.num_terms(), 1);
        assert_eq!(net.num_literals(), 1, "one literal distinguishes them");
    }

    #[test]
    fn constant_outputs() {
        let (inputs, outputs) = table(&[("000", "01")]);
        let net = synthesize_pla(3, &inputs, &outputs);
        assert_eq!(net.num_terms(), 0);
        assert_eq!(net.eval(&p("101")).to_string(), "01");
    }

    #[test]
    fn sharing_reuses_terms() {
        // two outputs with identical care sets share their single term
        let (inputs, outputs) = table(&[("110", "11"), ("111", "11"), ("000", "00")]);
        let shared = synthesize_pla(3, &inputs, &outputs);
        assert_eq!(shared.num_terms(), 1);
        assert_eq!(shared.or_plane_size(), 2);
    }

    #[test]
    #[should_panic(expected = "inconsistent table")]
    fn conflicting_rows_panic() {
        let (inputs, outputs) = table(&[("01", "1"), ("10", "0"), ("01", "0")]);
        synthesize_pla(2, &inputs, &outputs);
    }

    #[test]
    fn random_specs_evaluate_correctly() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let width = rng.gen_range(4..40);
            let count = rng.gen_range(2..30);
            let mut inputs: Vec<Pattern> = Vec::new();
            while inputs.len() < count {
                let m = Pattern::random(&mut rng, width);
                if !inputs.contains(&m) {
                    inputs.push(m);
                }
            }
            let split = rng.gen_range(1..inputs.len());
            let outputs: Vec<Pattern> = (0..count)
                .map(|i| Pattern::from_fn(1, |_| i < split))
                .collect();
            let net = synthesize_pla(width, &inputs, &outputs);
            for (m, o) in inputs.iter().zip(&outputs) {
                assert_eq!(net.eval(m).get(0), o.get(0), "trial {trial}: row {m}");
            }
        }
    }

    /// A random care table: `rows` distinct inputs of `width` bits drawn
    /// at a biased density, and `outputs` output columns, each constant,
    /// sparse, balanced, dense, or a copy (exact or with a few flips) of
    /// an earlier column, so constant outputs and heavy sharing both
    /// occur. With `outputs == 0` the table is LFSROM-shaped instead: row
    /// `i`'s output is row `i + 1`'s input.
    fn random_table(
        rng: &mut StdRng,
        width: usize,
        rows: usize,
        outputs: usize,
    ) -> (Vec<Pattern>, Vec<Pattern>) {
        let density = [0.5, 0.1, 0.9][rng.gen_range(0..3usize)];
        let mut distinct = BTreeSet::new();
        let mut inputs = Vec::new();
        for _ in 0..rows * 20 {
            if inputs.len() == rows {
                break;
            }
            let m = Pattern::from_fn(width, |_| rng.gen_bool(density));
            if distinct.insert(m.clone()) {
                inputs.push(m);
            }
        }
        let n = inputs.len();
        if outputs == 0 {
            let next = (0..n).map(|i| inputs[(i + 1) % n].clone()).collect();
            return (inputs, next);
        }
        let mut cols: Vec<Vec<bool>> = Vec::with_capacity(outputs);
        for _ in 0..outputs {
            let col = match rng.gen_range(0..8) {
                0 => vec![false; n],
                1 => vec![true; n],
                kind @ (2..=4) => {
                    let d = [0.03, 0.5, 0.97][kind - 2];
                    (0..n).map(|_| rng.gen_bool(d)).collect()
                }
                kind if cols.is_empty() || kind == 5 => (0..n).map(|_| rng.gen_bool(0.5)).collect(),
                kind => {
                    let mut col = cols[rng.gen_range(0..cols.len())].clone();
                    if kind == 7 {
                        for _ in 0..3 {
                            let i = rng.gen_range(0..n);
                            col[i] = !col[i];
                        }
                    }
                    col
                }
            };
            cols.push(col);
        }
        let outputs = (0..n)
            .map(|i| Pattern::from_fn(outputs, |b| cols[b][i]))
            .collect();
        (inputs, outputs)
    }

    #[test]
    fn networks_equal_the_per_output_reference() {
        let mut rng = StdRng::seed_from_u64(0x5eed_7ab1e);
        // the extremes of every dimension, then random shapes
        let mut shapes = vec![
            (1, 2, 1),
            (1, 2, 239),
            (239, 400, 0),
            (239, 120, 239),
            (64, 64, 65),
            (65, 65, 64),
            (128, 129, 0),
        ];
        for _ in 0..40 {
            let width = rng.gen_range(1..=239);
            let max_rows = if width < 9 { 1usize << width } else { 400 };
            // most tables small, a few up to the 400-row limit
            let row_cap = rng.gen_range(2..=400);
            let rows = rng.gen_range(1..=max_rows.min(row_cap));
            let output_cap = rng.gen_range(1..=239);
            let outputs = if rng.gen_bool(0.15) {
                0
            } else {
                rng.gen_range(1..=output_cap)
            };
            shapes.push((width, rows, outputs));
        }
        for (trial, &(width, rows, outputs)) in shapes.iter().enumerate() {
            let (inputs, outputs) = random_table(&mut rng, width, rows, outputs);
            let net = synthesize_pla(width, &inputs, &outputs);
            assert_eq!(
                net,
                reference::synthesize(width, &inputs, &outputs),
                "trial {trial}: width {width}, {} rows, {} outputs",
                inputs.len(),
                outputs[0].len()
            );
            for (input, output) in inputs.iter().zip(&outputs) {
                assert_eq!(&net.eval(input), output, "trial {trial}: row {input}");
            }
        }
    }
}
