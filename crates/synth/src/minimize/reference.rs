//! The per-output minimizer [`synthesize_pla`](super::synthesize_pla)
//! replaced, kept as the oracle its networks must equal bit for bit. It
//! clones every row into each output's on- or off-list and tests
//! containment minterm by minterm.

// determinism-vetted: both hash maps below deduplicate/index cubes via
// entry()/insert() in minterm order and are never iterated
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

use bist_logicsim::Pattern;

use crate::cube::Cube;
use crate::network::{OutputFunc, TwoLevelNetwork};

/// Care set of one output: minterms that must evaluate to 1 and to 0.
#[derive(Default, Clone)]
struct OutputSpec {
    on: Vec<Pattern>,
    off: Vec<Pattern>,
}

/// Transposed off-list: bit `j` of column `v` is off minterm `j`'s
/// value of variable `v`.
struct Columns {
    cols: Vec<Vec<u64>>,
    valid: Vec<u64>,
    words: usize,
}

impl Columns {
    fn new(width: usize, minterms: &[Pattern]) -> Self {
        let words = minterms.len().div_ceil(64).max(1);
        let mut cols = vec![vec![0u64; words]; width];
        for (j, m) in minterms.iter().enumerate() {
            for (v, col) in cols.iter_mut().enumerate() {
                if m.get(v) {
                    col[j / 64] |= 1 << (j % 64);
                }
            }
        }
        let mut valid = vec![0u64; words];
        for j in 0..minterms.len() {
            valid[j / 64] |= 1 << (j % 64);
        }
        Columns { cols, valid, words }
    }

    fn agree(&self, var: usize, polarity: bool, out: &mut [u64]) {
        for (w, slot) in out.iter_mut().enumerate().take(self.words) {
            let c = self.cols[var][w];
            *slot = if polarity { c } else { !c } & self.valid[w];
        }
    }
}

fn expand_minterm(width: usize, m: &Pattern, off: &Columns, rotation: usize) -> Cube {
    let words = off.words;
    let mut agree = vec![vec![0u64; words]; width];
    for (v, mask) in agree.iter_mut().enumerate() {
        off.agree(v, m.get(v), mask);
    }
    let order: Vec<usize> = (0..width).map(|i| (i + rotation) % width).collect();
    let mut suffix = vec![vec![!0u64; words]; width + 1];
    for k in (0..width).rev() {
        for w in 0..words {
            suffix[k][w] = suffix[k + 1][w] & agree[order[k]][w];
        }
    }
    let mut prefix = vec![!0u64; words];
    let mut cube = Cube::from_minterm(m);
    for (k, &v) in order.iter().enumerate() {
        let covers_off = (0..words).any(|w| prefix[w] & suffix[k + 1][w] & off.valid[w] != 0);
        if covers_off {
            for w in 0..words {
                prefix[w] &= agree[v][w];
            }
        } else {
            cube.remove_literal(v);
        }
    }
    cube
}

fn expand_all(width: usize, spec: &OutputSpec) -> Vec<Cube> {
    let off = Columns::new(width, &spec.off);
    #[allow(clippy::disallowed_types)]
    let mut seen = HashMap::new();
    let mut candidates = Vec::new();
    for (j, m) in spec.on.iter().enumerate() {
        let cube = expand_minterm(width, m, &off, j % width.max(1));
        if seen.insert(cube.clone(), true).is_none() {
            candidates.push(cube);
        }
    }
    candidates
}

fn greedy_cover(on: &[Pattern], candidates: Vec<Cube>) -> Vec<Cube> {
    let mut covered = vec![false; on.len()];
    let mut cover_sets: Vec<Vec<usize>> = candidates
        .iter()
        .map(|c| {
            on.iter()
                .enumerate()
                .filter(|(_, m)| c.contains(m))
                .map(|(j, _)| j)
                .collect()
        })
        .collect();
    let mut selected = Vec::new();
    let mut remaining = on.len();
    while remaining > 0 {
        let (best, _) = cover_sets
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.iter().filter(|&&j| !covered[j]).count())
            .expect("on-set non-empty implies candidates exist");
        let gain: Vec<usize> = cover_sets[best]
            .iter()
            .copied()
            .filter(|&j| !covered[j])
            .collect();
        assert!(!gain.is_empty(), "cover stalled: inconsistent candidates");
        for j in gain {
            covered[j] = true;
            remaining -= 1;
        }
        selected.push(candidates[best].clone());
        cover_sets[best].clear();
    }
    selected
}

/// The old `synthesize_pla` with term sharing on, fed the care table
/// `(inputs[i], outputs[i])` as one on/off list pair per output.
pub(super) fn synthesize(width: usize, inputs: &[Pattern], outputs: &[Pattern]) -> TwoLevelNetwork {
    let num_outputs = outputs.first().map_or(0, Pattern::len);
    let mut specs = vec![OutputSpec::default(); num_outputs];
    for (input, output) in inputs.iter().zip(outputs) {
        for (b, spec) in specs.iter_mut().enumerate() {
            if output.get(b) {
                spec.on.push(input.clone());
            } else {
                spec.off.push(input.clone());
            }
        }
    }
    let mut terms: Vec<Cube> = Vec::new();
    #[allow(clippy::disallowed_types)]
    let mut term_index: HashMap<Cube, usize> = HashMap::new();
    let mut funcs = Vec::with_capacity(specs.len());
    for spec in &specs {
        if spec.on.is_empty() {
            funcs.push(OutputFunc::Const(false));
            continue;
        }
        if spec.off.is_empty() {
            funcs.push(OutputFunc::Const(true));
            continue;
        }
        let mut candidates = expand_all(width, spec);
        for t in &terms {
            if spec.off.iter().all(|m| !t.contains(m))
                && spec.on.iter().any(|m| t.contains(m))
                && !candidates.contains(t)
            {
                candidates.push(t.clone());
            }
        }
        let mut indices: Vec<usize> = greedy_cover(&spec.on, candidates)
            .into_iter()
            .map(|cube| {
                *term_index.entry(cube.clone()).or_insert_with(|| {
                    terms.push(cube);
                    terms.len() - 1
                })
            })
            .collect();
        indices.sort_unstable();
        indices.dedup();
        funcs.push(OutputFunc::Terms(indices));
    }
    TwoLevelNetwork::new(width, terms, funcs)
}
