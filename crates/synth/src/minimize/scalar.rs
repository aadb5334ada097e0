//! The scalar minimizer the bit-sliced kernel replaced, kept as a test
//! oracle: one `Cube` per candidate, containment one minterm at a time.
//! The property tests in the parent module assert that the kernel picks
//! exactly the terms, in exactly the order, that this reference picks.

// determinism-vetted: both hash maps below deduplicate/index cubes via
// entry()/insert() in minterm order and are never iterated
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

use bist_logicsim::Pattern;

use super::{OutputSpec, SynthesisOptions};
use crate::cube::Cube;
use crate::network::OutputFunc;

/// Transposed view of a minterm set: one multi-word bit column per
/// variable, bit `j` of column `v` being minterm `j`'s value of variable
/// `v`.
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

    /// The mask of minterms *agreeing* with literal `(var, polarity)`.
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
        let mut covers_off = false;
        for w in 0..words {
            if prefix[w] & suffix[k + 1][w] & off.valid[w] != 0 {
                covers_off = true;
                break;
            }
        }
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

pub(super) fn expand_all(width: usize, spec: &OutputSpec) -> Vec<Cube> {
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

pub(super) fn greedy_cover(on: &[Pattern], candidates: Vec<Cube>) -> Vec<Cube> {
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

/// The AND plane and OR plane the scalar minimizer synthesizes.
pub(super) fn synthesize_pla_with(
    width: usize,
    specs: &[OutputSpec],
    options: SynthesisOptions,
) -> (Vec<Cube>, Vec<OutputFunc>) {
    let mut terms: Vec<Cube> = Vec::new();
    #[allow(clippy::disallowed_types)]
    let mut term_index: HashMap<Cube, usize> = HashMap::new();
    let mut outputs = Vec::with_capacity(specs.len());

    for spec in specs {
        if spec.on.is_empty() {
            outputs.push(OutputFunc::Const(false));
            continue;
        }
        if spec.off.is_empty() {
            outputs.push(OutputFunc::Const(true));
            continue;
        }
        let mut candidates = expand_all(width, spec);
        if options.share_terms {
            for t in &terms {
                if spec.off.iter().all(|m| !t.contains(m))
                    && spec.on.iter().any(|m| t.contains(m))
                    && !candidates.contains(t)
                {
                    candidates.push(t.clone());
                }
            }
        }
        let selected = greedy_cover(&spec.on, candidates);
        let mut indices = Vec::with_capacity(selected.len());
        for cube in selected {
            let idx = if options.share_terms {
                *term_index.entry(cube.clone()).or_insert_with(|| {
                    terms.push(cube.clone());
                    terms.len() - 1
                })
            } else {
                terms.push(cube.clone());
                terms.len() - 1
            };
            indices.push(idx);
        }
        indices.sort_unstable();
        indices.dedup();
        outputs.push(OutputFunc::Terms(indices));
    }
    (terms, outputs)
}
