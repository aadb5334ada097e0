// determinism-vetted: the hash containers below index term rows via
// get()/insert() in minterm and term order and are never iterated
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};

use bist_logicsim::Pattern;

use crate::cube::{self, Cube};
use crate::network::{OutputFunc, TwoLevelNetwork};

#[cfg(test)]
mod scalar;

/// Care-set specification of one output: minterms that must evaluate to 1
/// (`on`) and to 0 (`off`); *everything else is a don't-care*.
///
/// This is exactly the LFSROM situation: of the `2^w` possible register
/// states only the `d` sequence states are ever visited, so `on.len() +
/// off.len() == d` and the minimizer has an astronomically large don't-care
/// set to expand into.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OutputSpec {
    /// Minterms where the output must be 1.
    pub on: Vec<Pattern>,
    /// Minterms where the output must be 0.
    pub off: Vec<Pattern>,
}

/// Tuning knobs for [`synthesize_pla`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Reuse product terms across outputs (PLA-style sharing). Disabling
    /// this is the ablation knob for the paper's cost model: each output
    /// then pays for its own terms.
    pub share_terms: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions { share_terms: true }
    }
}

/// Bit-sliced literal table of one output's care minterms.
///
/// Bit `j` of every mask stands for care minterm `j`: the on-set first
/// (`j < on.len()`), then the off-set. A cube's containment set — the
/// care minterms it covers — is the AND of its literals' masks, so every
/// containment question the minimizer asks costs a few word operations
/// per literal.
struct LiteralTable {
    /// Words per mask.
    words: usize,
    /// First word holding an off-set bit.
    off_lo: usize,
    /// The mask of literal `(v, polarity)` is
    /// `masks[(2 * v + polarity) * words..][..words]`: the care minterms
    /// whose variable `v` equals `polarity`.
    masks: Vec<u64>,
    /// The on-set minterms.
    on: Vec<u64>,
    /// The off-set minterms.
    off: Vec<u64>,
}

impl LiteralTable {
    fn new(width: usize, spec: &OutputSpec) -> Self {
        let n_on = spec.on.len();
        let words = (n_on + spec.off.len()).div_ceil(64);
        let ones = cube::transpose(width, spec.on.iter().chain(&spec.off), words);
        let (mut on, mut off) = (vec![0u64; words], vec![0u64; words]);
        for (w, (on, off)) in on.iter_mut().zip(&mut off).enumerate() {
            let care = cube::word_mask(n_on + spec.off.len(), w);
            *on = cube::word_mask(n_on, w);
            *off = care & !*on;
        }
        // every care minterm not positive in `v` is negative in `v`
        let mut masks = Vec::with_capacity(2 * width * words);
        for column in ones.chunks_exact(words.max(1)).take(width) {
            masks.extend(
                column
                    .iter()
                    .zip(&on)
                    .zip(&off)
                    .map(|((&c, &a), &b)| (a | b) & !c),
            );
            masks.extend_from_slice(column);
        }
        LiteralTable {
            words,
            off_lo: n_on / 64,
            masks,
            on,
            off,
        }
    }

    fn mask(&self, var: usize, polarity: bool) -> &[u64] {
        &self.masks[(2 * var + usize::from(polarity)) * self.words..][..self.words]
    }

    /// Writes into `set` the care minterms the cube `row` (positive mask,
    /// then negative mask) contains.
    fn containment(&self, row: &[u64], set: &mut [u64]) {
        for ((s, &on), &off) in set.iter_mut().zip(&self.on).zip(&self.off) {
            *s = on | off;
        }
        let (pos, neg) = row.split_at(row.len() / 2);
        for (v, polarity) in cube::literals(pos, neg) {
            for (s, &m) in set.iter_mut().zip(self.mask(v, polarity)) {
                *s &= m;
            }
        }
    }
}

/// The candidate cubes of one output, in admission order: flat rows
/// (positive mask, then negative mask) and each row's containment set.
struct Candidates {
    row_words: usize,
    rows: Vec<u64>,
    sets: Vec<u64>,
    /// Every row in `rows`.
    #[allow(clippy::disallowed_types)]
    seen: HashSet<Vec<u64>>,
}

impl Candidates {
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[self.row_words * i..][..self.row_words]
    }

    /// Appends `row` with containment set `set`.
    fn push(&mut self, row: &[u64], set: &[u64]) {
        self.rows.extend_from_slice(row);
        self.sets.extend_from_slice(set);
    }
}

/// Expands the on-set minterm `m` against the off-set (single greedy
/// pass): literals are dropped, in rotated order, whenever the grown cube
/// still avoids every off minterm. Writes the cube into `row`; `scratch`
/// holds the suffix and prefix masks, reused across minterms.
fn expand_minterm(
    table: &LiteralTable,
    m: &Pattern,
    rotation: usize,
    scratch: &mut (Vec<u64>, Vec<u64>),
    row: &mut [u64],
) {
    let width = m.len();
    let (lo, ow) = (table.off_lo, table.words - table.off_lo);
    let x = m.words();
    let polarity = |v: usize| (x[v / 64] >> (v % 64)) & 1 == 1;
    let agree = |v: usize| &table.mask(v, polarity(v))[lo..];
    let (suffix, prefix) = scratch;
    // suffix[k] = off-set AND agree(order[k..]), `ow` words each
    suffix.clear();
    suffix.resize((width + 1) * ow, 0);
    suffix[width * ow..].copy_from_slice(&table.off[lo..]);
    // literals in rotated order: order[k] = (k + rotation) % width
    let order = || (rotation..width).chain(0..rotation);
    for (k, v) in (0..width).rev().zip(order().rev()) {
        let (head, tail) = suffix.split_at_mut((k + 1) * ow);
        for ((s, &next), &a) in head[k * ow..].iter_mut().zip(&tail[..ow]).zip(agree(v)) {
            *s = next & a;
        }
    }
    prefix.clear();
    prefix.resize(ow, !0);
    let (pos, neg) = row.split_at_mut(row.len() / 2);
    for (w, (p, n)) in pos.iter_mut().zip(neg.iter_mut()).enumerate() {
        *p = x[w];
        *n = !x[w] & cube::word_mask(width, w);
    }
    for (k, v) in order().enumerate() {
        // can we drop literal v? the cube would cover an off minterm only
        // if all *other* kept literals still agree with it somewhere
        let rest = &suffix[(k + 1) * ow..][..ow];
        if prefix.iter().zip(rest).any(|(&p, &s)| p & s != 0) {
            // must keep literal v
            for (p, &a) in prefix.iter_mut().zip(agree(v)) {
                *p &= a;
            }
        } else {
            let (w, b) = (v / 64, 1u64 << (v % 64));
            pos[w] &= !b;
            neg[w] &= !b;
        }
    }
    // the cube covers an off minterm only when `m` is one itself
    assert!(
        prefix
            .iter()
            .zip(&table.off[lo..])
            .all(|(&p, &o)| p & o == 0),
        "minterm {m} appears in both on- and off-set"
    );
}

/// Minimizes a single output: expanded cubes + greedy irredundant cover.
/// Returns the selected cubes.
///
/// # Panics
///
/// Panics if the on- and off-sets intersect (an inconsistent
/// specification) or if any minterm width differs from `width`.
pub fn minimize_single_output(width: usize, spec: &OutputSpec) -> Vec<Cube> {
    let table = LiteralTable::new(width, spec);
    let candidates = expand_all(width, spec, &table);
    let cw = width.div_ceil(64);
    greedy_cover(&table, &candidates.sets)
        .into_iter()
        .map(|i| {
            let (pos, neg) = candidates.row(i).split_at(cw);
            Cube::from_words(width, pos, neg)
        })
        .collect()
}

/// The distinct expansions of the on-set minterms, in minterm order.
fn expand_all(width: usize, spec: &OutputSpec, table: &LiteralTable) -> Candidates {
    let row_words = 2 * width.div_ceil(64);
    let mut candidates = Candidates {
        row_words,
        rows: Vec::new(),
        sets: Vec::new(),
        #[allow(clippy::disallowed_types)]
        seen: HashSet::new(),
    };
    let mut row = vec![0u64; row_words];
    let mut set = vec![0u64; table.words];
    let mut scratch = (Vec::new(), Vec::new());
    for (j, m) in spec.on.iter().enumerate() {
        expand_minterm(table, m, j % width.max(1), &mut scratch, &mut row);
        if !candidates.seen.contains(&row) {
            candidates.seen.insert(row.clone());
            table.containment(&row, &mut set);
            candidates.push(&row, &set);
        }
    }
    candidates
}

/// Greedy set cover of the on-set by the candidates' containment sets
/// (`table.words` words each). Returns the picked candidates in pick
/// order; ties go to the last candidate of maximal gain, as
/// [`Iterator::max_by_key`] picks.
fn greedy_cover(table: &LiteralTable, sets: &[u64]) -> Vec<usize> {
    let words = table.words;
    let mut uncovered = table.on.clone();
    let mut selected = Vec::new();
    while uncovered.iter().any(|&u| u != 0) {
        let mut best: Option<(usize, u32)> = None;
        for (i, set) in sets.chunks_exact(words).enumerate() {
            let gain = set
                .iter()
                .zip(&uncovered)
                .map(|(&s, &u)| (s & u).count_ones())
                .sum();
            if best.is_none_or(|(_, g)| gain >= g) {
                best = Some((i, gain));
            }
        }
        let (best, gain) = best.expect("on-set non-empty implies candidates exist");
        assert!(gain > 0, "cover stalled: inconsistent candidates");
        for (u, &s) in uncovered.iter_mut().zip(&sets[best * words..][..words]) {
            *u &= !s;
        }
        selected.push(best);
    }
    selected
}

/// Synthesizes a multi-output two-level network with default options.
///
/// `specs[o]` describes output `o`; all minterms are `width` bits wide.
/// See [`OutputSpec`] for the don't-care convention and
/// [`synthesize_pla_with`] for the option knobs.
pub fn synthesize_pla(width: usize, specs: &[OutputSpec]) -> TwoLevelNetwork {
    synthesize_pla_with(width, specs, SynthesisOptions::default())
}

/// Synthesizes a multi-output two-level network.
///
/// With `share_terms`, a product term selected for one output is offered to
/// later outputs (when compatible with their off-sets), modelling PLA-style
/// AND-plane sharing.
///
/// # Panics
///
/// Panics on inconsistent specifications (a minterm in both the on- and
/// off-set of one output).
pub fn synthesize_pla_with(
    width: usize,
    specs: &[OutputSpec],
    options: SynthesisOptions,
) -> TwoLevelNetwork {
    let row_words = 2 * width.div_ceil(64);
    let mut plane: Vec<u64> = Vec::new();
    let mut num_terms = 0;
    #[allow(clippy::disallowed_types)]
    let mut term_index: HashMap<Vec<u64>, usize> = HashMap::new();
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
        let table = LiteralTable::new(width, spec);
        let mut candidates = expand_all(width, spec, &table);
        if options.share_terms {
            // offer previously selected terms that avoid this off-set and
            // cover something from this on-set (the pool holds each term
            // once, so only the expansions can already hold it)
            let mut set = vec![0u64; table.words];
            for t in 0..num_terms {
                let row = &plane[row_words * t..][..row_words];
                table.containment(row, &mut set);
                if set.iter().zip(&table.off).all(|(&s, &o)| s & o == 0)
                    && set.iter().zip(&table.on).any(|(&s, &o)| s & o != 0)
                    && !candidates.seen.contains(row)
                {
                    candidates.push(row, &set);
                }
            }
        }
        let selected = greedy_cover(&table, &candidates.sets);
        let mut indices = Vec::with_capacity(selected.len());
        for i in selected {
            let row = candidates.row(i);
            let idx = match term_index.get(row) {
                Some(&t) => t,
                None => {
                    plane.extend_from_slice(row);
                    // without sharing, every output pays for its own terms
                    if options.share_terms {
                        term_index.insert(row.to_vec(), num_terms);
                    }
                    num_terms += 1;
                    num_terms - 1
                }
            };
            indices.push(idx);
        }
        indices.sort_unstable();
        indices.dedup();
        outputs.push(OutputFunc::Terms(indices));
    }
    TwoLevelNetwork::from_plane(width, num_terms, plane, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn single_literal_collapse() {
        // on = {110, 111}, off = {000, 001}: variable 0 separates them.
        let spec = OutputSpec {
            on: vec![p("110"), p("111")],
            off: vec![p("000"), p("001")],
        };
        let cubes = minimize_single_output(3, &spec);
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].num_literals(), 1);
    }

    #[test]
    fn cover_is_correct_on_all_care_minterms() {
        let spec = OutputSpec {
            on: vec![p("0011"), p("1011"), p("1110")],
            off: vec![p("0000"), p("1000"), p("0110")],
        };
        let cubes = minimize_single_output(4, &spec);
        for m in &spec.on {
            assert!(cubes.iter().any(|c| c.contains(m)), "uncovered on {m}");
        }
        for m in &spec.off {
            assert!(cubes.iter().all(|c| !c.contains(m)), "off violated {m}");
        }
    }

    #[test]
    fn dont_cares_shrink_the_cover() {
        // with a full truth table (no DCs) the parity function needs 2^{n-1}
        // terms; with only 2 care minterms it needs 1.
        let spec = OutputSpec {
            on: vec![p("10101010")],
            off: vec![p("01010101")],
        };
        let cubes = minimize_single_output(8, &spec);
        assert_eq!(cubes.len(), 1);
        assert_eq!(cubes[0].num_literals(), 1, "one literal distinguishes them");
    }

    #[test]
    #[should_panic(expected = "appears in both on- and off-set")]
    fn inconsistent_specs_panic() {
        let spec = OutputSpec {
            on: vec![p("101")],
            off: vec![p("000"), p("101")],
        };
        minimize_single_output(3, &spec);
    }

    #[test]
    fn constant_outputs() {
        let net = synthesize_pla(
            3,
            &[
                OutputSpec {
                    on: vec![],
                    off: vec![p("000")],
                },
                OutputSpec {
                    on: vec![p("000")],
                    off: vec![],
                },
            ],
        );
        assert_eq!(net.eval(&p("101")).to_string(), "01");
    }

    #[test]
    fn sharing_reuses_terms() {
        // two outputs with identical care specs share their single term
        let spec = OutputSpec {
            on: vec![p("110"), p("111")],
            off: vec![p("000")],
        };
        let shared = synthesize_pla(3, &[spec.clone(), spec.clone()]);
        assert_eq!(shared.num_terms(), 1);
        let unshared = synthesize_pla_with(
            3,
            &[spec.clone(), spec],
            SynthesisOptions { share_terms: false },
        );
        assert_eq!(unshared.num_terms(), 2);
    }

    /// Random multi-output specs over `width` variables: `count` distinct
    /// care minterms, each output a random cube-like rule over a few
    /// shared variables (so later outputs can reuse earlier terms), with
    /// some care minterms dropped and some outputs constant.
    fn random_specs(rng: &mut impl rand::Rng, width: usize, count: usize) -> Vec<OutputSpec> {
        let mut minterms: Vec<Pattern> = Vec::new();
        while minterms.len() < count {
            let m = Pattern::random(rng, width);
            if !minterms.contains(&m) {
                minterms.push(m);
            }
        }
        let hot: Vec<usize> = (0..4).map(|_| rng.gen_range(0..width)).collect();
        (0..rng.gen_range(1..7usize))
            .map(|o| {
                let mut spec = OutputSpec::default();
                let constant = match o % 5 {
                    3 => Some(rng.gen_bool(0.5)),
                    _ => None,
                };
                let (a, b) = (hot[rng.gen_range(0..4usize)], hot[rng.gen_range(0..4usize)]);
                for m in &minterms {
                    if rng.gen_bool(0.1) {
                        continue; // don't-care for this output
                    }
                    let value = constant.unwrap_or_else(|| {
                        (m.get(a) && !m.get(b)) || (m.get(hot[0]) && rng.gen_bool(0.3))
                    });
                    if value {
                        spec.on.push(m.clone());
                    } else {
                        spec.off.push(m.clone());
                    }
                }
                spec
            })
            .collect()
    }

    #[test]
    fn bit_sliced_kernel_matches_the_scalar_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(14);
        let (mut shared, mut constants) = (0, 0);
        for trial in 0..48 {
            // widths cross the 64-variable word boundary, minterm counts
            // the 64- and 128-minterm ones
            let width = [1, 2, 7, 63, 64, 65, 100, 128, 129, 130][trial % 10];
            let space = if width < 8 {
                1usize << width
            } else {
                usize::MAX
            };
            let count = rng.gen_range(1..=200usize).min(space);
            let specs = random_specs(&mut rng, width, count);
            for share_terms in [true, false] {
                let options = SynthesisOptions { share_terms };
                let net = synthesize_pla_with(width, &specs, options);
                let (terms, outputs) = scalar::synthesize_pla_with(width, &specs, options);
                assert_eq!(
                    net.terms().collect::<Vec<_>>(),
                    terms,
                    "trial {trial}, width {width}, share {share_terms}: AND plane differs"
                );
                assert_eq!(
                    net.outputs(),
                    &outputs[..],
                    "trial {trial}, width {width}, share {share_terms}: OR plane differs"
                );
                for spec in &specs {
                    let single = minimize_single_output(width, spec);
                    let oracle = scalar::greedy_cover(&spec.on, scalar::expand_all(width, spec));
                    assert_eq!(single, oracle, "trial {trial}: single-output cover differs");
                }
                constants += outputs
                    .iter()
                    .filter(|o| matches!(o, OutputFunc::Const(_)))
                    .count();
                // a term used by two outputs was admitted by sharing
                let uses = |t: usize| {
                    outputs
                        .iter()
                        .filter(|o| matches!(o, OutputFunc::Terms(ts) if ts.contains(&t)))
                        .count()
                };
                shared += (0..terms.len()).filter(|&t| uses(t) > 1).count();
            }
        }
        assert!(shared > 0, "no trial admitted a shared term");
        assert!(constants > 0, "no trial produced a constant output");
    }

    #[test]
    fn random_specs_evaluate_correctly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let width = rng.gen_range(4..40);
            let count = rng.gen_range(2..30);
            let mut minterms: Vec<Pattern> = Vec::new();
            while minterms.len() < count {
                let m = Pattern::random(&mut rng, width);
                if !minterms.contains(&m) {
                    minterms.push(m);
                }
            }
            let split = rng.gen_range(1..minterms.len());
            let spec = OutputSpec {
                on: minterms[..split].to_vec(),
                off: minterms[split..].to_vec(),
            };
            let net = synthesize_pla(width, std::slice::from_ref(&spec));
            for m in &spec.on {
                assert!(net.eval(m).get(0), "trial {trial}: on {m} evaluated 0");
            }
            for m in &spec.off {
                assert!(!net.eval(m).get(0), "trial {trial}: off {m} evaluated 1");
            }
        }
    }
}
