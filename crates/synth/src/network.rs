use std::fmt;

use bist_logicsim::Pattern;
use bist_netlist::{BuildCircuitError, CircuitBuilder, GateKind};

use crate::cube::{self, Cube};

/// The function of one network output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputFunc {
    /// Constant output (an output whose care set was one-sided).
    Const(bool),
    /// OR of the listed product terms (indices into the shared term pool).
    Terms(Vec<usize>),
}

/// A multi-output two-level (AND-OR) network with a shared product-term
/// pool — the synthesized "OR2 network" of the LFSROM figures.
///
/// Obtained from [`synthesize_pla`](crate::synthesize_pla); evaluable in
/// software ([`TwoLevelNetwork::eval`]) and emittable as structural gates
/// into a [`CircuitBuilder`] ([`TwoLevelNetwork::emit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelNetwork {
    width: usize,
    /// Words per literal mask: `width.div_ceil(64)`.
    words: usize,
    num_terms: usize,
    /// The AND plane, one row of `2 * words` words per term: its
    /// positive-literal mask, then its negative-literal mask.
    plane: Vec<u64>,
    outputs: Vec<OutputFunc>,
}

impl TwoLevelNetwork {
    /// Assembles a network from its flat AND plane of `num_terms` rows
    /// (laid out as in [`TwoLevelNetwork`]'s `plane`) and its OR plane.
    pub(crate) fn from_plane(
        width: usize,
        num_terms: usize,
        plane: Vec<u64>,
        outputs: Vec<OutputFunc>,
    ) -> Self {
        let words = width.div_ceil(64);
        debug_assert_eq!(plane.len(), 2 * words * num_terms, "plane size");
        TwoLevelNetwork {
            width,
            words,
            num_terms,
            plane,
            outputs,
        }
    }

    /// Number of input variables.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of distinct product terms in the AND plane.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// The product terms, in AND-plane order.
    pub fn terms(&self) -> impl ExactSizeIterator<Item = Cube> + '_ {
        (0..self.num_terms).map(|t| {
            let (pos, neg) = self.term(t);
            Cube::from_words(self.width, pos, neg)
        })
    }

    /// The positive- and negative-literal masks of term `t`.
    fn term(&self, t: usize) -> (&[u64], &[u64]) {
        let row = &self.plane[2 * self.words * t..][..2 * self.words];
        row.split_at(self.words)
    }

    /// The output functions.
    pub fn outputs(&self) -> &[OutputFunc] {
        &self.outputs
    }

    /// Total number of AND-plane literals.
    pub fn num_literals(&self) -> usize {
        self.plane.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total number of OR-plane connections.
    pub fn or_plane_size(&self) -> usize {
        self.outputs
            .iter()
            .map(|o| match o {
                OutputFunc::Const(_) => 0,
                OutputFunc::Terms(t) => t.len(),
            })
            .sum()
    }

    /// Evaluates the network on one input pattern; returns one bit per
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if the input width mismatches.
    pub fn eval(&self, input: &Pattern) -> Pattern {
        assert_eq!(input.len(), self.width, "input width mismatch");
        let columns = self.eval_batch(std::slice::from_ref(input));
        Pattern::from_fn(columns.len(), |o| columns[o].get(0))
    }

    /// Evaluates the network on every pattern of `inputs` at once
    /// (bit-sliced: one AND of literal columns per term). Returns one
    /// pattern per output whose bit `j` is the output's value on
    /// `inputs[j]`.
    ///
    /// # Panics
    ///
    /// Panics if an input width mismatches.
    pub fn eval_batch(&self, inputs: &[Pattern]) -> Vec<Pattern> {
        let n = inputs.len();
        let words = n.div_ceil(64);
        let ones = cube::transpose(self.width, inputs.iter(), words);
        let all: Vec<u64> = (0..words).map(|w| cube::word_mask(n, w)).collect();
        let mut term_sets = vec![0u64; self.num_terms * words];
        for (t, set) in term_sets.chunks_exact_mut(words.max(1)).enumerate() {
            set.copy_from_slice(&all);
            let (pos, neg) = self.term(t);
            for (v, polarity) in cube::literals(pos, neg) {
                let column = &ones[v * words..][..words];
                for (s, &c) in set.iter_mut().zip(column) {
                    *s &= if polarity { c } else { !c };
                }
            }
        }
        self.outputs
            .iter()
            .map(|func| {
                let values = match func {
                    OutputFunc::Const(false) => vec![0; words],
                    OutputFunc::Const(true) => all.clone(),
                    OutputFunc::Terms(ts) => {
                        let mut acc = vec![0u64; words];
                        for &t in ts {
                            for (a, &s) in acc.iter_mut().zip(&term_sets[t * words..][..words]) {
                                *a |= s;
                            }
                        }
                        acc
                    }
                };
                Pattern::from_words(n, values)
            })
            .collect()
    }

    /// Emits the network as structural gates.
    ///
    /// `inputs[v]` names the node driving variable `v`; created node names
    /// are prefixed with `prefix`. Inverters are shared per variable; terms
    /// and outputs become (wide) `AND`/`OR` gates that the area model
    /// decomposes into 2-input cells. Returns the created output node
    /// names, one per network output.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildCircuitError`] (e.g. name collisions with existing
    /// nodes).
    pub fn emit(
        &self,
        builder: &mut CircuitBuilder,
        inputs: &[&str],
        prefix: &str,
    ) -> Result<Vec<String>, BuildCircuitError> {
        assert_eq!(inputs.len(), self.width, "input name count mismatch");
        // shared inverters for variables used negatively
        let mut inv_name: Vec<Option<String>> = vec![None; self.width];
        for t in 0..self.num_terms {
            let (pos, neg) = self.term(t);
            for (v, pol) in cube::literals(pos, neg) {
                if !pol && inv_name[v].is_none() {
                    let name = format!("{prefix}_inv{v}");
                    builder.add_gate(&name, GateKind::Not, &[inputs[v]])?;
                    inv_name[v] = Some(name);
                }
            }
        }
        // product terms
        let mut term_names: Vec<String> = Vec::with_capacity(self.num_terms);
        for ti in 0..self.num_terms {
            let (pos, neg) = self.term(ti);
            let lits: Vec<String> = cube::literals(pos, neg)
                .map(|(v, pol)| {
                    if pol {
                        inputs[v].to_owned()
                    } else {
                        inv_name[v].clone().expect("inverter emitted above")
                    }
                })
                .collect();
            let name = format!("{prefix}_t{ti}");
            match lits.len() {
                0 => {
                    builder.add_gate(&name, GateKind::Const1, &[])?;
                }
                1 => {
                    builder.add_gate(&name, GateKind::Buf, &[&lits[0]])?;
                }
                _ => {
                    let refs: Vec<&str> = lits.iter().map(String::as_str).collect();
                    builder.add_gate(&name, GateKind::And, &refs)?;
                }
            }
            term_names.push(name);
        }
        // outputs
        let mut out_names = Vec::with_capacity(self.outputs.len());
        for (o, func) in self.outputs.iter().enumerate() {
            let name = format!("{prefix}_y{o}");
            match func {
                OutputFunc::Const(false) => {
                    builder.add_gate(&name, GateKind::Const0, &[])?;
                }
                OutputFunc::Const(true) => {
                    builder.add_gate(&name, GateKind::Const1, &[])?;
                }
                OutputFunc::Terms(ts) if ts.len() == 1 => {
                    builder.add_gate(&name, GateKind::Buf, &[&term_names[ts[0]]])?;
                }
                OutputFunc::Terms(ts) => {
                    let refs: Vec<&str> = ts.iter().map(|&t| term_names[t].as_str()).collect();
                    builder.add_gate(&name, GateKind::Or, &refs)?;
                }
            }
            out_names.push(name);
        }
        Ok(out_names)
    }
}

impl fmt::Display for TwoLevelNetwork {
    /// PLA-table style dump.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            ".i {} .o {} .p {}",
            self.width,
            self.outputs.len(),
            self.num_terms
        )?;
        for ti in 0..self.num_terms {
            let (pos, neg) = self.term(ti);
            cube::write_row(f, self.width, pos, neg)?;
            let uses: String = self
                .outputs
                .iter()
                .map(|o| match o {
                    OutputFunc::Terms(ts) if ts.contains(&ti) => '1',
                    _ => '0',
                })
                .collect();
            writeln!(f, " {uses}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::{synthesize_pla, OutputSpec};
    use bist_logicsim::naive_eval;

    fn p(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    fn sample_network() -> TwoLevelNetwork {
        synthesize_pla(
            3,
            &[
                OutputSpec {
                    on: vec![p("110"), p("111")],
                    off: vec![p("000"), p("010")],
                },
                OutputSpec {
                    on: vec![p("001")],
                    off: vec![p("110")],
                },
            ],
        )
    }

    #[test]
    fn emit_matches_eval() {
        let net = sample_network();
        let mut b = CircuitBuilder::new("pla");
        b.add_input("x0").unwrap();
        b.add_input("x1").unwrap();
        b.add_input("x2").unwrap();
        let outs = net.emit(&mut b, &["x0", "x1", "x2"], "pla").unwrap();
        for o in &outs {
            b.mark_output(o).unwrap();
        }
        let circuit = b.build().unwrap();
        for v in 0u32..8 {
            let input = Pattern::from_fn(3, |i| (v >> i) & 1 == 1);
            let sw = net.eval(&input);
            let hw = naive_eval(&circuit, &input.to_bits());
            for (o, name) in outs.iter().enumerate() {
                let id = circuit.find(name).unwrap();
                assert_eq!(hw[id.index()], sw.get(o), "input {input} output {o}");
            }
        }
    }

    #[test]
    fn eval_batch_matches_eval() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for width in [1, 3, 64, 65, 130] {
            let minterms: Vec<Pattern> =
                (0..150).map(|_| Pattern::random(&mut rng, width)).collect();
            let specs: Vec<OutputSpec> = (0..4)
                .map(|o| {
                    let mut spec = OutputSpec::default();
                    for m in minterms.iter().take(40) {
                        if m.get(o % width) == m.get((o + 1) % width) {
                            spec.on.push(m.clone());
                        } else if !spec.on.contains(m) {
                            spec.off.push(m.clone());
                        }
                    }
                    spec
                })
                .collect();
            let net = synthesize_pla(width, &specs);
            let batch = net.eval_batch(&minterms);
            assert_eq!(batch.len(), net.num_outputs());
            for (j, m) in minterms.iter().enumerate() {
                let single = net.eval(m);
                for (o, column) in batch.iter().enumerate() {
                    assert_eq!(
                        column.get(j),
                        single.get(o),
                        "width {width} input {j} output {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let net = sample_network();
        assert!(net.num_terms() >= 1);
        assert!(net.num_literals() >= net.num_terms());
        assert!(net.or_plane_size() >= net.num_outputs() - 1);
    }

    #[test]
    fn display_is_pla_like() {
        let net = sample_network();
        let text = net.to_string();
        assert!(text.starts_with(".i 3 .o 2"));
        assert!(text.lines().count() == net.num_terms() + 1);
    }
}
