// determinism-vetted: the only hash map here counts per-pattern
// occurrences via entry() in sequence order and is never iterated
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use bist_logicsim::{Pattern, SeqSim};
use bist_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};
use bist_synth::{
    count_cells, synthesize_pla_with, AreaModel, CellCount, OutputSpec, SynthesisOptions,
    TwoLevelNetwork,
};

/// Options for LFSROM synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LfsromOptions {
    /// Options handed to the two-level minimizer (term sharing etc.).
    pub synthesis: SynthesisOptions,
}

/// Error returned by [`LfsromGenerator::synthesize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesizeLfsromError {
    /// The target sequence holds no patterns.
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
    /// The sequence has zero-width patterns.
    ZeroWidth,
}

impl fmt::Display for SynthesizeLfsromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesizeLfsromError::EmptySequence => write!(f, "empty test sequence"),
            SynthesizeLfsromError::WidthMismatch {
                index,
                expected,
                got,
            } => write!(f, "pattern {index} is {got} bits wide, expected {expected}"),
            SynthesizeLfsromError::ZeroWidth => write!(f, "patterns have zero width"),
        }
    }
}

impl std::error::Error for SynthesizeLfsromError {}

/// A synthesized LFSROM: pattern register + two-level next-pattern network,
/// with its structural netlist and cost accounting.
///
/// See the [crate docs](crate) for the architecture; construct with
/// [`LfsromGenerator::synthesize`]. The netlist is built on first use by
/// [`LfsromGenerator::netlist`], so a caller that only wants the network
/// (as the mixed generator does) never pays for it.
#[derive(Debug, Clone)]
pub struct LfsromGenerator {
    width: usize,
    sequence: Vec<Pattern>,
    codes: Vec<u64>,
    code_bits: usize,
    network: TwoLevelNetwork,
    /// The structural netlist, built on first use.
    netlist: OnceLock<Circuit>,
}

impl LfsromGenerator {
    /// Synthesizes a generator replaying `sequence` with default options.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesizeLfsromError`] for empty sequences or
    /// inconsistent pattern widths.
    pub fn synthesize(sequence: &[Pattern]) -> Result<Self, SynthesizeLfsromError> {
        Self::synthesize_with(sequence, LfsromOptions::default())
    }

    /// Synthesizes a generator replaying `sequence`.
    ///
    /// The generator is periodic: after the last pattern it wraps to the
    /// first (BIST controllers stop it after `sequence.len()` cycles).
    ///
    /// # Errors
    ///
    /// Returns [`SynthesizeLfsromError`] for empty sequences or
    /// inconsistent pattern widths.
    pub fn synthesize_with(
        sequence: &[Pattern],
        options: LfsromOptions,
    ) -> Result<Self, SynthesizeLfsromError> {
        if sequence.is_empty() {
            return Err(SynthesizeLfsromError::EmptySequence);
        }
        let width = sequence[0].len();
        if width == 0 {
            return Err(SynthesizeLfsromError::ZeroWidth);
        }
        for (index, p) in sequence.iter().enumerate() {
            if p.len() != width {
                return Err(SynthesizeLfsromError::WidthMismatch {
                    index,
                    expected: width,
                    got: p.len(),
                });
            }
        }

        let codes = disambiguation_codes(sequence);
        let max_code = codes.iter().copied().max().unwrap_or(0);
        let code_bits = if max_code == 0 {
            0
        } else {
            (64 - max_code.leading_zeros()) as usize
        };
        let total = width + code_bits;

        // full states: pattern bits then code bits
        let states: Vec<Pattern> = sequence
            .iter()
            .zip(&codes)
            .map(|(p, &c)| {
                Pattern::from_fn(total, |b| {
                    if b < width {
                        p.get(b)
                    } else {
                        (c >> (b - width)) & 1 == 1
                    }
                })
            })
            .collect();

        // next-state specifications (wrap after the last pattern)
        let mut specs = vec![OutputSpec::default(); total];
        let n = states.len();
        for i in 0..n {
            let next = &states[(i + 1) % n];
            for (b, spec) in specs.iter_mut().enumerate() {
                if next.get(b) {
                    spec.on.push(states[i].clone());
                } else {
                    spec.off.push(states[i].clone());
                }
            }
        }
        let network = synthesize_pla_with(total, &specs, options.synthesis);

        // functional self-check: the synthesized network must walk the
        // sequence (one bit-sliced pass over all steps, so it stays on in
        // release builds)
        let broken = first_broken_step(&network, &states);
        let (step, bit) = broken.unwrap_or_default();
        assert!(
            broken.is_none(),
            "next-state network broken at step {step}: state bit {bit} should be {}",
            states[(step + 1) % n].get(bit)
        );

        Ok(LfsromGenerator {
            width,
            sequence: sequence.to_vec(),
            codes,
            code_bits,
            network,
            netlist: OnceLock::new(),
        })
    }

    /// The test pattern width (number of CUT primary inputs).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The target sequence the generator encodes.
    pub fn sequence(&self) -> &[Pattern] {
        &self.sequence
    }

    /// Number of disambiguation flip-flops added for duplicate patterns
    /// (0 when the sequence is duplicate-free).
    pub fn extra_flip_flops(&self) -> usize {
        self.code_bits
    }

    /// The disambiguation code assigned to each sequence position (all
    /// zero when the sequence is duplicate-free). The full generator state
    /// at step `i` is `(sequence[i], codes[i])`.
    pub fn codes(&self) -> &[u64] {
        &self.codes
    }

    /// Total flip-flop count (pattern register + disambiguation bits).
    pub fn num_flip_flops(&self) -> usize {
        self.width + self.code_bits
    }

    /// The synthesized next-state network.
    pub fn network(&self) -> &TwoLevelNetwork {
        &self.network
    }

    /// The structural hardware netlist (D flip-flops + gates), built on the
    /// first call. Pattern bit `b` is the flip-flop named `q{b}`; the
    /// primary outputs are the pattern bits.
    pub fn netlist(&self) -> &Circuit {
        self.netlist
            .get_or_init(|| build_netlist(self.num_flip_flops(), self.width, &self.network))
    }

    /// The generator's standard-cell inventory.
    pub fn cells(&self) -> CellCount {
        count_cells(self.netlist())
    }

    /// Silicon area in mm² under `model`.
    pub fn area_mm2(&self, model: &AreaModel) -> f64 {
        model.area_mm2(&self.cells())
    }

    /// Clocks the hardware netlist for `cycles` cycles (seeding the
    /// register with the first state) and returns the emitted patterns.
    ///
    /// `replay(sequence.len()) == sequence` is the synthesis contract,
    /// enforced by the test suite and cheap to re-check in release code.
    pub fn replay(&self, cycles: usize) -> Vec<Pattern> {
        let mut sim = SeqSim::new(self.netlist());
        // seed with state 0
        for b in 0..self.width {
            sim.set_state(self.ff(b), self.sequence[0].get(b));
        }
        for cb in 0..self.code_bits {
            sim.set_state(self.ff(self.width + cb), (self.codes[0] >> cb) & 1 == 1);
        }
        let watch: Vec<NodeId> = (0..self.width).map(|b| self.ff(b)).collect();
        sim.trace(&[false], &watch, cycles)
    }

    fn ff(&self, b: usize) -> NodeId {
        self.netlist()
            .find(&format!("q{b}"))
            .expect("flip-flop exists by construction")
    }
}

/// Assigns each sequence position a disambiguation code: positions holding
/// the same pattern get distinct codes (0, 1, 2, …), so (pattern, code)
/// states are unique and the next-state function is well-defined.
#[allow(clippy::disallowed_types)] // per-key counter, never iterated
fn disambiguation_codes(sequence: &[Pattern]) -> Vec<u64> {
    let mut seen: HashMap<&Pattern, u64> = HashMap::new();
    sequence
        .iter()
        .map(|p| {
            let c = seen.entry(p).or_insert(0);
            let code = *c;
            *c += 1;
            code
        })
        .collect()
}

/// The first `(step, bit)` at which `network` fails to map `states[step]`
/// to `states[step + 1]` (wrapping after the last state), if any.
fn first_broken_step(network: &TwoLevelNetwork, states: &[Pattern]) -> Option<(usize, usize)> {
    let n = states.len();
    let next = network.eval_batch(states);
    (0..n)
        .flat_map(|step| (0..next.len()).map(move |bit| (step, bit)))
        .find(|&(step, bit)| next[bit].get(step) != states[(step + 1) % n].get(bit))
}

fn build_netlist(total: usize, width: usize, network: &TwoLevelNetwork) -> Circuit {
    let mut b = CircuitBuilder::new("lfsrom");
    b.add_input("bist_en").expect("fresh name");
    let ff_names: Vec<String> = (0..total).map(|i| format!("q{i}")).collect();
    let ff_refs: Vec<&str> = ff_names.iter().map(String::as_str).collect();
    let next_names = {
        // flip-flops must exist before the network references them; declare
        // them with placeholder fan-in resolved after emission
        // (CircuitBuilder supports forward references, so emit the network
        // first, then the flip-flops pointing at its outputs)
        let mut names = Vec::new();
        names.extend(
            network
                .emit(&mut b, &ff_refs, "ns")
                .expect("fresh namespace"),
        );
        names
    };
    for (i, ff) in ff_names.iter().enumerate() {
        b.add_gate(ff, GateKind::Dff, &[&next_names[i]])
            .expect("fresh name");
    }
    for ff in ff_names.iter().take(width) {
        b.mark_output(ff).expect("flip-flop exists");
    }
    b.build().expect("LFSROM netlist is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(s: &str) -> Pattern {
        s.parse().unwrap()
    }

    #[test]
    fn replays_the_c17_paper_style_sequence() {
        // a 5-pattern, 5-bit deterministic set as in the paper's Figure 2
        let seq = vec![p("00101"), p("11010"), p("00011"), p("11100"), p("01110")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.replay(5), seq);
        assert_eq!(generator.extra_flip_flops(), 0);
        assert_eq!(generator.num_flip_flops(), 5);
    }

    #[test]
    fn wraps_around_periodically() {
        let seq = vec![p("001"), p("110"), p("100")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        let twice = generator.replay(6);
        assert_eq!(&twice[..3], &seq[..]);
        assert_eq!(&twice[3..], &seq[..]);
    }

    #[test]
    fn duplicate_patterns_get_disambiguation_ffs() {
        let seq = vec![p("0101"), p("1100"), p("0101"), p("0011")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.extra_flip_flops(), 1);
        assert_eq!(generator.replay(4), seq);
    }

    #[test]
    fn heavily_repeated_patterns_need_more_code_bits() {
        let seq = vec![p("01"); 5]; // the same pattern five times
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.extra_flip_flops(), 3); // codes 0..=4
        assert_eq!(generator.replay(5), seq);
    }

    #[test]
    fn single_pattern_sequence() {
        let seq = vec![p("1010")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(generator.replay(3), vec![seq[0].clone(); 3]);
    }

    #[test]
    fn random_sequences_always_replay() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..10 {
            let width = 4 + trial;
            let len = 3 + trial * 2;
            let seq: Vec<Pattern> = (0..len).map(|_| Pattern::random(&mut rng, width)).collect();
            let generator = LfsromGenerator::synthesize(&seq).unwrap();
            assert_eq!(generator.replay(len), seq, "trial {trial}");
        }
    }

    #[test]
    fn longer_sequences_cost_more() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = AreaModel::es2_1um();
        let short: Vec<Pattern> = (0..8).map(|_| Pattern::random(&mut rng, 20)).collect();
        let long: Vec<Pattern> = (0..80).map(|_| Pattern::random(&mut rng, 20)).collect();
        let a_short = LfsromGenerator::synthesize(&short)
            .unwrap()
            .area_mm2(&model);
        let a_long = LfsromGenerator::synthesize(&long).unwrap().area_mm2(&model);
        assert!(
            a_long > a_short,
            "area must grow with sequence length: {a_short:.3} vs {a_long:.3}"
        );
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            LfsromGenerator::synthesize(&[]),
            Err(SynthesizeLfsromError::EmptySequence)
        ));
        let err = LfsromGenerator::synthesize(&[p("01"), p("011")]).unwrap_err();
        assert!(matches!(
            err,
            SynthesizeLfsromError::WidthMismatch { index: 1, .. }
        ));
    }

    #[test]
    fn self_check_names_the_first_broken_step_and_bit() {
        let seq = vec![p("0011"), p("0101"), p("1001"), p("1110")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        assert_eq!(first_broken_step(generator.network(), &seq), None);
        // the network maps 0101 to 1001; claim it should map to 1101
        let mut wrong = seq.clone();
        wrong[2] = p("1101");
        assert_eq!(first_broken_step(generator.network(), &wrong), Some((1, 1)));
    }

    #[test]
    fn cells_include_register_and_network() {
        let seq = vec![p("00101"), p("11010"), p("00011")];
        let generator = LfsromGenerator::synthesize(&seq).unwrap();
        let cells = generator.cells();
        assert_eq!(cells.get(bist_synth::CellKind::Dff), 5);
        assert!(cells.total() > 5, "next-state logic contributes cells");
    }
}
