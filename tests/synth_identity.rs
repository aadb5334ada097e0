//! Pinned synthesis identity: the LFSROM minimizer's product terms, not
//! just their function, are part of the committed output.
//!
//! Every generator area of every `(p, d)` point — and so every job digest
//! and wire byte that carries one — rests on the exact AND/OR planes the
//! two-level minimizer picks. A minimizer change meant as a pure speed-up
//! (word-parallel containment, a flat term plane) must therefore leave
//! every network bit-identical: the same terms, in the same order, feeding
//! the same outputs. These tests hash each network's PLA dump
//! ([`TwoLevelNetwork`](bist_synth::TwoLevelNetwork)'s `Display`) and the
//! generator's cell inventory, and compare the hash with a digest pinned
//! from the minimizer before such a change.
//!
//! The c432 and random-sequence legs run with the ordinary test suite. The
//! c880 and c3540 legs solve their circuits' ATPG first, so they run only
//! in release builds:
//!
//! ```text
//! cargo test --release --test synth_identity
//! ```

use bist_core::{BistSession, CollapseMode, MixedSchemeConfig};
use bist_lfsr::{Lfsr, ScanExpander};
use bist_lfsrom::{LfsromGenerator, LfsromOptions};
use bist_logicsim::Pattern;
use bist_netlist::iscas85;
use bist_synth::SynthesisOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in the generator's network dump and cell inventory.
    fn push_generator(&mut self, generator: &LfsromGenerator) {
        self.push_bytes(generator.network().to_string().as_bytes());
        self.push_bytes(generator.cells().to_string().as_bytes());
        self.push_bytes(b"|");
    }
}

/// The LFSROM a mixed generator at prefix `p` synthesizes: the register
/// contents at the hand-over (when `p > 0`) followed by the deterministic
/// suffix.
fn mixed_lfsrom(
    config: &MixedSchemeConfig,
    width: usize,
    p: usize,
    det: &[Pattern],
) -> LfsromGenerator {
    let mut seq = Vec::with_capacity(det.len() + 1);
    if p > 0 {
        let mut expander = ScanExpander::new(Lfsr::fibonacci(config.poly, 1), width);
        for _ in 0..p {
            expander.next_pattern();
        }
        seq.push(expander.chain());
    }
    seq.extend(det.iter().cloned());
    LfsromGenerator::synthesize(&seq).expect("a solved point has a synthesizable suffix")
}

/// Digest of the LFSROMs of `name`'s mixed solutions at `points`.
fn circuit_digest(name: &str, points: &[usize]) -> String {
    let c = iscas85::circuit(name).expect("known circuit");
    let config = MixedSchemeConfig::default();
    let mut session = BistSession::with_mode(&c, config.clone(), CollapseMode::InFlow);
    let sweep = session.sweep(points).expect("sweep solves");
    let mut digest = Fnv::new();
    for solution in sweep.solutions() {
        let det = solution.generator.deterministic();
        if det.is_empty() {
            digest.push_bytes(b"-|");
            continue;
        }
        let lfsrom = mixed_lfsrom(&config, c.inputs().len(), solution.prefix_len, det);
        digest.push_generator(&lfsrom);
        digest.push_bytes(solution.generator.cells().to_string().as_bytes());
    }
    format!("{:016x}", digest.0)
}

/// Random sequences drawn from a small pool of patterns, so most patterns
/// repeat and the generators need disambiguation code bits.
fn repeated_sequences(seed: u64) -> Vec<Vec<Pattern>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..12)
        .map(|trial| {
            let width = [3, 7, 20, 36, 63, 64, 65, 90][trial % 8];
            let pool: Vec<Pattern> = (0..1 + trial % 5)
                .map(|_| Pattern::random(&mut rng, width))
                .collect();
            let len = 4 + 11 * trial;
            (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect()
        })
        .collect()
}

fn sequences_digest(options: LfsromOptions) -> String {
    let mut digest = Fnv::new();
    for seq in repeated_sequences(0x005e_ed14) {
        let generator = LfsromGenerator::synthesize_with(&seq, options).expect("valid sequence");
        assert_eq!(
            generator.replay(seq.len()),
            seq,
            "generator must replay its sequence"
        );
        digest.push_generator(&generator);
    }
    format!("{:016x}", digest.0)
}

#[test]
fn c432_lfsroms_match_the_pinned_digest() {
    assert_eq!(
        circuit_digest("c432", &[0, 100, 500, 1000, 2000]),
        "d5e491a77d6a3432",
        "a c432 LFSROM network changed"
    );
}

#[test]
fn repeated_pattern_sequences_match_the_pinned_digest() {
    assert_eq!(
        sequences_digest(LfsromOptions::default()),
        "f7bd9de42ff27d51",
        "a repeated-pattern LFSROM network changed"
    );
}

#[test]
fn unshared_terms_match_the_pinned_digest() {
    let options = LfsromOptions {
        synthesis: SynthesisOptions { share_terms: false },
    };
    assert_eq!(
        sequences_digest(options),
        "5ea8dc52cd2b343f",
        "an unshared-term LFSROM network changed"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only leg: cargo test --release --test synth_identity"
)]
fn c880_lfsroms_match_the_pinned_digest() {
    assert_eq!(
        circuit_digest("c880", &[0, 500, 2000]),
        "fbc17c4d73c3dce2",
        "a c880 LFSROM network changed"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only leg: cargo test --release --test synth_identity"
)]
fn c3540_lfsroms_match_the_pinned_digest() {
    assert_eq!(
        circuit_digest("c3540", &[1000]),
        "cafd1fbc67a5fc85",
        "a c3540 LFSROM network changed"
    );
}
