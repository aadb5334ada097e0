//! Pinned search identity: the PODEM engine's decisions, not just its
//! verdicts, are part of the committed output.
//!
//! Every `(p, d)` point, job digest and wire byte of the mixed flow rests
//! on the exact cube each search commits to, so an engine change that is
//! meant to be a pure speed-up (cheaper implication, undo instead of
//! re-implication) must leave every search bit-identical. These tests hash
//! the outcome kind and the cube bits of
//!
//! * `podem_cube` for every collapsed stuck-at target, and
//! * `justify_cube` for the `v1` requirement list of every stuck-open
//!   fault,
//!
//! in fault-list order, and compare the hash with a digest pinned from the
//! engine before such a change. A mismatch means a search walked a
//! different decision tree.
//!
//! The c432 leg runs with the ordinary test suite. The c1908 leg searches
//! about ten times as many targets, so it runs only in release builds:
//!
//! ```text
//! cargo test --release --test search_identity
//! ```

use bist_atpg::{justify_cube, podem_cube, CubeOutcome, PodemOptions};
use bist_fault::{Fault, FaultList};
use bist_logicsim::InjectedFault;
use bist_netlist::{iscas85, Circuit, NodeId};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn push_outcome(&mut self, outcome: &CubeOutcome) {
        match outcome {
            CubeOutcome::Test { cube, .. } => {
                self.push(b'T');
                for i in 0..cube.len() {
                    self.push(match cube.get(i) {
                        Some(false) => b'0',
                        Some(true) => b'1',
                        None => b'x',
                    });
                }
            }
            CubeOutcome::Redundant => self.push(b'R'),
            CubeOutcome::Aborted => self.push(b'A'),
        }
        self.push(b'|');
    }
}

/// The `v1` good-value requirements of a stuck-open fault's
/// initialization pattern, as the ATPG flow derives them.
fn v1_requirements(circuit: &Circuit, fault: Fault) -> Vec<(NodeId, bool)> {
    match fault {
        Fault::OpenSeries { site } => {
            let co = circuit
                .node(site)
                .kind()
                .controlled_output()
                .expect("series-open only on gates with controlling values");
            vec![(site, co)]
        }
        Fault::OpenParallel { site, .. } => {
            let c = circuit
                .node(site)
                .kind()
                .controlling_value()
                .expect("parallel-open only on gates with controlling values");
            circuit
                .node(site)
                .fanin()
                .iter()
                .map(|&f| (f, !c))
                .collect()
        }
        Fault::OpenRise { site } => vec![(site, false)],
        Fault::OpenFall { site } => vec![(site, true)],
        Fault::StuckAt { .. } | Fault::Transition { .. } => {
            unreachable!("stuck-open universe only")
        }
    }
}

/// `(stuck-at digest, stuck-open v1 digest)` of every search on `name`.
fn search_digests(name: &str) -> (u64, u64) {
    let c = iscas85::circuit(name).expect("known circuit");
    let options = PodemOptions::default();

    let mut detect = Fnv::new();
    for fault in FaultList::stuck_at_collapsed(&c).iter() {
        let Fault::StuckAt { site, pin, value } = *fault else {
            unreachable!("stuck-at universe only");
        };
        let target = InjectedFault {
            site,
            pin,
            stuck: value,
        };
        detect.push_outcome(&podem_cube(&c, target, options));
    }

    let mut justify = Fnv::new();
    for fault in FaultList::stuck_open(&c).iter() {
        let reqs = v1_requirements(&c, *fault);
        justify.push_outcome(&justify_cube(&c, &reqs, options));
    }
    (detect.0, justify.0)
}

#[test]
fn c432_searches_match_the_pinned_digest() {
    let (detect, justify) = search_digests("c432");
    assert_eq!(
        (format!("{detect:016x}"), format!("{justify:016x}")),
        ("b18484d9c149e211".to_owned(), "ab8c5d75efd69497".to_owned()),
        "a c432 PODEM search walked a different decision tree"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only leg: cargo test --release --test search_identity"
)]
fn c1908_searches_match_the_pinned_digest() {
    let (detect, justify) = search_digests("c1908");
    assert_eq!(
        (format!("{detect:016x}"), format!("{justify:016x}")),
        ("00f2df6a84f41406".to_owned(), "738da5955be19c34".to_owned()),
        "a c1908 PODEM search walked a different decision tree"
    );
}
