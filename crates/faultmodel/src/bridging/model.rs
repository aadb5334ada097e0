use std::fmt;

use bist_netlist::{Circuit, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The resolution function of a two-node short.
///
/// In CMOS a short between two drivers resolves by drive-strength; the
/// two classical gate-level abstractions bound the behaviour: wired-AND
/// (0 wins, the usual NMOS-dominant case) and wired-OR (1 wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BridgeKind {
    /// Both nodes read as the AND of their driven values (0-dominant).
    WiredAnd,
    /// Both nodes read as the OR of their driven values (1-dominant).
    WiredOr,
}

impl BridgeKind {
    /// Both resolution functions, for iteration.
    pub const BOTH: [BridgeKind; 2] = [BridgeKind::WiredAnd, BridgeKind::WiredOr];

    /// Resolves two driven words into the shorted value.
    pub fn resolve_word(self, a: u64, b: u64) -> u64 {
        match self {
            BridgeKind::WiredAnd => a & b,
            BridgeKind::WiredOr => a | b,
        }
    }

    /// Boolean form of [`BridgeKind::resolve_word`].
    pub fn resolve(self, a: bool, b: bool) -> bool {
        match self {
            BridgeKind::WiredAnd => a && b,
            BridgeKind::WiredOr => a || b,
        }
    }
}

impl fmt::Display for BridgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BridgeKind::WiredAnd => "wired-AND",
            BridgeKind::WiredOr => "wired-OR",
        })
    }
}

/// A non-feedback bridging (short) fault between two circuit nodes.
///
/// The paper's coverage ceiling leans on \[Hwa93\] — "Effectiveness of
/// stuck-at test set to detect bridging faults in Iddq environment" — and
/// its §3 lists Iddq merging among BIST's advantages. This type is the
/// voltage-sense half of that story: a short makes *both* nodes read the
/// wired resolution of their driven values, and a test detects it when
/// the resolved value propagates a difference to a primary output.
///
/// Feedback bridges (one node in the other's fan-out cone) would turn
/// combinational logic into an oscillator or a latch; like classical
/// bridging-fault tools, [`BridgingFaultList`] excludes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BridgingFault {
    /// First shorted node (the smaller `NodeId` by convention).
    pub a: NodeId,
    /// Second shorted node.
    pub b: NodeId,
    /// Resolution function.
    pub kind: BridgeKind,
}

impl BridgingFault {
    /// Human-readable description using node names.
    pub fn describe(&self, circuit: &Circuit) -> String {
        format!(
            "{} ~ {} ({})",
            circuit.node(self.a).name(),
            circuit.node(self.b).name(),
            self.kind
        )
    }
}

/// An ordered universe of bridging faults over one circuit.
///
/// # Example
///
/// ```
/// use bist_faultmodel::bridging::BridgingFaultList;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let faults = BridgingFaultList::sample(&c17, 40, 7);
/// assert!(!faults.is_empty());
/// assert!(faults.len() <= 40);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BridgingFaultList {
    faults: Vec<BridgingFault>,
}

impl BridgingFaultList {
    /// An empty list.
    pub fn new() -> Self {
        BridgingFaultList { faults: Vec::new() }
    }

    /// Samples up to `target` non-feedback bridge sites (each in both
    /// resolutions), reproducibly from `seed`.
    ///
    /// Real extraction would read capacitance/adjacency from layout; at
    /// gate level the standard proxy is sampling node pairs biased toward
    /// *nearby* logic — here, pairs whose logic levels differ by at most
    /// two, which models the physical reality that shorts happen between
    /// wires routed in the same neighbourhood.
    pub fn sample(circuit: &Circuit, target: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = circuit.num_nodes();
        let mut faults = Vec::with_capacity(target);
        let mut attempts = 0usize;
        let max_attempts = target.saturating_mul(60).max(1_000);
        while faults.len() < target && attempts < max_attempts {
            attempts += 1;
            let ai = rng.gen_range(0..n);
            let bi = rng.gen_range(0..n);
            if ai == bi {
                continue;
            }
            let (ai, bi) = (ai.min(bi), ai.max(bi));
            let a = NodeId::from_index(ai);
            let b = NodeId::from_index(bi);
            let (la, lb) = (circuit.level(a), circuit.level(b));
            if la.abs_diff(lb) > 2 {
                continue;
            }
            if is_feedback_pair(circuit, a, b) {
                continue;
            }
            let kind = if rng.gen() {
                BridgeKind::WiredAnd
            } else {
                BridgeKind::WiredOr
            };
            let fault = BridgingFault { a, b, kind };
            if !faults.contains(&fault) {
                faults.push(fault);
            }
        }
        BridgingFaultList { faults }
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the list holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault at `index`.
    pub fn get(&self, index: usize) -> Option<&BridgingFault> {
        self.faults.get(index)
    }

    /// Iterates over the faults in order.
    pub fn iter(&self) -> std::slice::Iter<'_, BridgingFault> {
        self.faults.iter()
    }

    /// The faults as a slice.
    pub fn faults(&self) -> &[BridgingFault] {
        &self.faults
    }

    /// Appends a fault.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the pair is a feedback bridge — the
    /// simulator's combinational semantics would be unsound for it.
    pub fn push(&mut self, circuit: &Circuit, fault: BridgingFault) {
        debug_assert!(
            !is_feedback_pair(circuit, fault.a, fault.b),
            "feedback bridge {}",
            fault.describe(circuit)
        );
        self.faults.push(fault);
    }
}

impl<'a> IntoIterator for &'a BridgingFaultList {
    type Item = &'a BridgingFault;
    type IntoIter = std::slice::Iter<'a, BridgingFault>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// True if either node lies in the other's fan-out cone (shorting them
/// would create a combinational loop).
pub fn is_feedback_pair(circuit: &Circuit, a: NodeId, b: NodeId) -> bool {
    circuit.fanout_cone(a).contains(&b) || circuit.fanout_cone(b).contains(&a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_semantics() {
        assert_eq!(BridgeKind::WiredAnd.resolve_word(0b1100, 0b1010), 0b1000);
        assert_eq!(BridgeKind::WiredOr.resolve_word(0b1100, 0b1010), 0b1110);
    }

    #[test]
    fn sampled_pairs_are_nearby_and_feedback_free() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = BridgingFaultList::sample(&c, 100, 42);
        assert!(faults.len() >= 50, "sampler starved: {}", faults.len());
        for f in &faults {
            assert!(!is_feedback_pair(&c, f.a, f.b), "{}", f.describe(&c));
            assert!(c.level(f.a).abs_diff(c.level(f.b)) <= 2);
            assert!(f.a < f.b, "canonical order");
        }
    }

    #[test]
    fn sampling_is_reproducible() {
        let c17 = bist_netlist::iscas85::c17();
        let a = BridgingFaultList::sample(&c17, 30, 5);
        let b = BridgingFaultList::sample(&c17, 30, 5);
        assert_eq!(a, b);
        let c = BridgingFaultList::sample(&c17, 30, 6);
        assert_ne!(a, c, "different seeds sample different pairs");
    }

    #[test]
    fn describe_names_both_nodes() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = BridgingFaultList::sample(&c17, 5, 1);
        let text = faults.get(0).unwrap().describe(&c17);
        assert!(text.contains('~') && text.contains("wired"));
    }
}
