use bist_netlist::{Circuit, GateKind, NodeId};

use crate::fault::{Fault, Transition};

/// An ordered fault universe over one circuit.
///
/// Construction methods implement the fault models the paper grades
/// against; see [`FaultList::stuck_at_collapsed`] for the collapsing rules.
///
/// # Example
///
/// ```
/// use bist_fault::FaultList;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let list = FaultList::mixed_model(&c17);
/// // iterate, index, count
/// assert_eq!(list.iter().count(), list.len());
/// assert!(list.get(0).is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultList {
    faults: Vec<Fault>,
}

impl FaultList {
    /// Builds an empty list (useful as an accumulator).
    pub fn new() -> Self {
        FaultList { faults: Vec::new() }
    }

    /// The *uncollapsed* single stuck-at universe: both polarities on every
    /// stem and on every fan-out branch.
    pub fn stuck_at_full(circuit: &Circuit) -> Self {
        let mut faults = Vec::new();
        for (idx, node) in circuit.nodes().iter().enumerate() {
            let id = NodeId::from_index(idx);
            if node.kind() == GateKind::Dff {
                continue;
            }
            for value in [false, true] {
                faults.push(Fault::StuckAt {
                    site: id,
                    pin: None,
                    value,
                });
            }
            if node.kind().is_combinational() {
                for (p, _) in node.fanin().iter().enumerate() {
                    for value in [false, true] {
                        faults.push(Fault::StuckAt {
                            site: id,
                            pin: Some(p as u8),
                            value,
                        });
                    }
                }
            }
        }
        FaultList { faults }
    }

    /// The equivalence-collapsed single stuck-at universe.
    ///
    /// Rules (classic fault folding):
    ///
    /// * inside AND/NAND/OR/NOR: a pin stuck at the *controlling* value is
    ///   equivalent to the output stuck at the controlled value — dropped;
    /// * inside NOT/BUF: pin faults are equivalent to output faults —
    ///   dropped;
    /// * a branch fault on a pin whose driver has fan-out 1 is the same
    ///   signal as the driver's stem — dropped;
    /// * a stem feeding exactly one AND/NAND/OR/NOR pin loses its
    ///   stuck-at-controlling fault (equivalent through the gate); a stem
    ///   feeding exactly one NOT/BUF loses both (they fold into the
    ///   inverter's output faults).
    ///
    /// For c17 this yields the textbook 22-fault list.
    pub fn stuck_at_collapsed(circuit: &Circuit) -> Self {
        let mut faults = Vec::new();
        for (idx, node) in circuit.nodes().iter().enumerate() {
            let id = NodeId::from_index(idx);
            if node.kind() == GateKind::Dff {
                continue;
            }
            // stem faults, subject to folding through a single consumer
            let fanout = circuit.fanout(id);
            for value in [false, true] {
                let folded = if fanout.len() == 1 && !circuit.is_output(id) {
                    let consumer = circuit.node(fanout[0]);
                    match consumer.kind() {
                        GateKind::Not | GateKind::Buf => true,
                        k => k.controlling_value() == Some(value),
                    }
                } else {
                    false
                };
                if !folded {
                    faults.push(Fault::StuckAt {
                        site: id,
                        pin: None,
                        value,
                    });
                }
            }
            // branch faults: only meaningful when the driver forks
            if node.kind().is_combinational() {
                for (p, driver) in node.fanin().iter().enumerate() {
                    if circuit.fanout(*driver).len() <= 1 {
                        continue; // same signal as the stem
                    }
                    for value in [false, true] {
                        let equivalent_inside_gate = match node.kind() {
                            GateKind::Not | GateKind::Buf => true,
                            k => k.controlling_value() == Some(value),
                        };
                        if !equivalent_inside_gate {
                            faults.push(Fault::StuckAt {
                                site: id,
                                pin: Some(p as u8),
                                value,
                            });
                        }
                    }
                }
            }
        }
        FaultList { faults }
    }

    /// The CMOS stuck-open universe: one series-open plus one parallel-open
    /// per pin for AND/NAND/OR/NOR gates; open-rise/open-fall for
    /// inverters, buffers and XOR-family gates.
    pub fn stuck_open(circuit: &Circuit) -> Self {
        let mut faults = Vec::new();
        for (idx, node) in circuit.nodes().iter().enumerate() {
            let id = NodeId::from_index(idx);
            match node.kind() {
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    faults.push(Fault::OpenSeries { site: id });
                    for (p, _) in node.fanin().iter().enumerate() {
                        faults.push(Fault::OpenParallel {
                            site: id,
                            pin: p as u8,
                        });
                    }
                }
                GateKind::Not | GateKind::Buf | GateKind::Xor | GateKind::Xnor => {
                    faults.push(Fault::OpenRise { site: id });
                    faults.push(Fault::OpenFall { site: id });
                }
                _ => {}
            }
        }
        FaultList { faults }
    }

    /// The transition-fault universe: both directions on every stem
    /// (primary inputs and combinational gates; constants and flip-flops
    /// carry no transitions), then both directions on every fan-out
    /// branch whose driver stem has fan-out greater than one
    /// (single-fan-out branches are the same line as their stem).
    ///
    /// # Example
    ///
    /// ```
    /// use bist_fault::FaultList;
    ///
    /// let c17 = bist_netlist::iscas85::c17();
    /// let faults = FaultList::transition(&c17);
    /// // 11 stems in both directions, plus the fan-out branches
    /// assert!(faults.len() > 22);
    /// assert!(faults.iter().all(|f| f.is_transition()));
    /// ```
    pub fn transition(circuit: &Circuit) -> Self {
        let mut faults = Vec::new();
        for &id in circuit.topo_order() {
            if matches!(
                circuit.node(id).kind(),
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff
            ) {
                continue;
            }
            for transition in Transition::BOTH {
                faults.push(Fault::Transition {
                    site: id,
                    pin: None,
                    transition,
                });
            }
        }
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            if !node.kind().is_combinational() {
                continue;
            }
            for (p, &driver) in node.fanin().iter().enumerate() {
                if circuit.fanout(driver).len() > 1 {
                    for transition in Transition::BOTH {
                        faults.push(Fault::Transition {
                            site: id,
                            pin: Some(p as u8),
                            transition,
                        });
                    }
                }
            }
        }
        FaultList { faults }
    }

    /// The paper's fault model: collapsed stuck-at plus stuck-open.
    pub fn mixed_model(circuit: &Circuit) -> Self {
        let mut list = Self::stuck_at_collapsed(circuit);
        list.faults.extend(Self::stuck_open(circuit).faults);
        list
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the list holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault at position `index`.
    pub fn get(&self, index: usize) -> Option<&Fault> {
        self.faults.get(index)
    }

    /// Iterates over the faults in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Fault> {
        self.faults.iter()
    }

    /// The faults as a slice.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Appends a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Number of stuck-at faults in the list.
    pub fn num_stuck_at(&self) -> usize {
        self.faults.iter().filter(|f| f.is_stuck_at()).count()
    }

    /// Number of stuck-open faults in the list.
    pub fn num_stuck_open(&self) -> usize {
        self.faults.iter().filter(|f| f.is_stuck_open()).count()
    }
}

impl Default for FaultList {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<Fault> for FaultList {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        FaultList {
            faults: iter.into_iter().collect(),
        }
    }
}

impl Extend<Fault> for FaultList {
    fn extend<I: IntoIterator<Item = Fault>>(&mut self, iter: I) {
        self.faults.extend(iter);
    }
}

impl<'a> IntoIterator for &'a FaultList {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

impl IntoIterator for FaultList {
    type Item = Fault;
    type IntoIter = std::vec::IntoIter<Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_full_universe_counts() {
        let c17 = bist_netlist::iscas85::c17();
        let full = FaultList::stuck_at_full(&c17);
        // 11 stems * 2 + 12 pins * 2 = 46
        assert_eq!(full.len(), 46);
    }

    #[test]
    fn c17_collapsed_is_textbook_22() {
        let c17 = bist_netlist::iscas85::c17();
        let collapsed = FaultList::stuck_at_collapsed(&c17);
        assert_eq!(collapsed.len(), 22);
    }

    #[test]
    fn c17_stuck_open_counts() {
        let c17 = bist_netlist::iscas85::c17();
        let so = FaultList::stuck_open(&c17);
        // 6 NAND gates: 1 series + 2 parallel each = 18
        assert_eq!(so.len(), 18);
        assert!(so.iter().all(Fault::is_stuck_open));
    }

    #[test]
    fn mixed_model_concatenates() {
        let c17 = bist_netlist::iscas85::c17();
        let m = FaultList::mixed_model(&c17);
        assert_eq!(m.len(), 22 + 18);
        assert_eq!(m.num_stuck_at(), 22);
        assert_eq!(m.num_stuck_open(), 18);
    }

    #[test]
    fn transition_universe_counts_on_c17() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::transition(&c17);
        assert!(faults.iter().all(Fault::is_transition));
        // 11 stems (5 PIs + 6 NANDs), each both directions = 22 stem faults
        let stems = faults
            .iter()
            .filter(|f| matches!(f, Fault::Transition { pin: None, .. }))
            .count();
        assert_eq!(stems, 22);
        // every branch fault's driver must truly have fanout > 1
        for f in faults.iter() {
            if let Fault::Transition {
                site, pin: Some(p), ..
            } = *f
            {
                let driver = c17.node(site).fanin()[p as usize];
                assert!(c17.fanout(driver).len() > 1);
            }
        }
        // c17 has multi-fanout stems, so branch faults must exist
        assert!(faults.len() > stems);
    }

    #[test]
    fn constants_carry_no_transition_stem_faults() {
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("k");
        b.add_input("a").unwrap();
        b.add_gate("one", GateKind::Const1, &[]).unwrap();
        b.add_gate("y", GateKind::And, &["a", "one"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let one = c.find("one").unwrap();
        let faults = FaultList::transition(&c);
        assert!(faults
            .iter()
            .all(|f| !matches!(*f, Fault::Transition { site, pin: None, .. } if site == one)));
    }

    #[test]
    fn collapsing_never_grows_the_universe() {
        for name in ["c432", "c880"] {
            let c = bist_netlist::iscas85::circuit(name).unwrap();
            let full = FaultList::stuck_at_full(&c);
            let collapsed = FaultList::stuck_at_collapsed(&c);
            assert!(collapsed.len() < full.len(), "{name}");
            // every collapsed fault exists in the full universe
            // determinism-vetted: membership probe only, never iterated
            #[allow(clippy::disallowed_types)]
            let full_set: std::collections::HashSet<_> = full.iter().collect();
            for f in collapsed.iter() {
                assert!(full_set.contains(f), "{name}: {f} not in full universe");
            }
        }
    }

    #[test]
    fn collect_and_extend() {
        let c17 = bist_netlist::iscas85::c17();
        let collapsed = FaultList::stuck_at_collapsed(&c17);
        let only_sa1: FaultList = collapsed
            .iter()
            .copied()
            .filter(|f| matches!(f, Fault::StuckAt { value: true, .. }))
            .collect();
        assert!(only_sa1.len() < collapsed.len());
        let mut acc = FaultList::new();
        acc.extend(only_sa1.iter().copied());
        assert_eq!(acc.len(), only_sa1.len());
    }
}
