//! COP-style testability analysis: signal probabilities, observabilities
//! and per-fault random-detection estimates.
//!
//! The paper's whole trade-off turns on *random-pattern-resistant* faults
//! — faults whose detection probability under random stimuli is so low
//! that the pseudo-random prefix realistically never catches them. This
//! module implements the classic COP (controllability/observability
//! program) estimates: one forward pass computes `P(node = 1)` under
//! independent uniform inputs, one backward pass computes the probability
//! that a change at a node propagates to an output. Their product bounds
//! the per-pattern detection probability of a stuck-at fault, which is
//! how tools predict where a Figure-4-style coverage curve will flatten.
//!
//! The estimates assume signal independence (they ignore reconvergent
//! fan-out), so they are heuristics — good for ranking faults, not for
//! exact prediction. The tests check exactly that: rank correlation
//! against measured detection, not equality.

use bist_fault::Fault;
use bist_netlist::{Circuit, GateKind, NodeId};

/// COP testability estimates for one circuit.
///
/// # Example
///
/// ```
/// use bist_faultsim::Testability;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let t = Testability::analyze(&c17);
/// let g10 = c17.find("G10").unwrap();
/// // NAND of two uniform inputs is 1 with probability 3/4
/// assert!((t.one_probability(g10) - 0.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Testability {
    c1: Vec<f64>,
    observability: Vec<f64>,
}

impl Testability {
    /// Runs the forward (controllability) and backward (observability)
    /// passes.
    pub fn analyze(circuit: &Circuit) -> Self {
        let n = circuit.num_nodes();
        let mut c1 = vec![0.5f64; n];
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            let p = match node.kind() {
                GateKind::Input | GateKind::Dff => 0.5,
                GateKind::Const0 => 0.0,
                GateKind::Const1 => 1.0,
                GateKind::Buf => c1[node.fanin()[0].index()],
                GateKind::Not => 1.0 - c1[node.fanin()[0].index()],
                GateKind::And | GateKind::Nand => {
                    let prod: f64 = node.fanin().iter().map(|f| c1[f.index()]).product();
                    if node.kind() == GateKind::And {
                        prod
                    } else {
                        1.0 - prod
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let prod: f64 = node.fanin().iter().map(|f| 1.0 - c1[f.index()]).product();
                    if node.kind() == GateKind::Or {
                        1.0 - prod
                    } else {
                        prod
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // P(odd parity) via the product identity
                    let prod: f64 = node
                        .fanin()
                        .iter()
                        .map(|f| 1.0 - 2.0 * c1[f.index()])
                        .product();
                    let odd = 0.5 * (1.0 - prod);
                    if node.kind() == GateKind::Xor {
                        odd
                    } else {
                        1.0 - odd
                    }
                }
            };
            c1[id.index()] = p;
        }

        let mut observability = vec![0.0f64; n];
        for &o in circuit.outputs() {
            observability[o.index()] = 1.0;
        }
        for &id in circuit.topo_order().iter().rev() {
            let node = circuit.node(id);
            if !node.kind().is_combinational() {
                continue;
            }
            let ob_out = observability[id.index()];
            if ob_out == 0.0 {
                continue;
            }
            for (i, &fi) in node.fanin().iter().enumerate() {
                let sensitize: f64 = match node.kind() {
                    GateKind::Buf | GateKind::Not => 1.0,
                    GateKind::And | GateKind::Nand => node
                        .fanin()
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, f)| c1[f.index()])
                        .product(),
                    GateKind::Or | GateKind::Nor => node
                        .fanin()
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, f)| 1.0 - c1[f.index()])
                        .product(),
                    GateKind::Xor | GateKind::Xnor => 1.0,
                    _ => 0.0,
                };
                let through_this_pin = ob_out * sensitize;
                // stems with several branches: combine as the complement
                // of all branches missing
                let prev = observability[fi.index()];
                observability[fi.index()] = 1.0 - (1.0 - prev) * (1.0 - through_this_pin);
            }
        }
        Testability { c1, observability }
    }

    /// `P(node = 1)` under independent uniform random inputs.
    pub fn one_probability(&self, id: NodeId) -> f64 {
        self.c1[id.index()]
    }

    /// Estimated probability that a value change at `id` reaches a
    /// primary output under a random pattern.
    pub fn observability(&self, id: NodeId) -> f64 {
        self.observability[id.index()]
    }

    /// Estimated per-pattern detection probability of a stuck-at fault
    /// (stuck-open and transition faults return the analogous two-pattern
    /// estimate,
    /// which is the product of the excitation probabilities of the two
    /// time frames).
    pub fn detection_probability(&self, circuit: &Circuit, fault: Fault) -> f64 {
        match fault {
            Fault::StuckAt {
                site,
                pin: None,
                value,
            } => {
                let activation = if value {
                    1.0 - self.c1[site.index()]
                } else {
                    self.c1[site.index()]
                };
                activation * self.observability[site.index()]
            }
            Fault::StuckAt {
                site,
                pin: Some(p),
                value,
            } => {
                let driver = circuit.node(site).fanin()[p as usize];
                let activation = if value {
                    1.0 - self.c1[driver.index()]
                } else {
                    self.c1[driver.index()]
                };
                // approximate the branch observability by the gate's
                activation * self.observability[site.index()]
            }
            Fault::OpenSeries { site } => {
                let node = circuit.node(site);
                let c = node.kind().controlling_value().unwrap_or(false);
                let all_nc: f64 = node
                    .fanin()
                    .iter()
                    .map(|f| {
                        if c {
                            1.0 - self.c1[f.index()]
                        } else {
                            self.c1[f.index()]
                        }
                    })
                    .product();
                all_nc * (1.0 - all_nc) * self.observability[site.index()]
            }
            Fault::OpenParallel { site, pin } => {
                let node = circuit.node(site);
                let c = node.kind().controlling_value().unwrap_or(false);
                let all_nc: f64 = node
                    .fanin()
                    .iter()
                    .map(|f| {
                        if c {
                            1.0 - self.c1[f.index()]
                        } else {
                            self.c1[f.index()]
                        }
                    })
                    .product();
                let only_pin: f64 = node
                    .fanin()
                    .iter()
                    .enumerate()
                    .map(|(k, f)| {
                        let c1 = self.c1[f.index()];
                        if k == pin as usize {
                            if c {
                                c1
                            } else {
                                1.0 - c1
                            }
                        } else if c {
                            1.0 - c1
                        } else {
                            c1
                        }
                    })
                    .product();
                all_nc * only_pin * self.observability[site.index()]
            }
            Fault::OpenRise { site } => {
                let p1 = self.c1[site.index()];
                p1 * (1.0 - p1) * self.observability[site.index()]
            }
            Fault::OpenFall { site } => {
                let p1 = self.c1[site.index()];
                p1 * (1.0 - p1) * self.observability[site.index()]
            }
            Fault::Transition { site, pin, .. } => {
                let driver = pin.map_or(site, |p| circuit.node(site).fanin()[p as usize]);
                let p1 = self.c1[driver.index()];
                // branch observability approximated by the gate's
                p1 * (1.0 - p1) * self.observability[site.index()]
            }
        }
    }

    /// The `count` faults with the lowest estimated detection probability
    /// — the random-pattern-resistant candidates the deterministic suffix
    /// exists for.
    pub fn hardest_faults(
        &self,
        circuit: &Circuit,
        faults: &[Fault],
        count: usize,
    ) -> Vec<(Fault, f64)> {
        let mut scored: Vec<(Fault, f64)> = faults
            .iter()
            .map(|&f| (f, self.detection_probability(circuit, f)))
            .collect();
        scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        scored.truncate(count);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_fault::FaultList;
    use bist_logicsim::Pattern;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn c17_probabilities_are_exact_for_tree_paths() {
        let c17 = bist_netlist::iscas85::c17();
        let t = Testability::analyze(&c17);
        let g10 = c17.find("G10").unwrap();
        assert!((t.one_probability(g10) - 0.75).abs() < 1e-9);
        // inputs are observable
        for &pi in c17.inputs() {
            assert!(t.observability(pi) > 0.1);
        }
        // outputs have observability 1
        for &po in c17.outputs() {
            assert!((t.observability(po) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deep_and_trees_score_as_hard() {
        use bist_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("hard");
        for i in 0..8 {
            b.add_input(&format!("i{i}")).unwrap();
        }
        let mut prev = "i0".to_owned();
        for i in 1..8 {
            let name = format!("a{i}");
            b.add_gate(&name, GateKind::And, &[&prev, &format!("i{i}")])
                .unwrap();
            prev = name;
        }
        b.mark_output("a7").unwrap();
        let c = b.build().unwrap();
        let t = Testability::analyze(&c);
        let top = c.find("a7").unwrap();
        // P(out = 1) = 2^-8
        assert!((t.one_probability(top) - 2f64.powi(-8)).abs() < 1e-9);
        let sa0 = Fault::StuckAt {
            site: top,
            pin: None,
            value: false,
        };
        assert!(t.detection_probability(&c, sa0) < 0.01);
    }

    #[test]
    fn estimates_rank_faults_like_measured_detection() {
        // Spearman-style sanity: the half of faults ranked "easy" by COP
        // must be detected measurably earlier on average than the "hard"
        // half.
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let t = Testability::analyze(&c);
        let faults = FaultList::stuck_at_collapsed(&c);
        let mut sim = crate::FaultSim::new(&c, faults.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let patterns: Vec<Pattern> = (0..2000)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();
        sim.simulate(&patterns);

        let mut scored: Vec<(usize, f64)> = faults
            .iter()
            .enumerate()
            .map(|(i, &f)| (i, t.detection_probability(&c, f)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        let half = scored.len() / 2;
        let mean_first = |slice: &[(usize, f64)]| -> f64 {
            let mut sum = 0.0;
            let mut n = 0;
            for (i, _) in slice {
                if let Some(first) = sim.first_detection(*i) {
                    sum += first as f64;
                    n += 1;
                }
            }
            if n == 0 {
                f64::INFINITY
            } else {
                sum / n as f64
            }
        };
        let easy = mean_first(&scored[..half]);
        let hard = mean_first(&scored[half..]);
        assert!(
            easy < hard,
            "easy faults should be found earlier: easy {easy:.1} vs hard {hard:.1}"
        );
    }

    #[test]
    fn hardest_faults_are_sorted() {
        let c = bist_netlist::iscas85::c17();
        let t = Testability::analyze(&c);
        let faults = FaultList::mixed_model(&c);
        let hardest = t.hardest_faults(&c, faults.faults(), 5);
        assert_eq!(hardest.len(), 5);
        for w in hardest.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
