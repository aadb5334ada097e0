//! Naive pattern-at-a-time reference bridging simulator.
//!
//! An independent, deliberately simple implementation of the same
//! bridging semantics as the packed [`BridgingSim`](super::BridgingSim),
//! used as the oracle in property tests: the faulty machine is evaluated
//! node by node with plain booleans, one pattern at a time, with both
//! shorted nodes overridden to the resolved value.
//!
//! For a *non-feedback* pair the driven values of the two nodes are their
//! good-machine values (neither node lies in the other's fan-out cone, so
//! the short cannot influence its own drivers) — which is exactly the
//! assumption [`BridgingFaultList`](super::BridgingFaultList) enforces.

use bist_logicsim::{naive_eval, Pattern};
use bist_netlist::{Circuit, GateKind};

use super::model::BridgingFault;

/// True if `pattern` *excites* `fault`: the two shorted nodes carry
/// opposite good-machine values (the Iddq detection criterion).
pub fn excited(circuit: &Circuit, fault: BridgingFault, pattern: &Pattern) -> bool {
    let good = naive_eval(circuit, &pattern.to_bits());
    good[fault.a.index()] != good[fault.b.index()]
}

/// Evaluates the faulty machine for `pattern`: both shorted nodes read
/// the resolution of their driven (good) values. Returns the faulty value
/// of every node, or `None` when the bridge is not excited — the machine
/// then behaves like the good one.
pub fn faulty_eval(
    circuit: &Circuit,
    fault: BridgingFault,
    pattern: &Pattern,
) -> Option<Vec<bool>> {
    let good = naive_eval(circuit, &pattern.to_bits());
    let (ga, gb) = (good[fault.a.index()], good[fault.b.index()]);
    if ga == gb {
        return None;
    }
    let resolved = fault.kind.resolve(ga, gb);

    let g = circuit.sim_graph();
    let mut values = vec![false; circuit.num_nodes()];
    for (i, &pi) in g.inputs().iter().enumerate() {
        values[pi as usize] = pattern.get(i);
    }
    for &id in g.topo() {
        let id = id as usize;
        let mut v = match g.kind(id) {
            GateKind::Input => values[id],
            GateKind::Dff => false,
            kind => kind.eval_bool_iter(g.fanin(id).iter().map(|&f| values[f as usize])),
        };
        if id == fault.a.index() || id == fault.b.index() {
            v = resolved;
        }
        values[id] = v;
    }
    Some(values)
}

/// True if `fault` is detected at a primary output by `pattern`
/// (voltage-sense detection).
pub fn detects(circuit: &Circuit, fault: BridgingFault, pattern: &Pattern) -> bool {
    let Some(faulty) = faulty_eval(circuit, fault, pattern) else {
        return false;
    };
    let good = naive_eval(circuit, &pattern.to_bits());
    circuit
        .outputs()
        .iter()
        .any(|o| faulty[o.index()] != good[o.index()])
}

/// Grades a whole sequence serially; returns, for each fault of `faults`,
/// the index of the first (voltage-)detecting pattern, or `None`.
pub fn grade_sequence(
    circuit: &Circuit,
    faults: &[BridgingFault],
    patterns: &[Pattern],
) -> Vec<Option<u32>> {
    faults
        .iter()
        .map(|&fault| {
            patterns
                .iter()
                .position(|p| detects(circuit, fault, p))
                .map(|t| t as u32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridging::{BridgingFaultList, BridgingSim};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn packed_matches_serial_on_c17_exhaustive() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = BridgingFaultList::sample(&c17, 40, 7);
        let patterns: Vec<Pattern> = (0u32..32)
            .map(|v| Pattern::from_fn(5, |i| (v >> i) & 1 == 1))
            .collect();
        let serial = grade_sequence(&c17, faults.faults(), &patterns);
        let mut packed = BridgingSim::new(&c17, faults);
        packed.simulate(&patterns);
        for (i, &graded) in serial.iter().enumerate() {
            assert_eq!(
                graded,
                packed.first_detection(i),
                "fault {} disagrees",
                packed.faults().get(i).unwrap().describe(&c17)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn packed_matches_serial_on_c432_random(seed in any::<u64>()) {
            let c = bist_netlist::iscas85::circuit("c432").unwrap();
            let faults = BridgingFaultList::sample(&c, 30, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xb1d6);
            let patterns: Vec<Pattern> = (0..80)
                .map(|_| Pattern::random(&mut rng, c.inputs().len()))
                .collect();
            let serial = grade_sequence(&c, faults.faults(), &patterns);

            let mut packed = BridgingSim::new(&c, faults);
            packed.simulate(&patterns);
            for (i, &graded) in serial.iter().enumerate() {
                prop_assert_eq!(
                    graded,
                    packed.first_detection(i),
                    "fault {} disagrees",
                    packed.faults().get(i).unwrap().describe(&c)
                );
                // the Iddq flag must agree with any-pattern excitation
                let any_excited = patterns.iter().any(|p| {
                    excited(&c, *packed.faults().get(i).unwrap(), p)
                });
                prop_assert_eq!(any_excited, packed.iddq_detected(i));
            }
        }
    }
}
