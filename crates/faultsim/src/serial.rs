//! Naive pattern-at-a-time reference fault simulator.
//!
//! An independent, deliberately simple implementation of the same fault
//! semantics as the PPSFP engine, used as the oracle in property tests:
//! the faulty machine is evaluated node by node with plain booleans, one
//! pattern (or pattern pair) at a time.

use bist_fault::Fault;
use bist_logicsim::{naive_eval, Pattern};
use bist_netlist::{Circuit, GateKind, NodeId};

/// Evaluates the faulty machine for `pattern`, with `prev` supplying the
/// initialization values stuck-open and transition faults need
/// (good-machine initialization; `None` means "first pattern of the
/// sequence", which cannot excite a two-pattern fault).
///
/// Returns the faulty value of every node, or `None` when the fault is not
/// excited under this pattern (pair) — the machine then behaves like the
/// good one.
pub fn faulty_eval(
    circuit: &Circuit,
    fault: Fault,
    prev: Option<&Pattern>,
    pattern: &Pattern,
) -> Option<Vec<bool>> {
    let good_now = naive_eval(circuit, &pattern.to_bits());
    let forced: Option<(NodeId, ForcedValue)> = match fault {
        Fault::StuckAt {
            site,
            pin: None,
            value,
        } => Some((site, ForcedValue::Output(value))),
        Fault::StuckAt {
            site,
            pin: Some(p),
            value,
        } => Some((site, ForcedValue::Pin(p, value))),
        Fault::OpenSeries { site } => {
            let good_prev = naive_eval(circuit, &prev?.to_bits());
            let node = circuit.node(site);
            let c = node.kind().controlling_value()?;
            let all_nc_now = node.fanin().iter().all(|f| good_now[f.index()] != c);
            let all_nc_prev = node.fanin().iter().all(|f| good_prev[f.index()] != c);
            (all_nc_now && !all_nc_prev)
                .then_some((site, ForcedValue::Output(good_prev[site.index()])))
        }
        Fault::OpenParallel { site, pin } => {
            let good_prev = naive_eval(circuit, &prev?.to_bits());
            let node = circuit.node(site);
            let c = node.kind().controlling_value()?;
            let only_p = node.fanin().iter().enumerate().all(|(k, f)| {
                if k == pin as usize {
                    good_now[f.index()] == c
                } else {
                    good_now[f.index()] != c
                }
            });
            let all_nc_prev = node.fanin().iter().all(|f| good_prev[f.index()] != c);
            (only_p && all_nc_prev).then_some((site, ForcedValue::Output(good_prev[site.index()])))
        }
        Fault::OpenRise { site } => {
            let good_prev = naive_eval(circuit, &prev?.to_bits());
            (good_now[site.index()] && !good_prev[site.index()])
                .then_some((site, ForcedValue::Output(false)))
        }
        Fault::OpenFall { site } => {
            let good_prev = naive_eval(circuit, &prev?.to_bits());
            (!good_now[site.index()] && good_prev[site.index()])
                .then_some((site, ForcedValue::Output(true)))
        }
        Fault::Transition {
            site,
            pin,
            transition,
        } => {
            // launch: the line's driver moves from the initial value
            // under `prev` to the final value under `pattern`; the late
            // line then still shows the initial value
            let good_prev = naive_eval(circuit, &prev?.to_bits());
            let driver = match pin {
                None => site,
                Some(p) => circuit.node(site).fanin()[p as usize],
            };
            let init = transition.initial_value();
            let launched = good_prev[driver.index()] == init && good_now[driver.index()] != init;
            let force = match pin {
                None => ForcedValue::Output(init),
                Some(p) => ForcedValue::Pin(p, init),
            };
            launched.then_some((site, force))
        }
    };
    let (site, force) = forced?;

    // forward-evaluate the faulty machine over the flattened view
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
            kind => {
                kind.eval_bool_iter(g.fanin(id).iter().enumerate().map(|(k, &f)| match force {
                    ForcedValue::Pin(p, fv) if id == site.index() && k == p as usize => fv,
                    _ => values[f as usize],
                }))
            }
        };
        if id == site.index() {
            if let ForcedValue::Output(fv) = force {
                v = fv;
            }
        }
        values[id] = v;
    }
    Some(values)
}

#[derive(Debug, Clone, Copy)]
enum ForcedValue {
    Output(bool),
    Pin(u8, bool),
}

/// True if `fault` is detected at a primary output by `pattern` (with
/// `prev` as the preceding pattern of the sequence).
///
/// # Example
///
/// ```
/// use bist_fault::{Fault, Transition};
/// use bist_faultsim::serial;
/// use bist_logicsim::Pattern;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let a = c17.inputs()[0];
/// let fault = Fault::Transition { site: a, pin: None, transition: Transition::SlowToRise };
/// let v1: Pattern = "00000".parse()?;
/// assert!(!serial::detects(&c17, fault, Some(&v1), &v1), "a repeated vector launches nothing");
/// # Ok::<(), bist_logicsim::ParsePatternError>(())
/// ```
pub fn detects(circuit: &Circuit, fault: Fault, prev: Option<&Pattern>, pattern: &Pattern) -> bool {
    let Some(faulty) = faulty_eval(circuit, fault, prev, pattern) else {
        return false;
    };
    let good = naive_eval(circuit, &pattern.to_bits());
    circuit
        .outputs()
        .iter()
        .any(|o| faulty[o.index()] != good[o.index()])
}

/// Grades a whole ordered sequence serially; returns, for each fault of
/// `faults`, the index of the first detecting pattern (or `None`).
pub fn grade_sequence(
    circuit: &Circuit,
    faults: &[Fault],
    patterns: &[Pattern],
) -> Vec<Option<u32>> {
    faults
        .iter()
        .map(|&fault| {
            let mut prev: Option<&Pattern> = None;
            for (t, p) in patterns.iter().enumerate() {
                if detects(circuit, fault, prev, p) {
                    return Some(t as u32);
                }
                prev = Some(p);
            }
            None
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultSim;
    use bist_fault::FaultList;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ppsfp_matches_serial_on_c17_exhaustive() {
        let c17 = bist_netlist::iscas85::c17();
        let patterns: Vec<Pattern> = (0u32..32)
            .chain((0..32).rev())
            .map(|v| Pattern::from_fn(5, |i| (v >> i) & 1 == 1))
            .collect();
        for faults in [FaultList::mixed_model(&c17), FaultList::transition(&c17)] {
            let serial = grade_sequence(&c17, faults.faults(), &patterns);
            let mut ppsfp = FaultSim::new(&c17, faults);
            ppsfp.simulate(&patterns);
            for (i, &graded) in serial.iter().enumerate() {
                assert_eq!(
                    graded,
                    ppsfp.first_detection(i),
                    "fault {} disagrees",
                    ppsfp.faults().get(i).unwrap().describe(&c17)
                );
            }
        }
    }

    #[test]
    fn agrees_with_packed_engine_on_c17_pairs() {
        // random transition faults on random pairs, each graded alone
        use rand::Rng;
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::transition(&c17);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let v1 = Pattern::random(&mut rng, 5);
            let v2 = Pattern::random(&mut rng, 5);
            let fault = faults.faults()[rng.gen_range(0..faults.len())];

            let naive = detects(&c17, fault, Some(&v1), &v2);

            let single: FaultList = [fault].into_iter().collect();
            let mut sim = FaultSim::new(&c17, single);
            sim.simulate(&[v1.clone(), v2.clone()]);
            let packed = sim.report().detected == 1;
            assert_eq!(naive, packed, "{} on ({v1}, {v2})", fault.describe(&c17));
        }
    }

    #[test]
    fn transition_launch_direction_is_respected() {
        use bist_fault::Transition;
        let c17 = bist_netlist::iscas85::c17();
        let a = c17.inputs()[0];
        let stem = |transition| Fault::Transition {
            site: a,
            pin: None,
            transition,
        };
        let (rise, fall) = (stem(Transition::SlowToRise), stem(Transition::SlowToFall));
        // input 0 steps 0 -> 1 while the other inputs hold: brute-force
        // the side inputs for a propagating assignment
        let mut rise_hit = false;
        let mut fall_hit = false;
        for v in 0u32..16 {
            let lo = Pattern::from_fn(5, |i| i > 0 && (v >> (i - 1)) & 1 == 1);
            let mut hi = lo.clone();
            hi.set(0, true);
            if detects(&c17, rise, Some(&lo), &hi) {
                rise_hit = true;
                assert!(
                    !detects(&c17, rise, Some(&hi), &lo),
                    "opposite order must fail"
                );
            }
            fall_hit |= detects(&c17, fall, Some(&hi), &lo);
            assert!(!detects(&c17, rise, None, &hi), "nothing launches at t=0");
        }
        assert!(rise_hit && fall_hit);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn ppsfp_matches_serial_on_c432_random(seed in any::<u64>()) {
            let c = bist_netlist::iscas85::circuit("c432").unwrap();
            let faults = FaultList::mixed_model(&c);
            let mut rng = StdRng::seed_from_u64(seed);
            let patterns: Vec<Pattern> = (0..80)
                .map(|_| Pattern::random(&mut rng, c.inputs().len()))
                .collect();
            // serial grading is slow: sample a slice of the universe
            let sampled: Vec<Fault> = faults
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % 37 == 0)
                .map(|(_, f)| f)
                .collect();
            let serial = grade_sequence(&c, &sampled, &patterns);

            let universe: FaultList = sampled.iter().copied().collect();
            let mut ppsfp = FaultSim::new(&c, universe);
            ppsfp.simulate(&patterns);
            for i in 0..sampled.len() {
                prop_assert_eq!(
                    serial[i],
                    ppsfp.first_detection(i),
                    "fault {} disagrees",
                    sampled[i].describe(&c)
                );
            }
        }
    }

    #[test]
    fn stuck_open_requires_named_transition() {
        // NAND(a, b): series-open is detected by 0x -> 11 (output 1 -> 0
        // blocked), observed directly at the output.
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("nand2");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("y", GateKind::Nand, &["a", "b"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let y = c.find("y").unwrap();
        let f = Fault::OpenSeries { site: y };
        let p00: Pattern = "00".parse().unwrap();
        let p11: Pattern = "11".parse().unwrap();
        assert!(detects(&c, f, Some(&p00), &p11));
        assert!(!detects(&c, f, Some(&p11), &p11), "no transition, no test");
        assert!(
            !detects(&c, f, None, &p11),
            "first pattern cannot test opens"
        );

        // parallel-open on pin 0: 11 -> 01 ... pin a goes controlling alone
        let fp = Fault::OpenParallel { site: y, pin: 0 };
        let p01: Pattern = "01".parse().unwrap(); // a=0, b=1
        assert!(detects(&c, fp, Some(&p11), &p01));
        // a=0,b=0: both controlling -> output driven through b's transistor too
        assert!(!detects(&c, fp, Some(&p11), &p00));
    }
}
