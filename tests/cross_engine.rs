//! Cross-engine consistency tests: every independent implementation of the
//! same semantics must agree (bit-parallel vs naive simulation, PPSFP vs
//! serial fault grading, software LFSR vs synthesized hardware, PODEM
//! tests vs fault-simulator verdicts).

use bist_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn packed_vs_naive_on_three_profiles() {
    let mut rng = StdRng::seed_from_u64(2024);
    for name in ["c432", "c499", "c880"] {
        let c = iscas85::circuit(name).unwrap();
        let patterns: Vec<Pattern> = (0..64)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();
        let block = bist_logicsim::PatternBlock::pack(&c, &patterns);
        let mut sim = PackedSim::new(&c);
        let outs = sim.run(&block);
        for (j, p) in patterns.iter().enumerate() {
            let naive = bist_logicsim::naive_eval(&c, &p.to_bits());
            for (o, out_id) in c.outputs().iter().enumerate() {
                assert_eq!(
                    (outs[o] >> j) & 1 == 1,
                    naive[out_id.index()],
                    "{name}: output {o}, pattern {j}"
                );
            }
        }
    }
}

#[test]
fn ppsfp_vs_serial_on_c880_sampled_universe() {
    let c = iscas85::circuit("c880").unwrap();
    let universe = FaultList::mixed_model(&c);
    let sampled: FaultList = universe
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % 23 == 0)
        .map(|(_, f)| f)
        .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let patterns: Vec<Pattern> = (0..120)
        .map(|_| Pattern::random(&mut rng, c.inputs().len()))
        .collect();

    let serial = bist_faultsim::serial::grade_sequence(&c, sampled.faults(), &patterns);
    let mut ppsfp = FaultSim::new(&c, sampled.clone());
    ppsfp.simulate(&patterns);
    for (i, &graded) in serial.iter().enumerate() {
        assert_eq!(
            graded,
            ppsfp.first_detection(i),
            "fault {}",
            sampled.get(i).unwrap().describe(&c)
        );
    }
}

#[test]
fn podem_patterns_verified_by_independent_grader() {
    let c = iscas85::circuit("c1355").unwrap();
    let faults = FaultList::stuck_at_collapsed(&c);
    let mut checked = 0;
    for fault in faults.iter().step_by(31) {
        let Fault::StuckAt { site, pin, value } = *fault else {
            continue;
        };
        let outcome = bist_atpg::podem(
            &c,
            bist_logicsim::InjectedFault {
                site,
                pin,
                stuck: value,
            },
            bist_atpg::PodemOptions::default(),
        );
        if let bist_atpg::PodemOutcome::Test(p) = outcome {
            assert!(
                bist_faultsim::serial::detects(&c, *fault, None, &p),
                "PODEM pattern fails independent grading for {}",
                fault.describe(&c)
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "too few faults exercised ({checked})");
}

#[test]
fn lfsrom_software_eval_equals_hardware_replay() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut seq: Vec<Pattern> = Vec::new();
    while seq.len() < 20 {
        let p = Pattern::random(&mut rng, 12);
        if !seq.contains(&p) {
            seq.push(p); // distinct patterns: the state *is* the pattern
        }
    }
    let generator = LfsromGenerator::synthesize(&seq).unwrap();
    assert_eq!(generator.extra_flip_flops(), 0);
    // software: iterate the next-state network
    let net = generator.network();
    let mut state = seq[0].clone();
    let mut software = vec![state.clone()];
    for _ in 1..seq.len() {
        state = net.eval(&state);
        software.push(state.clone());
    }
    assert_eq!(software, seq);
    // hardware: clock the netlist
    assert_eq!(generator.replay(seq.len()), seq);
}

#[test]
fn incremental_imply_equals_full_imply() {
    use bist_logicsim::{FiveValueSim, InjectedFault};
    let c = iscas85::circuit("c432").unwrap();
    let fault = InjectedFault {
        site: c.outputs()[0],
        pin: None,
        stuck: false,
    };
    let mut rng = StdRng::seed_from_u64(3);
    let mut incremental = FiveValueSim::new(&c, Some(fault));
    incremental.imply();
    let mut reference = FiveValueSim::new(&c, Some(fault));
    for step in 0..200 {
        let pi = rand::Rng::gen_range(&mut rng, 0..c.inputs().len());
        let v = match rand::Rng::gen_range(&mut rng, 0..3) {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        };
        incremental.set_input(pi, v);
        incremental.imply_from_input(pi);
        reference.set_input(pi, v);
        reference.imply();
        for idx in 0..c.num_nodes() {
            let id = bist_netlist::NodeId::from_index(idx);
            assert_eq!(
                incremental.value(id),
                reference.value(id),
                "step {step}: node {id} diverged"
            );
        }
    }
}

/// PODEM-style random decision walks over the undo trail: assign inputs
/// one at a time, each under a trail mark, and now and then pop a random
/// number of decisions back to `X` with one `undo_to`. After every undo
/// the simulator must hold exactly what a full implication of the
/// remaining assignment computes — unfaulted, under stem and pin faults,
/// and on a scoped simulator.
#[test]
fn undo_trail_matches_full_imply_on_random_walks() {
    use bist_logicsim::{FiveValueSim, InjectedFault};
    use bist_netlist::NodeId;
    use rand::Rng;

    for name in ["c432", "c1908"] {
        let c = iscas85::circuit(name).unwrap();
        let mid = c.topo_order()[c.num_nodes() / 2];
        let multi_input = *c
            .topo_order()
            .iter()
            .find(|&&id| c.node(id).fanin().len() >= 2)
            .expect("a multi-input gate");
        // fan-in cone of the first three outputs: a fan-in closed scope
        let mut scope = vec![false; c.num_nodes()];
        let mut stack: Vec<NodeId> = c.outputs().iter().take(3).copied().collect();
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut scope[id.index()], true) {
                stack.extend(c.node(id).fanin().iter().copied());
            }
        }
        let stem = InjectedFault {
            site: mid,
            pin: None,
            stuck: true,
        };
        let pin = InjectedFault {
            site: multi_input,
            pin: Some(1),
            stuck: false,
        };
        let setups = [
            (None, None),
            (Some(stem), None),
            (Some(pin), None),
            (Some(stem), Some(scope)),
        ];
        for (case, (fault, scope)) in setups.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(7 + case as u64);
            let mut sim = FiveValueSim::new(&c, fault);
            let mut reference = FiveValueSim::new(&c, fault);
            if let Some(scope) = scope {
                sim.restrict_scope(scope.clone());
                reference.restrict_scope(scope);
            }
            sim.imply();
            let width = c.inputs().len();
            let mut decisions: Vec<(usize, usize)> = Vec::new();
            let mut undos = 0;
            for step in 0..400 {
                let free: Vec<usize> = (0..width).filter(|&i| sim.input(i).is_none()).collect();
                if !free.is_empty() && rng.gen_range(0..4) != 0 {
                    let pi = free[rng.gen_range(0..free.len())];
                    decisions.push((pi, sim.trail_mark()));
                    sim.set_input(pi, Some(rng.gen()));
                    sim.imply_from_input(pi);
                    continue;
                }
                if decisions.is_empty() {
                    continue;
                }
                let keep = rng.gen_range(0..decisions.len());
                let mark = decisions[keep].1;
                for (pi, _) in decisions.drain(keep..) {
                    sim.set_input(pi, None);
                }
                sim.undo_to(mark);
                undos += 1;
                for i in 0..width {
                    reference.set_input(i, sim.input(i));
                }
                reference.imply();
                for idx in 0..c.num_nodes() {
                    let id = NodeId::from_index(idx);
                    assert_eq!(
                        sim.value(id),
                        reference.value(id),
                        "{name} case {case} step {step}: node {id} diverged after undo"
                    );
                }
            }
            assert!(undos > 20, "{name} case {case}: only {undos} undos");
        }
    }
}
