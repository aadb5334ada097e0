//! The flattened-core contract: `SimGraph` is a pure re-indexing of
//! `Circuit`, and the levelized bucket-queue cone propagation is
//! bit-identical to the historical heap-ordered walk.
//!
//! Two families of properties:
//!
//! * **layout equivalence** — on random circuits, every `SimGraph` array
//!   (CSR fan-in/fan-out, kinds, levels, topological order and positions,
//!   output flags, input positions) equals the legacy `Circuit` accessor
//!   it flattens;
//! * **propagation equivalence** — `FaultSim` (bucket queue over CSR)
//!   produces the same statuses and first-detection indices as a
//!   test-local replica of the pre-flattening engine: per-fault
//!   `BinaryHeap` ordered by topological position, pointer-chasing
//!   `Circuit` accessors, per-gate fan-in buffers — across random
//!   circuits, pattern streams and every pool width.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bist_core::prelude::*;
use bist_logicsim::PatternBlock;
use bist_netlist::NodeId;
use proptest::prelude::*;

/// Random small circuits (same construction as tests/properties.rs).
fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (2usize..8, 2usize..24, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = CircuitBuilder::new("simgraph-prop");
        let mut pool: Vec<String> = (0..inputs)
            .map(|i| {
                let n = format!("i{i}");
                b.add_input(&n).expect("fresh");
                n
            })
            .collect();
        for g in 0..gates {
            let kinds = [
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
                GateKind::Not,
                GateKind::Buf,
            ];
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                _ => 2 + usize::from(rng.gen_bool(0.3)),
            };
            let mut fanin: Vec<String> = Vec::new();
            while fanin.len() < arity {
                let cand = pool[rng.gen_range(0..pool.len())].clone();
                if !fanin.contains(&cand) {
                    fanin.push(cand);
                } else if fanin.len() >= pool.len() {
                    break;
                }
            }
            let name = format!("g{g}");
            let refs: Vec<&str> = fanin.iter().map(String::as_str).collect();
            b.add_gate(&name, kind, &refs).expect("fresh");
            pool.push(name);
        }
        let n = pool.len();
        b.mark_output(&pool[n - 1]).expect("fresh");
        if n >= 2 && pool[n - 2] != pool[n - 1] {
            let _ = b.mark_output(&pool[n - 2]);
        }
        b.build().expect("generated circuits are valid")
    })
}

// --------------------------------------------------------------------
// Reference engine: the pre-flattening PPSFP block loop, verbatim
// semantics — BinaryHeap ordered by (topo position, node id), per-gate
// fan-in buffer, `Circuit` pointer-chasing — used as the oracle the
// bucket-queue engine must match bit for bit.
// --------------------------------------------------------------------

struct HeapRef<'c> {
    circuit: &'c Circuit,
    topo_pos: Vec<u32>,
    status: Vec<FaultStatus>,
    first: Vec<Option<u32>>,
    seen: u32,
    last_bits: Vec<bool>,
}

impl<'c> HeapRef<'c> {
    fn new(circuit: &'c Circuit, universe: usize) -> Self {
        let mut topo_pos = vec![0u32; circuit.num_nodes()];
        for (pos, &id) in circuit.topo_order().iter().enumerate() {
            topo_pos[id.index()] = pos as u32;
        }
        HeapRef {
            circuit,
            topo_pos,
            status: vec![FaultStatus::Undetected; universe],
            first: vec![None; universe],
            seen: 0,
            last_bits: vec![false; circuit.num_nodes()],
        }
    }

    fn grade(&mut self, faults: &FaultList, patterns: &[Pattern]) {
        for chunk in patterns.chunks(64) {
            let block = PatternBlock::pack(self.circuit, chunk);
            let valid = block.valid_mask();
            let mut packed = PackedSim::new(self.circuit);
            packed.run(&block);
            let good: Vec<u64> = packed.values().to_vec();
            let first_ever = self.seen == 0;
            let prev: Vec<u64> = good
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let carry = if first_ever {
                        g & 1
                    } else {
                        u64::from(self.last_bits[i])
                    };
                    (g << 1) | carry
                })
                .collect();
            let last = block.count() - 1;
            for (i, g) in good.iter().enumerate() {
                self.last_bits[i] = (g >> last) & 1 == 1;
            }
            for (fi, &fault) in faults.iter().enumerate() {
                if self.status[fi] != FaultStatus::Undetected {
                    continue;
                }
                if let Some(mask) = self.try_detect(&good, &prev, valid, fault) {
                    self.status[fi] = FaultStatus::Detected;
                    self.first[fi] = Some(self.seen + mask.trailing_zeros());
                }
            }
            self.seen += block.count() as u32;
        }
    }

    fn seed_value(
        &self,
        good: &[u64],
        prev: &[u64],
        valid: u64,
        fault: Fault,
    ) -> Option<(NodeId, u64)> {
        let memory_seed = |site: NodeId, excite: u64| {
            let g = good[site.index()];
            let fv = (g & !excite) | (prev[site.index()] & excite);
            ((fv ^ g) & valid != 0).then_some((site, fv))
        };
        match fault {
            Fault::StuckAt {
                site,
                pin: None,
                value,
            } => {
                let forced = if value { !0u64 } else { 0 };
                ((good[site.index()] ^ forced) & valid != 0).then_some((site, forced))
            }
            Fault::StuckAt {
                site,
                pin: Some(p),
                value,
            } => {
                let node = self.circuit.node(site);
                let forced = if value { !0u64 } else { 0 };
                let fanin: Vec<u64> = node
                    .fanin()
                    .iter()
                    .enumerate()
                    .map(|(k, f)| {
                        if k == p as usize {
                            forced
                        } else {
                            good[f.index()]
                        }
                    })
                    .collect();
                let fv = node.kind().eval_word(&fanin);
                ((fv ^ good[site.index()]) & valid != 0).then_some((site, fv))
            }
            Fault::OpenSeries { site } => {
                let node = self.circuit.node(site);
                let c = node.kind().controlling_value()?;
                let mut now = !0u64;
                let mut before = !0u64;
                for f in node.fanin() {
                    let n = good[f.index()];
                    let b = prev[f.index()];
                    now &= if c { !n } else { n };
                    before &= if c { !b } else { b };
                }
                memory_seed(site, now & !before)
            }
            Fault::OpenParallel { site, pin } => {
                let node = self.circuit.node(site);
                let c = node.kind().controlling_value()?;
                let mut only_p = !0u64;
                let mut before = !0u64;
                for (k, f) in node.fanin().iter().enumerate() {
                    let n = good[f.index()];
                    let b = prev[f.index()];
                    if k == pin as usize {
                        only_p &= if c { n } else { !n };
                    } else {
                        only_p &= if c { !n } else { n };
                    }
                    before &= if c { !b } else { b };
                }
                memory_seed(site, only_p & before)
            }
            Fault::OpenRise { site } => {
                let g = good[site.index()];
                memory_seed(site, g & !prev[site.index()])
            }
            Fault::OpenFall { site } => {
                let g = good[site.index()];
                memory_seed(site, !g & prev[site.index()])
            }
            Fault::Transition { .. } => unreachable!("the replica grades the mixed universe"),
        }
    }

    fn try_detect(&self, good: &[u64], prev: &[u64], valid: u64, fault: Fault) -> Option<u64> {
        let (site, seed) = self.seed_value(good, prev, valid, fault)?;
        let n = self.circuit.num_nodes();
        let mut fval = vec![0u64; n];
        let mut known = vec![false; n];
        fval[site.index()] = seed;
        known[site.index()] = true;
        let mut detect = 0u64;
        if self.circuit.is_output(site) {
            detect |= (seed ^ good[site.index()]) & valid;
        }
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &s in self.circuit.fanout(site) {
            heap.push(Reverse((self.topo_pos[s.index()], s.index() as u32)));
        }
        let mut fanin_buf: Vec<u64> = Vec::new();
        let mut last_popped = u32::MAX;
        while let Some(Reverse((pos, idx))) = heap.pop() {
            if pos == last_popped {
                continue;
            }
            last_popped = pos;
            let id = NodeId::from_index(idx as usize);
            let node = self.circuit.node(id);
            if !node.kind().is_combinational() {
                continue;
            }
            fanin_buf.clear();
            fanin_buf.extend(node.fanin().iter().map(|f| {
                if known[f.index()] {
                    fval[f.index()]
                } else {
                    good[f.index()]
                }
            }));
            let fv = node.kind().eval_word(&fanin_buf);
            if fv == good[id.index()] {
                continue;
            }
            fval[id.index()] = fv;
            known[id.index()] = true;
            if self.circuit.is_output(id) {
                detect |= (fv ^ good[id.index()]) & valid;
            }
            for &s in self.circuit.fanout(id) {
                heap.push(Reverse((self.topo_pos[s.index()], s.index() as u32)));
            }
        }
        (detect != 0).then_some(detect)
    }
}

fn random_patterns(circuit: &Circuit, seed: u64, count: usize) -> Vec<Pattern> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Pattern::random(&mut rng, circuit.inputs().len()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simgraph_equals_legacy_accessors(c in arb_circuit()) {
        let g = c.sim_graph();
        prop_assert_eq!(g.num_nodes(), c.num_nodes());
        for id in 0..c.num_nodes() {
            let nid = NodeId::from_index(id);
            let node = c.node(nid);
            prop_assert_eq!(g.kind(id), node.kind(), "kind of {}", id);
            prop_assert_eq!(g.level(id), c.level(nid), "level of {}", id);
            prop_assert_eq!(g.is_output(id), c.is_output(nid), "output flag of {}", id);
            let fi: Vec<usize> = g.fanin(id).iter().map(|&f| f as usize).collect();
            let fi_legacy: Vec<usize> = node.fanin().iter().map(|f| f.index()).collect();
            prop_assert_eq!(fi, fi_legacy, "fanin of {}", id);
            let fo: Vec<usize> = g.fanout(id).iter().map(|&f| f as usize).collect();
            let fo_legacy: Vec<usize> = c.fanout(nid).iter().map(|f| f.index()).collect();
            prop_assert_eq!(fo, fo_legacy, "fanout of {}", id);
        }
        let topo: Vec<usize> = g.topo().iter().map(|&i| i as usize).collect();
        let topo_legacy: Vec<usize> = c.topo_order().iter().map(|i| i.index()).collect();
        prop_assert_eq!(&topo, &topo_legacy, "topological order");
        for (pos, &id) in topo.iter().enumerate() {
            prop_assert_eq!(g.topo_pos(id) as usize, pos, "topo position of {}", id);
        }
        prop_assert_eq!(g.num_levels(), c.depth() + 1);
        let ins: Vec<usize> = g.inputs().iter().map(|&i| i as usize).collect();
        let ins_legacy: Vec<usize> = c.inputs().iter().map(|i| i.index()).collect();
        prop_assert_eq!(ins, ins_legacy, "inputs");
        let outs: Vec<usize> = g.outputs().iter().map(|&o| o as usize).collect();
        let outs_legacy: Vec<usize> = c.outputs().iter().map(|o| o.index()).collect();
        prop_assert_eq!(outs, outs_legacy, "outputs");
        for (pos, pi) in c.inputs().iter().enumerate() {
            prop_assert_eq!(g.input_pos(pi.index()), Some(pos));
        }
        for id in 0..c.num_nodes() {
            if c.node(NodeId::from_index(id)).kind() != GateKind::Input {
                prop_assert_eq!(g.input_pos(id), None, "non-input {}", id);
            }
        }
    }

    #[test]
    fn bucket_queue_matches_heap_reference(c in arb_circuit(), seed in any::<u64>()) {
        let faults = FaultList::mixed_model(&c);
        let patterns = random_patterns(&c, seed, 150);

        let mut reference = HeapRef::new(&c, faults.len());
        // chunked feeding exercises the stuck-open carry across blocks
        reference.grade(&faults, &patterns[..97]);
        reference.grade(&faults, &patterns[97..]);

        for threads in [1usize, 2, 4] {
            let mut sim = FaultSim::new(&c, faults.clone()).with_threads(threads);
            sim.simulate(&patterns[..97]);
            sim.simulate(&patterns[97..]);
            prop_assert_eq!(sim.statuses(), &reference.status[..], "threads={}", threads);
            for fi in 0..faults.len() {
                prop_assert_eq!(
                    sim.first_detection(fi),
                    reference.first[fi],
                    "fault {} at threads={}",
                    fi,
                    threads
                );
            }
        }
    }
}

#[test]
fn bucket_queue_matches_heap_reference_on_c432() {
    let c = iscas85::circuit("c432").expect("known benchmark");
    let faults = FaultList::mixed_model(&c);
    let patterns = random_patterns(&c, 0xB157, 192);

    let mut reference = HeapRef::new(&c, faults.len());
    reference.grade(&faults, &patterns);

    for threads in [1usize, 4] {
        let mut sim = FaultSim::new(&c, faults.clone()).with_threads(threads);
        sim.simulate(&patterns);
        assert_eq!(sim.statuses(), &reference.status[..], "threads={threads}");
        for fi in 0..faults.len() {
            assert_eq!(
                sim.first_detection(fi),
                reference.first[fi],
                "fault {fi} at threads={threads}"
            );
        }
    }
}
