use bist_logicsim::{FiveValueSim, InjectedFault, Pattern, V5};
use bist_netlist::{Circuit, GateKind, NodeId};

use crate::cube::TestCube;

/// Tuning knobs for the PODEM search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemOptions {
    /// Give up (returning [`PodemOutcome::Aborted`]) after this many
    /// backtracks. A search that terminates *without* hitting the limit has
    /// explored the full input space and proves redundancy.
    pub backtrack_limit: u32,
    /// Seed for filling unassigned inputs in emitted patterns. Random fill
    /// maximizes collateral fault detection during fault dropping (0-fill
    /// produces nearly identical patterns across targets); detection of the
    /// targeted fault is guaranteed for *any* fill.
    pub fill_seed: u64,
}

impl Default for PodemOptions {
    fn default() -> Self {
        PodemOptions {
            backtrack_limit: 2_000,
            fill_seed: 0x5eed_cafe,
        }
    }
}

/// Result of a PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test pattern was found (unassigned inputs filled with 0).
    Test(Pattern),
    /// The search space was exhausted: the fault is untestable
    /// (redundant) / the justification goal is unsatisfiable.
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

impl PodemOutcome {
    /// The test pattern, if one was found.
    pub fn pattern(&self) -> Option<&Pattern> {
        match self {
            PodemOutcome::Test(p) => Some(p),
            _ => None,
        }
    }
}

/// Result of a PODEM run that also reports the pre-fill test cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubeOutcome {
    /// A test was found.
    Test {
        /// The emitted pattern (cube plus don't-care fill).
        pattern: Pattern,
        /// The assignments the search committed to; every pattern matching
        /// this cube detects the target.
        cube: TestCube,
    },
    /// The search space was exhausted: the fault is untestable (redundant)
    /// / the justification goal is unsatisfiable.
    Redundant,
    /// The backtrack limit was hit before a conclusion.
    Aborted,
}

impl CubeOutcome {
    /// Drops the cube, keeping only the filled pattern.
    pub fn into_podem_outcome(self) -> PodemOutcome {
        match self {
            CubeOutcome::Test { pattern, .. } => PodemOutcome::Test(pattern),
            CubeOutcome::Redundant => PodemOutcome::Redundant,
            CubeOutcome::Aborted => PodemOutcome::Aborted,
        }
    }
}

/// Generates a test for a single stuck-at fault with the PODEM algorithm.
///
/// `fault` uses the injection addressing of
/// [`InjectedFault`]: `pin: None` for stem faults, `pin: Some(k)` for the
/// branch seen by fan-in `k` of node `site`.
///
/// # Example
///
/// ```
/// use bist_atpg::{podem, PodemOptions, PodemOutcome};
/// use bist_logicsim::InjectedFault;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let outcome = podem(
///     &c17,
///     InjectedFault { site: g10, pin: None, stuck: false },
///     PodemOptions::default(),
/// );
/// assert!(matches!(outcome, PodemOutcome::Test(_)));
/// ```
pub fn podem(circuit: &Circuit, fault: InjectedFault, options: PodemOptions) -> PodemOutcome {
    podem_cube(circuit, fault, options).into_podem_outcome()
}

/// Like [`podem`], but additionally reports the *test cube* — the input
/// assignments the search committed to, with every other input left as a
/// don't-care. Test-set-encoding architectures (LFSR reseeding) consume the
/// cube rather than the filled pattern.
///
/// # Example
///
/// ```
/// use bist_atpg::{podem_cube, CubeOutcome, PodemOptions};
/// use bist_logicsim::InjectedFault;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let fault = InjectedFault { site: g10, pin: None, stuck: false };
/// match podem_cube(&c17, fault, PodemOptions::default()) {
///     CubeOutcome::Test { pattern, cube } => {
///         assert!(cube.matches(&pattern));
///         assert!(cube.num_specified() <= pattern.len());
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
pub fn podem_cube(circuit: &Circuit, fault: InjectedFault, options: PodemOptions) -> CubeOutcome {
    Search::new(circuit, Goal::Detect(fault), options).run()
}

/// Finds an input pattern giving every listed node its required good value
/// (no fault injected), or proves none exists. Used for the initialization
/// half of stuck-open pattern pairs.
///
/// # Example
///
/// ```
/// use bist_atpg::{justify, PodemOptions, PodemOutcome};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g22 = c17.find("G22").unwrap();
/// let outcome = justify(&c17, &[(g22, false)], PodemOptions::default());
/// assert!(matches!(outcome, PodemOutcome::Test(_)));
/// ```
pub fn justify(
    circuit: &Circuit,
    requirements: &[(NodeId, bool)],
    options: PodemOptions,
) -> PodemOutcome {
    justify_cube(circuit, requirements, options).into_podem_outcome()
}

/// Like [`justify`], but reports the pre-fill [`TestCube`]; see
/// [`podem_cube`].
pub fn justify_cube(
    circuit: &Circuit,
    requirements: &[(NodeId, bool)],
    options: PodemOptions,
) -> CubeOutcome {
    Search::new(circuit, Goal::Justify(requirements.to_vec()), options).run()
}

/// Applies the deterministic X-fill to a pre-fill cube: specified bits
/// pass through, don't-cares are filled by a sparse xorshift stream — 1s
/// with probability 1/8. Fully random fill maximizes collateral detection
/// but makes the deterministic sequence incompressible (the LFSROM
/// two-level network blows up); all-zero fill compresses best but
/// patterns barely differ. Sparse biased fill keeps both properties.
///
/// This is exactly the fill a search performs when it reaches its goal,
/// exposed separately because the search *decisions* (and therefore the
/// cube) never depend on `fill_seed` — so one search's cube can be
/// re-filled for any consumer whose seed differs.
pub fn fill_cube(cube: &TestCube, fill_seed: u64) -> Pattern {
    let mut fill = fill_seed | 1;
    Pattern::from_fn(cube.len(), |i| {
        cube.get(i).unwrap_or_else(|| {
            fill ^= fill << 13;
            fill ^= fill >> 7;
            fill ^= fill << 17;
            fill & 7 == 7
        })
    })
}

#[derive(Debug, Clone)]
enum Goal {
    Detect(InjectedFault),
    Justify(Vec<(NodeId, bool)>),
}

enum Objective {
    /// The goal already holds under the current assignment.
    Achieved,
    /// Next value to pursue: drive `node` (a node with unknown good value)
    /// to `value`.
    Drive(NodeId, bool),
    /// The goal is unreachable under the current partial assignment:
    /// backtrack.
    Stuck,
}

/// One PODEM decision: a primary input assignment.
struct Decision {
    /// Input position.
    pi: usize,
    /// The value currently assigned.
    value: bool,
    /// True once the alternative value has been tried.
    flipped: bool,
    /// The simulator's undo-trail mark taken before the assignment.
    mark: usize,
}

struct Search<'c> {
    circuit: &'c Circuit,
    sim: FiveValueSim<'c>,
    goal: Goal,
    options: PodemOptions,
    /// Decision stack, oldest decision first.
    stack: Vec<Decision>,
    backtracks: u32,
    /// Minimum distance (in gates) from each node to any primary output —
    /// the D-frontier selection heuristic.
    po_distance: Vec<u32>,
    /// Fan-out cone of the fault site (topological order); fault effects —
    /// and therefore the D-frontier and every X-path to an output — live
    /// entirely inside it, so per-iteration scans touch only the cone.
    cone: Vec<NodeId>,
    in_cone: Vec<bool>,
    /// Primary outputs inside the cone.
    cone_outputs: Vec<NodeId>,
    /// Scratch buffer for the X-path reachability sweep.
    reach: Vec<bool>,
}

impl<'c> Search<'c> {
    fn new(circuit: &'c Circuit, goal: Goal, options: PodemOptions) -> Self {
        let fault = match goal {
            Goal::Detect(f) => Some(f),
            Goal::Justify(_) => None,
        };
        let mut po_distance = vec![u32::MAX; circuit.num_nodes()];
        for &o in circuit.outputs() {
            po_distance[o.index()] = 0;
        }
        for &id in circuit.topo_order().iter().rev() {
            let d = po_distance[id.index()];
            if d == u32::MAX {
                continue;
            }
            for &f in circuit.node(id).fanin() {
                po_distance[f.index()] = po_distance[f.index()].min(d + 1);
            }
        }
        let cone = match fault {
            Some(f) => circuit.fanout_cone(f.site),
            None => Vec::new(),
        };
        let mut in_cone = vec![false; circuit.num_nodes()];
        for &id in &cone {
            in_cone[id.index()] = true;
        }
        let cone_outputs = cone
            .iter()
            .copied()
            .filter(|&id| circuit.is_output(id))
            .collect();
        let mut sim = FiveValueSim::new(circuit, fault);
        if let Goal::Justify(reqs) = &goal {
            // A justification search only ever reads the requirement
            // nodes, the fan-in chains its backtrace walks down from them,
            // and the raw input assignments — all inside the requirements'
            // fan-in cone. Scoping implication to that cone keeps every
            // value the search can observe bit-identical (the mask is
            // fan-in closed) while skipping the rest of each input's
            // fan-out cone, which on deep circuits is most of the netlist.
            let mut in_scope = vec![false; circuit.num_nodes()];
            let mut stack: Vec<NodeId> = Vec::new();
            for &(node, _) in reqs {
                if !in_scope[node.index()] {
                    in_scope[node.index()] = true;
                    stack.push(node);
                }
            }
            while let Some(id) = stack.pop() {
                for &f in circuit.node(id).fanin() {
                    if !in_scope[f.index()] {
                        in_scope[f.index()] = true;
                        stack.push(f);
                    }
                }
            }
            sim.restrict_scope(in_scope);
        }
        Search {
            circuit,
            sim,
            goal,
            options,
            stack: Vec::new(),
            backtracks: 0,
            po_distance,
            cone,
            in_cone,
            cone_outputs,
            reach: vec![false; circuit.num_nodes()],
        }
    }

    /// True if a fault effect has reached a primary output.
    fn fault_at_output(&self) -> bool {
        self.cone_outputs
            .iter()
            .any(|&o| self.sim.value(o).is_fault_effect())
    }

    /// The D-frontier, scanning only the fault cone.
    fn d_frontier(&self) -> Vec<NodeId> {
        let mut frontier = Vec::new();
        for &id in &self.cone {
            let node = self.circuit.node(id);
            if !node.kind().is_combinational() || !self.sim.value(id).is_unknown() {
                continue;
            }
            if node
                .fanin()
                .iter()
                .any(|f| self.sim.value(*f).is_fault_effect())
            {
                frontier.push(id);
            }
        }
        frontier
    }

    /// True if some frontier gate still has an X-path (through the cone)
    /// to a primary output.
    fn x_path_exists(&mut self, frontier: &[NodeId]) -> bool {
        for &id in &self.cone {
            self.reach[id.index()] = false;
        }
        for &o in &self.cone_outputs {
            if self.sim.value(o).is_unknown() {
                self.reach[o.index()] = true;
            }
        }
        for &id in self.cone.iter().rev() {
            if !self.reach[id.index()] {
                continue;
            }
            for &f in self.circuit.node(id).fanin() {
                if self.in_cone[f.index()] && self.sim.value(f).is_unknown() {
                    self.reach[f.index()] = true;
                }
            }
        }
        frontier.iter().any(|g| {
            self.reach[g.index()]
                || self
                    .circuit
                    .fanout(*g)
                    .iter()
                    .any(|s| self.reach[s.index()])
        })
    }

    /// Pushes the decision `pi = value` and implies it.
    fn decide(&mut self, pi: usize, value: bool, flipped: bool) {
        self.stack.push(Decision {
            pi,
            value,
            flipped,
            mark: self.sim.trail_mark(),
        });
        self.sim.set_input(pi, Some(value));
        self.sim.imply_from_input(pi);
    }

    fn run(&mut self) -> CubeOutcome {
        self.sim.imply();
        loop {
            match self.objective() {
                Objective::Achieved => {
                    let width = self.circuit.inputs().len();
                    let cube = TestCube::from_bits((0..width).map(|i| self.sim.input(i)).collect());
                    let pattern = fill_cube(&cube, self.options.fill_seed);
                    return CubeOutcome::Test { pattern, cube };
                }
                Objective::Drive(node, value) => match self.backtrace(node, value) {
                    Some((pi, v)) => self.decide(pi, v, false),
                    None => {
                        if let Some(outcome) = self.backtrack() {
                            return outcome;
                        }
                    }
                },
                Objective::Stuck => {
                    if let Some(outcome) = self.backtrack() {
                        return outcome;
                    }
                }
            }
        }
    }

    /// Reverts decisions until an untried alternative exists. Returns
    /// `Some(outcome)` when the search ends.
    ///
    /// The popped inputs go back to `X` and one [`FiveValueSim::undo_to`]
    /// restores every node value to the flipped decision's pre-assignment
    /// state, so only the flipped value is implied. Node values are a pure
    /// function of the input assignment, so this reaches exactly the state
    /// re-implying each popped input would.
    fn backtrack(&mut self) -> Option<CubeOutcome> {
        self.backtracks += 1;
        if self.backtracks > self.options.backtrack_limit {
            return Some(CubeOutcome::Aborted);
        }
        while let Some(decision) = self.stack.pop() {
            self.sim.set_input(decision.pi, None);
            if !decision.flipped {
                self.sim.undo_to(decision.mark);
                self.decide(decision.pi, !decision.value, true);
                return None;
            }
        }
        Some(CubeOutcome::Redundant)
    }

    fn objective(&mut self) -> Objective {
        if let Goal::Detect(fault) = &self.goal {
            let fault = *fault;
            return self.detect_objective(fault);
        }
        let Goal::Justify(reqs) = &self.goal else {
            unreachable!("goals are Detect or Justify");
        };
        for &(node, value) in reqs {
            match self.sim.value(node).good() {
                None => return Objective::Drive(node, value),
                Some(v) if v != value => return Objective::Stuck,
                Some(_) => {}
            }
        }
        Objective::Achieved
    }

    fn detect_objective(&mut self, fault: InjectedFault) -> Objective {
        if self.fault_at_output() {
            return Objective::Achieved;
        }
        // --- activation phase ---
        match fault.pin {
            None => match self.sim.value(fault.site).good() {
                None => return Objective::Drive(fault.site, !fault.stuck),
                Some(v) if v == fault.stuck => return Objective::Stuck,
                Some(_) => {}
            },
            Some(p) => {
                let gate = self.circuit.node(fault.site);
                let driver = gate.fanin()[p as usize];
                match self.sim.value(driver).good() {
                    None => return Objective::Drive(driver, !fault.stuck),
                    Some(v) if v == fault.stuck => return Objective::Stuck,
                    Some(_) => {}
                }
                // The driver is activated; the difference must still pass
                // through the faulted gate itself.
                let site_value = self.sim.value(fault.site);
                if !site_value.is_fault_effect() {
                    if !site_value.is_unknown() {
                        return Objective::Stuck; // masked by a controlling side input
                    }
                    // drive the side inputs non-controlling
                    match gate.kind().controlling_value() {
                        Some(c) => {
                            for (k, f) in gate.fanin().iter().enumerate() {
                                if k == p as usize {
                                    continue;
                                }
                                match self.sim.value(*f).good() {
                                    None => return Objective::Drive(*f, !c),
                                    Some(v) if v == c => return Objective::Stuck,
                                    Some(_) => {}
                                }
                            }
                        }
                        None => {
                            // XOR family: any defined side value exposes the
                            // difference
                            for (k, f) in gate.fanin().iter().enumerate() {
                                if k == p as usize {
                                    continue;
                                }
                                if self.sim.value(*f).good().is_none() {
                                    return Objective::Drive(*f, false);
                                }
                            }
                        }
                    }
                    return Objective::Stuck;
                }
            }
        }
        // --- propagation phase ---
        let frontier = self.d_frontier();
        if frontier.is_empty() || !self.x_path_exists(&frontier) {
            return Objective::Stuck;
        }
        let gate = frontier
            .into_iter()
            .min_by_key(|g| self.po_distance[g.index()])
            .expect("frontier non-empty");
        let node = self.circuit.node(gate);
        let want = match node.kind().controlling_value() {
            Some(c) => !c,
            None => false,
        };
        for f in node.fanin() {
            if self.sim.value(*f) == V5::X {
                return Objective::Drive(*f, want);
            }
        }
        Objective::Stuck
    }

    /// Walks an objective back to an unassigned primary input through
    /// X-valued nodes, tracking inversion parity.
    fn backtrace(&self, node: NodeId, mut value: bool) -> Option<(usize, bool)> {
        let g = self.circuit.sim_graph();
        let mut node = node.index();
        loop {
            match g.kind(node) {
                GateKind::Input => {
                    let pos = g.input_pos(node).expect("registered input");
                    return Some((pos, value));
                }
                GateKind::Dff | GateKind::Const0 | GateKind::Const1 => return None,
                kind => {
                    value ^= kind.is_inverting();
                    let next = g.fanin(node).iter().find(|&&f| {
                        self.sim
                            .value(NodeId::from_index(f as usize))
                            .good()
                            .is_none()
                    })?;
                    node = *next as usize;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_fault::{Fault, FaultList};
    use bist_faultsim::serial;

    fn as_injected(f: Fault) -> Option<InjectedFault> {
        match f {
            Fault::StuckAt { site, pin, value } => Some(InjectedFault {
                site,
                pin,
                stuck: value,
            }),
            _ => None,
        }
    }

    #[test]
    fn c17_all_collapsed_faults_get_tests() {
        let c17 = bist_netlist::iscas85::c17();
        for fault in FaultList::stuck_at_collapsed(&c17).iter() {
            let injected = as_injected(*fault).unwrap();
            match podem(&c17, injected, PodemOptions::default()) {
                PodemOutcome::Test(p) => {
                    assert!(
                        serial::detects(&c17, *fault, None, &p),
                        "pattern {p} does not detect {}",
                        fault.describe(&c17)
                    );
                }
                other => panic!("{}: {:?}", fault.describe(&c17), other),
            }
        }
    }

    #[test]
    fn proves_planted_redundancy() {
        use bist_netlist::CircuitBuilder;
        // r = OR(a, AND(a, b)): AND output stuck-at-0 is redundant.
        let mut b = CircuitBuilder::new("red");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("t", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("r", GateKind::Or, &["a", "t"]).unwrap();
        b.mark_output("r").unwrap();
        let c = b.build().unwrap();
        let t = c.find("t").unwrap();
        let outcome = podem(
            &c,
            InjectedFault {
                site: t,
                pin: None,
                stuck: false,
            },
            PodemOptions::default(),
        );
        assert_eq!(outcome, PodemOutcome::Redundant);
    }

    #[test]
    fn justify_reaches_both_output_values() {
        let c17 = bist_netlist::iscas85::c17();
        let g23 = c17.find("G23").unwrap();
        for v in [false, true] {
            match justify(&c17, &[(g23, v)], PodemOptions::default()) {
                PodemOutcome::Test(p) => {
                    let values = bist_logicsim::naive_eval(&c17, &p.to_bits());
                    assert_eq!(values[g23.index()], v);
                }
                other => panic!("justify {v}: {other:?}"),
            }
        }
    }

    #[test]
    fn justify_detects_unsatisfiable_goals() {
        use bist_netlist::CircuitBuilder;
        // y = AND(a, NOT(a)) is constant 0.
        let mut b = CircuitBuilder::new("const");
        b.add_input("a").unwrap();
        b.add_gate("na", GateKind::Not, &["a"]).unwrap();
        b.add_gate("y", GateKind::And, &["a", "na"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let y = c.find("y").unwrap();
        assert_eq!(
            justify(&c, &[(y, true)], PodemOptions::default()),
            PodemOutcome::Redundant
        );
        assert!(matches!(
            justify(&c, &[(y, false)], PodemOptions::default()),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn branch_faults_get_tests_on_c432() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::stuck_at_collapsed(&c);
        let mut tested = 0;
        let mut failures = Vec::new();
        for fault in faults
            .iter()
            .filter(|f| matches!(f, Fault::StuckAt { pin: Some(_), .. }))
        {
            let injected = as_injected(*fault).unwrap();
            match podem(&c, injected, PodemOptions::default()) {
                PodemOutcome::Test(p) => {
                    tested += 1;
                    if !serial::detects(&c, *fault, None, &p) {
                        failures.push(fault.describe(&c));
                    }
                }
                PodemOutcome::Redundant | PodemOutcome::Aborted => {}
            }
            if tested > 40 {
                break; // keep the unit test quick
            }
        }
        assert!(tested > 10, "too few branch faults exercised");
        assert!(failures.is_empty(), "bad tests for {failures:?}");
    }

    #[test]
    fn tight_limit_aborts() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        // find some fault that needs > 0 backtracks under a 0 limit:
        // with limit 0 every first backtrack aborts, so any fault whose
        // initial greedy descent fails reports Aborted, never looping.
        let faults = FaultList::stuck_at_collapsed(&c);
        let opts = PodemOptions {
            backtrack_limit: 0,
            ..PodemOptions::default()
        };
        let mut saw_abort = false;
        for fault in faults.iter().take(200) {
            if let Some(injected) = as_injected(*fault) {
                if podem(&c, injected, opts) == PodemOutcome::Aborted {
                    saw_abort = true;
                    break;
                }
            }
        }
        assert!(saw_abort, "expected at least one abort with limit 0");
    }
}
