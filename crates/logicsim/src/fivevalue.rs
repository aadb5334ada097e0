use std::fmt;

use bist_netlist::{Circuit, GateKind, LevelQueue, NodeId, SimGraph};

/// Five-valued composite logic value used by the ATPG: the pair
/// (good-machine value, faulty-machine value) with unknowns.
///
/// * `Zero`/`One` — both machines agree,
/// * `D` — good 1, faulty 0 (the classic Roth notation),
/// * `Dbar` — good 0, faulty 1,
/// * `X` — at least one machine unknown.
///
/// Each discriminant is the value's 4-bit *dual-rail code* (good and
/// faulty machine side by side, see `DESIGN.md`): the implication engine
/// folds gates over these codes directly.
///
/// # Example
///
/// ```
/// use bist_logicsim::V5;
///
/// assert_eq!(V5::from_pair(Some(true), Some(false)), V5::D);
/// assert_eq!(V5::D.good(), Some(true));
/// assert_eq!(V5::D.faulty(), Some(false));
/// assert!(V5::X.is_unknown());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum V5 {
    /// Both machines 0.
    Zero = rail::ZERO,
    /// Both machines 1.
    One = rail::ONE,
    /// Unknown in at least one machine.
    X = rail::X,
    /// Good 1, faulty 0.
    D = rail::D,
    /// Good 0, faulty 1.
    Dbar = rail::DBAR,
}

impl V5 {
    /// Builds the composite value from (good, faulty) three-valued parts.
    /// Any unknown part collapses to `X`.
    pub fn from_pair(good: Option<bool>, faulty: Option<bool>) -> V5 {
        match (good, faulty) {
            (Some(false), Some(false)) => V5::Zero,
            (Some(true), Some(true)) => V5::One,
            (Some(true), Some(false)) => V5::D,
            (Some(false), Some(true)) => V5::Dbar,
            _ => V5::X,
        }
    }

    /// The good-machine component (`None` when unknown).
    pub fn good(self) -> Option<bool> {
        match self {
            V5::Zero | V5::Dbar => Some(false),
            V5::One | V5::D => Some(true),
            V5::X => None,
        }
    }

    /// The faulty-machine component (`None` when unknown).
    pub fn faulty(self) -> Option<bool> {
        match self {
            V5::Zero | V5::D => Some(false),
            V5::One | V5::Dbar => Some(true),
            V5::X => None,
        }
    }

    /// True for `D` or `D̄` — a fault effect visible at this node.
    pub fn is_fault_effect(self) -> bool {
        matches!(self, V5::D | V5::Dbar)
    }

    /// True for `X`.
    pub fn is_unknown(self) -> bool {
        self == V5::X
    }
}

impl fmt::Display for V5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            V5::Zero => "0",
            V5::One => "1",
            V5::X => "X",
            V5::D => "D",
            V5::Dbar => "D'",
        };
        f.write_str(s)
    }
}

/// Dual-rail five-valued gate evaluation.
///
/// A code holds two 2-bit *rails*, good machine in bits 0–1 and faulty
/// machine in bits 2–3. In each rail the low bit means "can be 0" and the
/// high bit "can be 1", so a rail reads `01` for 0, `10` for 1 and `11`
/// for unknown (`00` never occurs):
///
/// | value | faulty rail | good rail | code |
/// |---|---|---|---|
/// | `Zero` | `01` | `01` | `0b0101` |
/// | `One`  | `10` | `10` | `0b1010` |
/// | `D`    | `01` | `10` | `0b0110` |
/// | `Dbar` | `10` | `01` | `0b1001` |
/// | `X`    | `11` | `11` | `0b1111` |
///
/// An AND output can be 1 only if every input can be 1, and can be 0 if
/// any input can be 0, so one bitwise AND and one bitwise OR over the
/// fan-in codes evaluate both machines of an AND/OR gate at once; XOR
/// folds the can-be-1 bits by parity. Intermediate codes may hold a known
/// rail next to an unknown one; `collapse` maps those
/// to `X`, exactly as [`V5::from_pair`] does.
mod rail {
    /// Code of `V5::Zero`.
    pub const ZERO: u8 = 0b0101;
    /// Code of `V5::One`.
    pub const ONE: u8 = 0b1010;
    /// Code of `V5::D`.
    pub const D: u8 = 0b0110;
    /// Code of `V5::Dbar`.
    pub const DBAR: u8 = 0b1001;
    /// Code of `V5::X`.
    pub const X: u8 = 0b1111;
    /// The "can be 0" bit of both rails.
    const CAN0: u8 = 0b0101;
    /// The "can be 1" bit of both rails.
    const CAN1: u8 = 0b1010;

    use super::V5;
    use bist_netlist::GateKind;

    /// The code of a primary input assignment (same value in both
    /// machines).
    #[inline]
    pub fn input(value: Option<bool>) -> u8 {
        match value {
            Some(false) => ZERO,
            Some(true) => ONE,
            None => X,
        }
    }

    /// Inverts both rails (swaps each rail's two bits).
    #[inline]
    fn invert(code: u8) -> u8 {
        ((code & CAN0) << 1) | ((code & CAN1) >> 1)
    }

    /// Replaces the faulty rail with the constant `stuck`.
    #[inline]
    fn force_faulty(code: u8, stuck: bool) -> u8 {
        (code & 0b0011) | if stuck { 0b1000 } else { 0b0100 }
    }

    /// Folds one combinational gate over its fan-in codes.
    #[inline]
    fn gate(kind: GateKind, mut fanin: impl Iterator<Item = u8>) -> u8 {
        match kind {
            GateKind::Const0 => ZERO,
            GateKind::Const1 => ONE,
            GateKind::Buf => fanin.next().unwrap_or(X),
            GateKind::Not => invert(fanin.next().unwrap_or(X)),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let (mut all, mut any) = (X, 0);
                for c in fanin {
                    all &= c;
                    any |= c;
                }
                let out = if matches!(kind, GateKind::And | GateKind::Nand) {
                    (all & CAN1) | (any & CAN0)
                } else {
                    (all & CAN0) | (any & CAN1)
                };
                if matches!(kind, GateKind::Nand | GateKind::Nor) {
                    invert(out)
                } else {
                    out
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let (mut parity, mut unknown) = (0, 0);
                for c in fanin {
                    parity ^= c >> 1;
                    unknown |= c & (c >> 1);
                }
                let (parity, unknown) = (parity & CAN0, unknown & CAN0);
                let out = (parity << 1) | (parity ^ CAN0) | unknown | (unknown << 1);
                if kind == GateKind::Xnor {
                    invert(out)
                } else {
                    out
                }
            }
            GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
        }
    }

    /// Folds one gate whose fan-in pin `pin.0` is stuck at `pin.1` in the
    /// faulty machine (`None`: no pin fault at this gate).
    #[inline]
    pub fn pin_faulted_gate(
        kind: GateKind,
        fanin: impl Iterator<Item = u8>,
        pin: Option<(usize, bool)>,
    ) -> u8 {
        match pin {
            Some((p, stuck)) => gate(
                kind,
                fanin
                    .enumerate()
                    .map(|(k, c)| if k == p { force_faulty(c, stuck) } else { c }),
            ),
            None => gate(kind, fanin),
        }
    }

    /// The node value of `code` under an optional output-stem fault stuck
    /// at `stem`, which overrides the faulty rail. The override applies to
    /// the collapsed value: a gate with either machine unknown stays `X`
    /// even when the fault pins its faulty output.
    #[inline]
    pub fn finish(code: u8, stem: Option<bool>) -> V5 {
        let v = collapse(code);
        match stem {
            Some(stuck) if v != V5::X => collapse(force_faulty(v as u8, stuck)),
            _ => v,
        }
    }

    /// Maps a code to its five-valued meaning: an unknown rail makes the
    /// whole value `X`.
    #[inline]
    fn collapse(code: u8) -> V5 {
        match code {
            ZERO => V5::Zero,
            ONE => V5::One,
            D => V5::D,
            DBAR => V5::Dbar,
            _ => V5::X,
        }
    }
}

/// Description of a single stuck-at fault for injection into
/// [`FiveValueSim`]. `pin: None` is a fault on the node's output stem;
/// `pin: Some(k)` is a fault as seen on fan-in pin `k` of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InjectedFault {
    /// The faulted node (for pin faults: the gate whose pin is faulted).
    pub site: NodeId,
    /// Fan-in pin index, or `None` for the output stem.
    pub pin: Option<u8>,
    /// The stuck value.
    pub stuck: bool,
}

/// Single-pattern five-valued simulator with stuck-at fault injection — the
/// implication engine underneath the PODEM ATPG.
///
/// Assign primary inputs (possibly `X`) with [`FiveValueSim::set_input`],
/// call [`FiveValueSim::imply`] (or [`FiveValueSim::imply_from_input`]
/// after a single input change), then inspect node values.
///
/// Every value the incremental implication overwrites is recorded on an
/// undo trail, so a search can roll back to any earlier point of its
/// current path in one step ([`FiveValueSim::trail_mark`],
/// [`FiveValueSim::undo_to`]) instead of re-implying each input it
/// un-assigns.
///
/// # Example
///
/// ```
/// use bist_logicsim::{FiveValueSim, InjectedFault, V5};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let g10 = c17.find("G10").unwrap();
/// let mut sim = FiveValueSim::new(&c17, Some(InjectedFault {
///     site: g10,
///     pin: None,
///     stuck: true,
/// }));
/// // G1=1, G3=1 drive G10 to 0 in the good machine; the fault makes it D̄.
/// sim.set_input(0, Some(true));
/// sim.set_input(2, Some(true));
/// sim.imply();
/// assert_eq!(sim.value(g10), V5::Dbar);
/// ```
#[derive(Debug)]
pub struct FiveValueSim<'c> {
    circuit: &'c Circuit,
    graph: &'c SimGraph,
    fault: Option<InjectedFault>,
    pi_values: Vec<Option<bool>>,
    values: Vec<V5>,
    /// Reusable levelized implication queue (see `imply_from_input`) —
    /// no allocations once its buckets are warm.
    queue: LevelQueue,
    /// Optional propagation scope (see [`FiveValueSim::restrict_scope`]):
    /// implication maintains values only for marked nodes.
    scope: Option<Vec<bool>>,
    /// `(node, previous value)` for every incremental write since the
    /// last full [`FiveValueSim::imply`], oldest first.
    trail: Vec<(u32, V5)>,
}

impl<'c> FiveValueSim<'c> {
    /// Creates a simulator over `circuit`, optionally injecting `fault`.
    /// All primary inputs start at `X`.
    pub fn new(circuit: &'c Circuit, fault: Option<InjectedFault>) -> Self {
        let graph = circuit.sim_graph();
        FiveValueSim {
            circuit,
            graph,
            fault,
            pi_values: vec![None; circuit.inputs().len()],
            values: vec![V5::X; circuit.num_nodes()],
            queue: LevelQueue::new(graph),
            scope: None,
            trail: Vec::new(),
        }
    }

    /// Restricts implication to the nodes marked in `in_scope`: [`imply`]
    /// and [`imply_from_input`] skip everything else, which keeps stale
    /// values (`X` unless previously written) outside the scope.
    ///
    /// The mask must be *fan-in closed* — every fan-in of an in-scope node
    /// is in scope — so the kept region is self-contained: each in-scope
    /// node sees exactly the fan-in values a full implication would, and
    /// its value is therefore bit-identical to the unscoped simulator's. A
    /// caller that reads only in-scope nodes (plus [`FiveValueSim::input`],
    /// which bypasses node values) cannot observe the difference.
    ///
    /// This is the workhorse behind justification-goal PODEM searches: a
    /// goal over a handful of nodes only ever reads their fan-in cone, and
    /// skipping the rest of each input's fan-out cone makes every decision
    /// step proportionally cheaper without perturbing the search.
    ///
    /// [`imply`]: FiveValueSim::imply
    /// [`imply_from_input`]: FiveValueSim::imply_from_input
    pub fn restrict_scope(&mut self, in_scope: Vec<bool>) {
        debug_assert_eq!(in_scope.len(), self.circuit.num_nodes());
        debug_assert!(
            self.circuit.topo_order().iter().all(|&id| {
                !in_scope[id.index()]
                    || self
                        .circuit
                        .node(id)
                        .fanin()
                        .iter()
                        .all(|f| in_scope[f.index()])
            }),
            "propagation scope must be fan-in closed"
        );
        self.scope = Some(in_scope);
    }

    /// The circuit this simulator is bound to.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The injected fault, if any.
    pub fn fault(&self) -> Option<InjectedFault> {
        self.fault
    }

    /// Assigns primary input `index` (positional, per `circuit.inputs()`).
    /// `None` means `X`.
    pub fn set_input(&mut self, index: usize, value: Option<bool>) {
        self.pi_values[index] = value;
    }

    /// Current assignment of primary input `index`.
    pub fn input(&self, index: usize) -> Option<bool> {
        self.pi_values[index]
    }

    /// Evaluates node `idx` under the current values and injected fault:
    /// one dual-rail fold over the fan-in codes, the fault forced onto the
    /// faulty rail.
    #[inline]
    fn eval_node(&self, idx: usize) -> V5 {
        let g = self.graph;
        let fault = self.fault.filter(|f| f.site.index() == idx);
        let code = match g.kind(idx) {
            GateKind::Input => {
                let pos = g.input_pos(idx).expect("input node is registered");
                rail::input(self.pi_values[pos])
            }
            GateKind::Dff => rail::X,
            kind => rail::pin_faulted_gate(
                kind,
                g.fanin(idx).iter().map(|&f| self.values[f as usize] as u8),
                fault.and_then(|f| Some((usize::from(f.pin?), f.stuck))),
            ),
        };
        rail::finish(code, fault.filter(|f| f.pin.is_none()).map(|f| f.stuck))
    }

    /// Performs full forward implication: re-evaluates every node in
    /// topological order under the current input assignment and injected
    /// fault. Starts a fresh undo trail.
    pub fn imply(&mut self) {
        let g = self.graph;
        self.trail.clear();
        let scope = self.scope.take();
        for &id in g.topo() {
            let id = id as usize;
            if scope.as_ref().is_none_or(|m| m[id]) {
                self.values[id] = self.eval_node(id);
            }
        }
        self.scope = scope;
    }

    /// Incremental implication: re-evaluates only the fan-out cone of the
    /// primary input at position `index`, assuming every other node is
    /// already consistent. Equivalent to (and property-tested against) a
    /// full [`FiveValueSim::imply`] after a single input change — but
    /// orders of magnitude cheaper on large circuits, which is what makes
    /// PODEM fast. Every overwritten value goes on the undo trail.
    ///
    /// The walk drains a reusable [`LevelQueue`] (the same structure the
    /// PPSFP cone propagation uses): pending nodes bucketed by logic
    /// level, deduplicated by epoch stamp and drained in ascending level
    /// order, so every touched node is re-evaluated exactly once, after
    /// all of its fan-ins settled. No allocations once the buckets are
    /// warm.
    pub fn imply_from_input(&mut self, index: usize) {
        let scope = self.scope.take();
        self.imply_from_input_masked(index, scope.as_deref());
        self.scope = scope;
    }

    fn imply_from_input_masked(&mut self, index: usize, mask: Option<&[bool]>) {
        let g = self.graph;
        let source = g.inputs()[index] as usize;
        if mask.is_some_and(|m| !m[source]) {
            return;
        }
        if !self.write(source) {
            return;
        }
        self.queue.begin(g.level(source));
        self.push_fanout(source, mask);
        while let Some(bucket) = self.queue.take_bucket() {
            for &id in &bucket {
                let id = id as usize;
                if self.write(id) {
                    self.push_fanout(id, mask);
                }
            }
            self.queue.restore(bucket);
        }
    }

    /// Re-evaluates node `id`; on a change records the old value on the
    /// trail, stores the new one and returns true.
    #[inline]
    fn write(&mut self, id: usize) -> bool {
        let v = self.eval_node(id);
        let old = self.values[id];
        if v == old {
            return false;
        }
        self.trail.push((id as u32, old));
        self.values[id] = v;
        true
    }

    /// Queues the in-scope combinational fan-outs of `id`.
    #[inline]
    fn push_fanout(&mut self, id: usize, mask: Option<&[bool]>) {
        let g = self.graph;
        for &s in g.fanout(id) {
            let si = s as usize;
            if g.kind(si).is_combinational() && mask.is_none_or(|m| m[si]) {
                self.queue.push(s, g.level(si));
            }
        }
    }

    /// The current length of the undo trail: a point
    /// [`FiveValueSim::undo_to`] can return to.
    pub fn trail_mark(&self) -> usize {
        self.trail.len()
    }

    /// Restores every node value to what it was when `mark` was taken,
    /// undoing the incremental writes made since, newest first. Input
    /// assignments are not on the trail: the caller restores them (with
    /// [`FiveValueSim::set_input`]) to their state at `mark`, after which
    /// the values are exactly those a full [`FiveValueSim::imply`] would
    /// compute.
    pub fn undo_to(&mut self, mark: usize) {
        for (id, old) in self.trail.drain(mark..).rev() {
            self.values[id as usize] = old;
        }
    }

    /// The composite value of `id` after the last implication.
    pub fn value(&self, id: NodeId) -> V5 {
        self.values[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v5_pair_round_trip() {
        for v in [V5::Zero, V5::One, V5::D, V5::Dbar] {
            assert_eq!(V5::from_pair(v.good(), v.faulty()), v);
        }
        assert_eq!(V5::from_pair(None, Some(true)), V5::X);
    }

    #[test]
    fn fault_free_matches_naive() {
        let c17 = bist_netlist::iscas85::c17();
        let mut sim = FiveValueSim::new(&c17, None);
        for v in 0u32..32 {
            for i in 0..5 {
                sim.set_input(i, Some((v >> i) & 1 == 1));
            }
            sim.imply();
            let bits: Vec<bool> = (0..5).map(|i| (v >> i) & 1 == 1).collect();
            let naive = crate::packed::naive_eval(&c17, &bits);
            for (idx, &expect) in naive.iter().enumerate().take(c17.num_nodes()) {
                let id = NodeId::from_index(idx);
                assert_eq!(sim.value(id).good(), Some(expect), "node {id} v={v}");
                assert_eq!(sim.value(id).faulty(), Some(expect));
            }
        }
    }

    #[test]
    fn partial_assignment_yields_x() {
        let c17 = bist_netlist::iscas85::c17();
        let mut sim = FiveValueSim::new(&c17, None);
        // Only G1 assigned: G10 = NAND(G1, G3) stays X when G1=1...
        sim.set_input(0, Some(true));
        sim.imply();
        let g10 = c17.find("G10").unwrap();
        assert_eq!(sim.value(g10), V5::X);
        // ...but G1=0 forces G10=1 (controlling value).
        sim.set_input(0, Some(false));
        sim.imply();
        assert_eq!(sim.value(g10), V5::One);
    }

    #[test]
    fn output_stem_fault_creates_d() {
        let c17 = bist_netlist::iscas85::c17();
        let g10 = c17.find("G10").unwrap();
        let mut sim = FiveValueSim::new(
            &c17,
            Some(InjectedFault {
                site: g10,
                pin: None,
                stuck: false,
            }),
        );
        // G1=0 forces G10=1 good; fault holds it 0 => D.
        sim.set_input(0, Some(false));
        sim.imply();
        assert_eq!(sim.value(g10), V5::D);
        // G22 = NAND(G10, G16) with G16 unknown: a D-frontier gate
        let g22 = c17.find("G22").unwrap();
        assert_eq!(sim.value(g22), V5::X);
    }

    #[test]
    fn pin_fault_only_affects_that_gate() {
        let c17 = bist_netlist::iscas85::c17();
        // G11 = NAND(G3, G6); fault G3-pin of G11 stuck-at-0 forces G11
        // faulty=1. Set G3=1, G6=1: good G11=0, faulty G11=1 => Dbar.
        let g11 = c17.find("G11").unwrap();
        let mut sim = FiveValueSim::new(
            &c17,
            Some(InjectedFault {
                site: g11,
                pin: Some(0),
                stuck: false,
            }),
        );
        sim.set_input(2, Some(true)); // G3
        sim.set_input(3, Some(true)); // G6
        sim.imply();
        assert_eq!(sim.value(g11), V5::Dbar);
        // The stem G3 itself is unaffected (branch fault).
        let g3 = c17.find("G3").unwrap();
        assert_eq!(sim.value(g3), V5::One);
        // G10 = NAND(G1, G3) sees the healthy G3.
        sim.set_input(0, Some(false));
        sim.imply();
        let g10 = c17.find("G10").unwrap();
        assert_eq!(sim.value(g10), V5::One);
    }

    #[test]
    fn detection_at_output() {
        let c17 = bist_netlist::iscas85::c17();
        let g22 = c17.find("G22").unwrap();
        let mut sim = FiveValueSim::new(
            &c17,
            Some(InjectedFault {
                site: g22,
                pin: None,
                stuck: false,
            }),
        );
        // drive G22 good to 1: G10=0 requires G1=G3=1.
        sim.set_input(0, Some(true));
        sim.set_input(2, Some(true));
        sim.imply();
        assert!(sim.value(g22).is_fault_effect());
    }

    /// The three-valued fold the engine evaluated each machine with
    /// before the dual-rail codes: the reference the rail folds must
    /// reproduce exactly.
    fn eval3(kind: GateKind, inputs: impl Iterator<Item = Option<bool>> + Clone) -> Option<bool> {
        match kind {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            GateKind::Buf => inputs.clone().next().flatten(),
            GateKind::Not => inputs.clone().next().flatten().map(|v| !v),
            GateKind::And | GateKind::Nand => {
                let mut any_unknown = false;
                let mut out = true;
                for v in inputs {
                    match v {
                        Some(false) => {
                            out = false;
                            any_unknown = false;
                            break;
                        }
                        Some(true) => {}
                        None => any_unknown = true,
                    }
                }
                let core = if any_unknown { None } else { Some(out) };
                if kind == GateKind::Nand {
                    core.map(|v| !v)
                } else {
                    core
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut any_unknown = false;
                let mut out = false;
                for v in inputs {
                    match v {
                        Some(true) => {
                            out = true;
                            any_unknown = false;
                            break;
                        }
                        Some(false) => {}
                        None => any_unknown = true,
                    }
                }
                let core = if any_unknown { None } else { Some(out) };
                if kind == GateKind::Nor {
                    core.map(|v| !v)
                } else {
                    core
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut parity = false;
                for v in inputs {
                    match v {
                        Some(b) => parity ^= b,
                        None => return None,
                    }
                }
                Some(if kind == GateKind::Xnor {
                    !parity
                } else {
                    parity
                })
            }
            GateKind::Input | GateKind::Dff => unreachable!("sources are not evaluated"),
        }
    }

    /// The pre-dual-rail node evaluation: good and faulty machines folded
    /// separately, the pin fault substituted on the faulty fold, the stem
    /// fault overriding the faulty component.
    fn oracle(kind: GateKind, inputs: &[V5], pin: PinFault, stem: Option<bool>) -> V5 {
        let good = eval3(kind, inputs.iter().map(|v| v.good()));
        let faulty = eval3(
            kind,
            inputs.iter().enumerate().map(|(k, v)| match pin {
                Some((p, stuck)) if p == k => Some(stuck),
                _ => v.faulty(),
            }),
        );
        let v = V5::from_pair(good, faulty);
        match stem {
            Some(stuck) => V5::from_pair(v.good(), Some(stuck)),
            None => v,
        }
    }

    /// A fan-in pin stuck at a value, as `(pin, stuck)`.
    type PinFault = Option<(usize, bool)>;

    #[test]
    fn dual_rail_matches_the_three_valued_oracle_exhaustively() {
        const ALL: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Dbar];
        let kinds = [
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let mut checked = 0usize;
        for kind in kinds {
            let arities = match kind {
                GateKind::Const0 | GateKind::Const1 => 0..=0,
                GateKind::Buf | GateKind::Not => 1..=1,
                _ => 1..=4,
            };
            for n in arities {
                // (pin fault, stem fault) pairs
                let mut faults: Vec<(PinFault, Option<bool>)> =
                    vec![(None, None), (None, Some(false)), (None, Some(true))];
                for p in 0..n {
                    faults.push((Some((p, false)), None));
                    faults.push((Some((p, true)), None));
                }
                for tuple in 0..5usize.pow(n as u32) {
                    let inputs: Vec<V5> = (0..n)
                        .map(|k| ALL[tuple / 5usize.pow(k as u32) % 5])
                        .collect();
                    for &(pin, stem) in &faults {
                        let code =
                            rail::pin_faulted_gate(kind, inputs.iter().map(|&v| v as u8), pin);
                        assert_eq!(
                            rail::finish(code, stem),
                            oracle(kind, &inputs, pin, stem),
                            "{kind:?} {inputs:?} pin {pin:?} stem {stem:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 40_000, "exhaustive sweep ran {checked} cases");
    }
}
