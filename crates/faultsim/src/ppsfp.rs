use bist_fault::{CollapsedUniverse, Fault, FaultList, FaultStatus};
use bist_logicsim::Pattern;
use bist_netlist::{Circuit, NodeId};

use crate::wordsim::{BlockCtx, Seeds, SimCounters, WordFault, WordSim};

/// Parallel-pattern single-fault-propagation simulator with fault dropping
/// for any [`Fault`] universe: the paper's stuck-at + stuck-open one, or
/// the transition-delay one.
///
/// Create one per (circuit, fault list) pair, feed it patterns with
/// [`FaultSim::simulate`] — in one call or incrementally; the engine keeps
/// the sequence position and the previous pattern, so stuck-open pairs
/// spanning call boundaries are honoured — then read results via
/// [`FaultSim::report`], [`FaultSim::status_of`] and
/// [`FaultSim::first_detection`].
///
/// This is the [`Fault`] instantiation of the model-generic
/// [`WordSim`] engine: the [`Fault`] model contributes only the faulty
/// seed words (see the [`WordFault`] impl below); everything else —
/// flattened-graph good machine, allocation-free levelized cone
/// propagation, live-list fault dropping, `bist-par` sharding with
/// fault-order merge (**bit-identical at every thread count**), carry
/// checkpoints — lives in the shared engine.
///
/// # Example
///
/// ```
/// use bist_fault::FaultList;
/// use bist_faultsim::FaultSim;
/// use bist_logicsim::Pattern;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let mut sim = FaultSim::new(&c17, FaultList::transition(&c17));
/// // one pattern alone launches no transition
/// assert_eq!(sim.simulate(&[Pattern::zeros(5)]), 0);
/// ```
#[derive(Debug)]
pub struct FaultSim<'c> {
    /// The universe, kept in list form for [`FaultSim::faults`] /
    /// [`FaultSim::open_faults`] (the engine holds its own flat copy).
    list: FaultList,
    inner: WordSim<'c, Fault>,
}

impl<'c> FaultSim<'c> {
    /// Creates a simulator grading `faults` on `circuit`, with the pool
    /// width taken from `BIST_THREADS` / the machine.
    pub fn new(circuit: &'c Circuit, faults: FaultList) -> Self {
        let flat: Vec<Fault> = faults.iter().copied().collect();
        FaultSim {
            list: faults,
            inner: WordSim::new(circuit, flat),
        }
    }

    /// Re-creates a simulator mid-sequence from a carry checkpoint: the
    /// per-fault `statuses` and good-machine `carry` bits recorded after
    /// exactly `patterns_seen` patterns of some sequence (see
    /// [`FaultSim::carry_bits`]). Feeding the remainder of that sequence
    /// behaves exactly like one simulator that consumed it end to end,
    /// except that [`FaultSim::first_detection`] is only populated for
    /// faults detected *after* the resume point (earlier detections carry
    /// a status but no index).
    pub fn resume(
        circuit: &'c Circuit,
        faults: FaultList,
        statuses: &[FaultStatus],
        carry: &[bool],
        patterns_seen: u32,
    ) -> Self {
        let flat: Vec<Fault> = faults.iter().copied().collect();
        FaultSim {
            list: faults,
            inner: WordSim::resume(circuit, flat, statuses, carry, patterns_seen),
        }
    }

    /// Sets the pool width for subsequent [`FaultSim::simulate`] calls
    /// (`0` = automatic: `BIST_THREADS` or the machine width). Grading
    /// results never depend on this knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    /// Pretends the machine has `n` hardware threads (see
    /// `WordSim::set_hw_threads`): keeps the sharded path under test on
    /// boxes narrower than the test's pool.
    #[cfg(test)]
    pub(crate) fn set_hw_threads(&mut self, n: usize) {
        self.inner.set_hw_threads(n);
    }

    /// Builder form of [`FaultSim::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// The pool width grading currently uses.
    pub fn threads(&self) -> usize {
        self.inner.threads()
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &'c Circuit {
        self.inner.circuit()
    }

    /// The fault universe being graded.
    pub fn faults(&self) -> &FaultList {
        &self.list
    }

    /// Status of fault `index`.
    pub fn status_of(&self, index: usize) -> FaultStatus {
        self.inner.status_of(index)
    }

    /// All statuses, parallel to [`FaultSim::faults`].
    pub fn statuses(&self) -> &[FaultStatus] {
        self.inner.statuses()
    }

    /// Overrides the status of fault `index` (the ATPG uses this to mark
    /// redundant or aborted faults).
    pub fn set_status(&mut self, index: usize, status: FaultStatus) {
        self.inner.set_status(index, status);
    }

    /// Global index (0-based position in the full sequence fed so far) of
    /// the first pattern that detected fault `index`.
    pub fn first_detection(&self, index: usize) -> Option<u32> {
        self.inner.first_detection(index)
    }

    /// Number of patterns consumed so far.
    pub fn patterns_seen(&self) -> u32 {
        self.inner.patterns_seen()
    }

    /// The work performed so far (blocks, good-machine gate evaluations,
    /// cone events). Deterministic at every thread width.
    pub fn counters(&self) -> SimCounters {
        self.inner.counters()
    }

    /// The good-machine node values after the last consumed pattern — the
    /// two-pattern (stuck-open and transition) carry. Together with
    /// [`FaultSim::statuses`] and [`FaultSim::patterns_seen`] this is a
    /// complete mid-sequence checkpoint for [`FaultSim::resume`].
    pub fn carry_bits(&self) -> &[bool] {
        self.inner.carry_bits()
    }

    /// Forgets all grading results and the sequence position.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Grades `patterns` (in order, continuing any previously fed
    /// sequence). Returns the number of newly detected faults.
    pub fn simulate(&mut self, patterns: &[Pattern]) -> usize {
        self.inner.simulate(patterns)
    }

    /// Coverage summary over the whole universe.
    pub fn report(&self) -> crate::CoverageReport {
        self.inner.report()
    }

    /// The per-fault statuses of the *full* stuck-at universe, for a
    /// simulator grading only `universe`'s representatives: each full
    /// fault reports its class representative's status. Because every
    /// collapsing step is a true equivalence, this is bit-identical to
    /// grading the full universe directly.
    ///
    /// # Panics
    ///
    /// Panics if this simulator is not grading exactly
    /// `universe.representatives()`.
    pub fn statuses_projected(&self, universe: &CollapsedUniverse) -> Vec<FaultStatus> {
        assert_eq!(
            &self.list,
            universe.representatives(),
            "simulator must grade the universe's representative list"
        );
        universe.project(self.inner.statuses())
    }

    /// Coverage summary over the *full* stuck-at universe, for a
    /// simulator grading only `universe`'s representatives (see
    /// [`FaultSim::statuses_projected`]).
    pub fn report_projected(&self, universe: &CollapsedUniverse) -> crate::CoverageReport {
        crate::CoverageReport::from_statuses(&self.statuses_projected(universe))
    }

    /// The faults that are still open (undetected or aborted), with their
    /// indices in the original universe.
    pub fn open_faults(&self) -> Vec<(usize, Fault)> {
        self.list
            .iter()
            .enumerate()
            .filter(|(i, _)| self.inner.status_of(*i).is_open())
            .map(|(i, f)| (i, *f))
            .collect()
    }
}

impl WordFault for Fault {
    /// Computes the faulty seed value at the fault site, or no seeds if
    /// the fault cannot change anything in this block.
    fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds {
        let g = ctx.graph;
        let seed = match *self {
            Fault::StuckAt {
                site,
                pin: None,
                value,
            } => {
                let forced = if value { !0u64 } else { 0 };
                let diff = (ctx.good[site.index()] ^ forced) & ctx.valid;
                (diff != 0).then_some((site, forced))
            }
            Fault::StuckAt {
                site,
                pin: Some(p),
                value,
            } => {
                let forced = if value { !0u64 } else { 0 };
                let fv = g.kind(site.index()).eval_word_iter(
                    g.fanin(site.index()).iter().enumerate().map(|(k, &f)| {
                        if k == p as usize {
                            forced
                        } else {
                            ctx.good[f as usize]
                        }
                    }),
                );
                let diff = (fv ^ ctx.good[site.index()]) & ctx.valid;
                (diff != 0).then_some((site, fv))
            }
            Fault::OpenSeries { site } => {
                let excite = series_excitation(ctx, site);
                memory_seed(ctx, site, excite)
            }
            Fault::OpenParallel { site, pin } => {
                let excite = parallel_excitation(ctx, site, pin);
                memory_seed(ctx, site, excite)
            }
            Fault::OpenRise { site } => {
                memory_seed(ctx, site, launch_mask(ctx, site.index(), false))
            }
            Fault::OpenFall { site } => {
                memory_seed(ctx, site, launch_mask(ctx, site.index(), true))
            }
            Fault::Transition {
                site,
                pin,
                transition,
            } => transition_seed(ctx, site, pin, transition.initial_value()),
        };
        match seed {
            Some((site, value)) => Seeds::one(site.index() as u32, value),
            None => Seeds::NONE,
        }
    }
}

/// Faulty value of a stuck-open site: the output retains its previous
/// good value wherever the fault is excited.
fn memory_seed(ctx: &BlockCtx<'_>, site: NodeId, excite: u64) -> Option<(NodeId, u64)> {
    let g = ctx.good[site.index()];
    let fv = (g & !excite) | (ctx.prev[site.index()] & excite);
    let diff = (fv ^ g) & ctx.valid;
    (diff != 0).then_some((site, fv))
}

/// Faulty value of a transition fault: where the line's driver launched,
/// the late line still shows its previous (initial) value — on the stem
/// itself, or, for a branch, on pin `pin` of gate `site` only.
fn transition_seed(
    ctx: &BlockCtx<'_>,
    site: NodeId,
    pin: Option<u8>,
    initial: bool,
) -> Option<(NodeId, u64)> {
    let g = ctx.graph;
    let Some(p) = pin else {
        // a late stem retains its old value exactly like an open-rise /
        // open-fall output
        return memory_seed(ctx, site, launch_mask(ctx, site.index(), initial));
    };
    let driver = g.fanin(site.index())[p as usize] as usize;
    let excite = launch_mask(ctx, driver, initial);
    let fv = g
        .kind(site.index())
        .eval_word_iter(g.fanin(site.index()).iter().enumerate().map(|(k, &f)| {
            let good = ctx.good[f as usize];
            if k == p as usize {
                (good & !excite) | (ctx.prev[f as usize] & excite)
            } else {
                good
            }
        }));
    let diff = (fv ^ ctx.good[site.index()]) & ctx.valid;
    (diff != 0).then_some((site, fv))
}

/// Mask of patterns where `line` launches a transition away from
/// `initial`: it held `initial` at `t-1` and the final value at `t`.
fn launch_mask(ctx: &BlockCtx<'_>, line: usize, initial: bool) -> u64 {
    let (now, before) = (ctx.good[line], ctx.prev[line]);
    if initial {
        before & !now
    } else {
        !before & now
    }
}

/// Mask of patterns where *all* inputs of `site` hold the
/// non-controlling value at `t` but not at `t-1` (series-open
/// excitation).
fn series_excitation(ctx: &BlockCtx<'_>, site: NodeId) -> u64 {
    let g = ctx.graph;
    let c = match g.kind(site.index()).controlling_value() {
        Some(c) => c,
        None => return 0,
    };
    let mut all_nc_now = !0u64;
    let mut all_nc_prev = !0u64;
    for &f in g.fanin(site.index()) {
        let now = ctx.good[f as usize];
        let before = ctx.prev[f as usize];
        // non-controlling: value != c
        all_nc_now &= if c { !now } else { now };
        all_nc_prev &= if c { !before } else { before };
    }
    all_nc_now & !all_nc_prev
}

/// Mask of patterns where pin `p` is the only controlling input at `t`
/// and all inputs were non-controlling at `t-1` (parallel-open
/// excitation).
fn parallel_excitation(ctx: &BlockCtx<'_>, site: NodeId, p: u8) -> u64 {
    let g = ctx.graph;
    let c = match g.kind(site.index()).controlling_value() {
        Some(c) => c,
        None => return 0,
    };
    let mut only_p_now = !0u64;
    let mut all_nc_prev = !0u64;
    for (k, &f) in g.fanin(site.index()).iter().enumerate() {
        let now = ctx.good[f as usize];
        let before = ctx.prev[f as usize];
        if k == p as usize {
            only_p_now &= if c { now } else { !now };
        } else {
            only_p_now &= if c { !now } else { now };
        }
        all_nc_prev &= if c { !before } else { before };
    }
    only_p_now & all_nc_prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_fault::{FaultList, Transition};
    use bist_netlist::GateKind;

    fn exhaustive_patterns(width: usize) -> Vec<Pattern> {
        (0u32..(1 << width))
            .map(|v| Pattern::from_fn(width, |i| (v >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn c17_stuck_at_full_coverage() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let total = faults.len();
        let mut sim = FaultSim::new(&c17, faults);
        let newly = sim.simulate(&exhaustive_patterns(5));
        assert_eq!(newly, total, "all 22 collapsed faults detectable");
    }

    #[test]
    fn c17_stuck_open_coverage_with_transitions() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_open(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        // a long random sequence supplies every needed transition pair
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let seq: Vec<Pattern> = (0..2000).map(|_| Pattern::random(&mut rng, 5)).collect();
        sim.simulate(&seq);
        let rep = sim.report();
        // NAND-only circuit: all stuck-open faults are two-pattern testable
        assert_eq!(
            rep.coverage_pct(),
            100.0,
            "stuck-open coverage too low: {}",
            rep.coverage_pct()
        );
    }

    #[test]
    fn first_pattern_cannot_detect_stuck_open() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_open(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        // a single pattern has no predecessor: nothing may be detected
        let newly = sim.simulate(&[Pattern::from_fn(5, |_| true)]);
        assert_eq!(newly, 0);
    }

    #[test]
    fn representative_grading_projects_to_full_universe_grading() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let universe = CollapsedUniverse::build(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let patterns: Vec<Pattern> = (0..200)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut full = FaultSim::new(&c, universe.full().clone());
        full.simulate(&patterns);

        let mut reps = FaultSim::new(&c, universe.representatives().clone());
        reps.simulate(&patterns);

        assert_eq!(reps.statuses_projected(&universe), full.statuses());
        assert_eq!(reps.report_projected(&universe), full.report());
        // and strictly less grading work
        assert!(reps.counters().cone_events < full.counters().cone_events);
    }

    #[test]
    fn chunked_equals_monolithic() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let patterns: Vec<Pattern> = (0..300)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut mono = FaultSim::new(&c, faults.clone());
        mono.simulate(&patterns);

        let mut chunked = FaultSim::new(&c, faults);
        for chunk in patterns.chunks(37) {
            chunked.simulate(chunk);
        }
        assert_eq!(mono.statuses(), chunked.statuses());
        for i in 0..mono.faults().len() {
            assert_eq!(
                mono.first_detection(i),
                chunked.first_detection(i),
                "fault {i}"
            );
        }
    }

    #[test]
    fn parallel_grading_is_bit_identical_to_serial() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let patterns: Vec<Pattern> = (0..400)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut serial = FaultSim::new(&c, faults.clone()).with_threads(1);
        serial.simulate(&patterns);

        for threads in [2, 3, 4, 8] {
            let mut par = FaultSim::new(&c, faults.clone()).with_threads(threads);
            // force the sharded path even on a narrower machine (the
            // hw clamp would otherwise grade inline and test nothing)
            par.set_hw_threads(threads);
            par.simulate(&patterns);
            assert_eq!(serial.statuses(), par.statuses(), "threads={threads}");
            for i in 0..serial.faults().len() {
                assert_eq!(
                    serial.first_detection(i),
                    par.first_detection(i),
                    "threads={threads}, fault {i}"
                );
            }
            assert_eq!(
                serial.counters(),
                par.counters(),
                "work counters drift at threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_incremental_feeding_matches_serial_monolithic() {
        // chunked feeding at 4 threads vs one serial call: the stuck-open
        // carry and the drop decisions must line up across both axes
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = FaultList::mixed_model(&c);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let patterns: Vec<Pattern> = (0..300)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut mono = FaultSim::new(&c, faults.clone()).with_threads(1);
        mono.simulate(&patterns);

        let mut par = FaultSim::new(&c, faults).with_threads(4);
        par.set_hw_threads(4);
        for chunk in patterns.chunks(53) {
            par.simulate(chunk);
        }
        assert_eq!(mono.statuses(), par.statuses());
    }

    /// Grades 200 random c432 patterns straight through and as a resume
    /// from a checkpoint after 77; both runs must agree.
    fn assert_resume_matches_straight_run(faults: FaultList) {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let patterns: Vec<Pattern> = (0..200)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut straight = FaultSim::new(&c, faults.clone());
        straight.simulate(&patterns);

        // checkpoint after 77 patterns, resume a fresh simulator from it
        let mut head = FaultSim::new(&c, faults.clone());
        head.simulate(&patterns[..77]);
        let mut tail = FaultSim::resume(
            &c,
            faults,
            head.statuses(),
            head.carry_bits(),
            head.patterns_seen(),
        );
        tail.simulate(&patterns[77..]);

        assert_eq!(straight.statuses(), tail.statuses());
        assert_eq!(straight.patterns_seen(), tail.patterns_seen());
        // faults detected after the resume point carry identical global
        // first-detection indices
        for i in 0..straight.faults().len() {
            if let Some(first) = tail.first_detection(i) {
                if first >= 77 {
                    assert_eq!(straight.first_detection(i), Some(first), "fault {i}");
                }
            }
        }
    }

    #[test]
    fn resume_from_carry_checkpoint_matches_straight_run() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        assert_resume_matches_straight_run(FaultList::mixed_model(&c));
    }

    #[test]
    fn transition_resume_from_carry_checkpoint_matches_straight_run() {
        // every transition fault leans on the carried launch pattern
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        assert_resume_matches_straight_run(FaultList::transition(&c));
    }

    fn transition(site: NodeId, pin: Option<u8>, transition: Transition) -> Fault {
        Fault::Transition {
            site,
            pin,
            transition,
        }
    }

    #[test]
    fn transition_c17_random_sequence_reaches_full_coverage() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::transition(&c17);
        let total = faults.len();
        let mut sim = FaultSim::new(&c17, faults);
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let seq: Vec<Pattern> = (0..3000).map(|_| Pattern::random(&mut rng, 5)).collect();
        sim.simulate(&seq);
        assert_eq!(
            sim.report().detected,
            total,
            "c17 transition faults are all two-pattern testable"
        );
    }

    #[test]
    fn single_pattern_launches_no_transition() {
        let c17 = bist_netlist::iscas85::c17();
        let mut sim = FaultSim::new(&c17, FaultList::transition(&c17));
        assert_eq!(sim.simulate(&[Pattern::from_fn(5, |_| true)]), 0);
    }

    #[test]
    fn repeated_pattern_launches_no_transition() {
        let c17 = bist_netlist::iscas85::c17();
        let mut sim = FaultSim::new(&c17, FaultList::transition(&c17));
        let p = Pattern::from_fn(5, |i| i % 2 == 0);
        assert_eq!(sim.simulate(&[p.clone(), p.clone(), p]), 0);
    }

    #[test]
    fn transition_hand_checked_buffer_chain() {
        // a -> buf -> y : slow-to-rise at "a" is detected exactly by the
        // ordered pair (0, 1); slow-to-fall by (1, 0).
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("chain");
        b.add_input("a").unwrap();
        b.add_gate("y", GateKind::Buf, &["a"]).unwrap();
        b.mark_output("y").unwrap();
        let c = b.build().unwrap();
        let a = c.find("a").unwrap();

        let rise: FaultList = [transition(a, None, Transition::SlowToRise)]
            .into_iter()
            .collect();
        let zero = Pattern::from_bits(&[false]);
        let one = Pattern::from_bits(&[true]);
        let mut sim = FaultSim::new(&c, rise.clone());
        sim.simulate(&[zero.clone(), one.clone()]);
        assert_eq!(sim.report().detected, 1);
        assert_eq!(sim.first_detection(0), Some(1), "capture happens at t=1");

        let mut sim = FaultSim::new(&c, rise);
        sim.simulate(&[one.clone(), zero.clone()]);
        assert_eq!(
            sim.report().detected,
            0,
            "falling pair cannot launch a rise"
        );

        let fall: FaultList = [transition(a, None, Transition::SlowToFall)]
            .into_iter()
            .collect();
        let mut sim = FaultSim::new(&c, fall);
        sim.simulate(&[one, zero]);
        assert_eq!(sim.report().detected, 1);
    }

    #[test]
    fn transition_branch_fault_requires_propagation_through_its_gate_only() {
        // stem s fans out to AND(s, en) and to output y2 = BUF(s).
        // The branch fault s->AND slow-to-rise needs en=1 at capture;
        // the stem fault is observable through the buffer regardless.
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("fan");
        b.add_input("s").unwrap();
        b.add_input("en").unwrap();
        b.add_gate("y1", GateKind::And, &["s", "en"]).unwrap();
        b.add_gate("y2", GateKind::Buf, &["s"]).unwrap();
        b.mark_output("y1").unwrap();
        b.mark_output("y2").unwrap();
        let c = b.build().unwrap();
        let y1 = c.find("y1").unwrap();
        let s = c.find("s").unwrap();

        let faults: FaultList = [
            transition(y1, Some(0), Transition::SlowToRise),
            transition(s, None, Transition::SlowToRise),
        ]
        .into_iter()
        .collect();

        // launch s: 0 -> 1 with en=0 at capture: branch undetected, stem
        // detected via y2
        let mut sim = FaultSim::new(&c, faults.clone());
        sim.simulate(&[
            Pattern::from_bits(&[false, false]),
            Pattern::from_bits(&[true, false]),
        ]);
        assert_eq!(sim.status_of(0), FaultStatus::Undetected);
        assert_eq!(sim.status_of(1), FaultStatus::Detected);

        // same launch with en=1 at capture: both detected
        let mut sim = FaultSim::new(&c, faults);
        sim.simulate(&[
            Pattern::from_bits(&[false, true]),
            Pattern::from_bits(&[true, true]),
        ]);
        assert_eq!(sim.status_of(0), FaultStatus::Detected);
        assert_eq!(sim.status_of(1), FaultStatus::Detected);
    }

    #[test]
    fn transition_coverage_lags_stuck_at_coverage() {
        // the paper's premise: the same random sequence detects fewer
        // delay faults than stuck-at faults (two-pattern tests are rarer)
        let c = bist_netlist::iscas85::circuit("c880").unwrap();
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(880);
        let patterns: Vec<Pattern> = (0..128)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut tsim = FaultSim::new(&c, FaultList::transition(&c));
        tsim.simulate(&patterns);
        let mut ssim = FaultSim::new(&c, FaultList::stuck_at_collapsed(&c));
        ssim.simulate(&patterns);

        assert!(
            tsim.report().coverage_pct() < ssim.report().coverage_pct(),
            "transition {:.2}% vs stuck-at {:.2}%",
            tsim.report().coverage_pct(),
            ssim.report().coverage_pct()
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        sim.simulate(&exhaustive_patterns(5));
        assert!(sim.report().detected > 0);
        sim.reset();
        assert_eq!(sim.report().detected, 0);
        assert_eq!(sim.patterns_seen(), 0);
        // the live list is rebuilt: a re-run re-detects everything
        let newly = sim.simulate(&exhaustive_patterns(5));
        assert_eq!(newly, sim.faults().len());
    }

    #[test]
    fn transition_reset_restores_initial_state() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::transition(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        let patterns = exhaustive_patterns(5);
        sim.simulate(&patterns);
        assert!(sim.report().detected > 0);
        sim.reset();
        assert_eq!(sim.report().detected, 0);
        assert_eq!(sim.patterns_seen(), 0);
        // the carried launch pattern is dropped too: the first pattern of
        // a re-run launches nothing, so the re-run grades identically
        let mut fresh = FaultSim::new(&c17, FaultList::transition(&c17));
        fresh.simulate(&patterns);
        sim.simulate(&patterns);
        assert_eq!(sim.statuses(), fresh.statuses());
    }

    #[test]
    fn set_status_removes_fault_from_grading() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let total = faults.len();
        let mut sim = FaultSim::new(&c17, faults);
        sim.set_status(0, FaultStatus::Redundant);
        let newly = sim.simulate(&exhaustive_patterns(5));
        assert_eq!(newly, total - 1, "marked fault must not be graded");
        assert_eq!(sim.status_of(0), FaultStatus::Redundant);
        assert_eq!(sim.first_detection(0), None);
    }

    #[test]
    fn counters_track_block_work() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        assert_eq!(sim.counters(), SimCounters::default());
        sim.simulate(&exhaustive_patterns(5)); // 32 patterns = 1 block
        let counters = sim.counters();
        assert_eq!(counters.blocks, 1);
        assert_eq!(counters.good_gate_evals, 6, "c17 has six NAND gates");
        assert!(counters.cone_events > 0);
    }

    #[test]
    fn planted_redundant_faults_stay_undetected() {
        // OR(a, AND(a, b)): AND-output stuck-at-0 is redundant.
        use bist_netlist::CircuitBuilder;
        let mut b = CircuitBuilder::new("red");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("t", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("r", GateKind::Or, &["a", "t"]).unwrap();
        b.mark_output("r").unwrap();
        let c = b.build().unwrap();
        let t = c.find("t").unwrap();
        let faults: FaultList = [Fault::StuckAt {
            site: t,
            pin: None,
            value: false,
        }]
        .into_iter()
        .collect();
        let mut sim = FaultSim::new(&c, faults);
        sim.simulate(&exhaustive_patterns(2));
        assert_eq!(
            sim.report().detected,
            0,
            "redundant fault must not be detected"
        );
    }

    #[test]
    fn detection_indices_are_global() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = FaultList::stuck_at_collapsed(&c17);
        let mut sim = FaultSim::new(&c17, faults);
        let all = exhaustive_patterns(5);
        sim.simulate(&all[..3]);
        sim.simulate(&all[3..]);
        let max_idx = (0..sim.faults().len())
            .filter_map(|i| sim.first_detection(i))
            .max()
            .unwrap();
        assert!(max_idx >= 3, "later chunks must report global indices");
        assert_eq!(sim.patterns_seen(), 32);
    }
}
