use bist_fault::FaultStatus;
use bist_faultsim::{BlockCtx, CoverageReport, Seeds, SimCounters, WordFault, WordSim};
use bist_logicsim::Pattern;
use bist_netlist::Circuit;

use super::model::{BridgingFault, BridgingFaultList};

/// Parallel-pattern bridging-fault simulator with fault dropping — the
/// measurement side of the \[Hwa93\] question the paper leans on: *how much
/// of a realistic short universe does a stuck-at-derived sequence
/// detect?*
///
/// A bridge is detected by a pattern that drives the two shorted nodes to
/// opposite values (excitation — the same condition Iddq testing senses
/// as elevated quiescent current) *and* propagates the resolved value's
/// difference to a primary output (voltage-sense detection, the stricter
/// criterion graded by [`BridgingSim::report`]).
///
/// This is the bridging instantiation of the model-generic [`WordSim`]
/// engine shared with [`bist_faultsim::FaultSim`]: the model contributes
/// the *two* resolved-value seeds (a short drives both nodes), so cone
/// propagation starts from the union of both fan-outs, and opts into the
/// engine's per-fault excitation tracking for the Iddq criterion. The
/// good machine, levelized cone walk, fault dropping and `bist-par`
/// sharding (bit-identical at every thread count) come from the engine.
///
/// # Example
///
/// ```
/// use bist_faultmodel::bridging::{BridgingFaultList, BridgingSim};
/// use bist_logicsim::Pattern;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let faults = BridgingFaultList::sample(&c17, 30, 17);
/// let mut sim = BridgingSim::new(&c17, faults);
/// let patterns: Vec<Pattern> = (0u32..32)
///     .map(|v| Pattern::from_fn(5, |i| (v >> i) & 1 == 1))
///     .collect();
/// sim.simulate(&patterns);
/// assert!(sim.report().coverage_pct() > 50.0); // exhaustive input space
/// ```
#[derive(Debug)]
pub struct BridgingSim<'c> {
    /// The universe, kept in list form for [`BridgingSim::faults`] (the
    /// engine holds its own flat copy).
    list: BridgingFaultList,
    inner: WordSim<'c, BridgingFault>,
}

impl<'c> BridgingSim<'c> {
    /// Creates a simulator grading `faults` on `circuit`, with the pool
    /// width taken from `BIST_THREADS` / the machine.
    pub fn new(circuit: &'c Circuit, faults: BridgingFaultList) -> Self {
        let flat: Vec<BridgingFault> = faults.iter().copied().collect();
        BridgingSim {
            list: faults,
            inner: WordSim::new(circuit, flat),
        }
    }

    /// Sets the pool width for subsequent [`BridgingSim::simulate`] calls
    /// (`0` = automatic). Grading results never depend on this knob.
    pub fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    /// Builder form of [`BridgingSim::set_threads`].
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
    pub fn faults(&self) -> &BridgingFaultList {
        &self.list
    }

    /// Status of fault `index` (voltage-sense detection).
    pub fn status_of(&self, index: usize) -> FaultStatus {
        self.inner.status_of(index)
    }

    /// All statuses, parallel to [`BridgingSim::faults`].
    pub fn statuses(&self) -> &[FaultStatus] {
        self.inner.statuses()
    }

    /// Overrides the status of fault `index`.
    pub fn set_status(&mut self, index: usize, status: FaultStatus) {
        self.inner.set_status(index, status);
    }

    /// True if some pattern so far *excited* fault `index` (opposite
    /// driven values) — the Iddq criterion, which needs no propagation.
    pub fn iddq_detected(&self, index: usize) -> bool {
        self.inner.excited(index)
    }

    /// Fraction of the universe the sequence excites (Iddq coverage), %.
    pub fn iddq_coverage_pct(&self) -> f64 {
        if self.list.is_empty() {
            return 0.0;
        }
        100.0 * self.inner.excited_count() as f64 / self.list.len() as f64
    }

    /// Global index of the first pattern that detected fault `index` at
    /// an output.
    pub fn first_detection(&self, index: usize) -> Option<u32> {
        self.inner.first_detection(index)
    }

    /// Number of patterns consumed so far.
    pub fn patterns_seen(&self) -> u32 {
        self.inner.patterns_seen()
    }

    /// The work performed so far. Deterministic at every thread width.
    pub fn counters(&self) -> SimCounters {
        self.inner.counters()
    }

    /// Forgets all grading results (voltage and Iddq) and the sequence
    /// position.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Coverage summary (voltage-sense).
    pub fn report(&self) -> CoverageReport {
        self.inner.report()
    }

    /// Grades `patterns` (continuing any previously fed sequence).
    /// Returns the number of newly (voltage-)detected faults.
    pub fn simulate(&mut self, patterns: &[Pattern]) -> usize {
        self.inner.simulate(patterns)
    }
}

impl WordFault for BridgingFault {
    /// Excitation every block keeps the Iddq mask current for the whole
    /// universe, detected bridges included.
    const TRACKS_EXCITATION: bool = true;

    /// Where excited, the short drives *both* nodes to the resolved value
    /// (elsewhere the resolution of two equal values is the value itself,
    /// so the seed words degrade to the good machine).
    fn seeds(&self, ctx: &BlockCtx<'_>) -> Seeds {
        let ga = ctx.good[self.a.index()];
        let gb = ctx.good[self.b.index()];
        if (ga ^ gb) & ctx.valid == 0 {
            return Seeds::NONE;
        }
        let resolved = self.kind.resolve_word(ga, gb);
        Seeds::two(
            self.a.index() as u32,
            resolved,
            self.b.index() as u32,
            resolved,
        )
    }

    fn excitation(&self, ctx: &BlockCtx<'_>) -> u64 {
        (ctx.good[self.a.index()] ^ ctx.good[self.b.index()]) & ctx.valid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridging::BridgeKind;
    use bist_netlist::{CircuitBuilder, GateKind};

    fn exhaustive(width: usize) -> Vec<Pattern> {
        (0u32..(1 << width))
            .map(|v| Pattern::from_fn(width, |i| (v >> i) & 1 == 1))
            .collect()
    }

    #[test]
    fn hand_checked_two_input_bridge() {
        // y1 = BUF(a), y2 = BUF(b): a~b wired-AND is detected whenever
        // a != b (the 0 wins and flips whichever output carried the 1)
        let mut b = CircuitBuilder::new("pair");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("y1", GateKind::Buf, &["a"]).unwrap();
        b.add_gate("y2", GateKind::Buf, &["b"]).unwrap();
        b.mark_output("y1").unwrap();
        b.mark_output("y2").unwrap();
        let c = b.build().unwrap();
        let (a, bb) = (c.find("a").unwrap(), c.find("b").unwrap());
        let mut faults = BridgingFaultList::new();
        faults.push(
            &c,
            BridgingFault {
                a,
                b: bb,
                kind: BridgeKind::WiredAnd,
            },
        );
        let mut sim = BridgingSim::new(&c, faults);
        // equal values: no excitation, no detection
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[true, true])]), 0);
        assert!(!sim.iddq_detected(0));
        // opposite values: excitation and voltage detection
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[true, false])]), 1);
        assert!(sim.iddq_detected(0));
        assert_eq!(sim.first_detection(0), Some(1));
    }

    #[test]
    fn wired_or_requires_the_dual_excitation() {
        // single output y = BUF(a): bridge a ~ b (b unobserved) wired-OR
        // flips y only when a=0, b=1
        let mut builder = CircuitBuilder::new("dual");
        builder.add_input("a").unwrap();
        builder.add_input("b").unwrap();
        builder.add_gate("y", GateKind::Buf, &["a"]).unwrap();
        builder.add_gate("z", GateKind::Buf, &["b"]).unwrap();
        builder.mark_output("y").unwrap();
        let c = builder.build().unwrap();
        let (a, b) = (c.find("a").unwrap(), c.find("b").unwrap());
        let mut faults = BridgingFaultList::new();
        faults.push(
            &c,
            BridgingFault {
                a,
                b,
                kind: BridgeKind::WiredOr,
            },
        );
        let mut sim = BridgingSim::new(&c, faults);
        // a=1, b=0: excited (opposite) but y=a already 1 = resolved -> no flip
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[true, false])]), 0);
        assert!(sim.iddq_detected(0), "Iddq sees any opposite drive");
        // a=0, b=1: resolved 1 flips y
        assert_eq!(sim.simulate(&[Pattern::from_bits(&[false, true])]), 1);
    }

    #[test]
    fn exhaustive_c17_detects_most_sampled_bridges() {
        let c17 = bist_netlist::iscas85::c17();
        let faults = BridgingFaultList::sample(&c17, 60, 3);
        let total = faults.len();
        let mut sim = BridgingSim::new(&c17, faults);
        sim.simulate(&exhaustive(5));
        let report = sim.report();
        assert!(
            report.detected as f64 >= 0.7 * total as f64,
            "exhaustive voltage coverage too low: {}/{}",
            report.detected,
            total
        );
        // Iddq (excitation-only) coverage dominates voltage coverage
        assert!(sim.iddq_coverage_pct() >= report.coverage_pct());
    }

    #[test]
    fn chunked_equals_monolithic() {
        use rand::{rngs::StdRng, SeedableRng};
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = BridgingFaultList::sample(&c, 150, 9);
        let mut rng = StdRng::seed_from_u64(11);
        let patterns: Vec<Pattern> = (0..200)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut mono = BridgingSim::new(&c, faults.clone());
        mono.simulate(&patterns);
        let mut chunked = BridgingSim::new(&c, faults);
        for chunk in patterns.chunks(23) {
            chunked.simulate(chunk);
        }
        assert_eq!(mono.statuses(), chunked.statuses());
        assert_eq!(mono.iddq_coverage_pct(), chunked.iddq_coverage_pct());
    }

    #[test]
    fn parallel_grading_is_bit_identical_to_serial() {
        use rand::{rngs::StdRng, SeedableRng};
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let faults = BridgingFaultList::sample(&c, 200, 5);
        let mut rng = StdRng::seed_from_u64(31);
        let patterns: Vec<Pattern> = (0..300)
            .map(|_| Pattern::random(&mut rng, c.inputs().len()))
            .collect();

        let mut serial = BridgingSim::new(&c, faults.clone()).with_threads(1);
        serial.simulate(&patterns);

        for threads in [2, 4] {
            let mut par = BridgingSim::new(&c, faults.clone()).with_threads(threads);
            par.simulate(&patterns);
            assert_eq!(serial.statuses(), par.statuses(), "threads={threads}");
            for i in 0..serial.faults().len() {
                assert_eq!(
                    serial.first_detection(i),
                    par.first_detection(i),
                    "threads={threads}, fault {i}"
                );
                assert_eq!(
                    serial.iddq_detected(i),
                    par.iddq_detected(i),
                    "threads={threads}, fault {i} iddq"
                );
            }
            assert_eq!(serial.counters(), par.counters(), "threads={threads}");
        }
    }
}
