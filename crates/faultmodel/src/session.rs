//! The mixed-scheme flow generalized over [`FaultModel`].

use std::collections::BTreeMap;

use bist_core::{
    BistSession, CollapseMode, MixedSchemeConfig, MixedSchemeError, MixedSolution, SessionStats,
    SweepSummary,
};
use bist_fault::FaultList;
use bist_faultsim::{CoverageCurve, CoverageReport};
use bist_lfsr::{Lfsr, ScanExpander};
use bist_netlist::Circuit;

use crate::bridging::{BridgingFaultList, BridgingSim};
use crate::model::FaultModel;

/// The incremental mixed-BIST flow for one circuit under test and one
/// [`FaultModel`] — the model-generic face the engine drives.
///
/// * [`FaultModel::StuckAt`] delegates every call to [`BistSession`]
///   unchanged, so default-model jobs stay byte-identical to the
///   pre-model pipeline (same solutions, same work counters). That
///   session grades representatives only by default
///   ([`CollapseMode::InFlow`]) and projects back at every report
///   boundary, so the delegation stays byte-identical *and* cheaper;
///   [`ModelSession::with_collapse_mode`] pins the mode explicitly.
/// * [`FaultModel::Transition`] is the same [`BistSession`] over
///   [`FaultList::transition`] ([`BistSession::with_faults`], no
///   collapsing): incremental pair-wise prefix grading, the two-pattern
///   top-up from the one ATPG engine (batched, with the frontier-keyed
///   top-up cache and per-fault cube cache), then generator synthesis
///   over the emitted pairs.
/// * [`FaultModel::Bridging`] is the \[Hwa93\] measurement: the hardware
///   generator is the **stuck-at** solution's (shorts are not ATPG
///   targets in this flow), and the bridge universe is graded against
///   that generator's full mixed sequence — the solution's coverage
///   figures answer "how much of a realistic short universe does a
///   stuck-at-derived BIST sequence detect?".
///
/// Prefix requests advance one shared simulator monotonically; a request
/// below the front is graded on a fallback simulator and counted in
/// [`SessionStats::patterns_resimulated`].
///
/// # Example
///
/// ```
/// use bist_core::MixedSchemeConfig;
/// use bist_faultmodel::{FaultModel, ModelSession};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let mut session = ModelSession::new(&c17, MixedSchemeConfig::default(), FaultModel::Transition);
/// let solution = session.solve_at(16)?;
/// assert!(solution.coverage.coverage_pct() > 90.0);
/// assert_eq!(solution.det_len % 2, 0, "delay tests come in pairs");
/// # Ok::<(), bist_core::MixedSchemeError>(())
/// ```
#[derive(Debug)]
pub struct ModelSession<'c> {
    model: FaultModel,
    inner: Inner<'c>,
}

#[derive(Debug)]
enum Inner<'c> {
    /// Stuck-at and transition: one [`BistSession`] over the model's
    /// [`bist_fault::Fault`] universe.
    Session(Box<BistSession<'c>>),
    Bridging(Box<BridgingSession<'c>>),
}

impl<'c> ModelSession<'c> {
    /// Opens a session for `circuit` grading `model`'s universe, with
    /// the stuck-at collapse mode taken from the environment (see
    /// [`CollapseMode::from_env`]).
    pub fn new(circuit: &'c Circuit, config: MixedSchemeConfig, model: FaultModel) -> Self {
        Self::with_collapse_mode(circuit, config, model, CollapseMode::from_env())
    }

    /// Opens a session with an explicit stuck-at [`CollapseMode`]. The
    /// mode reaches every flow that rides a stuck-at universe — the
    /// stuck-at model itself and the bridging flow's hardware solve;
    /// transition grading has no stuck-at universe, so the mode is
    /// inert there. Committed results are bit-identical in every mode.
    pub fn with_collapse_mode(
        circuit: &'c Circuit,
        config: MixedSchemeConfig,
        model: FaultModel,
        mode: CollapseMode,
    ) -> Self {
        let inner = match model {
            FaultModel::StuckAt => {
                Inner::Session(Box::new(BistSession::with_mode(circuit, config, mode)))
            }
            FaultModel::Transition => Inner::Session(Box::new(BistSession::with_faults(
                circuit,
                config,
                FaultList::transition(circuit),
            ))),
            FaultModel::Bridging { pairs, seed } => Inner::Bridging(Box::new(
                BridgingSession::new(circuit, config, pairs, seed, mode),
            )),
        };
        ModelSession { model, inner }
    }

    /// The collapsed stuck-at universe attached to the session, when
    /// one is ([`FaultModel::StuckAt`] in [`CollapseMode::InFlow`]).
    pub fn collapse(&self) -> Option<&bist_fault::CollapsedUniverse> {
        match &self.inner {
            Inner::Session(s) => s.collapse(),
            Inner::Bridging(_) => None,
        }
    }

    /// The model this session grades.
    pub fn fault_model(&self) -> FaultModel {
        self.model
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &'c Circuit {
        match &self.inner {
            Inner::Session(s) => s.circuit(),
            Inner::Bridging(s) => s.circuit,
        }
    }

    /// Size of the fault universe the session grades against.
    pub fn universe_len(&self) -> usize {
        match &self.inner {
            Inner::Session(s) => s.faults().len(),
            Inner::Bridging(s) => s.universe.len(),
        }
    }

    /// Work counters. For the bridging model these merge the inner
    /// stuck-at session's counters with the bridge-grading ones.
    pub fn stats(&self) -> SessionStats {
        match &self.inner {
            Inner::Session(s) => s.stats(),
            Inner::Bridging(s) => s.stats(),
        }
    }

    /// Solves the mixed scheme for prefix length `p` against the model's
    /// universe.
    ///
    /// # Example
    ///
    /// The paper's §3.1 claim, measured on delay faults: the deterministic
    /// top-up after a short pseudo-random prefix covers every transition
    /// fault the prefix missed.
    ///
    /// ```
    /// use bist_core::MixedSchemeConfig;
    /// use bist_faultmodel::{FaultModel, ModelSession};
    ///
    /// let c17 = bist_netlist::iscas85::c17();
    /// let mut session =
    ///     ModelSession::new(&c17, MixedSchemeConfig::default(), FaultModel::Transition);
    /// let solution = session.solve_at(5)?;
    /// assert!(solution.prefix_coverage.detected < solution.coverage.total());
    /// assert_eq!(solution.coverage.undetected, 0);
    /// # Ok::<(), bist_core::MixedSchemeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`MixedSchemeError`] when the hardware generator cannot be
    /// built.
    pub fn solve_at(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        match &mut self.inner {
            Inner::Session(s) => s.solve_at(p),
            Inner::Bridging(s) => s.solve_at(p),
        }
    }

    /// Solves every prefix length of `prefix_lengths` (results in request
    /// order), sharing the session's incremental state: checkpoints are
    /// processed ascending, so each prefix pattern is graded at most once.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MixedSchemeError`] encountered.
    pub fn sweep(&mut self, prefix_lengths: &[usize]) -> Result<SweepSummary, MixedSchemeError> {
        if let Inner::Session(s) = &mut self.inner {
            return s.sweep(prefix_lengths);
        }
        let mut ascending: Vec<usize> = prefix_lengths.to_vec();
        ascending.sort_unstable();
        ascending.dedup();
        let mut solved: BTreeMap<usize, MixedSolution> = BTreeMap::new();
        for &p in &ascending {
            solved.insert(p, self.solve_at(p)?);
        }
        let solutions = prefix_lengths
            .iter()
            .map(|&p| match solved.get(&p) {
                Some(s) => Ok(s.clone()),
                None => self.solve_at(p),
            })
            .collect::<Result<_, _>>()?;
        Ok(SweepSummary::from_solutions(solutions))
    }

    /// Coverage-versus-length curve of the pure pseudo-random sequence
    /// over the model's universe (the paper's Figure 4, per model).
    pub fn random_coverage_curve(&mut self, checkpoints: &[usize]) -> CoverageCurve {
        match &mut self.inner {
            Inner::Session(s) => s.random_coverage_curve(checkpoints),
            Inner::Bridging(s) => {
                let points = checkpoints
                    .iter()
                    .map(|&cp| {
                        let statuses = s.statuses_at(cp);
                        (cp, CoverageReport::from_statuses(&statuses).coverage_pct())
                    })
                    .collect();
                CoverageCurve::new(points)
            }
        }
    }
}

/// The scheme's pseudo-random stream — identical to the one
/// [`BistSession`] feeds its own simulator (the coverage estimator
/// grades a sample of the universe against the very same stream).
pub(crate) fn stream(config: &MixedSchemeConfig, circuit: &Circuit) -> ScanExpander {
    ScanExpander::new(Lfsr::fibonacci(config.poly, 1), circuit.inputs().len())
}

/// Bridging-model flow: the hardware is the stuck-at solution's; the
/// bridge universe is graded against its full mixed sequence.
#[derive(Debug)]
struct BridgingSession<'c> {
    circuit: &'c Circuit,
    config: MixedSchemeConfig,
    universe: BridgingFaultList,
    sim: BridgingSim<'c>,
    expander: ScanExpander,
    simulated: usize,
    stuck: BistSession<'c>,
    /// Bridge-grading counters; the ATPG side lives in `stuck`.
    extra: SessionStats,
}

impl<'c> BridgingSession<'c> {
    fn new(
        circuit: &'c Circuit,
        config: MixedSchemeConfig,
        pairs: u32,
        seed: u64,
        mode: CollapseMode,
    ) -> Self {
        let universe = BridgingFaultList::sample(circuit, pairs as usize, seed);
        let sim = BridgingSim::new(circuit, universe.clone()).with_threads(config.threads);
        let expander = stream(&config, circuit);
        let stuck = BistSession::with_mode(circuit, config.clone(), mode);
        BridgingSession {
            circuit,
            config,
            universe,
            sim,
            expander,
            simulated: 0,
            stuck,
            extra: SessionStats::default(),
        }
    }

    fn stats(&self) -> SessionStats {
        let s = self.stuck.stats();
        SessionStats {
            patterns_simulated: s.patterns_simulated + self.extra.patterns_simulated,
            patterns_resimulated: s.patterns_resimulated + self.extra.patterns_resimulated,
            ..s
        }
    }

    fn statuses_at(&mut self, p: usize) -> Vec<bist_fault::FaultStatus> {
        if p >= self.simulated {
            let chunk = self.expander.patterns(p - self.simulated);
            self.sim.simulate(&chunk);
            self.extra.patterns_simulated += chunk.len();
            self.simulated = p;
            self.sim.statuses().to_vec()
        } else {
            let mut sim = BridgingSim::new(self.circuit, self.universe.clone())
                .with_threads(self.config.threads);
            let prefix = stream(&self.config, self.circuit).patterns(p);
            sim.simulate(&prefix);
            self.extra.patterns_resimulated += p;
            sim.statuses().to_vec()
        }
    }

    fn solve_at(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        let statuses = self.statuses_at(p);
        let prefix_coverage = CoverageReport::from_statuses(&statuses);
        let stuck = self.stuck.solve_at(p)?;
        // grade the bridge universe over the *full* mixed sequence the
        // stuck-at hardware emits: prefix, then deterministic suffix
        let mut graded =
            BridgingSim::new(self.circuit, self.universe.clone()).with_threads(self.config.threads);
        let prefix = stream(&self.config, self.circuit).patterns(p);
        graded.simulate(&prefix);
        graded.simulate(stuck.generator.deterministic());
        self.extra.patterns_resimulated += p + stuck.det_len;
        Ok(MixedSolution {
            coverage: graded.report(),
            prefix_coverage,
            ..stuck
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_sessions_delegate_byte_for_byte() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let mut model = ModelSession::new(&c, MixedSchemeConfig::default(), FaultModel::StuckAt);
        let mut plain = BistSession::new(&c, MixedSchemeConfig::default());
        for p in [0usize, 60] {
            let a = model.solve_at(p).expect("model solve");
            let b = plain.solve_at(p).expect("plain solve");
            assert_eq!(a.det_len, b.det_len, "p={p}");
            assert_eq!(
                a.generator.deterministic(),
                b.generator.deterministic(),
                "p={p}"
            );
            assert_eq!(a.coverage, b.coverage, "p={p}");
            assert_eq!(a.prefix_coverage, b.prefix_coverage, "p={p}");
        }
        assert_eq!(model.stats(), plain.stats());
        assert_eq!(model.universe_len(), plain.faults().len());
    }

    #[test]
    fn transition_solutions_verify_and_pair_up() {
        let c17 = bist_netlist::iscas85::c17();
        let mut session =
            ModelSession::new(&c17, MixedSchemeConfig::default(), FaultModel::Transition);
        for p in [0usize, 16] {
            let s = session.solve_at(p).expect("solve succeeds");
            assert_eq!(s.prefix_len, p);
            assert_eq!(s.det_len % 2, 0, "p={p}: delay tests come in pairs");
            assert!(s.generator.verify(), "p={p}");
            assert!(
                s.coverage.coverage_pct() >= s.prefix_coverage.coverage_pct(),
                "p={p}"
            );
            assert_eq!(s.coverage.undetected, 0, "p={p}: c17 is fully testable");
        }
        assert_eq!(session.stats().atpg_runs, 2);
        // same point again: answered from the frontier-keyed top-up cache
        session.solve_at(16).expect("solve succeeds");
        assert_eq!(session.stats().atpg_cache_hits, 1);
    }

    #[test]
    fn transition_prefix_shrinks_the_deterministic_set() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let mut session =
            ModelSession::new(&c, MixedSchemeConfig::default(), FaultModel::Transition);
        let bare = session.solve_at(0).expect("solve succeeds");
        let topped = session.solve_at(256).expect("solve succeeds");
        assert!(topped.prefix_coverage.detected > 0);
        assert!(
            topped.det_len < bare.det_len,
            "prefix {} vs bare {}",
            topped.det_len,
            bare.det_len
        );
        // the mixed run reaches at least the deterministic-only coverage
        assert!(topped.coverage.coverage_pct() >= bare.coverage.coverage_pct() - 1e-9);
    }

    #[test]
    fn transition_non_monotone_matches_fresh_session() {
        let c17 = bist_netlist::iscas85::c17();
        let cfg = MixedSchemeConfig::default();
        let mut forward = ModelSession::new(&c17, cfg.clone(), FaultModel::Transition);
        let a16 = forward.solve_at(16).expect("solve succeeds");
        let a8 = forward.solve_at(8).expect("below the front");
        assert!(forward.stats().patterns_resimulated > 0);

        let mut fresh = ModelSession::new(&c17, cfg, FaultModel::Transition);
        let b8 = fresh.solve_at(8).expect("solve succeeds");
        let b16 = fresh.solve_at(16).expect("solve succeeds");
        assert_eq!(a8.det_len, b8.det_len);
        assert_eq!(a8.coverage, b8.coverage);
        assert_eq!(a16.det_len, b16.det_len);
        assert_eq!(a16.coverage, b16.coverage);
    }

    #[test]
    fn bridging_rides_the_stuck_at_hardware() {
        let c17 = bist_netlist::iscas85::c17();
        let model = FaultModel::Bridging { pairs: 40, seed: 7 };
        let mut session = ModelSession::new(&c17, MixedSchemeConfig::default(), model);
        let mut stuck = BistSession::new(&c17, MixedSchemeConfig::default());
        let p = 16;
        let bridge = session.solve_at(p).expect("solve succeeds");
        let sa = stuck.solve_at(p).expect("solve succeeds");
        // identical hardware: the generator is the stuck-at solution's
        assert_eq!(bridge.det_len, sa.det_len);
        assert_eq!(
            bridge.generator.deterministic(),
            sa.generator.deterministic()
        );
        assert_eq!(bridge.generator_area_mm2, sa.generator_area_mm2);
        // but coverage is measured over the bridge universe
        assert_eq!(bridge.coverage.total(), session.universe_len());
        assert!(
            bridge.coverage.detected >= bridge.prefix_coverage.detected,
            "the deterministic suffix can only add detections"
        );
    }

    #[test]
    fn curves_are_monotone_for_every_model() {
        let c17 = bist_netlist::iscas85::c17();
        for model in [
            FaultModel::StuckAt,
            FaultModel::Transition,
            FaultModel::Bridging { pairs: 40, seed: 7 },
        ] {
            let mut session = ModelSession::new(&c17, MixedSchemeConfig::default(), model);
            let curve = session.random_coverage_curve(&[0, 8, 16, 32, 64]);
            assert!(curve.is_monotone(), "{model}");
            assert_eq!(curve.points()[0].1, 0.0, "{model}: empty prefix");
            assert!(curve.final_coverage().expect("non-empty") > 0.0, "{model}");
        }
    }

    #[test]
    fn sweep_preserves_request_order() {
        let c17 = bist_netlist::iscas85::c17();
        let mut session =
            ModelSession::new(&c17, MixedSchemeConfig::default(), FaultModel::Transition);
        let summary = session.sweep(&[16, 0, 8]).expect("sweep succeeds");
        let ps: Vec<usize> = summary.solutions().iter().map(|s| s.prefix_len).collect();
        assert_eq!(ps, vec![16, 0, 8]);
        // ascending processing: each prefix pattern graded once
        assert_eq!(session.stats().patterns_simulated, 16);
    }
}
