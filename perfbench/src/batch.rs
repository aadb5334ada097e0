//! The three batch workloads: one engine job at a time, submitted to an
//! in-process `Engine` at the machine width, no result cache.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bist_core::{BistSession, MixedSchemeConfig};
use bist_engine::{CircuitSource, Engine, JobResult, JobSpec};

use crate::measure::Outcome;
use crate::refs::{self, Refs};
use crate::{nproc, report_end_to_end, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sweep,
    Curve,
}

/// One batch workload: a sweep or a coverage curve of one circuit.
#[derive(Debug, Clone)]
pub struct Batch {
    pub workload: Workload,
    pub circuit: &'static str,
    pub kind: Kind,
    /// Prefix lengths (sweep) or sequence lengths (curve), ascending.
    pub lengths: Vec<usize>,
}

impl Batch {
    pub fn of(workload: Workload) -> Batch {
        let (circuit, kind, lengths) = match workload {
            Workload::SweepSearch => ("c1908", Kind::Sweep, vec![0, 100, 200, 500, 1000]),
            Workload::SweepDense => ("c432", Kind::Sweep, (0..=2000).step_by(25).collect()),
            Workload::CurveGrade => (
                "c7552",
                Kind::Curve,
                vec![1_000, 10_000, 30_000],
            ),
            Workload::ServeMixed => unreachable!("serve-mixed is not a batch workload"),
        };
        Batch {
            workload,
            circuit,
            kind,
            lengths,
        }
    }

    pub fn source(&self) -> CircuitSource {
        CircuitSource::iscas85(self.circuit)
    }

    /// The job, with its lengths requested in an order rotated by the
    /// seed. The engine solves ascending whatever the request order, so
    /// the work is the same for every seed; results come back in
    /// request order and are checked per length.
    pub fn spec(&self, seed: u64) -> JobSpec {
        let mut lengths = self.lengths.clone();
        let shift = (seed % lengths.len() as u64) as usize;
        lengths.rotate_left(shift);
        match self.kind {
            Kind::Sweep => JobSpec::sweep(self.source(), lengths),
            Kind::Curve => JobSpec::coverage_curve(self.source(), lengths),
        }
    }

    /// Canonical output lines of `result`, keyed for `refs.txt`, or an
    /// error when the result is of the wrong kind.
    pub fn lines(&self, result: &JobResult) -> Result<Vec<(String, String)>, String> {
        match self.kind {
            Kind::Sweep => {
                let sweep = result.as_sweep().ok_or("not a sweep result")?;
                Ok(sweep
                    .summary
                    .solutions()
                    .iter()
                    .map(|s| {
                        (
                            refs::point_key(self.circuit, s.prefix_len),
                            refs::point_line(s),
                        )
                    })
                    .collect())
            }
            Kind::Curve => {
                let curve = result.as_coverage_curve().ok_or("not a curve result")?;
                Ok(curve
                    .curve
                    .points()
                    .iter()
                    .map(|&(len, pct)| (refs::curve_key(self.circuit, len), refs::curve_line(pct)))
                    .collect())
            }
        }
    }

    /// Checks one job's output: every point equals its pinned line, the
    /// points come back in request order, and on c432 the committed
    /// `BENCH_sweep.json` `(p, d)` points hold.
    pub fn check(&self, spec: &JobSpec, result: &JobResult, refs: &Refs) -> bool {
        let lines = match self.lines(result) {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("{}: {e}", self.circuit);
                return false;
            }
        };
        let requested: Vec<usize> = match spec {
            JobSpec::Sweep(s) => s.prefix_lengths.clone(),
            JobSpec::CoverageCurve(c) => c.checkpoints.clone(),
            _ => Vec::new(),
        };
        let returned: Vec<usize> = match result {
            JobResult::Sweep(s) => s.summary.solutions().iter().map(|s| s.prefix_len).collect(),
            JobResult::CoverageCurve(c) => c.curve.points().iter().map(|&(l, _)| l).collect(),
            _ => Vec::new(),
        };
        let mut ok = requested == returned;
        if !ok {
            eprintln!("{}: points out of request order", self.circuit);
        }
        ok &= lines.iter().all(|(key, line)| refs.check(key, line));
        if self.circuit == "c432" {
            if let Some(sweep) = result.as_sweep() {
                for (p, d) in refs::BENCH_SWEEP_C432 {
                    let got = sweep.summary.solutions().iter().find(|s| s.prefix_len == p);
                    if got.map(|s| s.det_len) != Some(d) {
                        eprintln!("c432 p={p}: BENCH_sweep.json has d={d}, got {got:?}");
                        ok = false;
                    }
                }
            }
        }
        ok
    }
}

/// Runs `batch` at `threads` through a fresh engine, returning the
/// result and its submit-to-wait latency.
pub fn run_job(
    batch: &Batch,
    seed: u64,
    threads: usize,
) -> (JobSpec, Result<JobResult, String>, Duration) {
    let engine = Engine::with_threads(threads);
    let spec = batch.spec(seed);
    let start = Instant::now();
    let result = engine.submit(spec.clone()).wait();
    let elapsed = start.elapsed();
    (spec, result.map_err(|e| e.to_string()), elapsed)
}

/// One set-up: realize the circuit and open a session on it (fault
/// universe, collapse, simulator).
fn setup_once(batch: &Batch, threads: usize) -> Result<f64, String> {
    let start = Instant::now();
    let circuit = batch.source().realize().map_err(|e| e.to_string())?;
    let config = MixedSchemeConfig {
        threads,
        ..MixedSchemeConfig::default()
    };
    let session = BistSession::new(&circuit, config);
    std::hint::black_box(&session);
    Ok(start.elapsed().as_secs_f64())
}

pub fn run_timed(
    batch: Batch,
    seed: u64,
    seconds: Duration,
    refs: &Refs,
) -> Result<Outcome, String> {
    let threads = nproc();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    while crate::another_setup(setup_start, &setups) {
        setups.push(setup_once(&batch, threads)?);
    }
    let engine = Engine::with_threads(threads);
    let mut latencies = Vec::new();
    let measured = Instant::now();
    while crate::another_fits(measured, &latencies, seconds) {
        let spec = batch.spec(seed);
        let start = Instant::now();
        let result = engine.submit(spec.clone()).wait();
        latencies.push(start.elapsed().as_secs_f64());
        let ok = match &result {
            Ok(result) => batch.check(&spec, result, refs),
            Err(e) => {
                eprintln!("job failed: {e}");
                false
            }
        };
        out.tally(ok);
    }
    let wall = measured.elapsed().as_secs_f64();
    out.line(format!(
        "{} {:?} of {} lengths at pool width {threads}, no result cache",
        batch.circuit,
        batch.kind,
        batch.lengths.len()
    ));
    report_end_to_end(&mut out, &setups, &latencies, wall);
    Ok(out)
}

/// Adds the pinned lines of every batch workload to `entries`.
pub fn reference_lines(entries: &mut BTreeMap<String, String>) -> Result<(), String> {
    for w in [
        Workload::SweepSearch,
        Workload::SweepDense,
        Workload::CurveGrade,
    ] {
        let batch = Batch::of(w);
        let (_, result, _) = run_job(&batch, 0, nproc());
        entries.extend(batch.lines(&result?)?);
    }
    Ok(())
}
