//! The traced run: spans recorded from the benchmark's side around the
//! calls into each crate's public functions, the shadow pipeline that
//! replays a batch job through those calls, and the checks only this
//! run makes (cycle-accurate generator replay, the serial fault
//! simulation oracle, the ATPG outcome census, the width record).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use bist_atpg::{AtpgOptions, AtpgRun, CubeCache, TestGenerator};
use bist_core::{BistSession, MixedGenerator, MixedSchemeConfig, SessionStats};
use bist_engine::JobResult;
use bist_fault::{CollapsedUniverse, Fault, FaultList, FaultStatus};
use bist_faultsim::{serial, CoverageReport, FaultSim, SimCounters};
use bist_lfsr::{Lfsr, Polynomial, ScanExpander};
use bist_lfsrom::LfsromGenerator;
use bist_logicsim::Pattern;
use bist_netlist::Circuit;

use crate::batch::{self, Batch, Kind};
use crate::measure::{median, Outcome};
use crate::refs::{self, Refs};
use crate::{nproc, RESULTS_DIR, SETUP_REPS};

/// Every per-layer metric, with its unit, in report order. A traced
/// run reports all of them; a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("netlist.realize_s", "s"),
    ("fault.collapse_s", "s"),
    ("fault.representatives", "count"),
    ("core.session_open_s", "s"),
    ("lfsr.expand_s", "s"),
    ("faultsim.simulate_s", "s"),
    ("faultsim.blocks", "count"),
    ("faultsim.cone_events", "count"),
    ("faultsim.good_gate_evals", "count"),
    ("atpg.run_s", "s"),
    ("atpg.calls", "count"),
    ("atpg.aborted", "count"),
    ("atpg.redundant", "count"),
    ("atpg.abort_search_s", "s"),
    ("atpg.redundant_search_s", "s"),
    ("atpg.abort_share", "frac"),
    ("atpg.cube_hits", "count"),
    ("atpg.cube_misses", "count"),
    ("atpg.cube_hit_ratio", "frac"),
    ("lfsrom.synthesize_s", "s"),
    ("lfsrom.patterns", "count"),
    ("core.mixed_build_s", "s"),
    ("core.patterns_simulated", "count"),
    ("core.atpg_runs", "count"),
    ("core.podem_cache_hits", "count"),
    ("core.snapshots_taken", "count"),
    ("engine.digest_s", "s"),
    ("engine.cache_lookup_s", "s"),
    ("engine.cache_store_s", "s"),
    ("engine.codec_decode_s", "s"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.deliver_ms", "ms"),
    ("serve.rejected", "count"),
    ("wire.decode_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Patterns of the curve prefix the serial oracle re-grades.
const ORACLE_PREFIX: usize = 32;
/// The serial oracle re-grades every `ORACLE_STRIDE`-th fault of the
/// mixed list, which keeps it to seconds on c7552.
const ORACLE_STRIDE: usize = 8;

/// One recorded span: a call into a layer, timed from the benchmark.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: u64,
}

/// An in-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Tags every span recorded from now on with `job`.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        value
    }

    fn durations(&self, name: &str, job: Option<u64>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && job.is_none_or(|j| s.job == j))
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Seconds the most recently closed span took.
    pub fn last_duration(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| (s.end - s.start).as_secs_f64())
    }

    /// Total seconds spent in spans named `name` of `job`.
    pub fn total(&self, name: &str, job: u64) -> f64 {
        self.durations(name, Some(job)).iter().sum()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                text,
                "{{\"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"job\": {}}}",
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                s.job
            )
            .expect("write to String");
        }
        std::fs::write(path, text)
    }
}

/// The per-layer values a traced run has measured so far.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, (value, note.into()));
    }

    /// `name` = the median duration of every span named `span`.
    pub fn set_median(&mut self, tracer: &Tracer, name: &'static str, span: &str) {
        let d = tracer.durations(span, None);
        let value = if d.is_empty() { 0.0 } else { median(&d) };
        self.set(name, value, format!("median per call, n={}", d.len()));
    }

    /// The set-up layers: per-call medians of realize, collapse and
    /// session open.
    pub fn set_session_open(&mut self, tracer: &Tracer) {
        self.set_median(tracer, "netlist.realize_s", "netlist.realize");
        self.set_median(tracer, "fault.collapse_s", "fault.collapse");
        self.set_median(tracer, "core.session_open_s", "core.session_open");
    }
}

/// Realizes `name`, builds its collapsed universe and opens a session on
/// it, each in its own span. Returns the circuit and its number of
/// collapsed-class representatives.
pub fn open_session(
    tracer: &mut Tracer,
    name: &str,
    threads: usize,
) -> Result<(Circuit, usize), String> {
    let circuit = tracer.span("netlist.realize", |_| {
        bist_engine::CircuitSource::iscas85(name)
            .realize()
            .map_err(|e| e.to_string())
    })?;
    let universe = tracer.span("fault.collapse", |_| CollapsedUniverse::build(&circuit));
    let config = MixedSchemeConfig {
        threads,
        ..MixedSchemeConfig::default()
    };
    let session = tracer.span("core.session_open", |_| BistSession::new(&circuit, config));
    std::hint::black_box(&session);
    drop(session);
    Ok((circuit, universe.representatives().len()))
}

/// The sequence a mixed generator's LFSROM replays: the LFSR chain
/// after `p` prefix patterns (the hand-over bridge, when `p > 0`), then
/// `det`.
pub fn lfsrom_sequence(width: usize, poly: Polynomial, p: usize, det: &[Pattern]) -> Vec<Pattern> {
    let mut expander = ScanExpander::new(Lfsr::fibonacci(poly, 1), width);
    expander.patterns(p);
    with_bridge(&expander, p, det)
}

fn with_bridge(expander: &ScanExpander, p: usize, det: &[Pattern]) -> Vec<Pattern> {
    let mut seq = Vec::with_capacity(det.len() + 1);
    if p > 0 {
        seq.push(expander.chain());
    }
    seq.extend(det.iter().cloned());
    seq
}

/// Emits every per-layer metric (0 where unmeasured) and writes the
/// spans to `perfbench/results/<workload>-spans.jsonl`.
pub fn finish(
    out: &mut Outcome,
    layers: Layers,
    tracer: &Tracer,
    workload: &str,
) -> Result<(), String> {
    let path = Path::new(RESULTS_DIR).join(format!("{workload}-spans.jsonl"));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.line(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        path.display()
    ));
    for (name, unit) in PER_LAYER {
        let (value, note) = layers
            .values
            .get(name)
            .cloned()
            .unwrap_or((0.0, "not reached by this workload".to_owned()));
        out.metric(name, value, unit, note);
    }
    Ok(())
}

/// What the shadow pipeline produced at one pool width.
struct Shadow {
    /// Canonical lines per length, ascending.
    lines: Vec<(String, String)>,
    counters: SimCounters,
    atpg_calls: usize,
    cube_hits: usize,
    cube_misses: usize,
    lfsrom_patterns: usize,
    /// The lowest prefix's top-up: its targets, their final statuses
    /// and the time the run took.
    first_topup: Option<(FaultList, Vec<FaultStatus>, f64)>,
}

/// Replays `batch` through public calls: mixed fault list, scan
/// expansion, PPSFP grading, the open frontier, `run_with_cache` on one
/// shared `CubeCache` (with the session's frontier reuse), LFSROM
/// synthesis and the mixed generator build.
fn shadow(
    tracer: &mut Tracer,
    circuit: &Circuit,
    batch: &Batch,
    threads: usize,
) -> Result<Shadow, String> {
    let config = MixedSchemeConfig {
        threads,
        ..MixedSchemeConfig::default()
    };
    let atpg = AtpgOptions {
        threads,
        ..config.atpg
    };
    let width = circuit.inputs().len();
    let faults = tracer.span("fault.mixed_model", |_| FaultList::mixed_model(circuit));
    let mut sim = FaultSim::new(circuit, faults.clone()).with_threads(threads);
    let mut expander = ScanExpander::new(Lfsr::fibonacci(config.poly, 1), width);
    let mut simulated = 0;
    let mut cubes = CubeCache::new();
    let mut topups: BTreeMap<Vec<usize>, Rc<AtpgRun>> = BTreeMap::new();
    let mut out = Shadow {
        lines: Vec::new(),
        counters: SimCounters::default(),
        atpg_calls: 0,
        cube_hits: 0,
        cube_misses: 0,
        lfsrom_patterns: 0,
        first_topup: None,
    };
    for &len in &batch.lengths {
        let chunk = tracer.span("lfsr.expand", |_| expander.patterns(len - simulated));
        tracer.span("faultsim.simulate", |_| sim.simulate(&chunk));
        simulated = len;
        let statuses = sim.statuses().to_vec();
        if batch.kind == Kind::Curve {
            let pct = CoverageReport::from_statuses(&statuses).coverage_pct();
            out.lines
                .push((refs::curve_key(batch.circuit, len), refs::curve_line(pct)));
            continue;
        }
        let frontier: Vec<usize> = (0..statuses.len())
            .filter(|&i| statuses[i].is_open())
            .collect();
        let run = match topups.get(&frontier) {
            Some(run) => Rc::clone(run),
            None => {
                let targets: FaultList = frontier.iter().map(|&i| faults.faults()[i]).collect();
                let run = tracer.span("atpg.run", |_| {
                    TestGenerator::new(circuit, targets.clone(), atpg).run_with_cache(&mut cubes)
                });
                if out.first_topup.is_none() {
                    let secs = tracer.last_duration();
                    out.first_topup = Some((targets, run.statuses.clone(), secs));
                }
                out.atpg_calls += run.atpg_calls;
                let run = Rc::new(run);
                topups.insert(frontier.clone(), Rc::clone(&run));
                run
            }
        };
        let mut merged = statuses;
        for (&i, &status) in frontier.iter().zip(&run.statuses) {
            merged[i] = status;
        }
        let coverage = CoverageReport::from_statuses(&merged).coverage_pct();
        let det = run.sequence();
        if !det.is_empty() {
            let seq = with_bridge(&expander, len, &det);
            out.lfsrom_patterns += seq.len();
            tracer
                .span("lfsrom.synthesize", |_| LfsromGenerator::synthesize(&seq))
                .map_err(|e| format!("p={len}: {e}"))?;
        }
        let generator = tracer
            .span("core.mixed_build", |_| {
                MixedGenerator::build(width, config.poly, len, &det)
            })
            .map_err(|e| format!("p={len}: {e}"))?;
        let mm2 = generator.area_mm2(&config.area);
        out.lines.push((
            refs::point_key(batch.circuit, len),
            refs::point_fields(det.len(), coverage, mm2),
        ));
    }
    out.counters = sim.counters();
    out.cube_hits = cubes.hits();
    out.cube_misses = cubes.misses();
    Ok(out)
}

/// Times one single-target `TestGenerator::run` for every target the
/// first top-up left aborted or redundant, and adds census lines to
/// `out`. Returns the stuck-at (aborted, redundant) seconds: a
/// stuck-open target's detect search is shared with stuck-at searches
/// through the cube cache inside a top-up, so its single-target time
/// overlaps theirs and is reported on its own line only.
fn census(
    tracer: &mut Tracer,
    out: &mut Outcome,
    circuit: &Circuit,
    targets: &FaultList,
    statuses: &[FaultStatus],
) -> (f64, f64) {
    let options = AtpgOptions {
        threads: 1,
        ..MixedSchemeConfig::default().atpg
    };
    // (span, stuck-at?) -> (targets, seconds, single-run verdicts that differ)
    let mut tally: BTreeMap<(&str, bool), (usize, f64, usize)> = BTreeMap::new();
    for (fault, &status) in targets.iter().zip(statuses) {
        let name = match status {
            FaultStatus::Aborted => "atpg.census_aborted",
            FaultStatus::Redundant => "atpg.census_redundant",
            _ => continue,
        };
        let one: FaultList = std::iter::once(*fault).collect();
        let run = tracer.span(name, |_| TestGenerator::new(circuit, one, options).run());
        let entry = tally
            .entry((name, matches!(fault, Fault::StuckAt { .. })))
            .or_default();
        entry.0 += 1;
        entry.1 += tracer.last_duration();
        entry.2 += usize::from(run.statuses.first() != Some(&status));
    }
    for ((name, stuck_at), (n, secs, differ)) in &tally {
        let class = if *stuck_at { "stuck-at" } else { "stuck-open" };
        out.line(format!(
            "census {name} {class}: {n} targets, {secs:.3} s single-target search, {differ} single-run verdicts differ"
        ));
    }
    let secs = |name| tally.get(&(name, true)).map_or(0.0, |t| t.1);
    (secs("atpg.census_aborted"), secs("atpg.census_redundant"))
}

/// Re-grades the first `ORACLE_PREFIX` curve patterns with the serial
/// reference simulator and compares each sampled fault's first
/// detection with PPSFP's. Returns (faults compared, disagreements).
fn serial_oracle(tracer: &mut Tracer, circuit: &Circuit, threads: usize) -> (usize, usize) {
    let poly = MixedSchemeConfig::default().poly;
    let patterns =
        ScanExpander::new(Lfsr::fibonacci(poly, 1), circuit.inputs().len()).patterns(ORACLE_PREFIX);
    let faults = FaultList::mixed_model(circuit);
    let mut sim = FaultSim::new(circuit, faults.clone()).with_threads(threads);
    sim.simulate(&patterns);
    let sampled: Vec<usize> = (0..faults.len()).step_by(ORACLE_STRIDE).collect();
    let targets: Vec<Fault> = sampled.iter().map(|&i| faults.faults()[i]).collect();
    let serial = tracer.span("faultsim.serial_oracle", |_| {
        serial::grade_sequence(circuit, &targets, &patterns)
    });
    let disagree = sampled
        .iter()
        .zip(&serial)
        .filter(|&(&i, &first)| sim.first_detection(i) != first)
        .count();
    (sampled.len(), disagree)
}

fn stats_of(result: &JobResult) -> Option<SessionStats> {
    result.as_sweep().map(|s| s.stats)
}

pub fn run_traced(batch: Batch, seed: u64, refs: &Refs) -> Result<Outcome, String> {
    let n = nproc();
    let mut widths = vec![1, n];
    widths.dedup();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut opened = None;
    for _ in 0..SETUP_REPS {
        opened = Some(open_session(&mut tracer, batch.circuit, n)?);
    }
    let (circuit, representatives) = opened.expect("at least one set-up");
    layers.set(
        "fault.representatives",
        representatives as f64,
        batch.circuit,
    );
    layers.set_session_open(&tracer);

    // untraced jobs at each width: the reference outputs, the counters
    // and the job time the tracing overhead is measured against
    let mut jobs = BTreeMap::new();
    for &w in &widths {
        let (spec, result, elapsed) = batch::run_job(&batch, seed, w);
        let result = result?;
        out.tally(batch.check(&spec, &result, refs));
        jobs.insert(w, (result, elapsed.as_secs_f64()));
    }

    // the shadow pipeline at each width must reproduce the job exactly
    let mut shadows = BTreeMap::new();
    for &w in &widths {
        tracer.set_job(w as u64);
        let shadow = tracer.span("shadow", |t| shadow(t, &circuit, &batch, w))?;
        // the job answers in request order, the shadow ascending
        let want: BTreeMap<_, _> = batch.lines(&jobs[&w].0)?.into_iter().collect();
        let got: BTreeMap<_, _> = shadow.lines.iter().cloned().collect();
        let same = want == got && want.len() == batch.lengths.len();
        if !same {
            eprintln!("shadow pipeline at width {w} does not reproduce the job");
        }
        out.tally(same);
        shadows.insert(w, shadow);
    }

    // independent checks
    tracer.set_job(0);
    if let Some(sweep) = jobs[&n].0.as_sweep() {
        let mut failed = 0;
        for s in sweep.summary.solutions() {
            let ok = tracer.span("core.verify", |_| s.generator.verify());
            failed += usize::from(!ok);
            out.tally(ok);
        }
        out.line(format!(
            "MixedGenerator::verify on {} solved points: {failed} failed",
            sweep.summary.solutions().len()
        ));
    }
    if batch.kind == Kind::Curve {
        let (compared, disagree) = serial_oracle(&mut tracer, &circuit, n);
        out.tally(disagree == 0);
        out.line(format!(
            "serial oracle over the first {ORACLE_PREFIX} patterns: {disagree} of {compared} faults disagree with PPSFP"
        ));
    }

    // per-layer figures at the machine width
    let top = &shadows[&n];
    let job = n as u64;
    let mut timed = vec![
        ("lfsr.expand_s", "lfsr.expand"),
        ("faultsim.simulate_s", "faultsim.simulate"),
    ];
    if batch.kind == Kind::Sweep {
        timed.extend([
            ("atpg.run_s", "atpg.run"),
            ("lfsrom.synthesize_s", "lfsrom.synthesize"),
            ("core.mixed_build_s", "core.mixed_build"),
        ]);
    }
    for (name, span) in timed {
        layers.set(
            name,
            tracer.total(span, job),
            format!("total over one job, width {n}"),
        );
    }
    let mut counts = vec![
        ("faultsim.blocks", top.counters.blocks as f64),
        ("faultsim.cone_events", top.counters.cone_events as f64),
        (
            "faultsim.good_gate_evals",
            top.counters.good_gate_evals as f64,
        ),
    ];
    if batch.kind == Kind::Sweep {
        let lookups = (top.cube_hits + top.cube_misses).max(1);
        counts.extend([
            ("atpg.calls", top.atpg_calls as f64),
            ("atpg.cube_hits", top.cube_hits as f64),
            ("atpg.cube_misses", top.cube_misses as f64),
            ("atpg.cube_hit_ratio", top.cube_hits as f64 / lookups as f64),
            ("lfsrom.patterns", top.lfsrom_patterns as f64),
        ]);
        if let Some(stats) = stats_of(&jobs[&n].0) {
            counts.extend([
                ("core.patterns_simulated", stats.patterns_simulated as f64),
                ("core.atpg_runs", stats.atpg_runs as f64),
                ("core.podem_cache_hits", stats.podem_cache_hits as f64),
                ("core.snapshots_taken", stats.snapshots_taken as f64),
            ]);
        }
    }
    for (name, value) in counts {
        layers.set(name, value, format!("width {n}"));
    }
    if let Some((_, statuses, _)) = &top.first_topup {
        let lowest = format!("p={} top-up, width {n}", batch.lengths[0]);
        for (name, status) in [
            ("atpg.aborted", FaultStatus::Aborted),
            ("atpg.redundant", FaultStatus::Redundant),
        ] {
            let count = statuses.iter().filter(|&&s| s == status).count();
            layers.set(name, count as f64, lowest.clone());
        }
    }
    // the census runs single-threaded, so its share is taken of the
    // width-1 top-up
    if let Some((targets, statuses, topup_s)) = &shadows[&1].first_topup {
        let (aborted_s, redundant_s) = census(&mut tracer, &mut out, &circuit, targets, statuses);
        let note = "stuck-at single-target runs, width 1";
        layers.set("atpg.abort_search_s", aborted_s, note);
        layers.set("atpg.redundant_search_s", redundant_s, note);
        layers.set(
            "atpg.abort_share",
            aborted_s / topup_s,
            format!(
                "of the {topup_s:.3} s p={} top-up at width 1",
                batch.lengths[0]
            ),
        );
    }
    // the standalone synthesize call repeats work MixedGenerator::build
    // does inside, so it is not part of the replayed pipeline
    let shadow_s = tracer.total("shadow", job) - tracer.total("lfsrom.synthesize", job);
    let job_s = jobs[&n].1;
    layers.set(
        "trace.overhead_ratio",
        shadow_s / job_s,
        format!("traced shadow {shadow_s:.3} s (less lfsrom.synthesize) / untraced job {job_s:.3} s, width {n}"),
    );

    width_record(&mut out, &tracer, &widths, &jobs, &shadows);
    finish(&mut out, layers, &tracer, batch.workload.name())?;
    Ok(out)
}

/// Prints every count and layer time at each width, marking the
/// counters that differ between widths (reported, not gated).
fn width_record(
    out: &mut Outcome,
    tracer: &Tracer,
    widths: &[usize],
    jobs: &BTreeMap<usize, (JobResult, f64)>,
    shadows: &BTreeMap<usize, Shadow>,
) {
    let mut rows: Vec<(&str, Vec<String>, bool)> = Vec::new();
    let mut count_row = |name, values: Vec<u64>| {
        let differs = values.windows(2).any(|w| w[0] != w[1]);
        rows.push((name, values.iter().map(u64::to_string).collect(), differs));
    };
    let per_width = |f: &dyn Fn(&Shadow) -> usize| -> Vec<u64> {
        widths.iter().map(|w| f(&shadows[w]) as u64).collect()
    };
    count_row("atpg.calls", per_width(&|s| s.atpg_calls));
    count_row("atpg.cube_hits", per_width(&|s| s.cube_hits));
    count_row("atpg.cube_misses", per_width(&|s| s.cube_misses));
    count_row("lfsrom.patterns", per_width(&|s| s.lfsrom_patterns));
    count_row(
        "faultsim.blocks",
        per_width(&|s| s.counters.blocks as usize),
    );
    count_row(
        "faultsim.cone_events",
        per_width(&|s| s.counters.cone_events as usize),
    );
    count_row(
        "faultsim.good_gate_evals",
        per_width(&|s| s.counters.good_gate_evals as usize),
    );
    if widths.iter().all(|w| stats_of(&jobs[w].0).is_some()) {
        let stat = |f: fn(&SessionStats) -> usize| -> Vec<u64> {
            widths
                .iter()
                .map(|w| stats_of(&jobs[w].0).map_or(0, |s| f(&s)) as u64)
                .collect()
        };
        count_row("core.patterns_simulated", stat(|s| s.patterns_simulated));
        count_row("core.atpg_runs", stat(|s| s.atpg_runs));
        count_row("core.atpg_cache_hits", stat(|s| s.atpg_cache_hits));
        count_row("core.podem_cache_hits", stat(|s| s.podem_cache_hits));
        count_row("core.snapshots_taken", stat(|s| s.snapshots_taken));
        count_row("core.snapshots_skipped", stat(|s| s.snapshots_skipped));
    }
    for span in [
        "lfsr.expand",
        "faultsim.simulate",
        "atpg.run",
        "lfsrom.synthesize",
        "core.mixed_build",
        "shadow",
    ] {
        let values = widths
            .iter()
            .map(|&w| format!("{:.4}s", tracer.total(span, w as u64)))
            .collect();
        rows.push((span, values, false));
    }
    let values = widths
        .iter()
        .map(|w| format!("{:.4}s", jobs[w].1))
        .collect();
    rows.push(("job (untraced)", values, false));

    let header: Vec<String> = widths.iter().map(|w| format!("width {w}")).collect();
    out.line(format!("{:<26} {}", "width record", header.join("  ")));
    for (name, values, differs) in rows {
        let cells: Vec<String> = values.iter().map(|v| format!("{v:>7}")).collect();
        let mark = if differs {
            "  <- differs between widths"
        } else {
            ""
        };
        out.line(format!("{name:<26} {}{mark}", cells.join("  ")));
    }
}
