//! The repository benchmark: four workloads run in-process through the
//! public `bist_engine::Engine` and `bist serve` faces.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-search|sweep-dense|curve-grade|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that times the calls into each crate's public functions
//! from outside and reports the per-layer metrics. Run from the
//! repository root. `--write-refs` recomputes `perfbench/refs.txt`, the
//! pinned outputs every run is checked against. See `README.md`.

mod batch;
mod measure;
mod refs;
mod serve;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use measure::Outcome;

/// Working directory for run artefacts (span dumps, the daemon's
/// socket and cache), relative to the repository root.
pub const RESULTS_DIR: &str = "perfbench/results";

/// How many times a run repeats its set-up at least; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 11;

/// How long a timed run keeps repeating its set-up at least. A set-up
/// of a few milliseconds or less, repeated only for a few milliseconds,
/// reads whatever the host was doing in that instant; a median over a
/// second does not.
pub const SETUP_SPAN: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepSearch,
    SweepDense,
    CurveGrade,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SweepSearch,
        Workload::SweepDense,
        Workload::CurveGrade,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSearch => "sweep-search",
            Workload::SweepDense => "sweep-dense",
            Workload::CurveGrade => "curve-grade",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-refs" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// The pool width every workload runs at: the machine width.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// True when a timed run, which began its set-ups at `start`, should
/// repeat its set-up once more: at least `SETUP_REPS` times and for at
/// least `SETUP_SPAN`.
pub fn another_setup(start: std::time::Instant, done: &[f64]) -> bool {
    done.len() < SETUP_REPS || start.elapsed() < SETUP_SPAN
}

/// True when the measured phase, started at `start`, should run one
/// more unit: until `budget` has elapsed, and at least two units, so
/// that every median rests on more than one sample.
pub fn another_fits(start: std::time::Instant, done: &[f64], budget: Duration) -> bool {
    done.len() < 2 || start.elapsed() < budget
}

/// The end-to-end metrics every workload reports, from its set-up
/// repetitions, its per-job latencies and the wall time of the
/// measured phase.
pub fn report_end_to_end(out: &mut Outcome, setups: &[f64], latencies: &[f64], wall: f64) {
    let n = latencies.len();
    out.metric(
        "setup_s",
        measure::median(setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    out.metric(
        "job_s",
        measure::median(latencies),
        "s",
        format!("median, n={n}"),
    );
    let (tail, label) = measure::tail(latencies);
    out.metric("job_tail_s", tail, "s", format!("{label}, n={n}"));
    out.metric(
        "jobs_per_s",
        n as f64 / wall,
        "1/s",
        format!("{n} jobs in {wall:.3} s"),
    );
    out.metric(
        "peak_rss_mb",
        measure::peak_rss_mb(),
        "MiB",
        "process high-water mark",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return write_refs(),
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR) {
        eprintln!("perfbench: cannot create {RESULTS_DIR} (run from the repository root): {e}");
        return ExitCode::from(2);
    }
    let refs = refs::Refs::pinned();
    let name = args.workload.name();
    let outcome = match (args.workload, args.trace) {
        (Workload::ServeMixed, false) => serve::run_timed(args.seed, args.seconds, &refs),
        (Workload::ServeMixed, true) => serve::run_traced(args.seed, &refs),
        (w, false) => batch::run_timed(batch::Batch::of(w), args.seed, args.seconds, &refs),
        (w, true) => trace::run_traced(batch::Batch::of(w), args.seed, &refs),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(name, if args.trace { "traced" } else { "timed" });
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {name}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Recomputes every pinned output at the machine width and rewrites
/// `refs.txt`.
fn write_refs() -> ExitCode {
    let mut entries = std::collections::BTreeMap::new();
    let result = batch::reference_lines(&mut entries)
        .and_then(|()| serve::reference_lines(&mut entries))
        .and_then(|()| refs::write("perfbench/refs.txt", &entries).map_err(|e| e.to_string()));
    match result {
        Ok(()) => {
            println!("wrote {} references to perfbench/refs.txt", entries.len());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: --write-refs: {message}");
            ExitCode::FAILURE
        }
    }
}
