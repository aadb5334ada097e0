//! The `serve-mixed` workload: one `bist serve` daemon on a unix socket
//! with a fresh result cache, driven by closed-loop client connections
//! from this process.
//!
//! Load comes in rounds. Each round clears the cache, then runs a deck
//! of eight distinct short jobs drawn from the seed (cold: they compute
//! and store), then the same eight again in another order (warm: they
//! are answered from the cache). Every round therefore has the same
//! cold/warm make-up, and the latency median falls in the middle of the
//! c432 cache hits whatever the seed.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bist_cli::serve::{ServeConfig, Server};
use bist_core::{MixedGenerator, MixedSchemeConfig};
use bist_engine::wire::{self, Request, Response};
use bist_engine::{codec, CircuitSource, Engine, JobResult, JobSpec, ProgressEvent, ResultCache};
use bist_lfsrom::LfsromGenerator;

use crate::measure::{median, Outcome};
use crate::refs::{self, Refs};
use crate::trace::{self, Tracer};
use crate::{nproc, report_end_to_end, RESULTS_DIR};

/// Prefix lengths the c432 solves draw from: on sweep-dense's grid, so
/// both workloads are checked against the same pinned points, and with
/// top-ups of 89–101 patterns, so that every draw costs about the same.
const C432_P: [usize; 8] = [400, 500, 600, 750, 800, 900, 1000, 1100];
const C880_P: [usize; 4] = [250, 500, 1500, 2000];
const ESTIMATE_P: [usize; 4] = [500, 1000, 2000, 5000];
const CURVES: [&[usize]; 3] = [&[64, 256, 1024], &[100, 1000, 5000], &[32, 512, 4096]];
/// Circuits the mix touches, realized during set-up.
const MIX_CIRCUITS: [&str; 3] = ["c432", "c880", "c3540"];

/// One short job of the mix.
#[derive(Debug, Clone, Copy)]
enum MixJob {
    Solve { circuit: &'static str, p: usize },
    Estimate { p: usize },
    Lint,
    Curve { lengths: &'static [usize] },
}

impl MixJob {
    fn spec(self) -> JobSpec {
        match self {
            MixJob::Solve { circuit, p } => JobSpec::solve_at(CircuitSource::iscas85(circuit), p),
            MixJob::Estimate { p } => JobSpec::estimate(CircuitSource::iscas85("c3540"), p),
            MixJob::Lint => JobSpec::lint(CircuitSource::iscas85("c880")),
            MixJob::Curve { lengths } => {
                JobSpec::coverage_curve(CircuitSource::iscas85("c432"), lengths.to_vec())
            }
        }
    }

    /// Canonical output lines of `result`, keyed for `refs.txt`.
    fn lines(self, result: &JobResult) -> Result<Vec<(String, String)>, String> {
        let wrong = || format!("{self:?}: wrong result kind");
        Ok(match self {
            MixJob::Solve { circuit, p } => {
                let s = &result.as_solve_at().ok_or_else(wrong)?.solution;
                vec![(refs::point_key(circuit, p), refs::point_line(s))]
            }
            MixJob::Estimate { p } => {
                let e = result.as_estimate().ok_or_else(wrong)?;
                vec![(refs::estimate_key("c3540", p), refs::estimate_line(e))]
            }
            MixJob::Lint => {
                let l = result.as_lint().ok_or_else(wrong)?;
                vec![(refs::lint_key("c880"), refs::lint_line(l))]
            }
            MixJob::Curve { .. } => {
                let c = result.as_coverage_curve().ok_or_else(wrong)?;
                c.curve
                    .points()
                    .iter()
                    .map(|&(len, pct)| (refs::curve_key("c432", len), refs::curve_line(pct)))
                    .collect()
            }
        })
    }

    fn check(self, result: &JobResult, refs: &Refs) -> bool {
        match self.lines(result) {
            Ok(lines) => lines.iter().all(|(key, line)| refs.check(key, line)),
            Err(e) => {
                eprintln!("{e}");
                false
            }
        }
    }

    /// Every job the mix can draw.
    fn domain() -> Vec<MixJob> {
        let mut all: Vec<MixJob> = C432_P
            .iter()
            .map(|&p| MixJob::Solve { circuit: "c432", p })
            .chain(C880_P.iter().map(|&p| MixJob::Solve { circuit: "c880", p }))
            .chain(ESTIMATE_P.iter().map(|&p| MixJob::Estimate { p }))
            .chain(CURVES.iter().map(|&lengths| MixJob::Curve { lengths }))
            .collect();
        all.push(MixJob::Lint);
        all
    }
}

/// SplitMix64: the deck's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One round's deck: eight distinct cold jobs, then the same eight in
/// another order.
fn deck(seed: u64, round: u64) -> (Vec<MixJob>, Vec<MixJob>) {
    let mut rng = Rng(seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut c432 = C432_P.to_vec();
    rng.shuffle(&mut c432);
    let mut cold: Vec<MixJob> = c432[..4]
        .iter()
        .map(|&p| MixJob::Solve { circuit: "c432", p })
        .collect();
    cold.push(MixJob::Solve {
        circuit: "c880",
        p: C880_P[rng.below(C880_P.len())],
    });
    cold.push(MixJob::Estimate {
        p: ESTIMATE_P[rng.below(ESTIMATE_P.len())],
    });
    cold.push(MixJob::Lint);
    cold.push(MixJob::Curve {
        lengths: CURVES[rng.below(CURVES.len())],
    });
    rng.shuffle(&mut cold);
    let mut warm = cold.clone();
    rng.shuffle(&mut warm);
    (cold, warm)
}

/// What a client saw of one submission, timed at its side of the
/// socket.
struct Record {
    job: MixJob,
    /// Submit to `Response::Result` (or to the failure/rejection).
    latency: Duration,
    cached: bool,
    rejected: bool,
    /// `Accepted` → `Started`, `Started` → `Finished`, `Finished` →
    /// `Result` (the last includes encode, transfer and decode).
    stages: Option<[Duration; 3]>,
    /// Time to decode the `Result` line.
    decode: Duration,
    result: Result<JobResult, String>,
}

/// One closed-loop client connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &Path) -> Result<Client, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        let mut line = wire::encode_request(request);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next response and the time its line took to decode.
    fn recv(&mut self) -> Result<(Response, Duration), String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection".to_owned());
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        let start = Instant::now();
        let response = wire::decode_response(line.trim_end()).map_err(|e| e.to_string())?;
        Ok((response, start.elapsed()))
    }

    /// One round trip that proves the daemon is accepting and serving.
    fn ping(&mut self) -> Result<(), String> {
        self.send(&Request::Stats)?;
        match self.recv()?.0 {
            Response::Stats { .. } => Ok(()),
            other => Err(format!("unexpected answer to stats: {other:?}")),
        }
    }

    fn run(&mut self, job: MixJob) -> Result<Record, String> {
        let submitted = Instant::now();
        self.send(&Request::Submit {
            spec: Box::new(job.spec()),
        })?;
        let (mut accepted, mut started, mut finished) = (None, None, None);
        loop {
            let (response, decode) = self.recv()?;
            let now = Instant::now();
            let done = |result, cached, rejected| Record {
                job,
                latency: now - submitted,
                cached,
                rejected,
                stages: match (accepted, started, finished) {
                    (Some(a), Some(s), Some(f)) => Some([s - a, f - s, now - f]),
                    _ => None,
                },
                decode,
                result,
            };
            match response {
                Response::Accepted { .. } => accepted = Some(now),
                Response::Event { event } => match event {
                    ProgressEvent::Started { .. } => started = Some(now),
                    ProgressEvent::Finished { .. } => finished = Some(now),
                    _ => {}
                },
                Response::Result { cached, result, .. } => {
                    return Ok(done(Ok(*result), cached, false))
                }
                Response::Failed { error, .. } => return Ok(done(Err(error), false, false)),
                Response::Rejected { reason, .. } => return Ok(done(Err(reason), false, true)),
                other => return Err(format!("unexpected response: {other:?}")),
            }
        }
    }
}

/// A running daemon with its connected clients.
struct Daemon {
    dir: PathBuf,
    cache_dir: PathBuf,
    thread: JoinHandle<Result<(), String>>,
    clients: Vec<Client>,
}

impl Daemon {
    /// Creates the run directory and cache, binds and starts the
    /// daemon with `jobs` workers, and connects `clients` clients, each
    /// proven served by one stats round trip.
    fn start(dir: PathBuf, jobs: usize, clients: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        let socket = dir.join("sock");
        let server = Server::bind(ServeConfig {
            listen: None,
            socket: Some(socket.clone()),
            jobs,
            queue_capacity: 64,
            retry_after_ms: 100,
            cache: Some(ResultCache::at(&cache_dir)),
        })
        .map_err(|e| format!("bind: {e:?}"))?;
        let thread = std::thread::spawn(move || server.serve().map_err(|e| format!("{e:?}")));
        let mut daemon = Daemon {
            dir,
            cache_dir,
            thread,
            clients: Vec::new(),
        };
        for _ in 0..clients {
            let mut client = Client::connect(&socket)?;
            client.ping()?;
            daemon.clients.push(client);
        }
        Ok(daemon)
    }

    fn clear_cache(&self) -> Result<(), String> {
        ResultCache::at(&self.cache_dir)
            .clear()
            .map(drop)
            .map_err(|e| format!("clear cache: {e}"))
    }

    /// Runs `jobs` through the clients, each client taking the next job
    /// once its previous one has answered.
    fn run_phase(&mut self, jobs: &[MixJob]) -> Result<Vec<Record>, String> {
        let next = AtomicUsize::new(0);
        let records = Mutex::new(Vec::with_capacity(jobs.len()));
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let (next, records) = (&next, &records);
                    scope.spawn(move || -> Result<(), String> {
                        loop {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            let Some(&job) = jobs.get(i) else {
                                return Ok(());
                            };
                            let record = client.run(job)?;
                            records.lock().expect("records lock").push(record);
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().map_err(|_| "client thread panicked".to_owned())?)
        })?;
        Ok(records.into_inner().expect("records lock"))
    }

    /// Drains and stops the daemon, waits for its threads and removes
    /// the run directory.
    fn stop(mut self) -> Result<(), String> {
        let client = self
            .clients
            .first_mut()
            .ok_or("no client to send shutdown")?;
        client.send(&Request::Shutdown)?;
        match client.recv()?.0 {
            Response::Stopping { .. } => {}
            other => return Err(format!("unexpected answer to shutdown: {other:?}")),
        }
        // hanging up ends the daemon's connection threads
        self.clients.clear();
        let served = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_owned())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        served
    }
}

fn run_dir(tag: &str) -> PathBuf {
    Path::new(RESULTS_DIR).join(format!("serve-{}-{tag}", std::process::id()))
}

/// One set-up: realize the mix's circuits, create the cache directory,
/// bind the daemon and connect every client.
fn setup_once(tag: &str) -> Result<(f64, Daemon), String> {
    let start = Instant::now();
    for name in MIX_CIRCUITS {
        let circuit = CircuitSource::iscas85(name)
            .realize()
            .map_err(|e| e.to_string())?;
        std::hint::black_box(&circuit);
    }
    let daemon = Daemon::start(run_dir(tag), nproc(), nproc())?;
    Ok((start.elapsed().as_secs_f64(), daemon))
}

/// Runs rounds while another one is expected to end within `seconds`
/// (at least one round).
fn run_rounds(
    daemon: &mut Daemon,
    seed: u64,
    seconds: Duration,
) -> Result<(Vec<Record>, f64), String> {
    let mut records = Vec::new();
    let measured = Instant::now();
    let mut rounds = Vec::new();
    while crate::another_fits(measured, &rounds, seconds) {
        let start = Instant::now();
        daemon.clear_cache()?;
        let (cold, warm) = deck(seed, rounds.len() as u64);
        records.extend(daemon.run_phase(&cold)?);
        records.extend(daemon.run_phase(&warm)?);
        rounds.push(start.elapsed().as_secs_f64());
    }
    Ok((records, measured.elapsed().as_secs_f64()))
}

fn tally(out: &mut Outcome, records: &[Record], refs: &Refs) {
    for r in records {
        let ok = match &r.result {
            Ok(result) => r.job.check(result, refs),
            Err(e) => {
                eprintln!(
                    "{:?} {}: {e}",
                    r.job,
                    if r.rejected { "rejected" } else { "failed" }
                );
                false
            }
        };
        out.tally(ok);
    }
}

pub fn run_timed(seed: u64, seconds: Duration, refs: &Refs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let mut daemon = loop {
        let (secs, d) = setup_once(&setups.len().to_string())?;
        setups.push(secs);
        if !crate::another_setup(setup_start, &setups) {
            break d;
        }
        d.stop()?;
    };
    let (records, wall) = run_rounds(&mut daemon, seed, seconds)?;
    daemon.stop()?;
    tally(&mut out, &records, refs);

    let latencies: Vec<f64> = records.iter().map(|r| r.latency.as_secs_f64()).collect();
    let hits: Vec<f64> = records
        .iter()
        .filter(|r| r.cached)
        .map(|r| r.latency.as_secs_f64())
        .collect();
    let rejected = records.iter().filter(|r| r.rejected).count();
    out.line(format!(
        "{} clients, {} workers at pool width 1, fresh cache per round; {} jobs, {} cache hits, {rejected} rejected",
        nproc(),
        nproc(),
        records.len(),
        hits.len()
    ));
    let (tail, label) = crate::measure::tail(&latencies);
    out.line(format!(
        "latency_p50_ms {:.3} ms, latency_tail_ms {:.3} ms ({label}), n={}",
        median(&latencies) * 1e3,
        tail * 1e3,
        latencies.len()
    ));
    if !hits.is_empty() {
        out.line(format!(
            "hit_latency_p50_ms {:.3} ms (n={})",
            median(&hits) * 1e3,
            hits.len()
        ));
    }
    report_end_to_end(&mut out, &setups, &latencies, wall);
    Ok(out)
}

/// The traced serve run: one served round for the client-observed
/// stage times, then the same deck replayed in-process with spans
/// around the engine's digest, cache and codec calls.
pub fn run_traced(seed: u64, refs: &Refs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut layers = trace::Layers::default();
    let mut representatives = 0;
    for name in MIX_CIRCUITS {
        representatives += trace::open_session(&mut tracer, name, 1)?.1;
    }
    layers.set(
        "fault.representatives",
        representatives as f64,
        MIX_CIRCUITS.join("+"),
    );

    // served: client-observed stages
    let mut daemon = Daemon::start(run_dir("traced"), nproc(), nproc())?;
    let (records, _) = run_rounds(&mut daemon, seed, Duration::ZERO)?;
    daemon.stop()?;
    tally(&mut out, &records, refs);
    let stage = |i: usize| -> Vec<f64> {
        records
            .iter()
            .filter_map(|r| r.stages.map(|s| s[i].as_secs_f64() * 1e3))
            .collect()
    };
    let decodes: Vec<f64> = records
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.decode.as_secs_f64())
        .collect();
    let n = records.len();
    let rejected = records.iter().filter(|r| r.rejected).count();

    // in-process replay of the same deck through the cache layers
    let dir = run_dir("replay");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::at(dir.join("cache"));
    let engine = Engine::with_threads(1);
    let (cold, warm) = deck(seed, 0);
    let mut hit_lookups = Vec::new();
    for (i, job) in cold.iter().chain(&warm).enumerate() {
        tracer.set_job(i as u64);
        let ok = replay_one(&mut tracer, &engine, &cache, *job, refs, &mut hit_lookups);
        out.tally(ok?);
    }
    let _ = std::fs::remove_dir_all(&dir);

    out.line(format!(
        "served {n} jobs ({} clients, {} workers); replayed {} jobs in-process",
        nproc(),
        nproc(),
        cold.len() + warm.len()
    ));
    let nonempty_median = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    layers.set(
        "serve.queue_wait_ms",
        nonempty_median(&stage(0)),
        format!("median, n={}", stage(0).len()),
    );
    layers.set(
        "serve.run_ms",
        nonempty_median(&stage(1)),
        format!("median, n={}", stage(1).len()),
    );
    layers.set(
        "serve.deliver_ms",
        nonempty_median(&stage(2)),
        format!("median, n={}", stage(2).len()),
    );
    layers.set("serve.rejected", rejected as f64, format!("of {n}"));
    layers.set(
        "wire.decode_s",
        nonempty_median(&decodes),
        format!("median, n={}", decodes.len()),
    );
    layers.set_median(&tracer, "engine.digest_s", "engine.digest");
    layers.set(
        "engine.cache_lookup_s",
        nonempty_median(&hit_lookups),
        format!("median per hit, n={}", hit_lookups.len()),
    );
    layers.set_median(&tracer, "engine.cache_store_s", "engine.cache_store");
    layers.set_median(&tracer, "engine.codec_decode_s", "engine.codec_decode");
    layers.set("engine.cache_hits", cache.hits() as f64, "replay");
    layers.set("engine.cache_misses", cache.misses() as f64, "replay");
    layers.set_median(&tracer, "core.mixed_build_s", "core.mixed_build");
    layers.set_median(&tracer, "lfsrom.synthesize_s", "lfsrom.synthesize");
    layers.set_session_open(&tracer);
    trace::finish(&mut out, layers, &tracer, "serve-mixed")?;
    Ok(out)
}

/// Replays one job through `job_digest`, `ResultCache::lookup`, the
/// engine on a miss plus `ResultCache::store`, and on a hit the codec
/// decode and, for solves, the generator rebuild the decode performs.
fn replay_one(
    tracer: &mut Tracer,
    engine: &Engine,
    cache: &ResultCache,
    job: MixJob,
    refs: &Refs,
    hit_lookups: &mut Vec<f64>,
) -> Result<bool, String> {
    let spec = job.spec();
    let circuit = tracer.span("netlist.realize", |_| {
        spec.circuit().realize().map_err(|e| e.to_string())
    })?;
    let key = tracer.span("engine.digest", |_| {
        bist_engine::cache::job_digest(&circuit, &spec)
    });
    let result = match tracer.span("engine.cache_lookup", |_| cache.lookup(&key)) {
        Some(hit) => {
            hit_lookups.push(tracer.last_duration());
            let doc = codec::encode_result(&hit);
            let decoded = tracer.span("engine.codec_decode", |_| codec::decode_result(&doc));
            if let (MixJob::Solve { circuit: name, p }, Some(s)) = (job, hit.as_solve_at()) {
                let det = s.solution.generator.deterministic().to_vec();
                let width = s.solution.generator.width();
                let poly = MixedSchemeConfig::default().poly;
                tracer
                    .span("core.mixed_build", |_| {
                        MixedGenerator::build(width, poly, p, &det)
                    })
                    .map_err(|e| format!("{name} p={p}: {e}"))?;
                let seq = trace::lfsrom_sequence(width, poly, p, &det);
                tracer
                    .span("lfsrom.synthesize", |_| LfsromGenerator::synthesize(&seq))
                    .map_err(|e| format!("{name} p={p}: {e}"))?;
            }
            decoded.ok_or("cached entry failed to decode")?
        }
        None => {
            let result = tracer
                .span("engine.run", |_| engine.run(spec.clone()))
                .map_err(|e| e.to_string())?;
            tracer.span("engine.cache_store", |_| cache.store(&key, &result));
            result
        }
    };
    Ok(job.check(&result, refs))
}

/// Adds the pinned lines of every job the mix can draw.
pub fn reference_lines(entries: &mut BTreeMap<String, String>) -> Result<(), String> {
    let engine = Engine::with_threads(nproc());
    for job in MixJob::domain() {
        let result = engine.run(job.spec()).map_err(|e| e.to_string())?;
        entries.extend(job.lines(&result)?);
    }
    Ok(())
}
