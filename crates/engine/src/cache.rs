//! Content-addressed on-disk result cache.
//!
//! A mixed-BIST job is a pure function: the realized circuit, the flow
//! configuration and the variant's budgets fully determine the result,
//! bit for bit, at every pool width. The cache exploits that by
//! addressing results with a SHA-256 digest of exactly those inputs
//! (see [`job_digest`]): a repeated job — the batch-sweep workload shape
//! of the hybrid-BIST literature — is served from disk in milliseconds
//! instead of re-running seconds-to-minutes of fault simulation.
//!
//! **What participates in the key** — the canonical `.bench` text of the
//! *realized* circuit plus its name, the LFSR polynomial, the ATPG
//! options, the full area model, the job kind and its budgets, and
//! [`CACHE_SCHEMA_VERSION`]. The
//! schema version makes invalidation structural: when the stored layout
//! (or the meaning of any digested field) changes, the version bump
//! changes every key, and entries written by older trees are simply
//! never addressed again.
//!
//! **What does not** — the pool width (`threads`). Results are
//! bit-identical at every width, so a result computed at one width may
//! answer a job requested at any other.
//!
//! **Atomicity** — entries are written to a temporary file in the cache
//! directory and then renamed into place. On POSIX filesystems the
//! rename is atomic, so concurrent writers (a parallel
//! [`Engine::run_batch`](crate::Engine::run_batch), or two `bist`
//! processes) race benignly: readers see either nothing or a complete
//! entry, never a torn one. A corrupt or foreign file decodes to `None`
//! and is treated as a miss.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use bist_faultmodel::FaultModel;
use bist_netlist::{bench, Circuit};
use bist_synth::CellKind;

use crate::codec::{self, CACHE_SCHEMA_VERSION};
use crate::digest::Sha256;
use crate::json;
use crate::result::JobResult;
use crate::spec::{HdlLanguage, JobSpec};

/// Environment variable naming the default cache directory.
pub const CACHE_DIR_ENV: &str = "BIST_CACHE_DIR";

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

/// In-memory recency tracking for the LRU size cap: a monotone tick is
/// recorded per key on every hit and store. Keys this handle never
/// touched (entries left by earlier processes) have no tick and evict
/// first, ordered by file mtime.
#[derive(Debug, Default)]
struct Recency {
    tick: AtomicU64,
    touched: Mutex<BTreeMap<String, u64>>,
}

impl Recency {
    fn touch(&self, key: &str) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        self.touched
            .lock()
            .expect("recency lock never poisoned")
            .insert(key.to_owned(), tick);
    }
}

/// Handle on one on-disk cache directory, with process-lifetime
/// hit/miss/store counters and an optional LRU size cap.
///
/// Cloning shares the counters and the recency state (an
/// [`Engine`](crate::Engine) and the caller observing it count
/// together). The directory is created lazily on the first store.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    dir: PathBuf,
    capacity: Option<u64>,
    counters: Arc<Counters>,
    recency: Arc<Recency>,
}

/// What [`ResultCache::disk_stats`] found on disk, plus this handle's
/// lifetime eviction count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDiskStats {
    /// Number of cache entries.
    pub entries: usize,
    /// Total size of all entries, bytes.
    pub bytes: u64,
    /// Entries evicted by the size cap since this handle was created.
    pub evictions: u64,
}

impl ResultCache {
    /// A cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            ..ResultCache::default()
        }
    }

    /// Caps the cache at `bytes` on disk: every store that pushes the
    /// directory past the cap evicts least-recently-used entries (see
    /// [`ResultCache::evict_to`]) until it fits again. `bist serve`
    /// runs its server-lifetime cache with a cap; the one-shot CLI
    /// leaves it unbounded.
    #[must_use]
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }

    /// The configured size cap, if any.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// A cache rooted at `$BIST_CACHE_DIR`, if the variable is set and
    /// non-empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var(CACHE_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => Some(Self::at(dir)),
            _ => None,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Jobs answered from disk since this cache handle was created.
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Jobs that had to be computed.
    pub fn misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Results written to disk.
    pub fn stores(&self) -> u64 {
        self.counters.stores.load(Ordering::Relaxed)
    }

    /// Entries evicted by the size cap since this handle was created.
    pub fn evictions(&self) -> u64 {
        self.counters.evictions.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks `key` up on disk, counting a hit or a miss. Anything short
    /// of a complete, same-schema entry — absent file, torn write,
    /// foreign layout — is a miss.
    pub fn lookup(&self, key: &str) -> Option<JobResult> {
        let result = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|doc| codec::decode_result(&doc));
        match &result {
            Some(_) => {
                self.recency.touch(key);
                self.counters.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Stores `result` under `key` atomically (write to a temporary
    /// sibling, then rename). Storage failures are deliberately silent —
    /// a read-only or full cache directory degrades to "no cache", it
    /// never fails the job that just computed a perfectly good result.
    pub fn store(&self, key: &str, result: &JobResult) {
        let text = codec::encode_result(result).render_pretty();
        let path = self.entry_path(key);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        // the temp name must be unique per *writer*, not just per
        // process: one run_batch can compute the same key on two pool
        // workers (duplicate jobs in a manifest), and a shared temp path
        // would let one writer rename the other's half-written file into
        // place — exactly the torn entry the rename scheme exists to
        // prevent
        static WRITER: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{key}-{}-{}",
            std::process::id(),
            WRITER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.counters.stores.fetch_add(1, Ordering::Relaxed);
            self.recency.touch(key);
            if let Some(capacity) = self.capacity {
                self.evict_to(capacity);
            }
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Evicts least-recently-used entries until the directory holds at
    /// most `budget` bytes; returns how many entries were removed (also
    /// accumulated into [`ResultCache::evictions`]).
    ///
    /// Recency is tracked in memory per handle (hits and stores touch a
    /// key); entries this handle never touched — left by earlier
    /// processes — are presumed coldest and evict first, oldest file
    /// modification time first. Removal failures are silent, like
    /// store's: a shared directory where another process already
    /// removed the file degrades gracefully.
    pub fn evict_to(&self, budget: u64) -> u64 {
        let mut entries: Vec<(String, u64, SystemTime)> = Vec::new();
        let mut total: u64 = 0;
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(key) = name.strip_suffix(".json") {
                    if name.starts_with('.') {
                        continue;
                    }
                    let meta = match entry.metadata() {
                        Ok(meta) => meta,
                        Err(_) => continue,
                    };
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    total += meta.len();
                    entries.push((key.to_owned(), meta.len(), mtime));
                }
            }
        }
        if total <= budget {
            return 0;
        }
        // coldest first: untouched entries by mtime (ties broken by key
        // for determinism), then touched entries by recency tick
        let ticks = self
            .recency
            .touched
            .lock()
            .expect("recency lock never poisoned");
        entries.sort_by(
            |(ka, _, ma), (kb, _, mb)| match (ticks.get(ka), ticks.get(kb)) {
                (Some(a), Some(b)) => a.cmp(b),
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (None, None) => ma.cmp(mb).then_with(|| ka.cmp(kb)),
            },
        );
        drop(ticks);
        let mut evicted = 0;
        for (key, bytes, _) in entries {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(self.entry_path(&key)).is_ok() {
                total = total.saturating_sub(bytes);
                evicted += 1;
                self.recency
                    .touched
                    .lock()
                    .expect("recency lock never poisoned")
                    .remove(&key);
            }
        }
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Counts the entries (and their bytes) currently on disk.
    pub fn disk_stats(&self) -> CacheDiskStats {
        let mut stats = CacheDiskStats {
            entries: 0,
            bytes: 0,
            evictions: self.evictions(),
        };
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".json") && !name.starts_with('.') {
                    stats.entries += 1;
                    stats.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        stats
    }

    /// Removes every cache entry (leftover temporaries included);
    /// returns how many entries were removed.
    ///
    /// # Errors
    ///
    /// The first I/O error hit while listing or removing.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.ends_with(".json") || name.starts_with(".tmp-") {
                std::fs::remove_file(entry.path())?;
                if name.ends_with(".json") && !name.starts_with('.') {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

/// A length-prefixed field write: unambiguous however the neighbouring
/// fields are shaped (no separator can be forged by field content).
fn feed(h: &mut Sha256, tag: &str, bytes: &[u8]) {
    h.update(&(tag.len() as u64).to_le_bytes());
    h.update(tag.as_bytes());
    h.update(&(bytes.len() as u64).to_le_bytes());
    h.update(bytes);
}

fn feed_u64(h: &mut Sha256, tag: &str, v: u64) {
    feed(h, tag, &v.to_le_bytes());
}

/// The content address of one job: a SHA-256 over the canonical
/// description of everything the result depends on.
///
/// Digested: the cache schema version, the job kind, the realized
/// circuit (name + canonical `.bench` text), the flow configuration
/// (polynomial, ATPG options, the full area model) and the variant's
/// budgets. **Not** digested: `config.threads` — results are
/// bit-identical at every pool width, so the cache deliberately serves
/// across widths.
pub fn job_digest(circuit: &Circuit, spec: &JobSpec) -> String {
    let mut h = Sha256::new();
    feed_u64(&mut h, "cache-schema", CACHE_SCHEMA_VERSION);
    feed(&mut h, "kind", spec.kind().as_bytes());
    feed(&mut h, "circuit-name", circuit.name().as_bytes());
    feed(&mut h, "netlist", bench::write(circuit).as_bytes());

    let config = spec.config();
    feed_u64(&mut h, "poly", config.poly.mask());
    feed_u64(
        &mut h,
        "atpg-backtrack",
        u64::from(config.atpg.podem.backtrack_limit),
    );
    feed_u64(&mut h, "atpg-fill-seed", config.atpg.podem.fill_seed);
    feed_u64(
        &mut h,
        "atpg-no-compaction",
        u64::from(config.atpg.no_compaction),
    );
    feed_u64(
        &mut h,
        "area-routing",
        config.area.routing_factor().to_bits(),
    );
    for kind in CellKind::ALL {
        feed_u64(
            &mut h,
            &format!("area-{kind}"),
            config.area.cell_area_um2(kind).to_bits(),
        );
    }

    match spec {
        JobSpec::SolveAt(s) => feed_u64(&mut h, "prefix-len", s.prefix_len as u64),
        JobSpec::Sweep(s) => {
            for &p in &s.prefix_lengths {
                feed_u64(&mut h, "prefix-len", p as u64);
            }
        }
        JobSpec::CoverageCurve(s) => {
            for &cp in &s.checkpoints {
                feed_u64(&mut h, "checkpoint", cp as u64);
            }
        }
        JobSpec::Bakeoff(s) => feed_u64(&mut h, "random-length", s.random_length as u64),
        JobSpec::EmitHdl(s) => {
            feed_u64(&mut h, "prefix-len", s.prefix_len as u64);
            let language = match s.language {
                HdlLanguage::Verilog => "verilog",
                HdlLanguage::Vhdl => "vhdl",
                HdlLanguage::Both => "both",
            };
            feed(&mut h, "language", language.as_bytes());
            feed(
                &mut h,
                "module-name",
                s.module_name
                    .as_deref()
                    .unwrap_or("\u{0}default")
                    .as_bytes(),
            );
            feed_u64(&mut h, "testbench", u64::from(s.testbench));
        }
        JobSpec::CoverageEstimate(s) => {
            feed_u64(&mut h, "prefix-len", s.prefix_len as u64);
            feed_u64(&mut h, "samples", s.samples as u64);
            feed_u64(&mut h, "confidence", u64::from(s.confidence));
            feed_u64(&mut h, "estimate-seed", s.seed);
        }
        // lint has no budgets: the circuit and schema version fully
        // determine the report
        JobSpec::AreaReport(_) | JobSpec::Lint(_) => {}
    }

    // The fault model joined the spec after stuck-at results were
    // already on disk: the default feeds nothing, so every digest (and
    // cache entry) minted before the field existed stays valid.
    let model = spec.fault_model();
    if !model.is_default() {
        feed(&mut h, "fault-model", model.name().as_bytes());
        match model {
            FaultModel::Bridging { pairs, seed } => {
                feed_u64(&mut h, "bridge-pairs", u64::from(pairs));
                feed_u64(&mut h, "bridge-seed", seed);
            }
            // Transition results moved once the model's top-up joined
            // the shared ATPG engine (identity-keyed fill seeds, top-up
            // graded on its own); the revision retires the older entries
            // without moving any stuck-at key, as bumping
            // `CACHE_SCHEMA_VERSION` would.
            FaultModel::Transition => feed_u64(&mut h, "transition-revision", 2),
            FaultModel::StuckAt => {}
        }
    }
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CircuitSource, SweepSpec};
    use bist_core::MixedSchemeConfig;

    fn c17() -> Circuit {
        bist_netlist::iscas85::c17()
    }

    fn sweep_spec(prefixes: &[usize], threads: usize) -> JobSpec {
        JobSpec::Sweep(SweepSpec {
            circuit: CircuitSource::iscas85("c17"),
            config: MixedSchemeConfig {
                threads,
                ..MixedSchemeConfig::default()
            },
            prefix_lengths: prefixes.to_vec(),
            fault_model: FaultModel::default(),
            estimate_first: false,
        })
    }

    #[test]
    fn digest_is_stable_and_budget_sensitive() {
        let a = job_digest(&c17(), &sweep_spec(&[0, 8], 0));
        assert_eq!(a, job_digest(&c17(), &sweep_spec(&[0, 8], 0)));
        assert_ne!(a, job_digest(&c17(), &sweep_spec(&[0, 9], 0)));
        assert_ne!(a, job_digest(&c17(), &sweep_spec(&[8, 0], 0)));
        assert_ne!(
            a,
            job_digest(&c17(), &JobSpec::solve_at(CircuitSource::iscas85("c17"), 0))
        );
    }

    #[test]
    fn digest_ignores_pool_width() {
        assert_eq!(
            job_digest(&c17(), &sweep_spec(&[0, 8], 1)),
            job_digest(&c17(), &sweep_spec(&[0, 8], 4))
        );
    }

    #[test]
    fn digest_sees_the_circuit_structure_and_name() {
        let c17 = c17();
        let renamed = bench::parse("c17b", &bench::write(&c17)).expect("round-trip");
        let spec = sweep_spec(&[0, 8], 0);
        assert_ne!(job_digest(&c17, &spec), job_digest(&renamed, &spec));
        let other = bist_netlist::iscas85::circuit("c432").expect("known");
        assert_ne!(job_digest(&c17, &spec), job_digest(&other, &spec));
    }

    #[test]
    fn digest_separates_fault_models_but_not_the_default_one() {
        // The explicit default must hash exactly like specs built before
        // the field existed (the constructor path): old cache entries
        // stay addressable.
        let baseline = job_digest(&c17(), &sweep_spec(&[0, 8], 0));
        let with_model = |model: FaultModel| {
            let mut spec = sweep_spec(&[0, 8], 0);
            if let JobSpec::Sweep(s) = &mut spec {
                s.fault_model = model;
            }
            job_digest(&c17(), &spec)
        };
        assert_eq!(baseline, with_model(FaultModel::StuckAt));
        // pinned: stuck-at digests never move (the key of this sweep in
        // every cache written since the fault model joined the spec)
        assert_eq!(
            baseline,
            "d13b9f00181e777291b93cd0380aed740b034490e37d2e36b60b10ba1f9d2c70"
        );

        let transition = with_model(FaultModel::Transition);
        // the transition revision retires entries computed by the former
        // standalone delay flow, whose points differ
        assert_ne!(
            transition,
            "1ca0a037e0986fde2793ad1a87781e6c620c40aab7e6d7ab38df24107df083f0"
        );
        let bridging = with_model(FaultModel::bridging());
        assert_ne!(baseline, transition);
        assert_ne!(baseline, bridging);
        assert_ne!(transition, bridging);
        // bridging universes are parameterized: pairs/seed are part of
        // the key
        assert_ne!(
            bridging,
            with_model(FaultModel::Bridging {
                pairs: 7,
                seed: 0x1dd9,
            })
        );
    }

    #[test]
    fn digest_ignores_estimate_first() {
        // The preview only changes what streams before the exact run; the
        // committed result is byte-identical, so an estimate-first job
        // must hit (and warm) the same cache entry as the plain one.
        let baseline = job_digest(&c17(), &sweep_spec(&[0, 8], 0));
        let mut spec = sweep_spec(&[0, 8], 0);
        if let JobSpec::Sweep(s) = &mut spec {
            s.estimate_first = true;
        }
        assert_eq!(baseline, job_digest(&c17(), &spec));
    }

    #[test]
    fn digest_sees_the_configuration() {
        let mut config = MixedSchemeConfig::default();
        config.atpg.podem.backtrack_limit += 1;
        let tweaked = JobSpec::Sweep(SweepSpec {
            circuit: CircuitSource::iscas85("c17"),
            config,
            prefix_lengths: vec![0, 8],
            fault_model: FaultModel::default(),
            estimate_first: false,
        });
        assert_ne!(
            job_digest(&c17(), &sweep_spec(&[0, 8], 0)),
            job_digest(&c17(), &tweaked)
        );
    }

    fn unique_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bist-cache-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn tiny_result() -> JobResult {
        crate::Engine::with_threads(1)
            .run(JobSpec::lint(CircuitSource::iscas85("c17")))
            .expect("c17 lints")
    }

    #[test]
    fn capped_store_evicts_least_recently_used() {
        let dir = unique_dir("lru");
        let result = tiny_result();
        // measure one entry, then cap the cache at two entries' bytes
        let probe = ResultCache::at(&dir);
        probe.store("probe", &result);
        let entry_bytes = probe.disk_stats().bytes;
        probe.clear().expect("probe clear");
        assert!(entry_bytes > 0);

        let cache = ResultCache::at(&dir).with_capacity(2 * entry_bytes);
        assert_eq!(cache.capacity(), Some(2 * entry_bytes));
        cache.store("aaaa", &result);
        cache.store("bbbb", &result);
        assert_eq!(cache.evictions(), 0);
        // touch `aaaa` so `bbbb` is now the least recently used
        assert!(cache.lookup("aaaa").is_some());
        cache.store("cccc", &result);
        let stats = cache.disk_stats();
        assert_eq!(stats.entries, 2, "cap holds two entries");
        assert_eq!(stats.evictions, 1);
        assert!(cache.lookup("aaaa").is_some(), "recently used survives");
        assert!(cache.lookup("cccc").is_some(), "just-stored survives");
        assert!(cache.lookup("bbbb").is_none(), "LRU entry was evicted");
        cache.clear().expect("clear");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn untouched_entries_evict_before_touched_ones() {
        let dir = unique_dir("lru-foreign");
        let result = tiny_result();
        // a "foreign" entry this handle never touched
        ResultCache::at(&dir).store("foreign", &result);
        let cache = ResultCache::at(&dir);
        cache.store("mine", &result);
        let evicted = cache.evict_to(cache.disk_stats().bytes - 1);
        assert_eq!(evicted, 1);
        assert!(cache.lookup("mine").is_some(), "touched entry survives");
        let stats = cache.disk_stats();
        assert_eq!(stats.entries, 1);
        cache.clear().expect("clear");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn evict_to_is_a_noop_under_budget() {
        let dir = unique_dir("lru-noop");
        let cache = ResultCache::at(&dir);
        cache.store("only", &tiny_result());
        assert_eq!(cache.evict_to(u64::MAX), 0);
        assert_eq!(cache.evictions(), 0);
        cache.clear().expect("clear");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn from_env_requires_the_variable() {
        // the test runner may or may not export it; only exercise the
        // explicit constructor here
        let cache = ResultCache::at("/tmp/bist-cache-test-nonexistent");
        assert_eq!(cache.disk_stats().entries, 0);
        assert_eq!(cache.clear().expect("missing dir clears to 0"), 0);
    }
}
