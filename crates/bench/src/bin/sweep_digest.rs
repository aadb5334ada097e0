//! **sweep_digest** — a canonical, timing-free fingerprint of the mixed
//! trade-off sweep, for determinism checks in CI.
//!
//! ```text
//! cargo run --release -p bist-bench --bin sweep_digest -- --circuits c432 --quick
//! BIST_THREADS=4 cargo run --release -p bist-bench --bin sweep_digest -- --check-serial
//! ```
//!
//! Runs one `JobSpec::Sweep` per circuit through the engine and prints
//! one line per solved point — circuit, `p`, `d`, the coverage counters
//! and an FNV-1a hash of every deterministic pattern bit — then one line
//! of the sweep's `SessionStats` counters (they are stored in cached
//! results, so they must be width-invariant too), plus a final
//! `total <hash>` line folding the whole sweep. Two runs agree on their
//! digests iff they solved bit-identical sweeps, whatever their pool
//! widths; CI runs this binary under several `BIST_THREADS` values and
//! diffs the output.
//!
//! `--check-serial` additionally re-solves the sweep in-process with one
//! thread and asserts both digests match, making every invocation a
//! self-contained determinism test (exit code 101 on divergence).

use bist_bench::schema::Fnv;
use bist_bench::ExperimentArgs;
use bist_core::prelude::*;
use bist_engine::{Engine, FaultModel, JobSpec, SweepSpec};

fn main() {
    let args = ExperimentArgs::parse(&["c432"]);
    args.warn_fixed_format("sweep_digest");
    let prefixes: Vec<usize> = if args.quick {
        vec![0, 50, 100]
    } else {
        vec![0, 100, 200, 500, 1000]
    };

    let digest = digest_sweep(&args, &prefixes, args.threads);
    if args.has_flag("--check-serial") {
        let serial = digest_sweep(&args, &prefixes, 1);
        assert_eq!(
            digest, serial,
            "sweep diverged from the serial reference engine"
        );
        eprintln!("digest matches the one-thread reference");
    }
    print!("{digest}");
}

fn digest_sweep(args: &ExperimentArgs, prefixes: &[usize], threads: usize) -> String {
    let engine = Engine::with_threads(threads);
    let config = MixedSchemeConfig {
        threads,
        ..MixedSchemeConfig::default()
    };
    let mut out = String::new();
    let mut total = Fnv::new();
    for source in args.sources() {
        let result = engine
            .run(JobSpec::Sweep(SweepSpec {
                circuit: source,
                config: config.clone(),
                prefix_lengths: prefixes.to_vec(),
                fault_model: FaultModel::default(),
                estimate_first: false,
            }))
            .unwrap_or_else(|e| {
                eprintln!("sweep failed: {e}");
                std::process::exit(2);
            });
        let sweep = result.as_sweep().expect("sweep outcome");
        for s in sweep.summary.solutions() {
            let mut h = Fnv::new();
            for pattern in s.generator.deterministic() {
                for bit in pattern.iter() {
                    h.push(u8::from(bit));
                }
                h.push(0xFE); // pattern separator
            }
            let line = format!(
                "{} p={} d={} detected={} redundant={} aborted={} undetected={} seq={:016x}\n",
                sweep.circuit,
                s.prefix_len,
                s.det_len,
                s.coverage.detected,
                s.coverage.redundant,
                s.coverage.aborted,
                s.coverage.undetected,
                h.finish()
            );
            for b in line.bytes() {
                total.push(b);
            }
            out.push_str(&line);
        }
        let st = sweep.stats;
        let line = format!(
            "{} stats simulated={} resimulated={} atpg_runs={} atpg_cache_hits={} podem_cache_hits={} snapshots_taken={} snapshots_skipped={}\n",
            sweep.circuit,
            st.patterns_simulated,
            st.patterns_resimulated,
            st.atpg_runs,
            st.atpg_cache_hits,
            st.podem_cache_hits,
            st.snapshots_taken,
            st.snapshots_skipped
        );
        for b in line.bytes() {
            total.push(b);
        }
        out.push_str(&line);
    }
    out.push_str(&format!("total {:016x}\n", total.finish()));
    out
}
