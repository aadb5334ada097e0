//! Reference outputs pinned from the commit that defined the benchmark.
//!
//! Every checked output is rendered to one canonical line (floats in
//! their exact round-trip form) and compared with the line stored under
//! its key in `refs.txt`. `--write-refs` regenerates the file.

use std::collections::BTreeMap;

use bist_core::MixedSolution;
use bist_engine::{EstimateOutcome, LintOutcome};

const PINNED: &str = include_str!("../refs.txt");

/// The committed `BENCH_sweep.json` points of c432 at the prefix
/// lengths `0/100/200/500/1000`, as `(p, d)`.
pub const BENCH_SWEEP_C432: [(usize, usize); 5] =
    [(0, 187), (100, 165), (200, 144), (500, 96), (1000, 91)];

pub struct Refs {
    lines: BTreeMap<String, String>,
}

impl Refs {
    pub fn pinned() -> Self {
        let lines = PINNED
            .lines()
            .filter_map(|line| line.split_once('\t'))
            .map(|(key, value)| (key.to_owned(), value.to_owned()))
            .collect();
        Refs { lines }
    }

    /// True when `got` equals the pinned line for `key`; a mismatch or
    /// a missing reference is reported on stderr.
    pub fn check(&self, key: &str, got: &str) -> bool {
        match self.lines.get(key) {
            Some(want) if want == got => true,
            Some(want) => {
                eprintln!("mismatch {key}: got `{got}`, pinned `{want}`");
                false
            }
            None => {
                eprintln!("no pinned reference for {key} (got `{got}`)");
                false
            }
        }
    }
}

pub fn point_key(circuit: &str, p: usize) -> String {
    format!("point {circuit} p={p}")
}

pub fn point_line(s: &MixedSolution) -> String {
    point_fields(s.det_len, s.coverage.coverage_pct(), s.generator_area_mm2)
}

pub fn point_fields(det_len: usize, coverage_pct: f64, generator_mm2: f64) -> String {
    format!("d={det_len} cov={coverage_pct:?} mm2={generator_mm2:?}")
}

pub fn curve_key(circuit: &str, len: usize) -> String {
    format!("curve {circuit} len={len}")
}

pub fn curve_line(coverage_pct: f64) -> String {
    format!("cov={coverage_pct:?}")
}

pub fn estimate_key(circuit: &str, p: usize) -> String {
    format!("estimate {circuit} p={p}")
}

pub fn estimate_line(e: &EstimateOutcome) -> String {
    format!(
        "est={:?} lo={:?} hi={:?} samples={} detected={}",
        e.estimate_pct, e.lo_pct, e.hi_pct, e.samples, e.detected_samples
    )
}

pub fn lint_key(circuit: &str) -> String {
    format!("lint {circuit}")
}

pub fn lint_line(l: &LintOutcome) -> String {
    format!(
        "diagnostics={} report={}",
        l.report.diagnostics.len(),
        bist_engine::digest::sha256_hex(format!("{:?}", l.report).as_bytes())
    )
}

/// Writes `entries` as a fresh `refs.txt` at `path`.
pub fn write(path: &str, entries: &BTreeMap<String, String>) -> std::io::Result<()> {
    let text: String = entries
        .iter()
        .map(|(key, value)| format!("{key}\t{value}\n"))
        .collect();
    std::fs::write(path, text)
}
