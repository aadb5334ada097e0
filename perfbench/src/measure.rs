//! Sample statistics, the process memory high-water mark, and the
//! result record every run prints.

use std::fmt::Write as _;

/// Median of `samples` (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile, at most p90, that has at least ten samples
/// beyond it, with its label; by nearest rank. With twenty samples or
/// fewer no percentile above the median has ten beyond it, and the
/// slowest sample is reported as `max`. The p90 cap keeps the tail at a
/// fixed share of the samples once there are a hundred or more: in a
/// mix of job classes it then stays inside one class however many jobs
/// a run completes, where a fixed rank from the top would not.
pub fn tail(samples: &[f64]) -> (f64, String) {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n <= 20 {
        return (sorted[n - 1], "max".to_owned());
    }
    let rank = (9 * n).div_ceil(10).min(n - 10);
    let pct = 100.0 * rank as f64 / n as f64;
    (sorted[rank - 1], format!("p{pct:.0}"))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The process's resident-set high-water mark, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and statistic, printed beside the value.
    pub note: String,
}

/// What one run did: operations attempted and failed, every metric it
/// reports in the final JSON line, and human-readable lines printed
/// before it.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records one operation: attempted, and failed unless `ok`.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints the human-readable report and, last, the one-line JSON
    /// result.
    pub fn print(&self, workload: &str, mode: &str) {
        println!("== {workload} ({mode})");
        for line in &self.lines {
            println!("  {line}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<28} {:>14} {:<6} (failed {} of {} attempted)",
            "failed_frac", failed_frac, "frac", self.failed, self.attempted
        );
        for m in &self.metrics {
            println!(
                "  {:<28} {:>14.6} {:<6} ({})",
                m.name, m.value, m.unit, m.note
            );
        }
        let mut json = String::new();
        let correct = self.failed == 0 && self.attempted > 0;
        write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        )
        .expect("write to String");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (v, label) = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((v, label.as_str()), (5.0, "max"));
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&samples), (20.0, "max".to_owned()));
        // ten samples (12..=21) lie beyond the 11th
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&samples), (11.0, "p52".to_owned()));
        let samples: Vec<f64> = (1..=35).map(f64::from).collect();
        assert_eq!(tail(&samples), (25.0, "p71".to_owned()));
        // capped at rank ceil(0.9 * 130) = 117, thirteen beyond
        let samples: Vec<f64> = (1..=130).map(f64::from).collect();
        assert_eq!(tail(&samples), (117.0, "p90".to_owned()));
    }
}
