//! PPSFP fault simulation for the LFSROM mixed-BIST reproduction.
//!
//! Implements *parallel-pattern single-fault propagation*: 64 patterns are
//! simulated bit-parallel through the good machine, then each live fault is
//! injected and only its fan-out cone re-evaluated, comparing primary
//! outputs to the good machine. Faults are dropped on first detection.
//! On top of the bit-parallelism the live faults of every block are
//! sharded across a work-stealing pool (`bist-par`; `BIST_THREADS` or
//! [`FaultSim::with_threads`]) with per-worker cone scratch and a
//! deterministic fault-order merge, so grading results are bit-identical
//! at every thread count.
//!
//! Every [`bist_fault::Fault`] class is graded:
//!
//! * **stuck-at** — classic single-pattern detection;
//! * **stuck-open** and **transition** — two-pattern detection over
//!   *consecutive* patterns of the sequence (see [`bist_fault`] for the
//!   transistor- and line-level semantics). The simulator tracks the
//!   previous pattern across block and call boundaries, so a sequence
//!   graded in chunks behaves identically to one graded in a single call.
//!   Initialization uses good-machine values (single-fault, non-robust
//!   two-pattern semantics).
//!
//! The crate also contains [`serial`] — a deliberately naive
//! pattern-at-a-time reference simulator used as the oracle in property
//! tests — and [`CoverageReport`]/[`CoverageCurve`] reporting types used by
//! the experiment harness to regenerate the paper's Figures 4 and 5.
//!
//! # Example
//!
//! ```
//! use bist_fault::FaultList;
//! use bist_faultsim::FaultSim;
//! use bist_logicsim::Pattern;
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let faults = FaultList::stuck_at_collapsed(&c17);
//! let mut sim = FaultSim::new(&c17, faults);
//! // grade the exhaustive pattern set
//! let patterns: Vec<Pattern> =
//!     (0u32..32).map(|v| Pattern::from_fn(5, |i| (v >> i) & 1 == 1)).collect();
//! sim.simulate(&patterns);
//! assert_eq!(sim.report().coverage_pct(), 100.0); // c17 has no redundancy
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ppsfp;
mod report;
pub mod serial;
mod testability;
mod wordsim;

pub use ppsfp::FaultSim;
pub use report::{CoverageCurve, CoverageReport};
pub use testability::Testability;
pub use wordsim::{BlockCtx, Seeds, SimCounters, WordFault, WordSim};
