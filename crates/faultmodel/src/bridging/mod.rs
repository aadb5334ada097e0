//! Bridging (short) faults for the LFSROM mixed-BIST reproduction.
//!
//! The paper's coverage ceiling cites \[Hwa93\] ("Effectiveness of stuck-at
//! test set to detect bridging faults in Iddq environment") and its §3
//! lists Iddq merging among BIST's advantages — but, like delay faults,
//! bridging defects are argued about rather than measured. This module
//! closes that gap:
//!
//! * [`BridgingFault`] / [`BridgingFaultList`] — non-feedback wired-AND /
//!   wired-OR shorts, sampled between physically plausible (level-nearby)
//!   node pairs.
//! * [`BridgingSim`] — a packed simulator grading both detection
//!   criteria at once: *voltage-sense* (the resolved value propagates to
//!   an output) and *Iddq* (the short is merely excited — opposite driven
//!   values — which a quiescent-current measurement catches without any
//!   propagation).
//!
//! The \[Hwa93\] experiment then runs directly: grade a stuck-at-derived
//! BIST sequence against a bridge universe and compare the two coverage
//! numbers (`ext_bridging_coverage`).
//!
//! # Example
//!
//! ```
//! use bist_faultmodel::bridging::{BridgingFaultList, BridgingSim};
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let faults = BridgingFaultList::sample(&c17, 40, 7);
//! let mut sim = BridgingSim::new(&c17, faults);
//! sim.simulate(&bist_lfsr::pseudo_random_patterns(bist_lfsr::paper_poly(), 5, 64));
//! // Iddq needs only excitation, so it always dominates voltage-sense
//! assert!(sim.iddq_coverage_pct() >= sim.report().coverage_pct());
//! ```

mod model;
pub mod serial;
mod sim;

pub use model::{is_feedback_pair, BridgeKind, BridgingFault, BridgingFaultList};
pub use sim::BridgingSim;
