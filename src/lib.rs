//! Workspace facade for the LFSROM mixed-BIST reproduction.
//!
//! Re-exports every substrate crate under one roof so downstream users
//! (and the repo-level integration tests and examples) can depend on a
//! single package. The interesting entry points:
//!
//! * [`engine::Engine`](bist_engine) — **the public face**: typed
//!   [`JobSpec`](bist_engine::JobSpec)s for every workload (solve,
//!   sweep, coverage curve, bake-off, HDL emission, area report),
//!   scheduled across the pool with streaming progress, cooperative
//!   cancellation and fallible parsing end-to-end.
//! * [`core::BistSession`](bist_core) — the incremental mixed-scheme
//!   pipeline the engine drives (fault universe built once, prefix fault
//!   simulation advanced across checkpoints, ATPG cached per open-fault
//!   frontier).
//! * [`tpg::Tpg`](bist_tpg) — the unified test-pattern-generator trait
//!   every architecture in the workspace implements.
//! * [`baselines::bakeoff`](bist_baselines) — all surveyed TPG
//!   architectures compared on one circuit.
//! * [`lint::lint_bench`](bist_lint) — simulation-free static analysis:
//!   structural rules and SCOAP testability as unified diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bist_atpg as atpg;
pub use bist_baselines as baselines;
pub use bist_core as core;
pub use bist_engine as engine;
pub use bist_fault as fault;
pub use bist_faultmodel::bridging;
pub use bist_faultsim as faultsim;
pub use bist_hdl as hdl;
pub use bist_lfsr as lfsr;
pub use bist_lfsrom as lfsrom;
pub use bist_lint as lint;
pub use bist_logicsim as logicsim;
pub use bist_netlist as netlist;
pub use bist_scan as scan;
pub use bist_synth as synth;
pub use bist_tpg as tpg;
