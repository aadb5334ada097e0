//! Fault models for the LFSROM mixed-BIST reproduction.
//!
//! The paper grades test sequences against *gate-level stuck-at and
//! stuck-open faults* (its §3.1/§3.2 fault model), and argues that the
//! deterministic suffix is what carries delay faults. This crate provides:
//!
//! * [`Fault`] — single stuck-at faults on stems and fan-out branches,
//!   CMOS transistor-open (stuck-open) faults, and gate-level transition
//!   (delay) faults; the last two need ordered two-pattern tests,
//! * [`FaultList`] — fault universe construction with classic equivalence
//!   collapsing (fault folding through single-fan-out nets and
//!   controlling-value equivalence inside AND/NAND/OR/NOR gates),
//! * [`CollapsedUniverse`] — the full↔collapsed bridge: per-fault
//!   representative maps so engines grade only class representatives while
//!   reports keep speaking in the full universe, plus the dominance-pruned
//!   prime set for ATPG targeting,
//! * [`FaultStatus`] — the lifecycle a fault goes through during fault
//!   simulation and ATPG.
//!
//! # Stuck-open semantics
//!
//! A CMOS stuck-open fault turns a combinational gate into a dynamic memory
//! element: when the broken transistor path is the only one that should
//! drive the output, the output *retains its previous value*. Detection
//! therefore needs two consecutive patterns — an initialization pattern and
//! a transition pattern — which is exactly why the paper insists the
//! LFSROM preserves the *order* of the deterministic sequence. The
//! conditions encoded here (see [`Fault`] variants):
//!
//! * [`Fault::OpenSeries`] — a transistor of the series network is open
//!   (e.g. an nMOS of a NAND): the output cannot make the transition that
//!   requires *all inputs non-controlling*.
//! * [`Fault::OpenParallel`] — the parallel transistor of one pin is open:
//!   the transition is blocked only when that pin is the *only* one at the
//!   controlling value.
//! * [`Fault::OpenRise`] / [`Fault::OpenFall`] — for inverters, buffers and
//!   XOR-family complex gates: the output cannot rise / fall.
//!
//! # Transition semantics
//!
//! A [`Fault::Transition`] is the same retained-value behaviour placed on
//! a *line* instead of inside a gate: the stem of a node, or one fan-out
//! branch of it. Under consecutive-pattern application (launch on
//! capture) pattern `t-1` must set the line's driver to the
//! [`Transition`]'s initial value, pattern `t` must drive it to the final
//! value, and the line's retained initial value must propagate to an
//! output under pattern `t`. A slow-to-rise stem behaves exactly like an
//! open-rise of the gate driving it. [`FaultList::transition`] builds the
//! standard universe.
//!
//! # Example
//!
//! ```
//! use bist_fault::FaultList;
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let sa = FaultList::stuck_at_collapsed(&c17);
//! assert_eq!(sa.len(), 22); // the textbook collapsed count for c17
//! let mixed = FaultList::mixed_model(&c17);
//! assert!(mixed.len() > sa.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collapse;
mod fault;
mod list;

pub use collapse::{CollapseStats, CollapsedUniverse};
pub use fault::{Fault, FaultStatus, Transition};
pub use list::FaultList;
