//! PPSFP fault simulation for the LFSROM mixed-BIST reproduction.
//!
//! One simulator, [`FaultSim`], implements *parallel-pattern single-fault
//! propagation* for every fault model: 64 patterns are simulated
//! bit-parallel through the good machine, then each live fault's effect
//! is followed through its fan-out-free region to the region's stem, and
//! one fan-out cone walk per reached stem tells every fault behind it
//! which patterns reach a primary output. Faults are dropped on first
//! detection. On top of the bit-parallelism the cone walks of every
//! block are sharded across a work-stealing pool (`bist-par`;
//! `BIST_THREADS` or [`FaultSim::with_threads`]) with per-worker cone
//! scratch and a deterministic merge, so grading results are
//! bit-identical at every thread count.
//!
//! A model is a [`WordFault`]: it supplies only the faulty seed word(s) of
//! one fault for one block. This crate implements it for the paper's
//! [`Fault`](bist_fault::Fault) universe, the simulator's default:
//!
//! * **stuck-at** — classic single-pattern detection;
//! * **stuck-open** — two-pattern detection over *consecutive* patterns of
//!   the sequence (see [`bist_fault`] for the transistor-level semantics).
//!   The simulator tracks the previous pattern across block and call
//!   boundaries, so a sequence graded in chunks behaves identically to one
//!   graded in a single call. Initialization uses good-machine values
//!   (single-fault, non-robust two-pattern semantics).
//!
//! `bist-delay` and `bist-bridging` implement it for transition and
//! bridging faults, so `FaultSim<'_, TransitionFault>` and
//! `FaultSim<'_, BridgingFault>` grade those universes on the same engine.
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
mod wordsim;

pub use report::{CoverageCurve, CoverageReport};
pub use wordsim::{BlockCtx, FaultSim, Seeds, SimCounters, WordFault};
