//! Bridging (short) faults for the LFSROM mixed-BIST reproduction.
//!
//! The paper's coverage ceiling cites \[Hwa93\] ("Effectiveness of stuck-at
//! test set to detect bridging faults in Iddq environment") and its §3
//! lists Iddq merging among BIST's advantages — but, like delay faults,
//! bridging defects are argued about rather than measured. This crate
//! closes that gap:
//!
//! * [`BridgingFault`] / [`BridgingFaultList`] — non-feedback wired-AND /
//!   wired-OR shorts, sampled between physically plausible (level-nearby)
//!   node pairs.
//! * `impl WordFault for BridgingFault` — so [`bist_faultsim::FaultSim`]
//!   grades a bridge universe under both detection criteria at once:
//!   *voltage-sense* (the resolved value propagates to an output, the
//!   simulator's statuses and report) and *Iddq* (the short is merely
//!   excited — opposite driven values — which a quiescent-current
//!   measurement catches without any propagation; the simulator's
//!   `excited` flags).
//!
//! The \[Hwa93\] experiment then runs directly: grade a stuck-at-derived
//! BIST sequence against a bridge universe and compare the two coverage
//! numbers (`ext_bridging_coverage`).
//!
//! # Example
//!
//! ```
//! use bist_bridging::BridgingFaultList;
//! use bist_faultsim::FaultSim;
//! use bist_logicsim::Pattern;
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let faults = BridgingFaultList::sample(&c17, 30, 17);
//! let mut sim = FaultSim::new(&c17, faults);
//! let patterns: Vec<Pattern> = (0u32..32)
//!     .map(|v| Pattern::from_fn(5, |i| (v >> i) & 1 == 1))
//!     .collect();
//! sim.simulate(&patterns);
//! assert!(sim.report().coverage_pct() > 50.0); // exhaustive input space
//! // Iddq needs only excitation, so it always dominates voltage-sense
//! assert!(sim.excited_pct() >= sim.report().coverage_pct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
pub mod serial;
mod sim;

pub use model::{is_feedback_pair, BridgeKind, BridgingFault, BridgingFaultList};
