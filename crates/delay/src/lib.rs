//! Gate-level transition (delay) faults for the LFSROM mixed-BIST
//! reproduction.
//!
//! The paper's central argument for a *mixed* test scheme is that
//! pseudo-random sequences, adequate for stuck-at faults, "are no longer
//! efficient" for "much more realistic and complex faults like delay ...
//! faults" (§2.2), so the deterministic LFSROM suffix must carry them.
//! The 1995 evaluation only exercises stuck-at and stuck-open models; this
//! crate supplies the delay-fault side of the claim so the reproduction
//! can *measure* it:
//!
//! * [`TransitionFault`] / [`TransitionFaultList`] — the classical
//!   gate-level transition fault model (slow-to-rise / slow-to-fall, stems
//!   and fan-out branches).
//! * `impl WordFault for TransitionFault` — the launch mask and the
//!   retained-value seed, so [`bist_faultsim::FaultSim`] grades a pattern
//!   *sequence* under the BIST convention that pattern `t-1` initializes
//!   pattern `t` (launch) and pattern `t` captures.
//! * [`serial::detects`] — a naive single-pair reference the packed engine
//!   is property-tested against.
//! * [`DelayTestGenerator`] — two-pattern deterministic ATPG (a PODEM
//!   stuck-at search for the capture vector plus a justification for the
//!   initialization vector), with prefix-aware grading so a mixed
//!   `p`-random + `d`-deterministic delay test can be built and costed
//!   exactly like the paper's stuck-at/stuck-open flow. It takes the same
//!   [`AtpgOptions`](bist_atpg::AtpgOptions) as the stuck-at generator and
//!   shares its compactor ([`bist_atpg::compact`]).
//!
//! # Example: the paper's §3.1 claim, measured
//!
//! ```
//! use bist_atpg::AtpgOptions;
//! use bist_delay::{DelayTestGenerator, TransitionFaultList};
//! use bist_faultsim::FaultSim;
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let faults = TransitionFaultList::universe(&c17);
//!
//! // one pattern alone launches no transition
//! let mut sim = FaultSim::new(&c17, faults.clone());
//! assert_eq!(sim.simulate(&[bist_logicsim::Pattern::zeros(5)]), 0);
//!
//! // deterministic top-up after a (tiny) pseudo-random prefix
//! let prefix = bist_lfsr::pseudo_random_patterns(bist_lfsr::primitive_poly(16), 5, 8);
//! let run = DelayTestGenerator::new(&c17, faults, AtpgOptions::default(), &prefix).run();
//! assert_eq!(run.report.undetected, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod model;
pub mod serial;
mod sim;

pub use flow::{DelayRun, DelayTestGenerator, DelayTestUnit};
pub use model::{Transition, TransitionFault, TransitionFaultList};
