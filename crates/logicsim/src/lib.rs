//! Gate-level logic simulation engines for the LFSROM mixed-BIST
//! reproduction.
//!
//! Three engines, each matched to a consumer:
//!
//! * [`PackedSim`] — two-valued, 64-pattern bit-parallel simulation over a
//!   [`Circuit`](bist_netlist::Circuit). This is the workhorse under the
//!   PPSFP fault simulator (`bist-faultsim`).
//! * [`FiveValueSim`] — single-pattern five-valued (0, 1, X, D, D̄)
//!   simulation with fault injection, scoped to the fan-in closure of the
//!   nodes its caller reads: the engine under the PODEM ATPG
//!   (`bist-atpg`).
//! * [`SeqSim`] — cycle-accurate sequential simulation of netlists
//!   containing D flip-flops, used to *replay* synthesized LFSROM/mixed
//!   generators and prove they emit the target test sequence bit-exactly.
//!
//! Plus the [`Pattern`] / [`PatternBlock`] data types shared by every crate
//! that produces or consumes test stimuli.
//!
//! # Example
//!
//! ```
//! use bist_logicsim::{PackedSim, Pattern, PatternBlock};
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let all_ones = Pattern::from_fn(5, |_| true);
//! let block = PatternBlock::pack(&c17, std::slice::from_ref(&all_ones));
//! let mut sim = PackedSim::new(&c17);
//! let outputs = sim.run(&block);
//! // c17 with all inputs high drives G22 high and G23 low.
//! assert_eq!(outputs[0] & 1, 1);
//! assert_eq!(outputs[1] & 1, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fivevalue;
mod packed;
mod pattern;
mod seq;

pub use fivevalue::{FiveValueSim, InjectedFault, V5};
pub use packed::{eval_pattern, naive_eval, PackedSim};
pub use pattern::{transpose64, ParsePatternError, Pattern, PatternBlock};
pub use seq::SeqSim;
