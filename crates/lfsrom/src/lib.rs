//! LFSROM synthesis — the paper's core contribution, part one.
//!
//! An **LFSROM** is a hardware generator that replays an ordered
//! deterministic test sequence *in situ*: a register of D flip-flops whose
//! content at cycle `t` *is* test pattern `t`, fed by a synthesized
//! two-level next-pattern network (the "OR2 network" of the paper's
//! Figures 2/3). Because only the `d` sequence states are ever visited out
//! of `2^w`, the next-state logic minimizes against an enormous don't-care
//! set — the smaller the deterministic sequence, the cheaper the network,
//! which is the lever the whole mixed-scheme trade-off turns on.
//!
//! [`LfsromGenerator::synthesize`] handles the corner the paper's \[Duf93\]
//! algorithm must also handle: a sequence that visits the same pattern
//! twice has no next-state *function* over the pattern bits alone, so a
//! minimal set of disambiguation flip-flops is appended (their next-state
//! functions are synthesized in the same network).
//!
//! The next-state network is **checked at synthesis time**, in every
//! build: [`next_state_network`] evaluates it on every sequence state and
//! returns [`SynthesizeLfsromError::BrokenNetwork`] on the first wrong
//! successor. It also serves callers that embed the network in hardware
//! of their own (the mixed generator in `bist-core`) without emitting
//! this crate's netlist. The test suite additionally replays every
//! emitted netlist cycle by cycle with
//! [`SeqSim`](bist_logicsim::SeqSim) against the target sequence.
//!
//! # Example
//!
//! ```
//! use bist_lfsrom::LfsromGenerator;
//! use bist_logicsim::Pattern;
//!
//! let sequence: Vec<Pattern> = ["00110", "01001", "10111", "00101", "11010"]
//!     .iter()
//!     .map(|s| s.parse().unwrap())
//!     .collect();
//! let generator = LfsromGenerator::synthesize(&sequence)?;
//! assert_eq!(generator.replay(sequence.len()), sequence);
//! assert_eq!(generator.extra_flip_flops(), 0); // patterns were distinct
//! # Ok::<(), bist_lfsrom::SynthesizeLfsromError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;

pub use generator::{next_state_network, LfsromGenerator, SynthesizeLfsromError};
