//! Two-level logic synthesis and silicon-area estimation for the LFSROM
//! mixed-BIST reproduction.
//!
//! The paper costs its generators by synthesizing VHDL with the COMPASS
//! ASIC Synthesizer and reading the Design Assistant's area estimate for
//! an ES2 1 µm standard-cell process (its §4.1, ±5 % accuracy). This crate
//! rebuilds that tool chain for the structures at hand:
//!
//! * [`Cube`] — cube calculus over wide (multi-word) input spaces,
//! * [`synthesize_pla`] — espresso-style two-level minimization of a care
//!   table (EXPAND against the off-rows with single-pass greedy literal
//!   removal, greedy irredundant cover, cross-output term sharing), run
//!   as word operations on row masks of the transposed table. The
//!   LFSROM's enormous don't-care set — only the `d` sequence states are
//!   care rows out of `2^w` — is what this stage exploits,
//! * [`TwoLevelNetwork`] — the result: shared AND terms, OR planes per
//!   output, evaluation, netlist emission,
//! * [`AreaModel`] / [`CellCount`] — gate-level technology mapping onto a
//!   2-input cell library with an ES2-1µm-style area table, calibrated to
//!   the paper's two published anchors (LFSR-16 = 0.25 mm², C3540 nominal
//!   = 3.8 mm²; see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use bist_logicsim::Pattern;
//! use bist_synth::synthesize_pla;
//!
//! // y = 1 for 11x, 0 for 00x; everything else don't-care
//! let inputs: Vec<Pattern> = vec!["110".parse()?, "111".parse()?, "000".parse()?, "001".parse()?];
//! let outputs: Vec<Pattern> = vec!["1".parse()?, "1".parse()?, "0".parse()?, "0".parse()?];
//! let net = synthesize_pla(3, &inputs, &outputs);
//! assert_eq!(net.num_terms(), 1); // collapses to a single literal "a"
//! # Ok::<(), bist_logicsim::ParsePatternError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod cube;
mod minimize;
mod network;

pub use area::{count_cells, AreaModel, CellCount, CellKind};
pub use cube::Cube;
pub use minimize::synthesize_pla;
pub use network::TwoLevelNetwork;
