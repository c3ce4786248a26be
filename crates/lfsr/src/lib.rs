//! LFSR machinery for the pseudo-random half of the mixed test scheme.
//!
//! * [`Polynomial`] — GF(2) feedback polynomials with a full primitivity
//!   prover (irreducibility via Rabin's test, order via the factorization
//!   of `2^n − 1`), plus a verified table of primitive polynomials for
//!   every degree 2..=32.
//! * [`Lfsr`] — Fibonacci and Galois stepping, serial output streams,
//!   period measurement.
//! * [`ScanExpander`] — scan-chain expansion of the serial stream into
//!   test patterns of arbitrary width, the technique the paper cites
//!   (\[Hel92\]) for circuits whose input count exceeds the LFSR length.
//!   The register is modelled as a window onto one bit stream, produced 64
//!   bits per step from byte-sliced leap tables; patterns are consecutive
//!   `width`-bit cuts of that stream (see its "stream model" section).
//! * [`lfsr_netlist`] — emits the LFSR as a structural netlist (D
//!   flip-flops + XOR feedback) so the area model can cost it and
//!   [`SeqSim`](bist_logicsim::SeqSim) can replay it.
//!
//! # A reproduction note on the paper's polynomial
//!
//! The paper claims the primitive polynomial `x^16+x^4+x^3+x^2+1` for its
//! reference LFSR. That polynomial is **not primitive**: its LFSR period is
//! 19 685, not `2^16 − 1 = 65 535` (this crate's prover, or brute-force
//! stepping, both show it). We take this as a typo for
//! `x^16+x^5+x^3+x^2+1`, which *is* primitive and is exposed as
//! [`paper_poly`]. The printed version is kept as [`paper_poly_printed`]
//! for documentation. None of the paper's conclusions depend on the
//! distinction — a maximal period merely guarantees no short cycling
//! within the first 1000 patterns.
//!
//! # Example
//!
//! ```
//! use bist_lfsr::{paper_poly, Lfsr};
//!
//! let poly = paper_poly();
//! assert!(poly.is_primitive());
//! let mut lfsr = Lfsr::fibonacci(poly, 1);
//! let first: Vec<bool> = (0..8).map(|_| lfsr.step()).collect();
//! assert_eq!(first.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expand;
mod misr;
mod netlist;
mod poly;
mod stepper;

pub use expand::{pseudo_random_patterns, ScanExpander};
pub use misr::Misr;
pub use netlist::lfsr_netlist;
pub use poly::{paper_poly, paper_poly_printed, primitive_poly, Polynomial};
pub use stepper::Lfsr;
