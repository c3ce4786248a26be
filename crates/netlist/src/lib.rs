//! Gate-level netlist substrate for the LFSROM mixed-BIST reproduction.
//!
//! This crate provides the circuit representation every other crate in the
//! workspace builds on:
//!
//! * [`Circuit`] — an immutable, levelized gate-level netlist with
//!   precomputed fan-out and topological order,
//! * [`CircuitBuilder`] — the only way to construct a [`Circuit`], with full
//!   structural validation (unique names, legal fan-in arities, acyclicity),
//! * [`bench`](mod@bench) — a reader/writer for the classic ISCAS-85 `.bench` format so
//!   real benchmark netlists drop in unchanged,
//! * [`iscas85`] — the benchmark substrate: the exact `c17` netlist plus a
//!   deterministic synthetic generator reproducing the published profile
//!   (inputs/outputs/gate count/depth/gate mix, with planted random-pattern
//!   resistant cones and redundant substructures) of the ten larger ISCAS-85
//!   circuits used in the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use bist_netlist::{CircuitBuilder, GateKind};
//!
//! # fn main() -> Result<(), bist_netlist::BuildCircuitError> {
//! let mut b = CircuitBuilder::new("half_adder");
//! b.add_input("a")?;
//! b.add_input("b")?;
//! b.add_gate("sum", GateKind::Xor, &["a", "b"])?;
//! b.add_gate("carry", GateKind::And, &["a", "b"])?;
//! b.mark_output("sum")?;
//! b.mark_output("carry")?;
//! let circuit = b.build()?;
//! assert_eq!(circuit.num_gates(), 2);
//! assert_eq!(circuit.inputs().len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod builder;
mod circuit;
pub mod dot;
mod error;
mod gate;
pub mod iscas85;
pub mod iscas89;
mod simgraph;
mod stats;

pub use bench::SourceMap;
pub use builder::CircuitBuilder;
pub use circuit::{Circuit, Node, NodeId};
pub use error::{BuildCircuitError, ParseBenchError};
pub use gate::GateKind;
pub use simgraph::{SimGraph, WalkView};
pub use stats::CircuitStats;
