//! Deterministic test pattern generation (ATPG) for the LFSROM mixed-BIST
//! reproduction.
//!
//! The paper obtains its deterministic sequences from a commercial ATPG
//! (System Hilo). This crate replaces it with a from-scratch implementation
//! of the textbook **PODEM** algorithm (Goel 1981) over the five-valued
//! calculus of [`bist_logicsim::FiveValueSim`]:
//!
//! * [`podem`] — single stuck-at test generation with objective /
//!   backtrace / implication / backtracking, complete up to a backtrack
//!   limit: exhausting the search space **proves redundancy**, which is how
//!   the C3540 coverage ceiling (the paper's 96.7 %) is established.
//! * [`justify`] — the same search machinery aimed at plain value
//!   justification, used for the initialization half of two-pattern tests.
//! * [`TestGenerator`] — the full flow: walk the fault universe, generate a
//!   test (or pattern *pair* for stuck-open faults — initialization then
//!   transition, kept adjacent and ordered, which is why the paper's
//!   LFSROM preserves sequence order), fault-simulate for collateral drops,
//!   optionally compact by reverse-order simulation. Independent targets
//!   are searched in speculative parallel batches (`AtpgOptions::threads`
//!   / `BIST_THREADS`) and replayed in fault order, so the emitted
//!   sequence is bit-identical at every pool width.
//! * [`CubeCache`] — memoization of per-target search results across runs
//!   on the same circuit; a sweep's adjacent checkpoints re-target mostly
//!   the same hard faults, and the cache answers those repeats without
//!   searching again (bit-identically — the searches are pure).
//!
//! # Example
//!
//! ```
//! use bist_atpg::{AtpgOptions, TestGenerator};
//! use bist_fault::FaultList;
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let faults = FaultList::mixed_model(&c17);
//! let run = TestGenerator::new(&c17, faults, AtpgOptions::default()).run();
//! assert_eq!(run.report.undetected, 0); // c17 is fully testable
//! assert!(run.sequence().len() >= run.units.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cube;
mod engine;
mod podem;

pub use cache::CubeCache;
pub use cube::{ParseTestCubeError, TestCube};
pub use engine::{compact, AtpgOptions, AtpgRun, TestGenerator, TestUnit};
pub use podem::{
    justify, justify_cube, podem, podem_cube, podem_cube_counted, podem_probe, podem_probe_every,
    CubeOutcome, PodemOptions, PodemOutcome, PodemProbe, SearchCounters,
};
