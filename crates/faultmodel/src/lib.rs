//! Model-generic fault subsystem for the LFSROM mixed-BIST reproduction.
//!
//! The paper evaluates its mixed test scheme on the stuck-at/stuck-open
//! universe only, while *arguing* about delay and bridging defects (§2.2,
//! §3.1, and the \[Hwa93\] ceiling citation). This crate turns those
//! arguments into workloads: one [`FaultModel`] value selects which
//! universe a job enumerates, grades and — where the model admits ATPG —
//! tops up deterministically, behind the same face the stuck-at flow has
//! always had.
//!
//! * [`FaultModel`] — the model selector (`stuck-at` is the default and
//!   keeps every digest, cache key and wire byte unchanged; `transition`
//!   grades launch-on-capture pattern *pairs*; `bridging` grades a
//!   reproducibly sampled short universe).
//! * [`serial_grade`] — the naive pattern-at-a-time oracles, for
//!   property-testing the one packed simulator,
//!   [`FaultSim`](bist_faultsim::FaultSim), over each model's universe.
//! * [`ModelSession`] — the mixed-scheme solve/sweep/curve flow over any
//!   model, delegating to [`bist_core::BistSession`] for the default one.
//!   Every model grades its prefix through `bist-core`'s one
//!   [`PrefixGrader`](bist_core::PrefixGrader) (a `FaultSim` generic
//!   over the model's fault type), every multi-point call climbs the
//!   ladder through [`solve_ascending`](bist_core::solve_ascending), and
//!   the transition top-up compacts with the stuck-at flow's compactor
//!   (`bist_atpg::compact`).
//! * [`estimate_coverage`] — seed-pinned stratified sampling of the
//!   stuck-at universe with a Wilson confidence interval: the cheap
//!   first answer a service returns before the exact run finishes.
//!
//! # Example
//!
//! ```
//! use bist_core::MixedSchemeConfig;
//! use bist_faultmodel::{FaultModel, ModelSession};
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let model: FaultModel = "transition".parse().unwrap();
//! let mut session = ModelSession::new(&c17, MixedSchemeConfig::default(), model);
//! let solution = session.solve_at(8)?;
//! assert!(solution.generator.verify());
//! # Ok::<(), bist_core::MixedSchemeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimate;
mod model;
mod session;

pub use estimate::{estimate_coverage, CoverageEstimate};
pub use model::{
    serial_grade, FaultModel, ParseFaultModelError, DEFAULT_BRIDGE_PAIRS, DEFAULT_BRIDGE_SEED,
};
pub use session::ModelSession;
