//! `bist-engine` — the job-oriented public face of the mixed-BIST
//! workspace.
//!
//! Every workload the reproduction supports — solving one `(p, d)`
//! point, sweeping the trade-off, grading coverage curves, baking off
//! TPG architectures, emitting synthesizable HDL, pricing the
//! full-deterministic extreme — is one typed [`JobSpec`]: a plain struct
//! naming a [`CircuitSource`], a
//! [`MixedSchemeConfig`] and the variant's
//! budgets. An [`Engine`] validates specs, runs them on the calling
//! thread (a batch shards across the `bist-par` pool), hands each
//! [`ProgressEvent`] to a sink the caller supplies, observes cooperative
//! [`CancelToken`]s at checkpoint boundaries, and returns typed
//! [`JobResult`]s. Every failure — a
//! malformed `.bench` file, an unknown benchmark, an infeasible spec —
//! comes back as a source-located [`BistError`], never a panic.
//!
//! The shape follows the hybrid-BIST scheduling literature (test jobs as
//! schedulable units with explicit budgets): new workload variants
//! become new [`JobSpec`] variants behind the same engine, instead of
//! new ad-hoc entry points.
//!
//! Because every job is a pure function of its spec, an engine can carry
//! a content-addressed [`ResultCache`]
//! ([`Engine::with_result_cache`]): repeated jobs are answered from disk
//! bit-identically — the batch-sweep workload of the `bist` CLI hits it
//! constantly. See the [`cache`] module for the key/invalidation scheme.
//!
//! Hosts that follow a job — the `bist` CLI's progress lines, the
//! `bist serve` daemon's event stream — pass a sink to
//! [`Engine::run_with`] or [`Engine::run_batch_with`]; the daemon's sink
//! writes each event to the client and cancels the job when the client
//! has gone. The [`wire`] module gives specs, results and events a
//! versioned newline-delimited-JSON encoding for shipping them across a
//! socket.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Mutex;
//! use bist_engine::{CancelToken, CircuitSource, Engine, JobSpec, ProgressEvent};
//!
//! let engine = Engine::new();
//! let events = Mutex::new(Vec::new());
//! let result = engine.run_with(
//!     JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8, 16]),
//!     &CancelToken::new(),
//!     &|event| events.lock().unwrap().push(event),
//! )?;
//!
//! let sweep = result.as_sweep().expect("sweep jobs yield sweep outcomes");
//! assert_eq!(sweep.summary.solutions().len(), 3);
//! // the sink saw every solved checkpoint
//! let checkpoints = events
//!     .into_inner()
//!     .unwrap()
//!     .into_iter()
//!     .filter(|e| matches!(e, ProgressEvent::Checkpoint { .. }))
//!     .count();
//! assert_eq!(checkpoints, 3);
//! # Ok::<(), bist_engine::BistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod codec;
pub mod digest;
mod engine;
mod error;
pub mod json;
mod progress;
mod result;
mod spec;
pub mod wire;

pub use cache::{CacheDiskStats, ResultCache, CACHE_DIR_ENV};
pub use engine::Engine;
pub use wire::{WireError, WIRE_SCHEMA_VERSION};
// The config/outcome vocabulary jobs are written in, re-exported so
// engine consumers (the `bist` CLI above all) need no substrate crates.
pub use bist_core::{MixedSchemeConfig, MixedSolution, SessionStats, SweepSummary};
pub use bist_faultmodel::{FaultModel, ParseFaultModelError};
pub use bist_lint::{
    fmt_scoap, Diagnostic, LintOptions, LintReport, RankedNode, RuleCode, ScoapSummary, Severity,
    Span, SCOAP_INF,
};
pub use error::BistError;
pub use progress::{CancelToken, JobId, ProgressEvent};
pub use result::{
    AreaReportOutcome, BakeoffOutcome, CurveOutcome, EstimateOutcome, HdlOutcome, JobResult,
    LintOutcome, SolveAtOutcome, SweepOutcome,
};
pub use spec::{
    AreaReportSpec, BakeoffSpec, CircuitSource, CoverageCurveSpec, EmitHdlSpec, EstimateSpec,
    HdlLanguage, JobSpec, LintSpec, SolveAtSpec, SweepSpec, DEFAULT_ESTIMATE_CONFIDENCE,
    DEFAULT_ESTIMATE_SAMPLES, DEFAULT_ESTIMATE_SEED,
};
