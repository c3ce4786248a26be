//! The mixed BIST test scheme — the paper's end-to-end contribution.
//!
//! A *mixed test sequence* is a pseudo-random prefix of length `p`
//! (classical LFSR, scan-expanded for wide circuits) followed by a
//! deterministic suffix of length `d` computed by an ATPG for exactly the
//! faults the prefix left undetected. The corresponding *mixed hardware
//! generator* shares one register of D flip-flops between both phases: an
//! LFSR recurrence drives it during the prefix, a decoder recognizes the
//! hand-over state, and from then on a synthesized LFSROM next-pattern
//! network replays the deterministic suffix — order preserved, which the
//! two-pattern stuck-open tests require.
//!
//! This crate implements the incremental flow ([`BistSession`]: fault
//! universe built once, prefix fault simulation advanced across
//! checkpoints, ATPG cached per open-fault frontier), the shared-register
//! hardware ([`MixedGenerator`], verified by cycle-accurate replay and
//! implementing the workspace-wide [`Tpg`](bist_tpg::Tpg) trait), and the
//! `(p, d)` trade-off sweep behind the paper's Figures 5/7/8 and Table 2
//! ([`BistSession::sweep`]); the substrate crates are re-exported under
//! [`prelude`]. The historical one-shot faces are gone (see DESIGN.md §3
//! for the history) — the `bist-engine` crate's typed job API is the
//! public face of the workspace, and sessions remain the lower-level
//! building block it drives.
//!
//! # Quickstart
//!
//! ```
//! use bist_core::{BistSession, MixedSchemeConfig};
//!
//! let c17 = bist_netlist::iscas85::c17();
//! let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
//! let solution = session.solve_at(8)?; // 8 pseudo-random patterns, then ATPG
//! assert!(solution.coverage.efficiency_pct() == 100.0);
//! assert!(solution.generator.verify());
//! # Ok::<(), bist_core::MixedSchemeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mixed;
/// The complete simulated self-test loop of the paper's Figure 1:
/// generator → circuit under test → MISR signature → PASS/FAIL.
pub mod selftest;
mod session;

pub use mixed::{BuildMixedError, HandoverDecode, MixedGenerator};
pub use session::{
    sweep_circuits, BistSession, MixedSchemeConfig, MixedSchemeError, MixedSolution, SessionStats,
    SweepSummary,
};

/// One-stop re-exports of the substrate crates.
pub mod prelude {
    pub use bist_atpg::{AtpgOptions, TestGenerator};
    pub use bist_fault::{Fault, FaultList, FaultStatus};
    pub use bist_faultsim::{CoverageCurve, CoverageReport, FaultSim, SimCounters, Testability};
    pub use bist_lfsr::{
        lfsr_netlist, paper_poly, primitive_poly, pseudo_random_patterns, Lfsr, Misr, Polynomial,
        ScanExpander,
    };
    pub use bist_lfsrom::LfsromGenerator;
    pub use bist_logicsim::{PackedSim, Pattern, SeqSim};
    pub use bist_netlist::{iscas85, Circuit, CircuitBuilder, GateKind};
    pub use bist_synth::{AreaModel, CellCount};
    pub use bist_tpg::Tpg;

    pub use crate::{
        sweep_circuits, BistSession, MixedGenerator, MixedSchemeConfig, MixedSolution,
        SessionStats, SweepSummary,
    };
}
