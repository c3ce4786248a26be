//! The incremental mixed-BIST pipeline.
//!
//! [`BistSession`] replaces the historical one-shot per-point flow:
//! instead of rebuilding the fault universe and re-grading the whole
//! pseudo-random prefix for every requested `p`, a session computes the
//! fault list **once**, grades the prefix through one [`PrefixGrader`]
//! advanced **incrementally** along ascending checkpoints, and caches
//! ATPG results **per open-fault frontier** — so sweeping `n` prefix
//! lengths fault-simulates every pseudo-random pattern at most once and
//! never repeats a deterministic top-up for an already-seen frontier.
//!
//! Grading itself runs over collapsed-class representatives only: the
//! session attaches a `CollapsedUniverse` once and serves full-universe
//! questions by projection, while every committed result reads the
//! committed positions alone.

use std::cmp::Ordering;
// determinism-vetted: the HashMap is the frontier→top-up cache, keyed
// lookup only, never iterated
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use bist_atpg::{AtpgOptions, AtpgRun, CubeCache, TestGenerator};
use bist_fault::{CollapsedUniverse, FaultList, FaultStatus};
use bist_faultsim::{CoverageCurve, CoverageReport};
use bist_lfsr::Polynomial;
use bist_netlist::Circuit;
use bist_synth::AreaModel;

use crate::mixed::{BuildMixedError, MixedGenerator};
use crate::prefix::{solve_ascending, PrefixGrader};

/// Configuration of the mixed test scheme flow.
#[derive(Debug, Clone)]
pub struct MixedSchemeConfig {
    /// LFSR feedback polynomial for the pseudo-random phase (default: the
    /// paper's degree-16 polynomial, typo corrected — see `bist-lfsr`).
    pub poly: Polynomial,
    /// ATPG options for the deterministic top-up.
    pub atpg: AtpgOptions,
    /// Area model used for all silicon cost figures.
    pub area: AreaModel,
    /// Pool width for fault simulation and ATPG batching (`0` =
    /// automatic: `BIST_THREADS` or the machine width; `1` = the
    /// historical serial engines). Every result is bit-identical at every
    /// width — this knob moves wall-clock only.
    pub threads: usize,
}

impl Default for MixedSchemeConfig {
    fn default() -> Self {
        MixedSchemeConfig {
            poly: bist_lfsr::paper_poly(),
            atpg: AtpgOptions::default(),
            area: AreaModel::es2_1um(),
            threads: 0,
        }
    }
}

impl MixedSchemeConfig {
    /// The ATPG options the flow runs with: [`MixedSchemeConfig::atpg`],
    /// with an automatic (`0`) ATPG width resolved to
    /// [`MixedSchemeConfig::threads`], so one job grades and searches at
    /// one pool width.
    pub fn atpg_options(&self) -> AtpgOptions {
        AtpgOptions {
            threads: if self.atpg.threads == 0 {
                self.threads
            } else {
                self.atpg.threads
            },
            ..self.atpg
        }
    }
}

/// Error returned by the mixed-scheme flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixedSchemeError {
    /// Building the hardware generator failed.
    Build(BuildMixedError),
}

impl fmt::Display for MixedSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixedSchemeError::Build(e) => write!(f, "generator construction failed: {e}"),
        }
    }
}

impl std::error::Error for MixedSchemeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MixedSchemeError::Build(e) => Some(e),
        }
    }
}

impl From<BuildMixedError> for MixedSchemeError {
    fn from(e: BuildMixedError) -> Self {
        MixedSchemeError::Build(e)
    }
}

/// One solved point of the mixed trade-off: the tuple `(p, d)` with its
/// coverage and silicon cost — one row of the paper's Table 2.
#[derive(Debug, Clone)]
pub struct MixedSolution {
    /// Pseudo-random prefix length `p`.
    pub prefix_len: usize,
    /// Deterministic suffix length `d`.
    pub det_len: usize,
    /// Coverage over the full mixed fault universe.
    pub coverage: CoverageReport,
    /// Coverage reached by the pseudo-random prefix alone.
    pub prefix_coverage: CoverageReport,
    /// Silicon area of the mixed hardware generator, mm².
    pub generator_area_mm2: f64,
    /// Nominal silicon area of the circuit under test, mm².
    pub chip_area_mm2: f64,
    /// The verified hardware generator.
    pub generator: MixedGenerator,
}

impl MixedSolution {
    /// Total mixed sequence length `p + d`.
    pub fn total_len(&self) -> usize {
        self.prefix_len + self.det_len
    }

    /// Generator area as a percentage of the nominal chip area — the
    /// paper's "% increase vs. chip size".
    pub fn overhead_pct(&self) -> f64 {
        100.0 * self.generator_area_mm2 / self.chip_area_mm2
    }
}

impl fmt::Display for MixedSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(p={}, d={}): coverage {:.2} %, generator {:.2} mm² ({:.1} % of chip)",
            self.prefix_len,
            self.det_len,
            self.coverage.coverage_pct(),
            self.generator_area_mm2,
            self.overhead_pct()
        )
    }
}

/// Work counters of a [`BistSession`] — what the incremental pipeline
/// actually did, for perf tracking and the `BENCH_sweep` experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Pseudo-random patterns fault-simulated by the shared incremental
    /// simulator (each pattern counted once, however many checkpoints
    /// consume it).
    pub patterns_simulated: usize,
    /// Patterns re-graded from scratch: for a request below the
    /// incremental front, and for the bridging model's full-sequence
    /// grading.
    pub patterns_resimulated: usize,
    /// Deterministic top-ups actually generated.
    pub atpg_runs: usize,
    /// Deterministic top-ups answered whole from the frontier cache
    /// (identical open-fault frontiers, typically past saturation).
    pub atpg_cache_hits: usize,
    /// Individual PODEM searches answered from the per-fault cube cache
    /// inside generated top-ups — the cross-checkpoint reuse that makes a
    /// sweep's later top-ups cheap even when frontiers differ.
    pub podem_cache_hits: usize,
}

/// The incremental mixed-BIST flow for one circuit under test.
///
/// A session owns the circuit's fault universe (built once), a
/// [`PrefixGrader`] advanced monotonically along the pseudo-random
/// sequence, and a cache of deterministic top-ups keyed by the open-fault
/// frontier. On top of that substrate it answers:
///
/// * [`BistSession::solve_at`] — the full mixed solution for one prefix
///   length `p` (fault simulation → ATPG top-up → generator synthesis →
///   replay verification);
/// * [`BistSession::sweep`] — many prefix lengths at once, sharing all
///   intermediate state: each pseudo-random pattern is simulated at most
///   once across the whole sweep;
/// * [`BistSession::random_coverage_curve`],
///   [`BistSession::pseudo_random_solution`],
///   [`BistSession::achievable_coverage_pct`] — the paper's auxiliary
///   experiments, drawing on the same shared state.
///
/// Results are bit-identical to solving each point on a fresh session —
/// the regression tests enforce it — the incremental state is purely a
/// performance improvement.
///
/// # Example
///
/// ```
/// use bist_core::{BistSession, MixedSchemeConfig};
///
/// let c17 = bist_netlist::iscas85::c17();
/// let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
/// let summary = session.sweep(&[0, 4, 8, 16])?;
/// assert_eq!(summary.solutions().len(), 4);
/// // the fault universe was built once and each of the 16 prefix
/// // patterns was fault-simulated exactly once
/// assert_eq!(session.stats().patterns_simulated, 16);
/// # Ok::<(), bist_core::MixedSchemeError>(())
/// ```
#[derive(Debug)]
pub struct BistSession<'c> {
    circuit: &'c Circuit,
    config: MixedSchemeConfig,
    /// The committed universe: every report boundary, ATPG frontier and
    /// cache key speaks this list.
    faults: FaultList,
    /// Attached by [`BistSession::new`]; `None` only in the
    /// [`BistSession::full_universe`] counterfactual.
    universe: Option<CollapsedUniverse>,
    /// Grades the committed universe plus, when a collapsed universe is
    /// attached, the self-representing extras needed to project
    /// full-universe answers. The first `faults.len()` graded faults are
    /// exactly `faults`, and committed results read only those.
    grader: PrefixGrader<'c>,
    /// Deterministic top-ups keyed by the open-fault frontier (original
    /// universe indices, ascending).
    #[allow(clippy::disallowed_types)]
    atpg_cache: HashMap<Vec<usize>, Rc<AtpgRun>>,
    /// Per-fault search results shared by every top-up the session
    /// generates — adjacent checkpoints re-target mostly the same hard
    /// faults, so later top-ups are answered largely from memory.
    cube_cache: CubeCache,
    stats: SessionStats,
}

impl<'c> BistSession<'c> {
    /// Opens a session for `circuit`: builds the mixed fault universe
    /// and its [`CollapsedUniverse`] (each once) and seeds the
    /// incremental grader. The grader grades collapsed-class
    /// representatives only: the committed mixed universe *is* the
    /// collapsed one, and the handful of self-representing extras
    /// (fanout branches behind output pads) are graded after it so the
    /// session can answer full-universe questions exactly by projection
    /// ([`BistSession::full_universe_statuses_at`]).
    pub fn new(circuit: &'c Circuit, config: MixedSchemeConfig) -> Self {
        let universe = CollapsedUniverse::build(circuit);
        let mixed = FaultList::mixed_model(circuit);
        // the mixed list's stuck-at block is the collapsed list, which is
        // also the representative list's stable prefix; the extras past
        // it are the self-representing branch faults only the full
        // universe needs
        let collapsed_len = mixed.num_stuck_at();
        let mut graded = mixed.clone();
        graded.extend(
            universe
                .representatives()
                .iter()
                .skip(collapsed_len)
                .copied(),
        );
        debug_assert_eq!(
            &universe.representatives().faults()[..collapsed_len],
            &graded.faults()[..collapsed_len],
            "collapsed stuck-at block must prefix the representatives"
        );
        Self::open(circuit, config, mixed, graded, Some(universe))
    }

    /// The pre-collapse counterfactual: a session that commits and
    /// grades the **full** stuck-at universe (plus stuck-open) directly,
    /// frontier and reports included. Its ATPG visits the uncollapsed
    /// frontier in a different order, so it commits its own (equally
    /// valid) points; it is tied to [`BistSession::new`] by
    /// [`BistSession::full_universe_statuses_at`] identity instead. The
    /// `bench_sweep` and `bench_collapse` bins time the default session
    /// against it; no job, cache entry or wire byte ever comes from it.
    #[doc(hidden)]
    pub fn full_universe(circuit: &'c Circuit, config: MixedSchemeConfig) -> Self {
        let mut full = FaultList::stuck_at_full(circuit);
        full.extend(FaultList::stuck_open(circuit).iter().copied());
        Self::open(circuit, config, full.clone(), full, None)
    }

    #[allow(clippy::disallowed_types)] // constructs the vetted cache map
    fn open(
        circuit: &'c Circuit,
        config: MixedSchemeConfig,
        faults: FaultList,
        graded: FaultList,
        universe: Option<CollapsedUniverse>,
    ) -> Self {
        let grader = PrefixGrader::new(circuit, &config, graded);
        BistSession {
            circuit,
            config,
            faults,
            universe,
            grader,
            atpg_cache: HashMap::new(),
            cube_cache: CubeCache::new(),
            stats: SessionStats::default(),
        }
    }

    /// The circuit under test.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The flow configuration.
    pub fn config(&self) -> &MixedSchemeConfig {
        &self.config
    }

    /// The committed mixed fault universe: the list every report,
    /// frontier and cache key speaks.
    pub fn faults(&self) -> &FaultList {
        &self.faults
    }

    /// Work counters: patterns simulated, ATPG runs and cache hits.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Nominal silicon area of the circuit under test, mm².
    pub fn chip_area_mm2(&self) -> f64 {
        self.config.area.circuit_area_mm2(self.circuit)
    }

    /// The deterministic top-up for `frontier` (ascending original-universe
    /// fault indices), answered from the cache when the same frontier was
    /// already solved; freshly generated top-ups still reuse every
    /// individual search the session has performed before (the per-fault
    /// cube cache).
    fn atpg_for(&mut self, frontier: &[usize]) -> Rc<AtpgRun> {
        if let Some(hit) = self.atpg_cache.get(frontier) {
            self.stats.atpg_cache_hits += 1;
            return Rc::clone(hit);
        }
        // frontier indices come from statuses_at over this same universe,
        // so they are always in range; the totalized lookup keeps this
        // production path panic-free regardless
        let remaining: FaultList = frontier
            .iter()
            .filter_map(|&i| self.faults.get(i).copied())
            .collect();
        let hits_before = self.cube_cache.hits();
        let run = Rc::new(
            TestGenerator::new(self.circuit, remaining, self.config.atpg_options())
                .run_with_cache(&mut self.cube_cache),
        );
        self.stats.atpg_runs += 1;
        self.stats.podem_cache_hits += self.cube_cache.hits() - hits_before;
        self.atpg_cache.insert(frontier.to_vec(), Rc::clone(&run));
        run
    }

    /// Solves the mixed scheme for prefix length `p`.
    ///
    /// `p = 0` yields the pure deterministic extreme (maximal generator,
    /// shortest sequence). Within one session, monotonically increasing
    /// requests reuse all prior fault simulation; a request below the
    /// front re-grades its prefix from scratch. Equal open-fault
    /// frontiers reuse the deterministic top-up.
    ///
    /// # Errors
    ///
    /// Returns [`MixedSchemeError`] when the generator cannot be built
    /// (e.g. the circuit needs no patterns at all — not reachable for real
    /// fault universes).
    pub fn solve_at(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        let mut statuses = self.grader.statuses_at(p, &mut self.stats);
        // every committed boundary reads the committed prefix of the
        // graded vector — the appended projection extras never enter
        // reports, frontiers or cache keys
        statuses.truncate(self.faults.len());
        let prefix_coverage = CoverageReport::from_statuses(&statuses);

        // ATPG over the faults the prefix left open
        let frontier: Vec<usize> = statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_open())
            .map(|(i, _)| i)
            .collect();
        let run = self.atpg_for(&frontier);

        // merge statuses back into the full universe
        for (&orig, &status) in frontier.iter().zip(&run.statuses) {
            statuses[orig] = status;
        }
        let coverage = CoverageReport::from_statuses(&statuses);

        let det = run.sequence();
        let generator =
            MixedGenerator::build(self.circuit.inputs().len(), self.config.poly, p, &det)?;
        debug_assert!(generator.verify(), "mixed generator failed replay");

        Ok(MixedSolution {
            prefix_len: p,
            det_len: det.len(),
            coverage,
            prefix_coverage,
            generator_area_mm2: generator.area_mm2(&self.config.area),
            chip_area_mm2: self.chip_area_mm2(),
            generator,
        })
    }

    /// Solves the scheme for every prefix length in `prefix_lengths`,
    /// sharing the session's incremental state across all points.
    ///
    /// Checkpoints are solved in ascending order ([`solve_ascending`];
    /// results come back in request order), so a sweep fault-simulates
    /// each pseudo-random pattern **at most once**, however the request
    /// list is arranged.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MixedSchemeError`] encountered.
    pub fn sweep(&mut self, prefix_lengths: &[usize]) -> Result<SweepSummary, MixedSchemeError> {
        solve_ascending(prefix_lengths, |p| self.solve_at(p)).map(SweepSummary::from_solutions)
    }

    /// The pure pseudo-random extreme `(p, d = 0)`: coverage of the prefix
    /// alone and the bare LFSR generator cost.
    ///
    /// # Errors
    ///
    /// Returns [`MixedSchemeError`] if `p` is zero.
    pub fn pseudo_random_solution(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        let mut statuses = self.grader.statuses_at(p, &mut self.stats);
        statuses.truncate(self.faults.len());
        let report = CoverageReport::from_statuses(&statuses);
        let generator =
            MixedGenerator::build(self.circuit.inputs().len(), self.config.poly, p, &[])?;
        Ok(MixedSolution {
            prefix_len: p,
            det_len: 0,
            coverage: report,
            prefix_coverage: report,
            generator_area_mm2: generator.area_mm2(&self.config.area),
            chip_area_mm2: self.chip_area_mm2(),
            generator,
        })
    }

    /// Coverage-versus-length curve of the pure pseudo-random sequence —
    /// the paper's Figure 4. Checkpoints may arrive in any order; they are
    /// graded ascending and answered in request order.
    pub fn random_coverage_curve(&mut self, checkpoints: &[usize]) -> CoverageCurve {
        self.grader
            .coverage_curve(checkpoints, self.faults.len(), &mut self.stats)
    }

    /// Marks redundancy over the full universe by running the ATPG with an
    /// empty prefix and returning the achievable ceiling (the paper's
    /// "96.7 %" for C3540). Shares the `p = 0` frontier cache entry with
    /// [`BistSession::solve_at`].
    pub fn achievable_coverage_pct(&mut self) -> f64 {
        let frontier: Vec<usize> = (0..self.faults.len()).collect();
        self.atpg_for(&frontier).report.achievable_pct()
    }

    /// Fault statuses after exactly `p` prefix patterns, spoken in the
    /// **full uncollapsed universe**: `stuck_at_full` order followed by
    /// the stuck-open block. The stuck-at part is projected through the
    /// collapsed universe (each class member answers with its graded
    /// representative's status — the bit-identity
    /// `tests/collapse_identity.rs` proves); the full-universe
    /// counterfactual reads it straight off the grader. Shares all
    /// incremental state with [`BistSession::solve_at`].
    pub fn full_universe_statuses_at(&mut self, p: usize) -> Vec<FaultStatus> {
        let statuses = self.grader.statuses_at(p, &mut self.stats);
        let Some(universe) = self.universe.as_ref() else {
            return statuses;
        };
        // representative r sits in the graded list either inside the
        // collapsed stuck-at block (same index) or among the extras
        // appended past the committed universe
        let committed_len = self.faults.len();
        let collapsed_len = self.faults.num_stuck_at();
        let per_rep: Vec<FaultStatus> = (0..universe.representatives().len())
            .map(|r| {
                let g = if r < collapsed_len {
                    r
                } else {
                    committed_len + (r - collapsed_len)
                };
                statuses[g]
            })
            .collect();
        let mut full = universe.project(&per_rep);
        full.extend_from_slice(&statuses[collapsed_len..committed_len]);
        full
    }
}

/// The result of a trade-off sweep: one [`MixedSolution`] per requested
/// prefix length, with the paper's selection helpers.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    solutions: Vec<MixedSolution>,
}

impl SweepSummary {
    /// Assembles a summary from already-solved points, kept in the given
    /// (request) order. This is how drivers that solve point-by-point —
    /// emitting progress or checking cancellation between points — build
    /// the same summary [`BistSession::sweep`] returns.
    pub fn from_solutions(solutions: Vec<MixedSolution>) -> Self {
        SweepSummary { solutions }
    }

    /// All solved points, in request order.
    pub fn solutions(&self) -> &[MixedSolution] {
        &self.solutions
    }

    /// Cost-first comparison: generator area, then total sequence length,
    /// then prefix length — each ascending.
    fn by_area(a: &MixedSolution, b: &MixedSolution) -> Ordering {
        a.generator_area_mm2
            .total_cmp(&b.generator_area_mm2)
            .then_with(|| a.total_len().cmp(&b.total_len()))
            .then_with(|| a.prefix_len.cmp(&b.prefix_len))
    }

    /// Length-first comparison: total sequence length, then generator
    /// area, then prefix length — each ascending.
    fn by_length(a: &MixedSolution, b: &MixedSolution) -> Ordering {
        a.total_len()
            .cmp(&b.total_len())
            .then_with(|| a.generator_area_mm2.total_cmp(&b.generator_area_mm2))
            .then_with(|| a.prefix_len.cmp(&b.prefix_len))
    }

    /// The first minimum under `cmp`: full ties keep the earliest point in
    /// request order, so every selector is deterministic in the request
    /// list alone.
    fn select<'s>(
        solutions: impl Iterator<Item = &'s MixedSolution>,
        cmp: fn(&MixedSolution, &MixedSolution) -> Ordering,
    ) -> Option<&'s MixedSolution> {
        let mut best: Option<&MixedSolution> = None;
        for s in solutions {
            match best {
                Some(b) if cmp(s, b) != Ordering::Less => {}
                _ => best = Some(s),
            }
        }
        best
    }

    /// The cheapest solution (by generator area).
    ///
    /// Ties break deterministically: smaller total length `p + d` first,
    /// then smaller prefix `p`, then earliest in request order.
    pub fn cheapest(&self) -> Option<&MixedSolution> {
        Self::select(self.solutions.iter(), Self::by_area)
    }

    /// The shortest total sequence.
    ///
    /// Ties break deterministically: cheaper generator first, then
    /// smaller prefix `p`, then earliest in request order.
    pub fn shortest(&self) -> Option<&MixedSolution> {
        Self::select(self.solutions.iter(), Self::by_length)
    }

    /// The cheapest solution whose total sequence length stays within
    /// `max_len` — the paper's "careful balance" selection rule.
    ///
    /// Ties break exactly as in [`SweepSummary::cheapest`]: equal areas
    /// prefer the shorter total sequence, then the smaller prefix, then
    /// the earliest point in request order.
    pub fn cheapest_within_length(&self, max_len: usize) -> Option<&MixedSolution> {
        Self::select(
            self.solutions.iter().filter(|s| s.total_len() <= max_len),
            Self::by_area,
        )
    }

    /// The shortest solution with overhead at most `max_overhead_pct` of
    /// the nominal chip area.
    ///
    /// Ties break exactly as in [`SweepSummary::shortest`]: equal total
    /// lengths prefer the cheaper generator, then the smaller prefix,
    /// then the earliest point in request order.
    pub fn within_overhead(&self, max_overhead_pct: f64) -> Option<&MixedSolution> {
        Self::select(
            self.solutions
                .iter()
                .filter(|s| s.overhead_pct() <= max_overhead_pct),
            Self::by_length,
        )
    }
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>8} {:>8} {:>8} {:>12} {:>10}",
            "p", "d", "p+d", "cost (mm2)", "% of chip"
        )?;
        for s in &self.solutions {
            writeln!(
                f,
                "{:>8} {:>8} {:>8} {:>12.3} {:>10.1}",
                s.prefix_len,
                s.det_len,
                s.total_len(),
                s.generator_area_mm2,
                s.overhead_pct()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_matches_one_shot_solves_bit_for_bit() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let mut session = BistSession::new(&c, MixedSchemeConfig::default());
        for p in [0usize, 50, 200] {
            let incremental = session.solve_at(p).expect("incremental solve");
            // the historical one-shot behaviour: a fresh session per point
            let one_shot = BistSession::new(&c, MixedSchemeConfig::default())
                .solve_at(p)
                .expect("one-shot solve");
            assert_eq!(incremental.prefix_len, one_shot.prefix_len);
            assert_eq!(incremental.det_len, one_shot.det_len);
            assert_eq!(
                incremental.generator.deterministic(),
                one_shot.generator.deterministic(),
                "p={p}: deterministic suffixes must be bit-identical"
            );
            assert_eq!(incremental.coverage, one_shot.coverage, "p={p}");
            assert_eq!(
                incremental.prefix_coverage, one_shot.prefix_coverage,
                "p={p}"
            );
            assert_eq!(
                incremental.generator_area_mm2, one_shot.generator_area_mm2,
                "p={p}"
            );
        }
    }

    #[test]
    fn monotone_sweep_simulates_each_pattern_once() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let mut session = BistSession::new(&c, MixedSchemeConfig::default());
        session.sweep(&[0, 25, 100, 250]).expect("sweep succeeds");
        let stats = session.stats();
        assert_eq!(stats.patterns_simulated, 250, "single incremental pass");
        assert_eq!(stats.patterns_resimulated, 0);
        // an earlier point, asked again, is re-graded from scratch
        session.solve_at(100).expect("solve succeeds");
        assert_eq!(session.stats().patterns_simulated, 250);
        assert_eq!(session.stats().patterns_resimulated, 100);
    }

    #[test]
    fn unordered_sweep_still_simulates_each_pattern_once() {
        let c = bist_netlist::iscas85::c17();
        let mut session = BistSession::new(&c, MixedSchemeConfig::default());
        let summary = session.sweep(&[16, 0, 8]).expect("sweep succeeds");
        assert_eq!(session.stats().patterns_simulated, 16);
        assert_eq!(session.stats().patterns_resimulated, 0);
        // request order preserved in the summary
        let ps: Vec<usize> = summary.solutions().iter().map(|s| s.prefix_len).collect();
        assert_eq!(ps, vec![16, 0, 8]);
    }

    #[test]
    fn saturated_frontiers_hit_the_atpg_cache() {
        // far past saturation the open frontier stops changing, so the
        // deterministic top-up is answered from the cache
        let c = bist_netlist::iscas85::c17();
        let mut session = BistSession::new(&c, MixedSchemeConfig::default());
        session.sweep(&[64, 96, 128]).expect("sweep succeeds");
        let stats = session.stats();
        assert!(
            stats.atpg_cache_hits >= 1,
            "saturated frontiers must reuse the top-up: {stats:?}"
        );
    }

    #[test]
    fn multi_point_sweep_reuses_podem_searches() {
        // the p=0 top-up searches every fault; later checkpoints re-target
        // a subset of the same hard faults, so their top-ups must be
        // answered largely from the per-fault cube cache
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let mut session = BistSession::new(&c, MixedSchemeConfig::default());
        session.sweep(&[0, 50, 150]).expect("sweep succeeds");
        let stats = session.stats();
        assert_eq!(stats.atpg_runs, 3);
        assert!(
            stats.podem_cache_hits > 0,
            "adjacent frontiers must reuse searches: {stats:?}"
        );
    }

    #[test]
    fn session_results_are_thread_count_independent() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let prefixes = [0usize, 40, 120];
        let serial_cfg = MixedSchemeConfig {
            threads: 1,
            ..MixedSchemeConfig::default()
        };
        let mut serial = BistSession::new(&c, serial_cfg);
        let expect = serial.sweep(&prefixes).expect("sweep succeeds");
        for threads in [2, 4] {
            let cfg = MixedSchemeConfig {
                threads,
                ..MixedSchemeConfig::default()
            };
            let mut session = BistSession::new(&c, cfg);
            let got = session.sweep(&prefixes).expect("sweep succeeds");
            for (a, b) in expect.solutions().iter().zip(got.solutions()) {
                assert_eq!(a.det_len, b.det_len, "threads={threads}");
                assert_eq!(
                    a.generator.deterministic(),
                    b.generator.deterministic(),
                    "threads={threads}"
                );
                assert_eq!(a.coverage, b.coverage, "threads={threads}");
            }
        }
    }

    #[test]
    fn session_stats_are_thread_count_independent() {
        // every work counter — podem_cache_hits included, although
        // speculative batches search more targets than the replay
        // consumes — reads the same at every pool width
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let stats_at = |threads| {
            let mut session = BistSession::new(
                &c,
                MixedSchemeConfig {
                    threads,
                    ..MixedSchemeConfig::default()
                },
            );
            session.sweep(&[0, 50, 150]).expect("sweep succeeds");
            session.stats()
        };
        let serial = stats_at(1);
        assert!(serial.podem_cache_hits > 0, "{serial:?}");
        for threads in [2, 4] {
            assert_eq!(stats_at(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn c17_solutions_reach_full_coverage() {
        let c17 = bist_netlist::iscas85::c17();
        let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
        for p in [0usize, 4, 16] {
            let s = session.solve_at(p).expect("solve succeeds");
            assert_eq!(s.coverage.undetected, 0, "p={p}");
            assert_eq!(s.coverage.efficiency_pct(), 100.0, "p={p}");
            assert!(s.generator.verify(), "p={p}");
            assert_eq!(s.prefix_len, p);
        }
    }

    #[test]
    fn non_monotone_requests_fall_back_without_corruption() {
        let c17 = bist_netlist::iscas85::c17();
        let mut forward = BistSession::new(&c17, MixedSchemeConfig::default());
        let a16 = forward.solve_at(16).expect("solve succeeds");
        let a8 = forward.solve_at(8).expect("solve succeeds"); // below the front: re-graded
        assert_eq!(forward.stats().patterns_resimulated, 8, "from scratch");

        let mut fresh = BistSession::new(&c17, MixedSchemeConfig::default());
        let b8 = fresh.solve_at(8).expect("solve succeeds");
        let b16 = fresh.solve_at(16).expect("solve succeeds");
        assert_eq!(a8.det_len, b8.det_len);
        assert_eq!(a8.coverage, b8.coverage);
        assert_eq!(a16.det_len, b16.det_len);
        assert_eq!(a16.coverage, b16.coverage);
    }

    #[test]
    fn random_curve_is_monotone_and_saturating() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let mut session = BistSession::new(&c, MixedSchemeConfig::default());
        let curve = session.random_coverage_curve(&[0, 25, 50, 100, 200]);
        assert!(curve.is_monotone());
        assert_eq!(curve.points()[0].1, 0.0);
        assert!(curve.final_coverage().expect("non-empty curve") > 50.0);
        assert_eq!(session.stats().patterns_simulated, 200);
    }

    #[test]
    fn selector_tie_breaking_is_documented_order() {
        // hand-built solutions with exact area/length ties: the selectors
        // must break them area → length → prefix → request order (and
        // length → area → prefix → request order for the length-first
        // family), never depending on float quirks or iteration internals
        let generator =
            MixedGenerator::build(5, bist_lfsr::paper_poly(), 4, &[]).expect("bare LFSR generator");
        let point = |prefix_len: usize, det_len: usize, area: f64| MixedSolution {
            prefix_len,
            det_len,
            coverage: CoverageReport::default(),
            prefix_coverage: CoverageReport::default(),
            generator_area_mm2: area,
            chip_area_mm2: 1.0, // overhead_pct == 100 * area
            generator: generator.clone(),
        };
        let summary = SweepSummary {
            solutions: vec![
                point(8, 4, 0.5),  // len 12
                point(4, 8, 0.25), // len 12, cheap
                point(2, 10, 0.25),
                point(2, 2, 0.75), // len 4, expensive
            ],
        };

        // area tie at 0.25: equal total length 12 for both candidates —
        // the smaller prefix (p=2) wins
        let cheapest = summary.cheapest().expect("non-empty");
        assert_eq!((cheapest.prefix_len, cheapest.det_len), (2, 10));
        // unique shortest
        let shortest = summary.shortest().expect("non-empty");
        assert_eq!(shortest.total_len(), 4);
        // within length 12: same area tie as `cheapest`
        let within = summary.cheapest_within_length(12).expect("feasible");
        assert_eq!((within.prefix_len, within.det_len), (2, 10));
        assert!(summary.cheapest_within_length(3).is_none());
        // overhead <= 50 % admits only the two 0.25 mm² points (len 12
        // each): area ties again, smaller prefix wins
        let balanced = summary.within_overhead(50.0).expect("feasible");
        assert_eq!((balanced.prefix_len, balanced.det_len), (2, 10));
        assert!(summary.within_overhead(10.0).is_none());

        // full tie (area, length, prefix): earliest in request order wins
        let dup = SweepSummary {
            solutions: vec![point(4, 8, 0.25), point(4, 8, 0.25)],
        };
        let first = dup.cheapest().expect("non-empty");
        assert!(std::ptr::eq(first, &dup.solutions[0]));
    }

    #[test]
    fn projected_full_universe_matches_direct_full_grading() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let config = MixedSchemeConfig::default();
        let mut collapsed = BistSession::new(&c, config.clone());
        let mut full = BistSession::full_universe(&c, config);
        assert!(full.faults().len() > collapsed.faults().len());
        for p in [0usize, 40, 90] {
            assert_eq!(
                collapsed.full_universe_statuses_at(p),
                full.full_universe_statuses_at(p),
                "p={p}: projection must equal direct full-universe grading"
            );
        }
    }

    #[test]
    fn projection_survives_non_monotone_fallback() {
        let c17 = bist_netlist::iscas85::c17();
        let config = MixedSchemeConfig::default();
        let mut s = BistSession::new(&c17, config.clone());
        let late = s.full_universe_statuses_at(16);
        let early = s.full_universe_statuses_at(8); // below the front: re-graded
        let mut fresh = BistSession::new(&c17, config);
        assert_eq!(fresh.full_universe_statuses_at(8), early);
        assert_eq!(fresh.full_universe_statuses_at(16), late);
    }

    #[test]
    fn pseudo_random_extreme() {
        let c17 = bist_netlist::iscas85::c17();
        let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
        let s = session.pseudo_random_solution(64).expect("p > 0");
        assert_eq!(s.det_len, 0);
        assert!(s.coverage.coverage_pct() > 80.0);
        assert!(s.generator_area_mm2 < 0.3, "a bare LFSR is cheap");
    }
}
