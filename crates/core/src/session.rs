//! The incremental mixed-BIST pipeline.
//!
//! [`BistSession`] replaces the historical one-shot per-point flow:
//! instead of rebuilding the fault universe and re-grading the whole
//! pseudo-random prefix for every requested `p`, a session computes the
//! fault list **once**, advances one fault simulator **incrementally**
//! across monotone prefix checkpoints (snapshotting the status vector at
//! every checkpoint it passes), and caches ATPG results **per open-fault
//! frontier** — so sweeping `n` prefix lengths fault-simulates every
//! pseudo-random pattern at most once and never repeats a deterministic
//! top-up for an already-seen frontier.
//!
//! Grading itself runs over collapsed-class representatives only (see
//! [`CollapseMode`]): the session attaches a `CollapsedUniverse` once
//! and serves full-universe questions by projection, while every
//! committed result stays bit-identical to the uncollapsed flow.

use std::cmp::Ordering;
// determinism-vetted: the HashMap is the frontier→top-up cache, keyed
// lookup only, never iterated (sweep order comes from BTreeMap)
#[allow(clippy::disallowed_types)]
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

use bist_atpg::{AtpgOptions, AtpgRun, CubeCache, TestGenerator};
use bist_fault::{CollapsedUniverse, FaultList, FaultStatus};
use bist_faultsim::{CoverageCurve, CoverageReport, FaultSim};
use bist_lfsr::{Lfsr, Polynomial, ScanExpander};
use bist_logicsim::Pattern;
use bist_netlist::Circuit;
use bist_par::Pool;
use bist_synth::AreaModel;

use crate::mixed::{BuildMixedError, MixedGenerator};

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

/// Which stuck-at universe a [`BistSession`]'s PPSFP hot loop grades.
///
/// Between [`CollapseMode::InFlow`] and [`CollapseMode::Off`] every
/// committed result — each `(p, d)` point, coverage report, work
/// counter, digest, cache entry and wire byte — is **bit-identical**;
/// like [`MixedSchemeConfig::threads`] the default mode moves
/// wall-clock only. The knob therefore lives on the session, not the
/// config, and never participates in job digests.
/// [`CollapseMode::FullUniverse`] is different in kind: it commits the
/// pre-collapse counterfactual's own (equally valid) points — its ATPG
/// visits the uncollapsed frontier in a different order — and is tied
/// to the default mode by projected-status identity instead
/// ([`BistSession::full_universe_statuses_at`]). Run it cache-less:
/// since the knob is not in digests, its results would alias the
/// default mode's cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollapseMode {
    /// The default: the session builds a [`CollapsedUniverse`] once and
    /// grades collapsed-class representatives only. The committed mixed
    /// universe *is* the collapsed one, so reports are untouched; the
    /// handful of self-representing extras (fanout branches behind
    /// output pads) are graded alongside it so the session can answer
    /// full-universe questions exactly by projection
    /// ([`BistSession::full_universe_prefix_report`]).
    #[default]
    InFlow,
    /// No [`CollapsedUniverse`] is built and the projection APIs are
    /// unavailable — the exact historical session. Escape hatch:
    /// `BIST_COLLAPSE=off`.
    Off,
    /// Grade the **full** stuck-at universe (plus stuck-open) directly,
    /// frontier and reports included — the pre-collapse counterfactual
    /// that the `collapsed_session` blocks of `bench_sweep` /
    /// `bench_collapse` time the default mode against.
    /// `BIST_COLLAPSE=full`.
    FullUniverse,
}

impl CollapseMode {
    /// The session default, resolved from the `BIST_COLLAPSE`
    /// environment variable: `off`, `full`, anything else or unset ⇒
    /// [`CollapseMode::InFlow`].
    pub fn from_env() -> Self {
        match std::env::var("BIST_COLLAPSE").as_deref() {
            Ok("off") => CollapseMode::Off,
            Ok("full") => CollapseMode::FullUniverse,
            _ => CollapseMode::InFlow,
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
    /// Pseudo-random patterns graded by fallback simulators for
    /// non-monotone requests below the incremental front.
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
    /// Checkpoint snapshots actually retained.
    pub snapshots_taken: usize,
    /// Checkpoint snapshots skipped by the adaptive cadence (cheaper to
    /// re-simulate the short gap than to copy the state).
    pub snapshots_skipped: usize,
}

/// The incremental mixed-BIST flow for one circuit under test.
///
/// A session owns the circuit's fault universe (built once), a fault
/// simulator advanced monotonically along the pseudo-random sequence
/// (with a status snapshot at every solved checkpoint), and a cache of
/// deterministic top-ups keyed by the open-fault frontier. On top of
/// that substrate it answers:
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
    /// `config.atpg` with the session-wide pool width folded in.
    atpg_options: AtpgOptions,
    /// The committed universe: every report boundary, ATPG frontier and
    /// cache key speaks this list, in every [`CollapseMode`].
    faults: FaultList,
    /// What the simulator actually grades: the committed universe plus,
    /// in [`CollapseMode::InFlow`], the self-representing extras needed
    /// to project full-universe answers. Its first `committed_len`
    /// entries are exactly `faults`.
    graded: FaultList,
    /// `faults.len()` — the prefix of every graded status vector that
    /// the committed results are read from.
    committed_len: usize,
    /// Length of the collapsed stuck-at block that `graded` shares with
    /// `universe.representatives()` (0 when no universe is attached).
    collapsed_len: usize,
    mode: CollapseMode,
    /// Attached in [`CollapseMode::InFlow`] only.
    universe: Option<CollapsedUniverse>,
    /// The shared simulator, advanced monotonically; `simulated` prefix
    /// patterns have been consumed.
    sim: FaultSim<'c>,
    expander: ScanExpander,
    simulated: usize,
    /// Retained checkpoints: fault statuses and the stuck-open carry after
    /// exactly `p` prefix patterns, for checkpoints the adaptive cadence
    /// kept (see `statuses_at`).
    snapshots: BTreeMap<usize, Snapshot>,
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

/// A retained checkpoint of the incremental simulator: everything needed
/// to serve `statuses_at(p)` directly or to resume grading from `p` —
/// including the pattern source positioned at `p`, so a resume generates
/// only the gap's patterns, never the whole prefix.
#[derive(Debug, Clone)]
struct Snapshot {
    statuses: Rc<Vec<FaultStatus>>,
    carry: Vec<bool>,
    expander: ScanExpander,
}

impl<'c> BistSession<'c> {
    /// Opens a session for `circuit`: builds the mixed fault universe
    /// and its [`CollapsedUniverse`] (each once) and seeds the
    /// incremental simulator. The collapse mode is
    /// [`CollapseMode::from_env`] — see [`BistSession::with_mode`] to
    /// pin one explicitly.
    pub fn new(circuit: &'c Circuit, config: MixedSchemeConfig) -> Self {
        Self::with_mode(circuit, config, CollapseMode::from_env())
    }

    /// Opens a session graded under an explicit [`CollapseMode`].
    /// Committed results are bit-identical in every mode.
    #[allow(clippy::disallowed_types)] // constructs the vetted cache map
    pub fn with_mode(circuit: &'c Circuit, config: MixedSchemeConfig, mode: CollapseMode) -> Self {
        let (faults, graded, universe, collapsed_len) = match mode {
            CollapseMode::Off => {
                let mixed = FaultList::mixed_model(circuit);
                (mixed.clone(), mixed, None, 0)
            }
            CollapseMode::InFlow => {
                let universe = CollapsedUniverse::build(circuit);
                let mixed = FaultList::mixed_model(circuit);
                // the mixed list's stuck-at block is the collapsed list,
                // which is also the representative list's stable prefix;
                // the extras past it are the self-representing branch
                // faults only the full universe needs
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
                (mixed, graded, Some(universe), collapsed_len)
            }
            CollapseMode::FullUniverse => {
                let mut full = FaultList::stuck_at_full(circuit);
                let collapsed_len = full.len();
                full.extend(FaultList::stuck_open(circuit).iter().copied());
                (full.clone(), full, None, collapsed_len)
            }
        };
        let committed_len = faults.len();
        let sim = FaultSim::new(circuit, graded.clone()).with_threads(config.threads);
        let expander = ScanExpander::new(Lfsr::fibonacci(config.poly, 1), circuit.inputs().len());
        let atpg_options = AtpgOptions {
            threads: if config.atpg.threads == 0 {
                config.threads
            } else {
                config.atpg.threads
            },
            ..config.atpg
        };
        BistSession {
            circuit,
            config,
            atpg_options,
            faults,
            graded,
            committed_len,
            collapsed_len,
            mode,
            universe,
            sim,
            expander,
            simulated: 0,
            snapshots: BTreeMap::new(),
            atpg_cache: HashMap::new(),
            cube_cache: CubeCache::new(),
            stats: SessionStats::default(),
        }
    }

    /// Rebuilds the session under `mode`, discarding any incremental
    /// state already accumulated (a fresh-session builder, meant to be
    /// called right after [`BistSession::new`]).
    pub fn with_collapse(self, mode: CollapseMode) -> Self {
        Self::with_mode(self.circuit, self.config, mode)
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
    /// frontier and cache key speaks, whatever the [`CollapseMode`].
    pub fn faults(&self) -> &FaultList {
        &self.faults
    }

    /// The session's [`CollapseMode`].
    pub fn collapse_mode(&self) -> CollapseMode {
        self.mode
    }

    /// The collapsed universe the session grades through — attached in
    /// [`CollapseMode::InFlow`] only.
    pub fn collapse(&self) -> Option<&CollapsedUniverse> {
        self.universe.as_ref()
    }

    /// Work counters: patterns simulated, ATPG runs and cache hits.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Nominal silicon area of the circuit under test, mm².
    pub fn chip_area_mm2(&self) -> f64 {
        self.config.area.circuit_area_mm2(self.circuit)
    }

    /// The first `count` pseudo-random patterns of the scheme (a fresh
    /// stream; does not advance the session).
    pub fn pseudo_random_patterns(&self, count: usize) -> Vec<Pattern> {
        let lfsr = Lfsr::fibonacci(self.config.poly, 1);
        ScanExpander::new(lfsr, self.circuit.inputs().len()).patterns(count)
    }

    /// True when retaining a checkpoint snapshot at `p` is worth its copy
    /// cost: the cost of re-simulating the gap back from the nearest
    /// retained floor must exceed the cost of copying the status vector
    /// and the stuck-open carry. Both sides are counted in "elements
    /// touched", and the rule is a pure function of deterministic session
    /// state — never of timing or thread count.
    fn snapshot_pays_off(&self, p: usize, open_faults: usize) -> bool {
        let floor = self
            .snapshots
            .range(..=p)
            .next_back()
            .map(|(&q, _)| q)
            .unwrap_or(0);
        let gap = p - floor;
        // per-pattern grading cost: the good machine touches every node
        // once per 64-pattern block, and each live fault's cone walk is
        // charged a small constant of node visits
        let nodes = self.circuit.num_nodes();
        let per_pattern = 1 + (nodes + 8 * open_faults) / 64;
        let snapshot_cost = self.faults.len() + nodes;
        gap * per_pattern >= snapshot_cost
    }

    /// Fault statuses after exactly `p` prefix patterns. Requests at or
    /// beyond the incremental front advance the shared simulator (each
    /// pattern graded once); requests *below* the front resume a fallback
    /// simulator from the nearest retained snapshot, so they cost the gap
    /// — not the whole prefix. Checkpoints are snapshotted adaptively:
    /// only when the copy is cheaper than re-simulating the gap would be
    /// (`snapshot_pays_off`).
    fn statuses_at(&mut self, p: usize) -> Rc<Vec<FaultStatus>> {
        if let Some(snap) = self.snapshots.get(&p) {
            return Rc::clone(&snap.statuses);
        }
        let (statuses, carry, expander) = if p >= self.simulated {
            let chunk = self.expander.patterns(p - self.simulated);
            self.sim.simulate(&chunk);
            self.stats.patterns_simulated += chunk.len();
            self.simulated = p;
            (
                Rc::new(self.sim.statuses().to_vec()),
                self.sim.carry_bits().to_vec(),
                self.expander.clone(),
            )
        } else {
            // non-monotone request below the incremental front: resume a
            // fallback simulator from the nearest retained floor — paying
            // for the gap only, in generation as well as grading —
            // without disturbing the shared simulator
            let (floor, mut sim, mut expander) = match self.snapshots.range(..=p).next_back() {
                Some((&q, snap)) => (
                    q,
                    FaultSim::resume(
                        self.circuit,
                        self.graded.clone(),
                        &snap.statuses,
                        &snap.carry,
                        q as u32,
                    ),
                    snap.expander.clone(),
                ),
                None => (
                    0,
                    FaultSim::new(self.circuit, self.graded.clone()),
                    ScanExpander::new(
                        Lfsr::fibonacci(self.config.poly, 1),
                        self.circuit.inputs().len(),
                    ),
                ),
            };
            sim.set_threads(self.config.threads);
            let gap = expander.patterns(p - floor);
            sim.simulate(&gap);
            self.stats.patterns_resimulated += gap.len();
            (
                Rc::new(sim.statuses().to_vec()),
                sim.carry_bits().to_vec(),
                expander,
            )
        };
        // the cadence rule reads the committed universe only, so the
        // snapshot schedule (and the stats) are identical in every
        // collapse mode
        let open = statuses
            .iter()
            .take(self.committed_len)
            .filter(|s| s.is_open())
            .count();
        if self.snapshot_pays_off(p, open) {
            self.stats.snapshots_taken += 1;
            self.snapshots.insert(
                p,
                Snapshot {
                    statuses: Rc::clone(&statuses),
                    carry,
                    expander,
                },
            );
        } else {
            self.stats.snapshots_skipped += 1;
        }
        statuses
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
            TestGenerator::new(self.circuit, remaining, self.atpg_options)
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
    /// requests reuse all prior fault simulation; equal open-fault
    /// frontiers reuse the deterministic top-up.
    ///
    /// # Errors
    ///
    /// Returns [`MixedSchemeError`] when the generator cannot be built
    /// (e.g. the circuit needs no patterns at all — not reachable for real
    /// fault universes).
    pub fn solve_at(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        let statuses = self.statuses_at(p);
        // every committed boundary reads the committed prefix of the
        // graded vector — the appended projection extras never enter
        // reports, frontiers or cache keys
        let committed = &statuses[..self.committed_len];
        let prefix_coverage = CoverageReport::from_statuses(committed);

        // ATPG over the faults the prefix left open
        let frontier: Vec<usize> = committed
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_open())
            .map(|(i, _)| i)
            .collect();
        let run = self.atpg_for(&frontier);

        // merge statuses back into the full universe
        let mut merged = committed.to_vec();
        for (&orig, &status) in frontier.iter().zip(&run.statuses) {
            merged[orig] = status;
        }
        let coverage = CoverageReport::from_statuses(&merged);

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
    /// Checkpoints are processed in ascending order internally (results
    /// come back in request order), so a sweep fault-simulates each
    /// pseudo-random pattern **at most once**, however the request list
    /// is arranged.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MixedSchemeError`] encountered.
    pub fn sweep(&mut self, prefix_lengths: &[usize]) -> Result<SweepSummary, MixedSchemeError> {
        let mut ascending: Vec<usize> = prefix_lengths.to_vec();
        ascending.sort_unstable();
        ascending.dedup();
        let mut solved: BTreeMap<usize, MixedSolution> = BTreeMap::new();
        for &p in &ascending {
            solved.insert(p, self.solve_at(p)?);
        }
        let solutions = prefix_lengths
            .iter()
            .map(|&p| match solved.get(&p) {
                Some(s) => Ok(s.clone()),
                // every request was inserted above, so this arm never
                // runs; answering it by solving keeps the path total
                None => self.solve_at(p),
            })
            .collect::<Result<_, _>>()?;
        Ok(SweepSummary { solutions })
    }

    /// Effective pool width of the session's engines.
    pub fn threads(&self) -> usize {
        self.sim.threads()
    }

    /// The pure pseudo-random extreme `(p, d = 0)`: coverage of the prefix
    /// alone and the bare LFSR generator cost.
    ///
    /// # Errors
    ///
    /// Returns [`MixedSchemeError`] if `p` is zero.
    pub fn pseudo_random_solution(&mut self, p: usize) -> Result<MixedSolution, MixedSchemeError> {
        let statuses = self.statuses_at(p);
        let report = CoverageReport::from_statuses(&statuses[..self.committed_len]);
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
    /// the paper's Figure 4. Checkpoints may arrive in any order; the
    /// session snapshots make every point exact.
    pub fn random_coverage_curve(&mut self, checkpoints: &[usize]) -> CoverageCurve {
        let points = checkpoints
            .iter()
            .map(|&cp| {
                let statuses = self.statuses_at(cp);
                let report = CoverageReport::from_statuses(&statuses[..self.committed_len]);
                (cp, report.coverage_pct())
            })
            .collect();
        CoverageCurve::new(points)
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
    /// the stuck-open block. In [`CollapseMode::InFlow`] the stuck-at
    /// part is projected through the collapsed universe (each class
    /// member answers with its graded representative's status — the
    /// bit-identity `tests/collapse_identity.rs` proves); in
    /// [`CollapseMode::FullUniverse`] it is read straight off the
    /// simulator. Shares all incremental state with
    /// [`BistSession::solve_at`].
    ///
    /// # Panics
    ///
    /// Panics in [`CollapseMode::Off`], which grades the committed list
    /// only and has no universe to project into.
    pub fn full_universe_statuses_at(&mut self, p: usize) -> Vec<FaultStatus> {
        let committed_len = self.committed_len;
        let collapsed_len = self.collapsed_len;
        let statuses = self.statuses_at(p);
        match self.mode {
            CollapseMode::FullUniverse => statuses.to_vec(),
            CollapseMode::InFlow => {
                let universe = self.universe.as_ref().expect("InFlow attaches a universe");
                // representative r sits in the graded list either inside
                // the collapsed stuck-at block (same index) or among the
                // extras appended past the committed universe
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
            CollapseMode::Off => {
                panic!("full-universe projection is unavailable in CollapseMode::Off")
            }
        }
    }

    /// Coverage over the full uncollapsed universe after exactly `p`
    /// prefix patterns — [`BistSession::full_universe_statuses_at`]
    /// folded into a report.
    ///
    /// # Panics
    ///
    /// Panics in [`CollapseMode::Off`] (no universe to project into).
    pub fn full_universe_prefix_report(&mut self, p: usize) -> CoverageReport {
        CoverageReport::from_statuses(&self.full_universe_statuses_at(p))
    }
}

/// Sweeps the mixed trade-off over **many circuits at once**, one
/// independent [`BistSession`] per circuit, sharded across the pool
/// (`config.threads`, `0` = automatic). When more than one circuit rides
/// a parallel pool, each circuit's own engines run serially (one level of
/// parallelism, no oversubscription); a serial pool hands the full width
/// to every circuit in turn. Results are returned in circuit order and
/// are bit-identical to running each session by itself — the per-circuit
/// flows never interact.
///
/// # Errors
///
/// Propagates the first [`MixedSchemeError`] in circuit order.
pub fn sweep_circuits(
    circuits: &[Circuit],
    config: &MixedSchemeConfig,
    prefix_lengths: &[usize],
) -> Result<Vec<SweepSummary>, MixedSchemeError> {
    let pool = Pool::resolve(config.threads);
    let inner_threads = if pool.is_serial() || circuits.len() <= 1 {
        config.threads
    } else {
        1
    };
    pool.par_map(circuits, |circuit| {
        let mut per_circuit = config.clone();
        per_circuit.threads = inner_threads;
        let mut session = BistSession::new(circuit, per_circuit);
        session.sweep(prefix_lengths)
    })
    .into_iter()
    .collect()
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
        // re-solving any earlier point is free
        session.solve_at(100).expect("solve succeeds");
        assert_eq!(session.stats().patterns_simulated, 250);
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
    fn sweep_circuits_matches_individual_sessions() {
        let circuits = vec![
            bist_netlist::iscas85::c17(),
            bist_netlist::iscas85::circuit("c432").expect("known benchmark"),
        ];
        let prefixes = [0usize, 16, 64];
        let summaries = sweep_circuits(&circuits, &MixedSchemeConfig::default(), &prefixes)
            .expect("sweep succeeds");
        assert_eq!(summaries.len(), 2);
        for (circuit, summary) in circuits.iter().zip(&summaries) {
            let mut solo = BistSession::new(circuit, MixedSchemeConfig::default());
            let expect = solo.sweep(&prefixes).expect("sweep succeeds");
            for (a, b) in summary.solutions().iter().zip(expect.solutions()) {
                assert_eq!(a.det_len, b.det_len, "{}", circuit.name());
                assert_eq!(
                    a.generator.deterministic(),
                    b.generator.deterministic(),
                    "{}",
                    circuit.name()
                );
            }
        }
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
    fn adaptive_cadence_skips_cheap_snapshots_and_recovers() {
        // c17 checkpoints are so cheap to re-simulate that the cadence
        // should retain nothing — and fallback requests must still be
        // answered correctly from scratch
        let c17 = bist_netlist::iscas85::c17();
        let mut session = BistSession::new(&c17, MixedSchemeConfig::default());
        let a16 = session.solve_at(16).expect("solve succeeds");
        assert!(session.stats().snapshots_skipped > 0);
        let a8 = session.solve_at(8).expect("solve succeeds");

        let mut fresh = BistSession::new(&c17, MixedSchemeConfig::default());
        let b8 = fresh.solve_at(8).expect("solve succeeds");
        let b16 = fresh.solve_at(16).expect("solve succeeds");
        assert_eq!(a8.det_len, b8.det_len);
        assert_eq!(a16.det_len, b16.det_len);
        assert_eq!(a8.coverage, b8.coverage);
        assert_eq!(a16.coverage, b16.coverage);
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
        let a8 = forward.solve_at(8).expect("solve succeeds"); // below the front: fallback
        assert!(forward.stats().patterns_resimulated > 0);

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
    fn collapse_modes_commit_identical_results() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let prefixes = [0usize, 50, 120];
        let mut inflow =
            BistSession::with_mode(&c, MixedSchemeConfig::default(), CollapseMode::InFlow);
        let mut off = BistSession::with_mode(&c, MixedSchemeConfig::default(), CollapseMode::Off);
        let a = inflow.sweep(&prefixes).expect("sweep succeeds");
        let b = off.sweep(&prefixes).expect("sweep succeeds");
        for (x, y) in a.solutions().iter().zip(b.solutions()) {
            assert_eq!(x.det_len, y.det_len);
            assert_eq!(x.generator.deterministic(), y.generator.deterministic());
            assert_eq!(x.coverage, y.coverage);
            assert_eq!(x.prefix_coverage, y.prefix_coverage);
            assert_eq!(
                x.generator_area_mm2.to_bits(),
                y.generator_area_mm2.to_bits()
            );
        }
        // snapshot schedule, pattern counts, cache hits: all mode-invariant
        assert_eq!(inflow.stats(), off.stats());
        assert!(inflow.collapse().is_some());
        assert!(off.collapse().is_none());
        assert_eq!(inflow.faults().len(), off.faults().len());
    }

    #[test]
    fn projected_full_universe_matches_direct_full_grading() {
        let c = bist_netlist::iscas85::circuit("c432").expect("known benchmark");
        let config = MixedSchemeConfig::default();
        let mut inflow = BistSession::with_mode(&c, config.clone(), CollapseMode::InFlow);
        let mut full = BistSession::with_mode(&c, config, CollapseMode::FullUniverse);
        assert!(full.faults().len() > inflow.faults().len());
        for p in [0usize, 40, 90] {
            assert_eq!(
                inflow.full_universe_statuses_at(p),
                full.full_universe_statuses_at(p),
                "p={p}: projection must equal direct full-universe grading"
            );
            assert_eq!(
                inflow.full_universe_prefix_report(p),
                full.full_universe_prefix_report(p),
                "p={p}"
            );
        }
    }

    #[test]
    fn projection_survives_non_monotone_fallback() {
        let c17 = bist_netlist::iscas85::c17();
        let config = MixedSchemeConfig::default();
        let mut s = BistSession::with_mode(&c17, config.clone(), CollapseMode::InFlow);
        let late = s.full_universe_statuses_at(16);
        let early = s.full_universe_statuses_at(8); // below the front: fallback
        let mut fresh = BistSession::with_mode(&c17, config, CollapseMode::InFlow);
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
