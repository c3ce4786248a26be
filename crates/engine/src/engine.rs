//! The job scheduler and per-job drivers.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bist_baselines::{bakeoff, BakeoffConfig};
use bist_core::{solve_ascending, BistSession, MixedGenerator, SweepSummary};
use bist_faultmodel::{estimate_coverage, ModelSession};
use bist_faultsim::{CoverageCurve, CoverageReport};
use bist_hdl::{emit_verilog, emit_verilog_testbench, emit_vhdl, lint, HdlOptions};
use bist_lint::{LintOptions, LintReport};
use bist_logicsim::{Pattern, SeqSim};
use bist_netlist::{bench, Circuit};
use bist_par::Pool;

use crate::cache::{job_digest, ResultCache};
use crate::error::BistError;
use crate::progress::{CancelToken, JobId, ProgressEvent};
use crate::result::{
    AreaReportOutcome, BakeoffOutcome, CurveOutcome, EstimateOutcome, HdlOutcome, JobResult,
    LintOutcome, SolveAtOutcome, SweepOutcome,
};
use crate::spec::{
    AreaReportSpec, BakeoffSpec, CircuitSource, CoverageCurveSpec, EmitHdlSpec, EstimateSpec,
    HdlLanguage, JobSpec, LintSpec, SolveAtSpec, SweepSpec, DEFAULT_ESTIMATE_CONFIDENCE,
    DEFAULT_ESTIMATE_SAMPLES, DEFAULT_ESTIMATE_SEED,
};

/// Where a job's [`ProgressEvent`]s go: a callback run on the job's
/// thread.
type Sink<'a> = dyn Fn(ProgressEvent) + Sync + 'a;

/// The single public face of the workspace: validates [`JobSpec`]s,
/// schedules them across the `bist-par` pool, streams [`ProgressEvent`]s
/// and returns typed [`JobResult`]s.
///
/// One engine serves any number of jobs, each on the thread that asks
/// for it: [`Engine::run`] runs one job and [`Engine::run_batch`] shards
/// a batch across the pool, and their `_with` forms add a
/// [`CancelToken`] and a sink that receives the job's events as they
/// happen. Results are bit-identical at every pool width and to driving
/// [`BistSession`] by hand — the engine adds scheduling, validation,
/// progress and cancellation, never different numbers.
///
/// Cloning an engine is cheap and yields a second handle on the *same*
/// engine: the clones share the pool width, the result cache (and its
/// counters) and the job-id counter.
///
/// # Example
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec};
///
/// let engine = Engine::new();
/// let result = engine.run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]))?;
/// let sweep = result.as_sweep().expect("sweep jobs yield sweep outcomes");
/// assert_eq!(sweep.summary.solutions().len(), 2);
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

#[derive(Debug, Default)]
struct EngineInner {
    /// Pool width for batch sharding and the per-job engines (`0` =
    /// automatic: `BIST_THREADS` or the machine width).
    threads: usize,
    next_job: AtomicU64,
    cache: Option<ResultCache>,
}

impl Clone for EngineInner {
    fn clone(&self) -> Self {
        EngineInner {
            threads: self.threads,
            next_job: AtomicU64::new(self.next_job.load(Ordering::SeqCst)),
            cache: self.cache.clone(),
        }
    }
}

impl Engine {
    /// An engine with the automatic pool width (`BIST_THREADS` or the
    /// machine width).
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine pinned to a pool width (`1` = fully serial).
    pub fn with_threads(threads: usize) -> Self {
        Engine {
            inner: Arc::new(EngineInner {
                threads,
                ..EngineInner::default()
            }),
        }
    }

    /// The effective pool width jobs will run at.
    pub fn threads(&self) -> usize {
        Pool::resolve(self.inner.threads).threads()
    }

    /// Attaches a content-addressed result cache: jobs whose digest
    /// (realized circuit + configuration + budgets, see
    /// [`crate::cache::job_digest`]) matches a stored entry are answered
    /// from disk — bit-identically, at any pool width — and freshly
    /// computed results are stored for the next run.
    ///
    /// Engines have no cache unless one is attached; the `bist` CLI
    /// resolves `--cache-dir` / `BIST_CACHE_DIR` and attaches it here.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use bist_engine::{Engine, ResultCache};
    ///
    /// let engine = Engine::new().with_result_cache(ResultCache::at("/var/cache/bist"));
    /// assert!(engine.cache().is_some());
    /// ```
    #[must_use]
    pub fn with_result_cache(mut self, cache: ResultCache) -> Self {
        Arc::make_mut(&mut self.inner).cache = Some(cache);
        self
    }

    /// The attached result cache, if any (its counters report this
    /// engine's hits/misses/stores).
    pub fn cache(&self) -> Option<&ResultCache> {
        self.inner.cache.as_ref()
    }

    fn next_id(&self) -> JobId {
        JobId(self.inner.next_job.fetch_add(1, Ordering::SeqCst))
    }

    /// Runs one job to completion on the caller's thread.
    ///
    /// No thread is started: the job's pool workers are the only threads
    /// it spawns. Back-to-back jobs therefore reuse the caller's
    /// allocator state, where a fresh thread per job leaves fragmented
    /// allocator arenas behind and ratchets the process's resident memory
    /// up from job to job. [`Engine::run_with`] adds a progress sink and
    /// a cancellation token.
    ///
    /// # Examples
    ///
    /// ```
    /// use bist_engine::{CircuitSource, Engine, JobSpec};
    ///
    /// let engine = Engine::new();
    /// let result = engine.run(JobSpec::solve_at(CircuitSource::iscas85("c17"), 8))?;
    /// let solved = result.as_solve_at().expect("solve-at outcome");
    /// println!("{}", solved.solution); // "(p=8, d=…): coverage …"
    /// # Ok::<(), bist_engine::BistError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Any [`BistError`]: spec validation, circuit realization, the flow
    /// itself.
    ///
    /// # Panics
    ///
    /// A panic inside the job unwinds to the caller. (A batch member that
    /// panics instead answers [`BistError::Canceled`].)
    pub fn run(&self, spec: JobSpec) -> Result<JobResult, BistError> {
        self.run_with(spec, &CancelToken::new(), &|_| {})
    }

    /// [`Engine::run`] with a cancellation token and a progress sink.
    ///
    /// `events` receives the job's [`ProgressEvent`]s on this thread as
    /// they happen: `Queued`, `Started`, any `Estimate`, `Pass` and
    /// `Checkpoint`s, then one of `Finished`, `Failed` or `Canceled`. The
    /// job observes `cancel` between checkpoints and returns
    /// [`BistError::Canceled`]; the sink itself may cancel it.
    ///
    /// # Examples
    ///
    /// ```
    /// use bist_engine::{CancelToken, CircuitSource, Engine, JobSpec, ProgressEvent};
    ///
    /// let engine = Engine::new();
    /// let spec = JobSpec::solve_at(CircuitSource::iscas85("c17"), 8);
    /// let result = engine.run_with(spec, &CancelToken::new(), &|event| {
    ///     if let ProgressEvent::Checkpoint { coverage_pct, .. } = event {
    ///         eprintln!("coverage so far {coverage_pct:.1} %");
    ///     }
    /// })?;
    /// assert!(result.as_solve_at().is_some());
    /// # Ok::<(), bist_engine::BistError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Engine::run`], plus [`BistError::Canceled`].
    ///
    /// # Panics
    ///
    /// As [`Engine::run`].
    pub fn run_with(
        &self,
        spec: JobSpec,
        cancel: &CancelToken,
        events: &(dyn Fn(ProgressEvent) + Sync),
    ) -> Result<JobResult, BistError> {
        let (id, spec) = self.enqueue(spec, self.inner.threads, events);
        self.execute(id, &spec, cancel, events)
    }

    /// Runs a batch of jobs sharded across the pool. Returns one result
    /// per spec, in spec order.
    ///
    /// With a parallel pool and more than one job, each job's own
    /// engines run serially (one level of parallelism, no
    /// oversubscription) — results are bit-identical either way.
    pub fn run_batch(&self, specs: Vec<JobSpec>) -> Vec<Result<JobResult, BistError>> {
        self.run_batch_with(specs, &CancelToken::new(), &|_| {})
    }

    /// [`Engine::run_batch`] with a shared cancellation token and one
    /// progress sink for every member.
    ///
    /// Every member's `Queued` event comes before any `Started`; after
    /// that, members running on different pool workers call `events`
    /// concurrently, and [`ProgressEvent::job`] tells them apart.
    /// Cancelling the token stops every member still running at its next
    /// checkpoint. A member that panics answers [`BistError::Canceled`]
    /// while the others finish.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Mutex;
    /// use bist_engine::{CancelToken, CircuitSource, Engine, JobSpec, ProgressEvent};
    ///
    /// let engine = Engine::new();
    /// let specs = vec![
    ///     JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8]),
    ///     JobSpec::lint(CircuitSource::iscas85("c17")),
    /// ];
    /// let seen = Mutex::new(Vec::new());
    /// let results = engine.run_batch_with(specs, &CancelToken::new(), &|event| {
    ///     seen.lock().unwrap().push(event);
    /// });
    /// assert!(results.iter().all(Result::is_ok));
    /// let seen = seen.into_inner().unwrap();
    /// let finished = seen
    ///     .iter()
    ///     .filter(|e| matches!(e, ProgressEvent::Finished { .. }))
    ///     .count();
    /// assert_eq!(finished, 2);
    /// ```
    pub fn run_batch_with(
        &self,
        specs: Vec<JobSpec>,
        cancel: &CancelToken,
        events: &(dyn Fn(ProgressEvent) + Sync),
    ) -> Vec<Result<JobResult, BistError>> {
        let pool = Pool::resolve(self.inner.threads);
        let threads = if pool.is_serial() || specs.len() <= 1 {
            self.inner.threads
        } else {
            1
        };
        let work: Vec<(JobId, JobSpec)> = specs
            .into_iter()
            .map(|spec| self.enqueue(spec, threads, events))
            .collect();
        pool.par_map(&work, |(id, spec)| {
            panic::catch_unwind(AssertUnwindSafe(|| self.execute(*id, spec, cancel, events)))
                .unwrap_or(Err(BistError::Canceled))
        })
    }

    /// Numbers a job, pins its pool width when the spec leaves it
    /// automatic, and announces it with [`ProgressEvent::Queued`].
    fn enqueue(&self, mut spec: JobSpec, threads: usize, events: &Sink<'_>) -> (JobId, JobSpec) {
        if spec.config().threads == 0 {
            spec.set_threads(threads);
        }
        let id = self.next_id();
        let label = format!("{} {}", spec.kind(), spec.circuit().label());
        events(ProgressEvent::Queued { job: id, label });
        (id, spec)
    }

    /// Validates, realizes and drives one job, bracketing it with
    /// lifecycle events.
    fn execute(
        &self,
        id: JobId,
        spec: &JobSpec,
        cancel: &CancelToken,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        events(ProgressEvent::Started { job: id });
        match self.drive(id, spec, cancel, events) {
            Ok((result, cache_hit)) => {
                events(ProgressEvent::Finished { job: id, cache_hit });
                Ok(result)
            }
            Err(e) => {
                events(match &e {
                    BistError::Canceled => ProgressEvent::Canceled { job: id },
                    e => ProgressEvent::Failed {
                        job: id,
                        message: e.to_string(),
                    },
                });
                Err(e)
            }
        }
    }

    fn drive(
        &self,
        id: JobId,
        spec: &JobSpec,
        cancel: &CancelToken,
        events: &Sink<'_>,
    ) -> Result<(JobResult, bool), BistError> {
        spec.validate()?;
        if cancel.is_canceled() {
            return Err(BistError::Canceled);
        }
        // lint's contract is to *report* netlist defects, not fail on
        // them: a `.bench` source that doesn't parse becomes a
        // one-diagnostic report. (Uncached — the cache key requires a
        // realized circuit, and a defective source has none.)
        if let (JobSpec::Lint(_), CircuitSource::Bench { name, text }) = (spec, spec.circuit()) {
            if let Err(diagnostic) = bist_lint::parse_pass(name, text) {
                events(ProgressEvent::Pass {
                    job: id,
                    name: "parse".to_owned(),
                });
                return Ok((
                    JobResult::Lint(LintOutcome {
                        circuit: name.clone(),
                        report: LintReport {
                            diagnostics: vec![diagnostic],
                            scoap: None,
                        },
                    }),
                    false,
                ));
            }
        }
        let circuit = spec.circuit().realize()?;
        // content-addressed short-circuit: a digest hit answers the job
        // from disk, bit-identically, without touching a session (a
        // cached job emits no Checkpoint events — only its lifecycle)
        let key = self
            .inner
            .cache
            .as_ref()
            .map(|cache| (cache, job_digest(&circuit, spec)));
        if let Some((cache, key)) = &key {
            if let Some(hit) = cache.lookup(key) {
                return Ok((hit, true));
            }
        }
        let result = match spec {
            JobSpec::SolveAt(s) => self.drive_solve_at(id, s, &circuit, events),
            JobSpec::Sweep(s) => self.drive_sweep(id, s, &circuit, cancel, events),
            JobSpec::CoverageCurve(s) => self.drive_curve(id, s, &circuit, cancel, events),
            JobSpec::Bakeoff(s) => self.drive_bakeoff(s, &circuit),
            JobSpec::EmitHdl(s) => self.drive_emit_hdl(id, s, &circuit, events),
            JobSpec::AreaReport(s) => self.drive_area_report(id, s, &circuit, events),
            JobSpec::Lint(s) => self.drive_lint(id, s, &circuit, cancel, events),
            JobSpec::CoverageEstimate(s) => self.drive_estimate(id, s, &circuit, events),
        };
        if let (Some((cache, key)), Ok(result)) = (&key, &result) {
            cache.store(key, result);
        }
        result.map(|result| (result, false))
    }

    fn checkpoint(&self, events: &Sink<'_>, id: JobId, prefix_len: usize, report: &CoverageReport) {
        events(ProgressEvent::Checkpoint {
            job: id,
            prefix_len,
            coverage_pct: report.coverage_pct(),
        });
    }

    /// The estimate-first preview: a sampled Wilson-interval coverage
    /// estimate at `prefix_len`, pushed before the exact run produces
    /// anything. Runs only on a cold cache (`drive`'s digest lookup
    /// short-circuits first), uses the default sample budget, and never
    /// touches the job's outcome.
    fn estimate_preview(
        &self,
        events: &Sink<'_>,
        id: JobId,
        s_config: &bist_core::MixedSchemeConfig,
        circuit: &Circuit,
        prefix_len: usize,
    ) {
        let e = estimate_coverage(
            circuit,
            s_config,
            prefix_len,
            DEFAULT_ESTIMATE_SAMPLES,
            DEFAULT_ESTIMATE_CONFIDENCE,
            DEFAULT_ESTIMATE_SEED,
        );
        events(ProgressEvent::Estimate {
            job: id,
            prefix_len,
            samples: e.samples,
            estimate_pct: e.estimate_pct,
            lo_pct: e.lo_pct,
            hi_pct: e.hi_pct,
            confidence: e.confidence,
        });
    }

    // Single-point jobs (solve-at, emit-hdl, area-report) have no
    // internal checkpoint, so their only cancellation boundary is the
    // one before work starts (in `drive`): once the point is solved the
    // finished result is returned rather than discarded as canceled.

    fn drive_solve_at(
        &self,
        id: JobId,
        s: &SolveAtSpec,
        circuit: &Circuit,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        if s.estimate_first {
            self.estimate_preview(events, id, &s.config, circuit, s.prefix_len);
        }
        let mut session = ModelSession::new(circuit, s.config.clone(), s.fault_model);
        let solution = session.solve_at(s.prefix_len)?;
        self.checkpoint(events, id, s.prefix_len, &solution.coverage);
        Ok(JobResult::SolveAt(SolveAtOutcome {
            circuit: circuit.name().to_owned(),
            solution,
            stats: session.stats(),
        }))
    }

    fn drive_sweep(
        &self,
        id: JobId,
        s: &SweepSpec,
        circuit: &Circuit,
        cancel: &CancelToken,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        if s.estimate_first {
            // preview the sweep's longest prefix — the point the exact
            // run will take longest to confirm
            let longest = s.prefix_lengths.iter().copied().max().unwrap_or(0);
            self.estimate_preview(events, id, &s.config, circuit, longest);
        }
        let mut session = ModelSession::new(circuit, s.config.clone(), s.fault_model);
        // the ascending rule keeps each pseudo-random pattern graded at
        // most once, and each point leaves a cancellation/progress
        // boundary; results are bit-identical to `ModelSession::sweep`
        let solutions = solve_ascending(&s.prefix_lengths, |p| {
            if cancel.is_canceled() {
                return Err(BistError::Canceled);
            }
            let solution = session.solve_at(p)?;
            self.checkpoint(events, id, p, &solution.coverage);
            Ok(solution)
        })?;
        Ok(JobResult::Sweep(SweepOutcome {
            circuit: circuit.name().to_owned(),
            summary: SweepSummary::from_solutions(solutions),
            stats: session.stats(),
        }))
    }

    fn drive_curve(
        &self,
        id: JobId,
        s: &CoverageCurveSpec,
        circuit: &Circuit,
        cancel: &CancelToken,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        let mut session = ModelSession::new(circuit, s.config.clone(), s.fault_model);
        let universe = session.universe_len();
        let coverage = solve_ascending(&s.checkpoints, |cp| {
            if cancel.is_canceled() {
                return Err(BistError::Canceled);
            }
            let pct = session.random_coverage_curve(&[cp]).points()[0].1;
            events(ProgressEvent::Checkpoint {
                job: id,
                prefix_len: cp,
                coverage_pct: pct,
            });
            Ok(pct)
        })?;
        Ok(JobResult::CoverageCurve(CurveOutcome {
            circuit: circuit.name().to_owned(),
            curve: CoverageCurve::new(s.checkpoints.iter().copied().zip(coverage).collect()),
            fault_universe: universe,
        }))
    }

    fn drive_bakeoff(&self, s: &BakeoffSpec, circuit: &Circuit) -> Result<JobResult, BistError> {
        // one indivisible kernel: no internal checkpoint to cancel at
        let config = BakeoffConfig {
            random_length: s.random_length,
            model: s.config.area.clone(),
            threads: s.config.threads,
        };
        Ok(JobResult::Bakeoff(BakeoffOutcome {
            circuit: circuit.name().to_owned(),
            bakeoff: bakeoff(circuit, &config),
        }))
    }

    fn drive_emit_hdl(
        &self,
        id: JobId,
        s: &EmitHdlSpec,
        circuit: &Circuit,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        let mut session = BistSession::new(circuit, s.config.clone());
        let solution = session.solve_at(s.prefix_len)?;
        self.checkpoint(events, id, s.prefix_len, &solution.coverage);

        let module = s
            .module_name
            .clone()
            .unwrap_or_else(|| format!("{}_bist", circuit.name()));
        let generator = &solution.generator;
        let netlist = generator.netlist();
        let mut options = HdlOptions::default().with_module_name(module.clone());
        for (ff, value) in generator.reset_states() {
            options = options.with_reset_value(ff, value);
        }

        let verilog = match s.language {
            HdlLanguage::Verilog | HdlLanguage::Both => {
                let text = emit_verilog(netlist, &options);
                lint::check_verilog(&text)?;
                Some(text)
            }
            HdlLanguage::Vhdl => None,
        };
        let vhdl = match s.language {
            HdlLanguage::Vhdl | HdlLanguage::Both => {
                let text = emit_vhdl(netlist, &options);
                lint::check_vhdl(&text)?;
                Some(text)
            }
            HdlLanguage::Verilog => None,
        };
        let testbench = if s.testbench {
            let expected = cycle_trace(generator);
            let text = emit_verilog_testbench(netlist, &options, &expected);
            lint::check_verilog(&text)?;
            Some(text)
        } else {
            None
        };

        Ok(JobResult::EmitHdl(HdlOutcome {
            circuit: circuit.name().to_owned(),
            module,
            solution,
            verilog,
            vhdl,
            testbench,
        }))
    }

    fn analysis_pass(&self, events: &Sink<'_>, id: JobId, name: &str) {
        events(ProgressEvent::Pass {
            job: id,
            name: name.to_owned(),
        });
    }

    fn drive_lint(
        &self,
        id: JobId,
        s: &LintSpec,
        circuit: &Circuit,
        cancel: &CancelToken,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        let options = LintOptions::default();
        // parse pass: recover the source map so diagnostics carry line
        // spans — against the user's own text for Bench sources, against
        // the canonical `.bench` serialization for everything else
        self.analysis_pass(events, id, "parse");
        let map = match &s.circuit {
            CircuitSource::Bench { name, text } => {
                bist_lint::parse_pass(name, text).ok().map(|(_, m)| m)
            }
            _ => {
                let text = bench::write(circuit);
                bist_lint::parse_pass(circuit.name(), &text)
                    .ok()
                    .map(|(_, m)| m)
            }
        };
        if cancel.is_canceled() {
            return Err(BistError::Canceled);
        }
        self.analysis_pass(events, id, "structural");
        let mut diagnostics = bist_lint::structural_pass(circuit, map.as_ref(), &options);
        if cancel.is_canceled() {
            return Err(BistError::Canceled);
        }
        self.analysis_pass(events, id, "scoap");
        let (scoap_diags, summary) = bist_lint::scoap_pass(circuit, map.as_ref(), &options);
        diagnostics.extend(scoap_diags);
        Ok(JobResult::Lint(LintOutcome {
            circuit: circuit.name().to_owned(),
            report: LintReport {
                diagnostics,
                scoap: Some(summary),
            }
            .normalize(),
        }))
    }

    fn drive_estimate(
        &self,
        id: JobId,
        s: &EstimateSpec,
        circuit: &Circuit,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        // one indivisible sampled grading pass: like solve-at, the only
        // cancellation boundary is the one before work starts
        let e = estimate_coverage(
            circuit,
            &s.config,
            s.prefix_len,
            s.samples,
            s.confidence,
            s.seed,
        );
        events(ProgressEvent::Checkpoint {
            job: id,
            prefix_len: s.prefix_len,
            coverage_pct: e.estimate_pct,
        });
        Ok(JobResult::CoverageEstimate(EstimateOutcome {
            circuit: circuit.name().to_owned(),
            fault_universe: e.fault_universe,
            representatives: e.representatives,
            prefix_len: e.prefix_len,
            samples: e.samples,
            detected_samples: e.detected_samples,
            estimate_pct: e.estimate_pct,
            lo_pct: e.lo_pct,
            hi_pct: e.hi_pct,
            confidence: e.confidence,
            seed: e.seed,
        }))
    }

    fn drive_area_report(
        &self,
        id: JobId,
        s: &AreaReportSpec,
        circuit: &Circuit,
        events: &Sink<'_>,
    ) -> Result<JobResult, BistError> {
        let mut session = BistSession::new(circuit, s.config.clone());
        let solution = session.solve_at(0)?;
        self.checkpoint(events, id, 0, &solution.coverage);
        Ok(JobResult::AreaReport(AreaReportOutcome {
            circuit: circuit.name().to_owned(),
            inputs: circuit.inputs().len(),
            det_len: solution.det_len,
            chip_mm2: solution.chip_area_mm2,
            generator_mm2: solution.generator_area_mm2,
            overhead_pct: solution.overhead_pct(),
            coverage_pct: solution.coverage.coverage_pct(),
        }))
    }
}

/// The generator's primary outputs sampled every clock from the reset
/// state — exactly what the self-checking testbench compares against.
fn cycle_trace(generator: &MixedGenerator) -> Vec<Pattern> {
    let netlist = generator.netlist();
    let width = bist_core::MixedGenerator::width(generator);
    let mut sim = SeqSim::new(netlist);
    for (ff, value) in generator.reset_states() {
        sim.set_state(ff, value);
    }
    let outputs: Vec<_> = netlist.outputs().to_vec();
    let sample = |sim: &SeqSim<'_>| Pattern::from_fn(width, |b| sim.state(outputs[b]));
    let cycles = generator.prefix_len() * width + generator.deterministic().len();
    let mut trace = Vec::with_capacity(cycles + 1);
    trace.push(sample(&sim));
    for _ in 0..cycles {
        sim.step(&[false]);
        trace.push(sample(&sim));
    }
    trace
}
