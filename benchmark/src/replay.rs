//! Traced replays of the engine's stuck-at flows, built from public
//! calls only, with a span around each call into a layer. The replays
//! reproduce `BistSession` (collapse mode `InFlow`) step by step, so
//! their results digest identically to the engine's; they differ only
//! in keeping no checkpoint snapshots, which a monotone request list
//! never reads.

// determinism-vetted: the frontier cache is looked up by key, never
// iterated
#[allow(clippy::disallowed_types)]
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use bist_atpg::{
    podem_cube, AtpgOptions, AtpgRun, CubeCache, CubeOutcome, PodemOptions, TestGenerator,
};
use bist_core::{MixedGenerator, MixedSchemeConfig, MixedSolution, SweepSummary};
use bist_engine::{
    CurveOutcome, EstimateOutcome, FaultModel, JobResult, JobSpec, SessionStats, SolveAtOutcome,
    SweepOutcome,
};
use bist_fault::{CollapsedUniverse, Fault, FaultList, FaultStatus};
use bist_faultsim::{CoverageCurve, CoverageReport, FaultSim};
use bist_lfsr::{Lfsr, ScanExpander};
use bist_logicsim::InjectedFault;
use bist_netlist::Circuit;

use crate::trace::Trace;

/// Work counters gathered at the layer boundaries of the replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub topups: usize,
    pub atpg_calls: usize,
    pub units: usize,
    pub aborted: usize,
    pub redundant: usize,
    pub cube_hits: usize,
    pub cube_misses: usize,
    pub builds: usize,
    pub rom_patterns: usize,
    pub patterns: usize,
    pub blocks: u64,
    pub cone_events: u64,
    pub representatives: usize,
}

/// The stuck-at universe as the session grades it: the committed mixed
/// list followed by the self-representing extras of the collapsed
/// universe.
struct Universe {
    committed: FaultList,
    graded: FaultList,
}

fn universe(trace: &Trace, job: u64, circuit: &Circuit, counters: &mut Counters) -> Universe {
    let collapsed = trace.span("fault.collapse", job, || CollapsedUniverse::build(circuit));
    let committed = trace.span("fault.universe", job, || FaultList::mixed_model(circuit));
    let mut graded = committed.clone();
    graded.extend(
        collapsed
            .representatives()
            .iter()
            .skip(committed.num_stuck_at())
            .copied(),
    );
    counters.representatives += collapsed.representatives().len();
    Universe { committed, graded }
}

/// The incremental prefix grader: one simulator advanced monotonically
/// along the pseudo-random sequence.
struct Prefix<'c> {
    sim: FaultSim<'c>,
    expander: ScanExpander,
    simulated: usize,
}

impl<'c> Prefix<'c> {
    fn new(
        trace: &Trace,
        job: u64,
        circuit: &'c Circuit,
        graded: FaultList,
        config: &MixedSchemeConfig,
    ) -> Self {
        let sim = trace.span("faultsim.new", job, || {
            FaultSim::new(circuit, graded).with_threads(config.threads)
        });
        Prefix {
            sim,
            expander: ScanExpander::new(Lfsr::fibonacci(config.poly, 1), circuit.inputs().len()),
            simulated: 0,
        }
    }

    /// Statuses of the first `committed_len` faults after exactly `p`
    /// prefix patterns (`p` never below an earlier request).
    fn statuses_at(
        &mut self,
        trace: &Trace,
        job: u64,
        p: usize,
        committed_len: usize,
        counters: &mut Counters,
    ) -> Vec<FaultStatus> {
        let chunk = trace.span("lfsr.patterns", job, || {
            self.expander.patterns(p - self.simulated)
        });
        trace.span("faultsim.simulate", job, || self.sim.simulate(&chunk));
        counters.patterns += chunk.len();
        self.simulated = p;
        self.sim.statuses()[..committed_len].to_vec()
    }

    fn finish(&self, counters: &mut Counters) {
        let sim = self.sim.counters();
        counters.blocks += sim.blocks;
        counters.cone_events += sim.cone_events;
    }
}

/// Replays a sweep (or, with one point, a solve-at) on `circuit`:
/// prefix grading, ATPG top-up per open frontier with one cube cache
/// shared across points, generator synthesis and area. Solutions come
/// back in request order.
pub fn mixed(
    trace: &Trace,
    job: u64,
    circuit: &Circuit,
    config: &MixedSchemeConfig,
    points: &[usize],
    counters: &mut Counters,
) -> Result<Vec<MixedSolution>, String> {
    trace.span("replay.mixed", job, || {
        let u = universe(trace, job, circuit, counters);
        let committed_len = u.committed.len();
        let mut prefix = Prefix::new(trace, job, circuit, u.graded, config);
        let atpg_options = AtpgOptions {
            threads: if config.atpg.threads == 0 {
                config.threads
            } else {
                config.atpg.threads
            },
            ..config.atpg
        };
        let chip_area_mm2 = trace.span("core.area", job, || config.area.circuit_area_mm2(circuit));
        let mut cube_cache = CubeCache::new();
        #[allow(clippy::disallowed_types)]
        let mut topups: HashMap<Vec<usize>, Rc<AtpgRun>> = HashMap::new();
        let mut ascending = points.to_vec();
        ascending.sort_unstable();
        ascending.dedup();
        let mut solved = BTreeMap::new();
        for &p in &ascending {
            let committed = prefix.statuses_at(trace, job, p, committed_len, counters);
            let prefix_coverage = CoverageReport::from_statuses(&committed);
            let frontier: Vec<usize> = (0..committed_len)
                .filter(|&i| committed[i].is_open())
                .collect();
            let run = match topups.get(&frontier) {
                Some(run) => Rc::clone(run),
                None => {
                    let remaining: FaultList = frontier
                        .iter()
                        .filter_map(|&i| u.committed.get(i).copied())
                        .collect();
                    let run = trace.span("atpg.topup", job, || {
                        TestGenerator::new(circuit, remaining, atpg_options)
                            .run_with_cache(&mut cube_cache)
                    });
                    counters.topups += 1;
                    counters.atpg_calls += run.atpg_calls;
                    counters.units += run.units.len();
                    counters.aborted += run.report.aborted;
                    counters.redundant += run.report.redundant;
                    let run = Rc::new(run);
                    topups.insert(frontier.clone(), Rc::clone(&run));
                    run
                }
            };
            let mut merged = committed;
            for (&i, &status) in frontier.iter().zip(&run.statuses) {
                merged[i] = status;
            }
            let det = run.sequence();
            let generator = trace
                .span("core.generator_build", job, || {
                    MixedGenerator::build(circuit.inputs().len(), config.poly, p, &det)
                })
                .map_err(|e| format!("{} p={p}: {e}", circuit.name()))?;
            counters.builds += 1;
            counters.rom_patterns += det.len();
            let generator_area_mm2 =
                trace.span("core.area", job, || generator.area_mm2(&config.area));
            solved.insert(
                p,
                MixedSolution {
                    prefix_len: p,
                    det_len: det.len(),
                    coverage: CoverageReport::from_statuses(&merged),
                    prefix_coverage,
                    generator_area_mm2,
                    chip_area_mm2,
                    generator,
                },
            );
        }
        prefix.finish(counters);
        counters.cube_hits += cube_cache.hits();
        counters.cube_misses += cube_cache.misses();
        Ok(points.iter().map(|p| solved[p].clone()).collect())
    })
}

/// Replays a coverage curve: the pure pseudo-random sequence graded up
/// to each checkpoint. Returns `(fault universe, points in request
/// order)`.
pub fn curve(
    trace: &Trace,
    job: u64,
    circuit: &Circuit,
    config: &MixedSchemeConfig,
    checkpoints: &[usize],
    counters: &mut Counters,
) -> (usize, Vec<(usize, f64)>) {
    trace.span("replay.curve", job, || {
        let u = universe(trace, job, circuit, counters);
        let committed_len = u.committed.len();
        let mut prefix = Prefix::new(trace, job, circuit, u.graded, config);
        let mut ascending = checkpoints.to_vec();
        ascending.sort_unstable();
        ascending.dedup();
        let mut at = BTreeMap::new();
        for &cp in &ascending {
            let statuses = prefix.statuses_at(trace, job, cp, committed_len, counters);
            at.insert(cp, CoverageReport::from_statuses(&statuses).coverage_pct());
        }
        prefix.finish(counters);
        (
            committed_len,
            checkpoints.iter().map(|cp| (*cp, at[cp])).collect(),
        )
    })
}

/// Runs a sampled coverage estimate inside one span (the sampling pass
/// is a single library call).
pub fn estimate(
    trace: &Trace,
    job: u64,
    circuit: &Circuit,
    spec: &bist_engine::EstimateSpec,
) -> EstimateOutcome {
    let e = trace.span("replay.estimate", job, || {
        trace.span("faultsim.estimate", job, || {
            bist_faultmodel::estimate_coverage(
                circuit,
                &spec.config,
                spec.prefix_len,
                spec.samples,
                spec.confidence,
                spec.seed,
            )
        })
    });
    EstimateOutcome {
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
    }
}

/// Replays one stuck-at sweep, solve-at, curve or estimate spec at the
/// pool width its configuration names. Session counters are not
/// replayed (they stay zero).
pub fn spec(
    trace: &Trace,
    job: u64,
    spec: &JobSpec,
    counters: &mut Counters,
) -> Result<JobResult, String> {
    if spec.fault_model() != FaultModel::StuckAt {
        return Err(format!("no replay for {} faults", spec.fault_model()));
    }
    let circuit = trace
        .span("netlist.realize", job, || spec.circuit().realize())
        .map_err(|e| e.to_string())?;
    let name = circuit.name().to_owned();
    Ok(match spec {
        JobSpec::Sweep(s) => JobResult::Sweep(SweepOutcome {
            circuit: name,
            summary: SweepSummary::from_solutions(mixed(
                trace,
                job,
                &circuit,
                &s.config,
                &s.prefix_lengths,
                counters,
            )?),
            stats: SessionStats::default(),
        }),
        JobSpec::SolveAt(s) => JobResult::SolveAt(SolveAtOutcome {
            circuit: name,
            solution: mixed(trace, job, &circuit, &s.config, &[s.prefix_len], counters)?.remove(0),
            stats: SessionStats::default(),
        }),
        JobSpec::CoverageCurve(s) => {
            let (fault_universe, points) =
                curve(trace, job, &circuit, &s.config, &s.checkpoints, counters);
            JobResult::CoverageCurve(CurveOutcome {
                circuit: name,
                curve: CoverageCurve::new(points),
                fault_universe,
            })
        }
        JobSpec::CoverageEstimate(s) => {
            JobResult::CoverageEstimate(estimate(trace, job, &circuit, s))
        }
        other => return Err(format!("no replay for {} jobs", other.kind())),
    })
}

/// PODEM on every stuck-at representative at the default budget, one
/// target at a time, with no fault dropping: what each outcome costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub test_s: f64,
    pub redundant_s: f64,
    pub aborted_s: f64,
    pub tests: usize,
    pub redundants: usize,
    pub aborts: usize,
}

impl Probe {
    pub fn useful_ratio(&self) -> f64 {
        let all = self.tests + self.redundants + self.aborts;
        if all == 0 {
            0.0
        } else {
            (self.tests + self.redundants) as f64 / all as f64
        }
    }
}

pub fn probe(trace: &Trace, job: u64, circuit: &Circuit) -> Probe {
    trace.span("replay.probe", job, || {
        let universe = trace.span("fault.collapse", job, || CollapsedUniverse::build(circuit));
        let mut probe = Probe::default();
        for fault in universe.representatives().iter() {
            let Fault::StuckAt { site, pin, value } = *fault else {
                continue;
            };
            let target = InjectedFault {
                site,
                pin,
                stuck: value,
            };
            let start = trace.now();
            let outcome = trace.span("atpg.podem", job, || {
                podem_cube(circuit, target, PodemOptions::default())
            });
            let spent = trace.now() - start;
            match outcome {
                CubeOutcome::Test { .. } => {
                    probe.tests += 1;
                    probe.test_s += spent;
                }
                CubeOutcome::Redundant => {
                    probe.redundants += 1;
                    probe.redundant_s += spent;
                }
                CubeOutcome::Aborted => {
                    probe.aborts += 1;
                    probe.aborted_s += spent;
                }
            }
        }
        probe
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::results_digest;
    use bist_engine::{CircuitSource, Engine, JobResult, JobSpec, SweepOutcome};

    #[test]
    fn mixed_replay_digests_like_the_engine_on_c432() {
        let points = [0, 64, 256];
        let circuit = bist_netlist::iscas85::circuit("c432").expect("c432");
        let engine = Engine::with_threads(2)
            .run(JobSpec::sweep(CircuitSource::iscas85("c432"), points))
            .expect("engine sweep");
        let trace = Trace::new();
        let mut counters = Counters::default();
        let config = MixedSchemeConfig {
            threads: 2,
            ..MixedSchemeConfig::default()
        };
        let solutions =
            mixed(&trace, 1, &circuit, &config, &points, &mut counters).expect("replay");
        let stats = engine.as_sweep().expect("sweep").stats;
        let replayed = JobResult::Sweep(SweepOutcome {
            circuit: circuit.name().to_owned(),
            summary: bist_core::SweepSummary::from_solutions(solutions),
            stats,
        });
        assert_eq!(results_digest([&engine]), results_digest([&replayed]));
        assert_eq!(counters.topups, stats.atpg_runs);
        assert_eq!(counters.patterns, stats.patterns_simulated);
        assert_eq!(counters.builds, points.len());
    }

    #[test]
    fn curve_replay_matches_the_engine_and_probe_classifies_every_target() {
        let circuit = bist_netlist::iscas85::c17();
        let engine = Engine::with_threads(1)
            .run(JobSpec::coverage_curve(
                CircuitSource::iscas85("c17"),
                [16, 4],
            ))
            .expect("engine curve");
        let trace = Trace::new();
        let mut counters = Counters::default();
        let (universe, points) = curve(
            &trace,
            1,
            &circuit,
            &MixedSchemeConfig::default(),
            &[16, 4],
            &mut counters,
        );
        let served = engine.as_coverage_curve().expect("curve");
        assert_eq!(universe, served.fault_universe);
        assert_eq!(points, served.curve.points());
        let probe = probe(&trace, 2, &circuit);
        assert_eq!(
            probe.tests + probe.redundants + probe.aborts,
            counters.representatives
        );
        assert_eq!(probe.useful_ratio(), 1.0, "c17 has no hard faults");
    }
}
