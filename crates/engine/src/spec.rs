//! Typed job requests.
//!
//! Every workload the workspace supports is one [`JobSpec`] variant — a
//! plain struct naming a circuit source, a [`MixedSchemeConfig`] and the
//! variant's budgets. Specs are inert data: nothing is parsed, validated
//! or simulated until an [`Engine`](crate::Engine) runs them, and every
//! defect surfaces as a typed [`BistError`] instead of a panic.

use bist_core::MixedSchemeConfig;
use bist_faultmodel::FaultModel;
use bist_netlist::{bench, iscas85, iscas89, Circuit};

use crate::error::BistError;

/// Where a job's circuit under test comes from.
///
/// Sources are realized lazily by the engine; a bad source fails the job
/// with a located [`BistError::Parse`] or [`BistError::UnknownCircuit`],
/// never a panic.
// `Inline(Circuit)` dominates the enum size (a `Circuit` header is a few
// hundred bytes), but specs are built once per job and moved a constant
// number of times — indirection would cost an allocation per spec clone
// for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum CircuitSource {
    /// An ISCAS-85 benchmark by name (`"c17"` … `"c7552"`).
    Iscas85 {
        /// Benchmark name.
        name: String,
    },
    /// An ISCAS-89 sequential benchmark by name (`"s27"` … `"s5378"`).
    Iscas89 {
        /// Benchmark name.
        name: String,
    },
    /// `.bench` source text, parsed on realization.
    Bench {
        /// Label used for the circuit and in error messages.
        name: String,
        /// The `.bench` netlist text.
        text: String,
    },
    /// An already-built circuit.
    Inline(Circuit),
}

impl CircuitSource {
    /// Convenience constructor for [`CircuitSource::Iscas85`].
    pub fn iscas85(name: impl Into<String>) -> Self {
        CircuitSource::Iscas85 { name: name.into() }
    }

    /// Convenience constructor for [`CircuitSource::Iscas89`].
    pub fn iscas89(name: impl Into<String>) -> Self {
        CircuitSource::Iscas89 { name: name.into() }
    }

    /// Convenience constructor for [`CircuitSource::Bench`].
    pub fn bench(name: impl Into<String>, text: impl Into<String>) -> Self {
        CircuitSource::Bench {
            name: name.into(),
            text: text.into(),
        }
    }

    /// The label used in progress events and error messages.
    pub fn label(&self) -> &str {
        match self {
            CircuitSource::Iscas85 { name }
            | CircuitSource::Iscas89 { name }
            | CircuitSource::Bench { name, .. } => name,
            CircuitSource::Inline(c) => c.name(),
        }
    }

    /// Produces the circuit under test.
    ///
    /// # Errors
    ///
    /// [`BistError::UnknownCircuit`] for unknown benchmark names and
    /// [`BistError::Parse`] (source-located) for malformed `.bench` text.
    pub fn realize(&self) -> Result<Circuit, BistError> {
        match self {
            CircuitSource::Iscas85 { name } => {
                iscas85::circuit(name).ok_or_else(|| BistError::UnknownCircuit {
                    family: "iscas85",
                    name: name.clone(),
                })
            }
            CircuitSource::Iscas89 { name } => {
                iscas89::circuit(name).ok_or_else(|| BistError::UnknownCircuit {
                    family: "iscas89",
                    name: name.clone(),
                })
            }
            CircuitSource::Bench { name, text } => {
                bench::parse(name, text).map_err(|e| BistError::from_parse(name, e))
            }
            CircuitSource::Inline(c) => Ok(c.clone()),
        }
    }
}

/// Which HDL artefacts an [`EmitHdlSpec`] job produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HdlLanguage {
    /// Structural Verilog only.
    Verilog,
    /// Structural VHDL only.
    Vhdl,
    /// Both languages (the `bist emit-hdl` default).
    #[default]
    Both,
}

/// Solve the mixed scheme at one prefix length `p`.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec, SolveAtSpec};
///
/// let spec = SolveAtSpec {
///     circuit: CircuitSource::iscas85("c17"),
///     config: Default::default(),
///     prefix_len: 4,
///     fault_model: Default::default(),
///     estimate_first: false,
/// };
/// let result = Engine::new().run(JobSpec::SolveAt(spec))?;
/// let solved = result.as_solve_at().expect("solve-at outcome");
/// assert_eq!(solved.solution.prefix_len, 4);
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SolveAtSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration.
    pub config: MixedSchemeConfig,
    /// Pseudo-random prefix length `p`.
    pub prefix_len: usize,
    /// Which fault universe to grade and top up against. The default
    /// ([`FaultModel::StuckAt`]) hashes, encodes and caches exactly as
    /// specs did before this field existed.
    pub fault_model: FaultModel,
    /// Emit a [`ProgressEvent::Estimate`](crate::ProgressEvent::Estimate)
    /// — a Wilson-interval coverage preview from the representative
    /// sample — before the exact run streams its result. Off by default;
    /// the flag never participates in digests, caching or the outcome
    /// (a warm cache hit skips the preview entirely).
    pub estimate_first: bool,
}

/// Sweep the `(p, d)` trade-off over many prefix lengths on one
/// incremental session.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec};
///
/// let result = Engine::new().run(JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 4, 8]))?;
/// let sweep = result.as_sweep().expect("sweep outcome");
/// // one solution per requested prefix length, in request order
/// let lengths: Vec<usize> = sweep.summary.solutions().iter().map(|s| s.prefix_len).collect();
/// assert_eq!(lengths, [0, 4, 8]);
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration.
    pub config: MixedSchemeConfig,
    /// Prefix lengths to solve, in the order results should come back.
    pub prefix_lengths: Vec<usize>,
    /// Which fault universe to grade and top up against. The default
    /// ([`FaultModel::StuckAt`]) hashes, encodes and caches exactly as
    /// specs did before this field existed.
    pub fault_model: FaultModel,
    /// Emit a [`ProgressEvent::Estimate`](crate::ProgressEvent::Estimate)
    /// at the sweep's longest prefix before the exact run streams its
    /// checkpoints. Off by default; never participates in digests,
    /// caching or the outcome (a warm cache hit skips the preview).
    pub estimate_first: bool,
}

/// Grade the pure pseudo-random sequence at the given checkpoints — the
/// paper's Figure 4 curve.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec};
///
/// let result =
///     Engine::new().run(JobSpec::coverage_curve(CircuitSource::iscas85("c17"), [0, 8, 16]))?;
/// let curve = result.as_coverage_curve().expect("curve outcome");
/// assert_eq!(curve.curve.points().len(), 3);
/// assert!(curve.curve.is_monotone(), "coverage never drops with length");
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoverageCurveSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration.
    pub config: MixedSchemeConfig,
    /// Sequence lengths to report coverage at, in result order.
    pub checkpoints: Vec<usize>,
    /// Which fault universe to grade. The default
    /// ([`FaultModel::StuckAt`]) hashes, encodes and caches exactly as
    /// specs did before this field existed.
    pub fault_model: FaultModel,
}

/// Run every surveyed TPG architecture on one circuit, on equal terms.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec};
///
/// let result = Engine::new().run(JobSpec::bakeoff(CircuitSource::iscas85("c17"), 16))?;
/// let bakeoff = result.as_bakeoff().expect("bakeoff outcome");
/// // the paper's two extremes are always among the rows
/// assert!(bakeoff.bakeoff.row("lfsr").is_some());
/// assert!(bakeoff.bakeoff.row("lfsrom").is_some());
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BakeoffSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration (the area model prices every row).
    pub config: MixedSchemeConfig,
    /// Pattern budget granted to the pseudo-random architectures.
    pub random_length: usize,
}

/// Solve the scheme and render the mixed generator as synthesizable HDL.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, EmitHdlSpec, HdlLanguage, JobSpec};
///
/// let spec = EmitHdlSpec {
///     circuit: CircuitSource::iscas85("c17"),
///     config: Default::default(),
///     prefix_len: 4,
///     language: HdlLanguage::Verilog,
///     module_name: Some("c17_bist".to_owned()),
///     testbench: false,
/// };
/// let result = Engine::new().run(JobSpec::EmitHdl(spec))?;
/// let hdl = result.as_emit_hdl().expect("hdl outcome");
/// assert!(hdl.verilog.as_deref().expect("verilog requested").contains("module c17_bist"));
/// assert!(hdl.vhdl.is_none(), "only the requested language is emitted");
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EmitHdlSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration.
    pub config: MixedSchemeConfig,
    /// Pseudo-random prefix length `p` of the generator to emit.
    pub prefix_len: usize,
    /// Which artefacts to produce.
    pub language: HdlLanguage,
    /// Module/entity name; default `"{circuit}_bist"`.
    pub module_name: Option<String>,
    /// Also emit the self-checking Verilog testbench (requires a
    /// Verilog-producing `language`).
    pub testbench: bool,
}

/// Price the full-deterministic extreme: LFSROM generator area versus
/// nominal chip area — one row of the paper's Figure 6 / Table 1.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec};
///
/// let result = Engine::new().run(JobSpec::area_report(CircuitSource::iscas85("c17")))?;
/// let report = result.as_area_report().expect("area outcome");
/// // the paper's shape claim: full-deterministic BIST on a tiny circuit
/// // costs several times the chip itself
/// assert!(report.overhead_pct > 100.0);
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AreaReportSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration.
    pub config: MixedSchemeConfig,
}

/// Default sample budget of a [`EstimateSpec`].
pub const DEFAULT_ESTIMATE_SAMPLES: usize = 256;

/// Default confidence level of a [`EstimateSpec`], percent.
pub const DEFAULT_ESTIMATE_CONFIDENCE: u32 = 95;

/// Default sampling seed of a [`EstimateSpec`].
pub const DEFAULT_ESTIMATE_SEED: u64 = 0xb157;

/// Estimate the coverage a pseudo-random prefix reaches by grading a
/// seed-pinned stratified sample of the stuck-at universe — the cheap,
/// statistically qualified answer a service returns before the exact
/// sweep finishes.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, EstimateSpec, JobSpec};
///
/// let spec = EstimateSpec {
///     circuit: CircuitSource::iscas85("c17"),
///     config: Default::default(),
///     prefix_len: 32,
///     samples: 20,
///     confidence: 95,
///     seed: 0xb157,
/// };
/// let result = Engine::new().run(JobSpec::CoverageEstimate(spec))?;
/// let estimate = result.as_estimate().expect("estimate outcome");
/// assert_eq!(estimate.samples, 20);
/// assert!(estimate.lo_pct <= estimate.estimate_pct);
/// assert!(estimate.estimate_pct <= estimate.hi_pct);
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EstimateSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration.
    pub config: MixedSchemeConfig,
    /// Pseudo-random prefix length to grade the sample against.
    pub prefix_len: usize,
    /// Faults to sample (capped at the universe size; must be ≥ 1).
    pub samples: usize,
    /// Confidence level of the interval, percent (90, 95 or 99).
    pub confidence: u32,
    /// Sampling seed the estimate is pinned to: the same spec always
    /// selects the same faults and returns the same interval.
    pub seed: u64,
}

/// Statically analyze the circuit: structural rules plus SCOAP
/// testability, no simulation.
///
/// # Examples
///
/// ```
/// use bist_engine::{CircuitSource, Engine, JobSpec};
///
/// let result = Engine::new().run(JobSpec::lint(CircuitSource::iscas85("c17")))?;
/// let lint = result.as_lint().expect("lint outcome");
/// assert!(!lint.report.has_errors(), "c17 is structurally clean");
/// assert!(lint.report.scoap.is_some(), "valid circuits get a SCOAP summary");
/// # Ok::<(), bist_engine::BistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LintSpec {
    /// The circuit under test.
    pub circuit: CircuitSource,
    /// Flow configuration (threads are irrelevant to lint; carried for
    /// uniformity with every other job).
    pub config: MixedSchemeConfig,
}

/// One schedulable unit of work — the public vocabulary of the engine.
///
/// Every variant is a plain-data struct; construct them directly or via
/// the [`JobSpec`] convenience constructors, then hand them to
/// [`Engine::run`](crate::Engine::run) or
/// [`Engine::run_batch`](crate::Engine::run_batch).
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Solve one `(p, d)` point.
    SolveAt(SolveAtSpec),
    /// Sweep many prefix lengths incrementally.
    Sweep(SweepSpec),
    /// Coverage-versus-length curve of the pure pseudo-random phase.
    CoverageCurve(CoverageCurveSpec),
    /// TPG architecture bake-off.
    Bakeoff(BakeoffSpec),
    /// HDL emission of the solved mixed generator.
    EmitHdl(EmitHdlSpec),
    /// Full-deterministic area report.
    AreaReport(AreaReportSpec),
    /// Static analysis (structural rules + SCOAP testability).
    Lint(LintSpec),
    /// Sampled coverage estimate with a confidence interval.
    CoverageEstimate(EstimateSpec),
}

impl JobSpec {
    /// A [`JobSpec::SolveAt`] with the default configuration.
    pub fn solve_at(circuit: CircuitSource, prefix_len: usize) -> Self {
        JobSpec::SolveAt(SolveAtSpec {
            circuit,
            config: MixedSchemeConfig::default(),
            prefix_len,
            fault_model: FaultModel::default(),
            estimate_first: false,
        })
    }

    /// A [`JobSpec::Sweep`] with the default configuration.
    pub fn sweep(circuit: CircuitSource, prefix_lengths: impl Into<Vec<usize>>) -> Self {
        JobSpec::Sweep(SweepSpec {
            circuit,
            config: MixedSchemeConfig::default(),
            prefix_lengths: prefix_lengths.into(),
            fault_model: FaultModel::default(),
            estimate_first: false,
        })
    }

    /// A [`JobSpec::CoverageCurve`] with the default configuration.
    pub fn coverage_curve(circuit: CircuitSource, checkpoints: impl Into<Vec<usize>>) -> Self {
        JobSpec::CoverageCurve(CoverageCurveSpec {
            circuit,
            config: MixedSchemeConfig::default(),
            checkpoints: checkpoints.into(),
            fault_model: FaultModel::default(),
        })
    }

    /// A [`JobSpec::Bakeoff`] with the default configuration.
    pub fn bakeoff(circuit: CircuitSource, random_length: usize) -> Self {
        JobSpec::Bakeoff(BakeoffSpec {
            circuit,
            config: MixedSchemeConfig::default(),
            random_length,
        })
    }

    /// A [`JobSpec::EmitHdl`] (both languages, no testbench) with the
    /// default configuration.
    pub fn emit_hdl(circuit: CircuitSource, prefix_len: usize) -> Self {
        JobSpec::EmitHdl(EmitHdlSpec {
            circuit,
            config: MixedSchemeConfig::default(),
            prefix_len,
            language: HdlLanguage::Both,
            module_name: None,
            testbench: false,
        })
    }

    /// A [`JobSpec::AreaReport`] with the default configuration.
    pub fn area_report(circuit: CircuitSource) -> Self {
        JobSpec::AreaReport(AreaReportSpec {
            circuit,
            config: MixedSchemeConfig::default(),
        })
    }

    /// A [`JobSpec::Lint`] with the default configuration.
    pub fn lint(circuit: CircuitSource) -> Self {
        JobSpec::Lint(LintSpec {
            circuit,
            config: MixedSchemeConfig::default(),
        })
    }

    /// A [`JobSpec::CoverageEstimate`] with the default configuration,
    /// sample budget, confidence level and seed.
    pub fn estimate(circuit: CircuitSource, prefix_len: usize) -> Self {
        JobSpec::CoverageEstimate(EstimateSpec {
            circuit,
            config: MixedSchemeConfig::default(),
            prefix_len,
            samples: DEFAULT_ESTIMATE_SAMPLES,
            confidence: DEFAULT_ESTIMATE_CONFIDENCE,
            seed: DEFAULT_ESTIMATE_SEED,
        })
    }

    /// The job kind as a short lowercase noun (used in labels and
    /// [`BistError::InvalidSpec`]).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::SolveAt(_) => "solve-at",
            JobSpec::Sweep(_) => "sweep",
            JobSpec::CoverageCurve(_) => "coverage-curve",
            JobSpec::Bakeoff(_) => "bakeoff",
            JobSpec::EmitHdl(_) => "emit-hdl",
            JobSpec::AreaReport(_) => "area-report",
            JobSpec::Lint(_) => "lint",
            JobSpec::CoverageEstimate(_) => "estimate",
        }
    }

    /// The circuit source the job will run on.
    pub fn circuit(&self) -> &CircuitSource {
        match self {
            JobSpec::SolveAt(s) => &s.circuit,
            JobSpec::Sweep(s) => &s.circuit,
            JobSpec::CoverageCurve(s) => &s.circuit,
            JobSpec::Bakeoff(s) => &s.circuit,
            JobSpec::EmitHdl(s) => &s.circuit,
            JobSpec::AreaReport(s) => &s.circuit,
            JobSpec::Lint(s) => &s.circuit,
            JobSpec::CoverageEstimate(s) => &s.circuit,
        }
    }

    /// The fault model the job grades against — [`FaultModel::StuckAt`]
    /// for the job kinds that don't carry one (bakeoff, HDL emission,
    /// area report and lint always run the paper's stuck-at flow).
    pub fn fault_model(&self) -> FaultModel {
        match self {
            JobSpec::SolveAt(s) => s.fault_model,
            JobSpec::Sweep(s) => s.fault_model,
            JobSpec::CoverageCurve(s) => s.fault_model,
            JobSpec::Bakeoff(_)
            | JobSpec::EmitHdl(_)
            | JobSpec::AreaReport(_)
            | JobSpec::Lint(_)
            | JobSpec::CoverageEstimate(_) => FaultModel::StuckAt,
        }
    }

    /// The flow configuration the job will run with.
    pub fn config(&self) -> &MixedSchemeConfig {
        match self {
            JobSpec::SolveAt(s) => &s.config,
            JobSpec::Sweep(s) => &s.config,
            JobSpec::CoverageCurve(s) => &s.config,
            JobSpec::Bakeoff(s) => &s.config,
            JobSpec::EmitHdl(s) => &s.config,
            JobSpec::AreaReport(s) => &s.config,
            JobSpec::Lint(s) => &s.config,
            JobSpec::CoverageEstimate(s) => &s.config,
        }
    }

    /// The circuit source and the configuration, mutably.
    pub(crate) fn source_and_config_mut(&mut self) -> (&mut CircuitSource, &mut MixedSchemeConfig) {
        match self {
            JobSpec::SolveAt(s) => (&mut s.circuit, &mut s.config),
            JobSpec::Sweep(s) => (&mut s.circuit, &mut s.config),
            JobSpec::CoverageCurve(s) => (&mut s.circuit, &mut s.config),
            JobSpec::Bakeoff(s) => (&mut s.circuit, &mut s.config),
            JobSpec::EmitHdl(s) => (&mut s.circuit, &mut s.config),
            JobSpec::AreaReport(s) => (&mut s.circuit, &mut s.config),
            JobSpec::Lint(s) => (&mut s.circuit, &mut s.config),
            JobSpec::CoverageEstimate(s) => (&mut s.circuit, &mut s.config),
        }
    }

    /// Overrides the pool width of the job's configuration.
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.source_and_config_mut().1.threads = threads;
    }

    /// The job's identity: this spec running on the realized `circuit`
    /// inline, with every field that cannot change the result cleared —
    /// both pool widths and the estimate-first preview.
    pub(crate) fn identity(&self, circuit: &Circuit) -> JobSpec {
        let mut spec = self.clone();
        let (source, config) = spec.source_and_config_mut();
        *source = CircuitSource::Inline(circuit.clone());
        config.threads = 0;
        config.atpg.threads = 0;
        match &mut spec {
            JobSpec::SolveAt(s) => s.estimate_first = false,
            JobSpec::Sweep(s) => s.estimate_first = false,
            _ => {}
        }
        spec
    }

    /// Checks the spec's own consistency — the LFSR polynomial, budgets,
    /// artefact combinations — without realizing the circuit.
    ///
    /// # Errors
    ///
    /// [`BistError::InvalidSpec`] describing the first defect found.
    pub fn validate(&self) -> Result<(), BistError> {
        let invalid = |message: &str| {
            Err(BistError::InvalidSpec {
                job: self.kind(),
                message: message.to_owned(),
            })
        };
        let degree = self.config().poly.degree();
        if !(1..=63).contains(&degree) {
            return invalid(&format!(
                "poly has degree {degree}; an LFSR needs degree 1 to 63"
            ));
        }
        match self {
            JobSpec::Sweep(s) => {
                if s.prefix_lengths.is_empty() {
                    return invalid("prefix_lengths must name at least one checkpoint");
                }
            }
            JobSpec::CoverageCurve(s) => {
                if s.checkpoints.is_empty() {
                    return invalid("checkpoints must name at least one length");
                }
            }
            JobSpec::Bakeoff(s) => {
                if s.random_length == 0 {
                    return invalid("random_length must grant at least one pattern");
                }
            }
            JobSpec::EmitHdl(s) => {
                if s.testbench && s.language == HdlLanguage::Vhdl {
                    return invalid("the self-checking testbench is Verilog-only");
                }
                if let Some(name) = &s.module_name {
                    let ok = !name.is_empty()
                        && name
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                    if !ok {
                        return invalid("module_name must be a plain HDL identifier");
                    }
                }
            }
            JobSpec::CoverageEstimate(s) => {
                if s.samples == 0 {
                    return invalid("samples must grade at least one fault");
                }
                if !matches!(s.confidence, 90 | 95 | 99) {
                    return invalid("confidence must be 90, 95 or 99");
                }
            }
            JobSpec::SolveAt(_) | JobSpec::AreaReport(_) | JobSpec::Lint(_) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_realize_or_fail_typed() {
        assert_eq!(
            CircuitSource::iscas85("c17")
                .realize()
                .expect("known benchmark")
                .inputs()
                .len(),
            5
        );
        assert!(matches!(
            CircuitSource::iscas85("c9999").realize(),
            Err(BistError::UnknownCircuit {
                family: "iscas85",
                ..
            })
        ));
        assert!(matches!(
            CircuitSource::iscas89("s9999").realize(),
            Err(BistError::UnknownCircuit {
                family: "iscas89",
                ..
            })
        ));
        assert!(matches!(
            CircuitSource::bench("junk", "INPUT(a)\nOUTPUT(y)\nwat").realize(),
            Err(BistError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn validation_rejects_empty_budgets() {
        let empty_sweep = JobSpec::sweep(CircuitSource::iscas85("c17"), Vec::new());
        assert!(matches!(
            empty_sweep.validate(),
            Err(BistError::InvalidSpec { job: "sweep", .. })
        ));
        let empty_curve = JobSpec::coverage_curve(CircuitSource::iscas85("c17"), Vec::new());
        assert!(empty_curve.validate().is_err());
        let zero_bakeoff = JobSpec::bakeoff(CircuitSource::iscas85("c17"), 0);
        assert!(zero_bakeoff.validate().is_err());
        let mut estimate = match JobSpec::estimate(CircuitSource::iscas85("c17"), 8) {
            JobSpec::CoverageEstimate(s) => s,
            _ => unreachable!(),
        };
        assert!(JobSpec::CoverageEstimate(estimate.clone())
            .validate()
            .is_ok());
        estimate.samples = 0;
        assert!(JobSpec::CoverageEstimate(estimate.clone())
            .validate()
            .is_err());
        estimate.samples = 16;
        estimate.confidence = 80;
        assert!(JobSpec::CoverageEstimate(estimate).validate().is_err());
        assert!(JobSpec::solve_at(CircuitSource::iscas85("c17"), 0)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_bad_hdl_specs() {
        let mut spec = match JobSpec::emit_hdl(CircuitSource::iscas85("c17"), 4) {
            JobSpec::EmitHdl(s) => s,
            _ => unreachable!(),
        };
        spec.module_name = Some("1bad name".to_owned());
        assert!(JobSpec::EmitHdl(spec.clone()).validate().is_err());
        spec.module_name = Some("fine_name".to_owned());
        assert!(JobSpec::EmitHdl(spec.clone()).validate().is_ok());
        spec.language = HdlLanguage::Vhdl;
        spec.testbench = true;
        assert!(JobSpec::EmitHdl(spec).validate().is_err());
    }
}
