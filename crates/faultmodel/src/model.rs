use std::fmt;
use std::str::FromStr;

use bist_bridging::BridgingFaultList;
use bist_delay::TransitionFaultList;
use bist_fault::FaultList;
use bist_logicsim::Pattern;
use bist_netlist::Circuit;

/// Default number of sampled bridge sites when the CLI / spec says just
/// "bridging" without parameters.
pub const DEFAULT_BRIDGE_PAIRS: u32 = 256;

/// Default sampling seed for the bridging universe.
pub const DEFAULT_BRIDGE_SEED: u64 = 0x1dd9;

/// Which fault universe a job grades and tops up against.
///
/// The paper's 1995 evaluation only exercises the stuck-at/stuck-open
/// mixed model; its §2.2 and §3.1 *argue* that the deterministic suffix is
/// what carries "much more realistic and complex faults like delay ...
/// faults" and its ceiling citation \[Hwa93\] is about bridging defects
/// under Iddq. This type makes those two classes first-class engine
/// workloads so the claims can be measured instead of argued:
///
/// * [`FaultModel::StuckAt`] — the paper's mixed stuck-at/stuck-open
///   universe, graded one pattern at a time (the default; specs carrying
///   it hash and cache exactly as before the model existed).
/// * [`FaultModel::Transition`] — gate-level transition (gross-delay)
///   faults, graded launch-on-capture over *consecutive pattern pairs* of
///   the applied sequence.
/// * [`FaultModel::Bridging`] — a reproducibly sampled universe of
///   non-feedback wired-AND/wired-OR shorts, graded voltage-sense (with
///   Iddq excitation tracked on the side).
///
/// # Example
///
/// ```
/// use bist_faultmodel::FaultModel;
///
/// let m: FaultModel = "bridging:64:7".parse()?;
/// assert_eq!(m, FaultModel::Bridging { pairs: 64, seed: 7 });
/// assert_eq!(m.to_string().parse::<FaultModel>()?, m);
/// assert_eq!(FaultModel::default(), FaultModel::StuckAt);
/// # Ok::<(), bist_faultmodel::ParseFaultModelError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultModel {
    /// The paper's mixed stuck-at + stuck-open universe (the default).
    #[default]
    StuckAt,
    /// Gate-level transition (slow-to-rise / slow-to-fall) faults.
    Transition,
    /// Sampled non-feedback bridging (short) faults.
    Bridging {
        /// Number of bridge *sites* the universe samples (each site keeps
        /// the resolution the sampler drew for it).
        pairs: u32,
        /// Seed of the reproducible site sampler.
        seed: u64,
    },
}

impl FaultModel {
    /// The bridging model with the default universe parameters.
    pub fn bridging() -> Self {
        FaultModel::Bridging {
            pairs: DEFAULT_BRIDGE_PAIRS,
            seed: DEFAULT_BRIDGE_SEED,
        }
    }

    /// The model's bare name (no universe parameters): `stuck-at`,
    /// `transition` or `bridging`.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::StuckAt => "stuck-at",
            FaultModel::Transition => "transition",
            FaultModel::Bridging { .. } => "bridging",
        }
    }

    /// True for the default ([`FaultModel::StuckAt`]) model — the one
    /// whose jobs hash, encode and cache exactly as they did before fault
    /// models existed.
    pub fn is_default(&self) -> bool {
        *self == FaultModel::StuckAt
    }

    /// Size of this model's fault universe on `circuit`.
    pub fn universe_len(&self, circuit: &Circuit) -> usize {
        match *self {
            FaultModel::StuckAt => FaultList::mixed_model(circuit).len(),
            FaultModel::Transition => TransitionFaultList::universe(circuit).len(),
            FaultModel::Bridging { pairs, seed } => {
                BridgingFaultList::sample(circuit, pairs as usize, seed).len()
            }
        }
    }
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultModel::StuckAt => f.write_str("stuck-at"),
            FaultModel::Transition => f.write_str("transition"),
            FaultModel::Bridging { pairs, seed } => {
                if pairs == DEFAULT_BRIDGE_PAIRS && seed == DEFAULT_BRIDGE_SEED {
                    f.write_str("bridging")
                } else {
                    write!(f, "bridging:{pairs}:{seed}")
                }
            }
        }
    }
}

/// Error parsing a [`FaultModel`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultModelError {
    input: String,
}

impl fmt::Display for ParseFaultModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown fault model `{}` (expected `stuck-at`, `transition` or `bridging[:pairs[:seed]]`)",
            self.input
        )
    }
}

impl std::error::Error for ParseFaultModelError {}

impl FromStr for FaultModel {
    type Err = ParseFaultModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseFaultModelError {
            input: s.to_string(),
        };
        match s {
            "stuck-at" | "stuckat" | "stuck_at" => return Ok(FaultModel::StuckAt),
            "transition" | "delay" => return Ok(FaultModel::Transition),
            "bridging" | "bridge" => return Ok(FaultModel::bridging()),
            _ => {}
        }
        let rest = s.strip_prefix("bridging:").ok_or_else(err)?;
        let (pairs_text, seed_text) = match rest.split_once(':') {
            Some((p, q)) => (p, Some(q)),
            None => (rest, None),
        };
        let pairs: u32 = pairs_text.parse().map_err(|_| err())?;
        let seed: u64 = match seed_text {
            Some(t) => t.parse().map_err(|_| err())?,
            None => DEFAULT_BRIDGE_SEED,
        };
        if pairs == 0 {
            return Err(err());
        }
        Ok(FaultModel::Bridging { pairs, seed })
    }
}

/// Grades `patterns` against `model`'s standard universe on `circuit`
/// with the naive pattern-at-a-time **serial oracles** — one independent
/// reference implementation per model, none of them sharing code with the
/// packed engine. Returns, per fault, the index of the first detecting
/// pattern.
///
/// This is the cross-model identity anchor: property tests pit the
/// packed [`FaultSim`](bist_faultsim::FaultSim) (any width) over the same
/// universe against this function.
pub fn serial_grade(
    circuit: &Circuit,
    model: FaultModel,
    patterns: &[Pattern],
) -> Vec<Option<u32>> {
    match model {
        FaultModel::StuckAt => bist_faultsim::serial::grade_sequence(
            circuit,
            FaultList::mixed_model(circuit).faults(),
            patterns,
        ),
        FaultModel::Transition => {
            let universe = TransitionFaultList::universe(circuit);
            universe
                .iter()
                .map(|&fault| {
                    // pattern 0 has no predecessor: nothing can launch, so
                    // grading starts at the pair (0, 1)
                    (1..patterns.len())
                        .find(|&t| {
                            bist_delay::serial::detects(
                                circuit,
                                fault,
                                &patterns[t - 1],
                                &patterns[t],
                            )
                        })
                        .map(|t| t as u32)
                })
                .collect()
        }
        FaultModel::Bridging { pairs, seed } => {
            let universe = BridgingFaultList::sample(circuit, pairs as usize, seed);
            bist_bridging::serial::grade_sequence(circuit, universe.faults(), patterns)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_faultsim::{FaultSim, WordFault};

    /// Each fault's first detection under `patterns`, graded by the packed
    /// engine over `model`'s standard universe.
    fn packed_grade(
        circuit: &Circuit,
        model: FaultModel,
        patterns: &[Pattern],
    ) -> Vec<Option<u32>> {
        fn grade<F: WordFault>(
            circuit: &Circuit,
            faults: impl IntoIterator<Item = F>,
            patterns: &[Pattern],
        ) -> Vec<Option<u32>> {
            let mut sim = FaultSim::new(circuit, faults);
            sim.simulate(patterns);
            (0..sim.faults().len())
                .map(|i| sim.first_detection(i))
                .collect()
        }
        match model {
            FaultModel::StuckAt => grade(circuit, FaultList::mixed_model(circuit), patterns),
            FaultModel::Transition => {
                grade(circuit, TransitionFaultList::universe(circuit), patterns)
            }
            FaultModel::Bridging { pairs, seed } => grade(
                circuit,
                BridgingFaultList::sample(circuit, pairs as usize, seed),
                patterns,
            ),
        }
    }

    #[test]
    fn parse_display_round_trips() {
        let cases = [
            ("stuck-at", FaultModel::StuckAt),
            ("transition", FaultModel::Transition),
            ("bridging", FaultModel::bridging()),
            (
                "bridging:64",
                FaultModel::Bridging {
                    pairs: 64,
                    seed: DEFAULT_BRIDGE_SEED,
                },
            ),
            ("bridging:64:7", FaultModel::Bridging { pairs: 64, seed: 7 }),
        ];
        for (text, model) in cases {
            assert_eq!(text.parse::<FaultModel>().unwrap(), model, "{text}");
            let shown = model.to_string();
            assert_eq!(shown.parse::<FaultModel>().unwrap(), model, "{shown}");
        }
        assert_eq!(FaultModel::bridging().to_string(), "bridging");
        for bad in ["", "stuck", "bridging:", "bridging:0", "bridging:8:x"] {
            assert!(bad.parse::<FaultModel>().is_err(), "{bad}");
        }
    }

    #[test]
    fn default_model_is_stuck_at() {
        assert!(FaultModel::default().is_default());
        assert!(!FaultModel::Transition.is_default());
        assert!(!FaultModel::bridging().is_default());
    }

    #[test]
    fn universes_are_non_empty_on_c17() {
        let c17 = bist_netlist::iscas85::c17();
        for model in [
            FaultModel::StuckAt,
            FaultModel::Transition,
            FaultModel::bridging(),
        ] {
            let n = model.universe_len(&c17);
            assert!(n > 0, "{model}: empty universe");
            assert_eq!(packed_grade(&c17, model, &[]).len(), n, "{model}");
        }
    }

    #[test]
    fn serial_oracle_agrees_with_the_packed_engine_on_c17() {
        let c17 = bist_netlist::iscas85::c17();
        let patterns = bist_lfsr::pseudo_random_patterns(bist_lfsr::paper_poly(), 5, 48);
        for model in [
            FaultModel::StuckAt,
            FaultModel::Transition,
            FaultModel::Bridging { pairs: 30, seed: 3 },
        ] {
            let serial = serial_grade(&c17, model, &patterns);
            let packed = packed_grade(&c17, model, &patterns);
            assert_eq!(serial.len(), packed.len(), "{model}");
            for (i, (&expect, &got)) in serial.iter().zip(&packed).enumerate() {
                assert_eq!(expect, got, "{model}: fault {i} disagrees");
            }
        }
    }
}
