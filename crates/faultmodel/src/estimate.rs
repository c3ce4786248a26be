//! Sampled coverage estimation: the cheap, statistically qualified first
//! answer a service returns before the exact run finishes.
//!
//! The estimator grades a deterministic, seed-pinned stratified sample of
//! the full stuck-at universe instead of all of it. Stratification is by
//! logic level of the fault site (faults near the inputs and faults deep
//! in the cone behave differently under random patterns), allocation is
//! proportional with largest-remainder rounding, and the within-stratum
//! draw is a partial Fisher–Yates over a SplitMix64 stream seeded from
//! the spec — the same `(circuit, prefix, samples, confidence, seed)`
//! always selects the same faults and returns the same interval, at
//! every pool width. Sampled faults are graded through their
//! [`CollapsedUniverse`] representatives, so the simulator touches only
//! the distinct class representatives the sample lands on.

use std::collections::BTreeMap;

use bist_core::{MixedSchemeConfig, PrefixGrader, SessionStats};
use bist_fault::{CollapsedUniverse, FaultStatus};
use bist_netlist::Circuit;

/// One sampled coverage estimate with its confidence interval.
///
/// All figures speak in the *full* stuck-at universe (the one
/// [`bist_fault::FaultList::stuck_at_full`] enumerates); the interval is
/// a Wilson score interval over the sampled detection rate.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageEstimate {
    /// Size of the full stuck-at universe being estimated.
    pub fault_universe: usize,
    /// Equivalence-class representatives in the collapsed universe.
    pub representatives: usize,
    /// Pseudo-random prefix length graded.
    pub prefix_len: usize,
    /// Faults actually sampled (the request, capped at the universe).
    pub samples: usize,
    /// Sampled faults whose class representative was detected.
    pub detected_samples: usize,
    /// Point estimate of the coverage, percent.
    pub estimate_pct: f64,
    /// Lower bound of the confidence interval, percent.
    pub lo_pct: f64,
    /// Upper bound of the confidence interval, percent.
    pub hi_pct: f64,
    /// Confidence level, percent (90, 95 or 99).
    pub confidence: u32,
    /// The sampling seed the estimate is pinned to.
    pub seed: u64,
}

/// Estimates the coverage the first `prefix_len` patterns of the
/// scheme's pseudo-random stream reach on `circuit`'s full stuck-at
/// universe, by grading a seed-pinned stratified sample of `samples`
/// faults (capped at the universe size).
///
/// The result is a pure function of the arguments: the sample is drawn
/// by a SplitMix64 stream from `seed`, the grading is the bit-identical
/// PPSFP engine, and no wall-clock or machine property participates.
///
/// # Panics
///
/// Panics if `confidence` is not 90, 95 or 99 (the engine validates
/// specs before calling).
///
/// # Example
///
/// ```
/// use bist_core::MixedSchemeConfig;
/// use bist_faultmodel::estimate_coverage;
///
/// let c17 = bist_netlist::iscas85::c17();
/// let config = MixedSchemeConfig::default();
/// let e = estimate_coverage(&c17, &config, 32, 20, 95, 0xb157);
/// assert_eq!(e.fault_universe, 46);
/// assert_eq!(e.samples, 20);
/// assert!(e.lo_pct <= e.estimate_pct && e.estimate_pct <= e.hi_pct);
/// // pinned to the seed: same spec, same interval, bit for bit
/// let again = estimate_coverage(&c17, &config, 32, 20, 95, 0xb157);
/// assert_eq!(e, again);
/// ```
pub fn estimate_coverage(
    circuit: &Circuit,
    config: &MixedSchemeConfig,
    prefix_len: usize,
    samples: usize,
    confidence: u32,
    seed: u64,
) -> CoverageEstimate {
    let z = z_score(confidence);
    let universe = CollapsedUniverse::build(circuit);
    let full_len = universe.full().len();
    let n = samples.min(full_len);

    let sampled = sample_indices(circuit, &universe, n, seed);

    // grade only the distinct representatives the sample lands on
    let mut rep_indices: Vec<usize> = sampled.iter().map(|&i| universe.rep_of(i)).collect();
    rep_indices.sort_unstable();
    rep_indices.dedup();
    let subset: bist_fault::FaultList = rep_indices
        .iter()
        .map(|&r| universe.representatives().faults()[r])
        .collect();
    let statuses = PrefixGrader::new(circuit, config, subset)
        .statuses_at(prefix_len, &mut SessionStats::default());

    // status of each sampled full fault = its representative's status
    let status_of_rep: BTreeMap<usize, FaultStatus> =
        rep_indices.iter().copied().zip(statuses).collect();
    let detected_samples = sampled
        .iter()
        .filter(|&&i| status_of_rep[&universe.rep_of(i)] == FaultStatus::Detected)
        .count();

    let (estimate, lo, hi) = wilson_interval(detected_samples, n, z);
    CoverageEstimate {
        fault_universe: full_len,
        representatives: universe.representatives().len(),
        prefix_len,
        samples: n,
        detected_samples,
        estimate_pct: 100.0 * estimate,
        lo_pct: 100.0 * lo,
        hi_pct: 100.0 * hi,
        confidence,
        seed,
    }
}

/// Draws `n` distinct full-universe fault indices, stratified by the
/// logic level of the fault site: proportional quotas with
/// largest-remainder rounding (ties to the lower level), then a partial
/// Fisher–Yates inside each stratum. Returns them sorted ascending.
fn sample_indices(
    circuit: &Circuit,
    universe: &CollapsedUniverse,
    n: usize,
    seed: u64,
) -> Vec<usize> {
    let graph = circuit.sim_graph();
    let mut strata: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, fault) in universe.full().iter().enumerate() {
        strata
            .entry(graph.level(fault.site().index()))
            .or_default()
            .push(i);
    }
    let full_len = universe.full().len();
    if full_len == 0 || n == 0 {
        return Vec::new();
    }

    // proportional quotas: floor(n·size/N), then hand the shortfall to
    // the largest remainders (exact integer arithmetic, lower level wins
    // ties) — each +1 fits because a nonzero remainder means the floor
    // sits strictly below the stratum size
    let mut quotas: Vec<(u32, usize, usize)> = strata
        .iter()
        .map(|(&level, members)| {
            let exact = n * members.len();
            (level, exact / full_len, exact % full_len)
        })
        .collect();
    let assigned: usize = quotas.iter().map(|&(_, q, _)| q).sum();
    let mut by_remainder: Vec<usize> = (0..quotas.len()).collect();
    by_remainder.sort_by_key(|&k| (std::cmp::Reverse(quotas[k].2), quotas[k].0));
    for &k in by_remainder.iter().take(n - assigned) {
        quotas[k].1 += 1;
    }

    let mut rng = seed;
    let mut chosen = Vec::with_capacity(n);
    for (level, quota, _) in quotas {
        let members = strata.get_mut(&level).expect("stratum exists");
        for k in 0..quota {
            let j = k + (splitmix64(&mut rng) as usize) % (members.len() - k);
            members.swap(k, j);
            chosen.push(members[k]);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// One step of the SplitMix64 stream (the workspace's standard cheap
/// deterministic generator; see the ATPG fill seeds).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two-sided z score for the supported confidence levels.
fn z_score(confidence: u32) -> f64 {
    match confidence {
        90 => 1.6448536269514722,
        95 => 1.959963984540054,
        99 => 2.5758293035489004,
        other => panic!("unsupported confidence level: {other} (use 90, 95 or 99)"),
    }
}

/// Wilson score interval for `detected` successes in `n` trials:
/// `(point, lo, hi)` as proportions in `[0, 1]`. An empty sample
/// follows the empty-universe convention (fully covered, degenerate
/// interval).
fn wilson_interval(detected: usize, n: usize, z: f64) -> (f64, f64, f64) {
    if n == 0 {
        return (1.0, 1.0, 1.0);
    }
    let n_f = n as f64;
    let phat = detected as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let center = (phat + z2 / (2.0 * n_f)) / denom;
    let half = z * (phat * (1.0 - phat) / n_f + z2 / (4.0 * n_f * n_f)).sqrt() / denom;
    (phat, (center - half).max(0.0), (center + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use bist_faultsim::FaultSim;
    use bist_lfsr::pseudo_random_patterns;

    use super::*;

    #[test]
    fn sample_is_deterministic_and_distinct() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let universe = CollapsedUniverse::build(&c);
        let a = sample_indices(&c, &universe, 200, 0xb157);
        let b = sample_indices(&c, &universe, 200, 0xb157);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(*a.last().unwrap() < universe.full().len());
        // a different seed draws a different sample
        assert_ne!(a, sample_indices(&c, &universe, 200, 0xb158));
    }

    #[test]
    fn sample_covers_the_whole_universe_when_asked() {
        let c17 = bist_netlist::iscas85::c17();
        let universe = CollapsedUniverse::build(&c17);
        let all = sample_indices(&c17, &universe, 46, 7);
        assert_eq!(all, (0..46).collect::<Vec<_>>());
    }

    #[test]
    fn full_sample_reproduces_exact_coverage() {
        // sampling the entire universe leaves nothing to chance: the
        // point estimate must equal full-universe grading exactly
        let c17 = bist_netlist::iscas85::c17();
        let config = MixedSchemeConfig::default();
        let e = estimate_coverage(&c17, &config, 64, usize::MAX, 95, 1);
        assert_eq!(e.samples, 46);

        let universe = CollapsedUniverse::build(&c17);
        let mut sim = FaultSim::new(&c17, universe.full().clone());
        sim.simulate(&pseudo_random_patterns(config.poly, c17.inputs().len(), 64));
        let exact = sim.report().coverage_pct();
        assert!((e.estimate_pct - exact).abs() < 1e-9, "{e:?} vs {exact}");
        assert!(e.lo_pct <= exact && exact <= e.hi_pct);
    }

    #[test]
    fn estimate_is_thread_width_invariant() {
        let c = bist_netlist::iscas85::circuit("c432").unwrap();
        let mut config = MixedSchemeConfig {
            threads: 1,
            ..MixedSchemeConfig::default()
        };
        let one = estimate_coverage(&c, &config, 128, 256, 95, 0xb157);
        config.threads = 4;
        let four = estimate_coverage(&c, &config, 128, 256, 95, 0xb157);
        assert_eq!(one, four);
    }

    #[test]
    fn wilson_brackets_the_point_estimate() {
        for (detected, n) in [(0usize, 50usize), (25, 50), (50, 50), (1, 3)] {
            let (p, lo, hi) = wilson_interval(detected, n, z_score(95));
            assert!((0.0..=1.0).contains(&lo));
            assert!((0.0..=1.0).contains(&hi));
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "{detected}/{n}");
        }
        // wider confidence, wider interval
        let (_, lo90, hi90) = wilson_interval(30, 40, z_score(90));
        let (_, lo99, hi99) = wilson_interval(30, 40, z_score(99));
        assert!(lo99 < lo90 && hi90 < hi99);
    }

    #[test]
    #[should_panic(expected = "unsupported confidence")]
    fn odd_confidence_levels_are_rejected() {
        z_score(42);
    }
}
