//! Memoization of deterministic search results.
//!
//! A PODEM search outcome is a pure function of `(circuit, fault, search
//! options)` — nothing else. The mixed-scheme sweep exploits that: two
//! adjacent prefix checkpoints leave *mostly the same* hard faults open,
//! so their deterministic top-ups re-run mostly the same searches. A
//! [`CubeCache`] carried across [`TestGenerator`](crate::TestGenerator)
//! runs answers those repeats without searching again, leaving the
//! results bit-identical to a cold run.
//!
//! This only works because the X-fill seed of each search is derived from
//! the fault's *identity* ([`stable_fill_seed`]) rather than its position
//! in the per-checkpoint fault sub-list: a position-derived seed (the
//! historical behaviour) silently changes whenever any earlier fault
//! leaves the frontier, which keys every checkpoint's searches apart and
//! drives the cache hit rate to zero.

// determinism-vetted: the cache map is keyed lookup only, never iterated
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

use bist_fault::Fault;
use bist_logicsim::{InjectedFault, Pattern};
use bist_netlist::NodeId;

use crate::cube::TestCube;
use crate::podem::PodemOptions;

/// A per-fault fill seed that depends only on what the fault *is* — never
/// on where it sits in the universe being targeted. SplitMix64 over the
/// fault's site, variant and polarity: consecutive faults still get
/// decorrelated fills (maximizing collateral detection during fault
/// dropping), but the seed survives arbitrary re-slicings of the fault
/// list, which is what makes cross-checkpoint memoization possible.
pub fn stable_fill_seed(fault: &Fault) -> u64 {
    let (tag, site, pin, value) = match *fault {
        Fault::StuckAt { site, pin, value } => (
            0u64,
            site.index() as u64,
            pin.map_or(0xFFu64, u64::from),
            u64::from(value),
        ),
        Fault::OpenSeries { site } => (1, site.index() as u64, 0xFF, 0),
        Fault::OpenParallel { site, pin } => (2, site.index() as u64, u64::from(pin), 0),
        Fault::OpenRise { site } => (3, site.index() as u64, 0xFF, 0),
        Fault::OpenFall { site } => (4, site.index() as u64, 0xFF, 0),
    };
    splitmix64((site << 12) ^ (pin << 4) ^ (value << 3) ^ tag)
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one target's deterministic generation produced: the complete,
/// replayable outcome of its PODEM (and, for stuck-open pairs,
/// justification) searches. `calls` records how many searches a cold run
/// performs for this outcome, so replaying from cache keeps the
/// `atpg_calls` accounting identical to an uncached run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CachedGen {
    /// The searches produced a test unit (one pattern, or an ordered
    /// initialization/transition pair).
    Unit {
        /// Patterns in application order.
        patterns: Vec<Pattern>,
        /// Pre-fill cubes, parallel to `patterns`.
        cubes: Vec<TestCube>,
        /// Search count of a cold run.
        calls: usize,
    },
    /// The search space was exhausted: the fault is untestable.
    Redundant {
        /// Search count of a cold run.
        calls: usize,
    },
    /// The backtrack budget ran out first.
    Aborted {
        /// Search count of a cold run.
        calls: usize,
    },
}

/// The full key a search outcome depends on (beyond the circuit, which is
/// fixed per cache owner): the fault itself and the search options that
/// steered PODEM. Nothing positional, nothing per-checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    fault: Fault,
    fill_seed: u64,
    backtrack_limit: u32,
}

impl CacheKey {
    fn new(fault: Fault, options: PodemOptions) -> Self {
        CacheKey {
            fault,
            fill_seed: options.fill_seed,
            backtrack_limit: options.backtrack_limit,
        }
    }
}

/// The seed-independent result of one raw PODEM search: the outcome kind
/// and, for a successful search, the pre-fill cube. PODEM's decisions
/// never read `fill_seed` (it only fills don't-cares once the goal is
/// reached), so this is a pure function of the injected fault — or the
/// justification requirements — and the backtrack budget alone. Distinct
/// *faults* whose searches coincide (every series-open shares its `v2`
/// target and `v1` requirement with the same gate's rise- or fall-open;
/// a series-open's `v2` is literally a stem stuck-at) share one entry and
/// re-fill the cube with their own seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RawSearch {
    /// The search reached its goal; the cube holds the committed bits.
    Test { cube: TestCube },
    /// The search space was exhausted.
    Redundant,
    /// The backtrack budget ran out first.
    Aborted,
}

/// A cache of per-fault deterministic search results, intended to be
/// carried across many [`TestGenerator`](crate::TestGenerator) runs on
/// the **same circuit** (a sweep of the mixed scheme's prefix ladder, a
/// batch of related ATPG jobs). Results answered from the cache are
/// bit-identical to fresh searches — memoization of a pure function — so
/// cached and cold flows produce the same sequences.
///
/// Besides the per-fault outcome map it memoizes *raw searches* (see
/// `RawSearch`): seed-independent cube-level results keyed by the
/// search target rather than the fault consuming it, so faults whose
/// deterministic targets coincide pay for one search between them.
#[derive(Debug, Default)]
pub struct CubeCache {
    /// Per-fault outcomes, each with whether a replay has consumed it.
    #[allow(clippy::disallowed_types)]
    map: HashMap<CacheKey, (CachedGen, bool)>,
    /// Raw detect searches keyed by `(target, backtrack_limit)`.
    // determinism-vetted: keyed lookup only, never iterated
    #[allow(clippy::disallowed_types)]
    raw_detect: HashMap<(InjectedFault, u32), RawSearch>,
    /// Raw justification searches keyed by `(requirements, backtrack_limit)`
    /// — requirement *order* steers the search, so it stays in the key.
    // determinism-vetted: keyed lookup only, never iterated
    #[allow(clippy::disallowed_types)]
    raw_justify: HashMap<(Vec<(NodeId, bool)>, u32), RawSearch>,
    hits: usize,
    misses: usize,
}

impl CubeCache {
    /// An empty cache.
    pub fn new() -> Self {
        CubeCache::default()
    }

    /// Number of memoized search outcomes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Targets answered from memory across the cache's lifetime: replays
    /// of an outcome an earlier replay already consumed. This is exactly
    /// what the serial flow reuses, so the count is the same at every
    /// pool width.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Targets whose outcome was consumed for the first time — searched
    /// for this replay, or searched speculatively by an earlier batch
    /// whose replay never needed it (a serial flow searches those only
    /// now). Independent of the pool width, like [`CubeCache::hits`].
    pub fn misses(&self) -> usize {
        self.misses
    }

    pub(crate) fn contains(&self, fault: Fault, options: PodemOptions) -> bool {
        self.map.contains_key(&CacheKey::new(fault, options))
    }

    pub(crate) fn insert(&mut self, fault: Fault, options: PodemOptions, generated: CachedGen) {
        self.map
            .insert(CacheKey::new(fault, options), (generated, false));
    }

    /// The outcome for a replay to consume, counted as a hit when an
    /// earlier replay consumed it already and as a miss otherwise.
    pub(crate) fn consume(&mut self, fault: Fault, options: PodemOptions) -> Option<CachedGen> {
        let (generated, consumed) = self.map.get_mut(&CacheKey::new(fault, options))?;
        if *consumed {
            self.hits += 1;
        } else {
            *consumed = true;
            self.misses += 1;
        }
        Some(generated.clone())
    }

    pub(crate) fn raw_detect(
        &self,
        target: InjectedFault,
        backtrack_limit: u32,
    ) -> Option<&RawSearch> {
        self.raw_detect.get(&(target, backtrack_limit))
    }

    pub(crate) fn insert_raw_detect(
        &mut self,
        target: InjectedFault,
        backtrack_limit: u32,
        raw: RawSearch,
    ) {
        self.raw_detect.insert((target, backtrack_limit), raw);
    }

    pub(crate) fn raw_justify(
        &self,
        reqs: &[(NodeId, bool)],
        backtrack_limit: u32,
    ) -> Option<&RawSearch> {
        self.raw_justify.get(&(reqs.to_vec(), backtrack_limit))
    }

    pub(crate) fn insert_raw_justify(
        &mut self,
        reqs: Vec<(NodeId, bool)>,
        backtrack_limit: u32,
        raw: RawSearch,
    ) {
        self.raw_justify.insert((reqs, backtrack_limit), raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_netlist::NodeId;

    #[test]
    fn stable_seed_distinguishes_faults_and_ignores_position() {
        let a = Fault::StuckAt {
            site: NodeId::from_index(3),
            pin: None,
            value: false,
        };
        let b = Fault::StuckAt {
            site: NodeId::from_index(3),
            pin: None,
            value: true,
        };
        let c = Fault::OpenSeries {
            site: NodeId::from_index(3),
        };
        assert_ne!(stable_fill_seed(&a), stable_fill_seed(&b));
        assert_ne!(stable_fill_seed(&a), stable_fill_seed(&c));
        // determinism: same fault, same seed, every time
        assert_eq!(stable_fill_seed(&a), stable_fill_seed(&a));
    }

    #[test]
    fn cache_round_trip() {
        let mut cache = CubeCache::new();
        let fault = Fault::OpenRise {
            site: NodeId::from_index(7),
        };
        let opts = PodemOptions::default();
        assert!(!cache.contains(fault, opts));
        cache.insert(fault, opts, CachedGen::Redundant { calls: 1 });
        assert!(cache.contains(fault, opts));
        // the first consumption is a miss, every later one a hit
        for expect_hits in [0, 1, 2] {
            assert_eq!(
                cache.consume(fault, opts),
                Some(CachedGen::Redundant { calls: 1 })
            );
            assert_eq!((cache.hits(), cache.misses()), (expect_hits, 1));
        }
        // a different backtrack budget is a different search
        let tighter = PodemOptions {
            backtrack_limit: 5,
            ..opts
        };
        assert!(!cache.contains(fault, tighter));
        assert_eq!(cache.consume(fault, tighter), None);
        assert_eq!(cache.len(), 1);
    }
}
