//! Content-addressed on-disk result cache.
//!
//! A mixed-BIST job is a pure function: the realized circuit, the flow
//! configuration and the variant's budgets fully determine the result,
//! bit for bit, at every pool width. The cache exploits that by
//! addressing results with a SHA-256 digest of exactly those inputs
//! (see [`job_digest`]): a repeated job — the batch-sweep workload shape
//! of the hybrid-BIST literature — is served from disk in milliseconds
//! instead of re-running seconds-to-minutes of fault simulation.
//!
//! **What participates in the key** — the job's wire encoding
//! ([`wire::encode_spec`]) with the *realized* circuit inline, and
//! [`CACHE_SCHEMA_VERSION`]. The wire must carry every field that
//! changes a result (or a served job would differ from a local one), so
//! a field added to the spec reaches the key by construction. The
//! schema version makes invalidation structural: when the stored layout
//! (or the meaning of any encoded field) changes, the version bump
//! changes every key, and entries written by older trees are simply
//! never addressed again.
//!
//! **What does not** — the pool widths (`threads`, `atpg.threads`) and
//! the estimate-first preview. Results are bit-identical at every width
//! and with or without the preview, so one entry answers them all.
//!
//! **Atomicity** — entries are written to a temporary file in the cache
//! directory and then renamed into place. On POSIX filesystems the
//! rename is atomic, so concurrent writers (a parallel
//! [`Engine::run_batch`](crate::Engine::run_batch), or two `bist`
//! processes) race benignly: readers see either nothing or a complete
//! entry, never a torn one. A corrupt or foreign file decodes to `None`
//! and is treated as a miss.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use bist_netlist::Circuit;

use crate::codec::{self, CACHE_SCHEMA_VERSION};
use crate::digest::Sha256;
use crate::json;
use crate::result::JobResult;
use crate::spec::JobSpec;
use crate::wire;

/// Environment variable naming the default cache directory.
pub const CACHE_DIR_ENV: &str = "BIST_CACHE_DIR";

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

/// In-memory recency tracking for the LRU size cap: a monotone tick is
/// recorded per key on every hit and store. Keys this handle never
/// touched (entries left by earlier processes) have no tick and evict
/// first, ordered by file mtime.
#[derive(Debug, Default)]
struct Recency {
    tick: AtomicU64,
    touched: Mutex<BTreeMap<String, u64>>,
}

impl Recency {
    fn touch(&self, key: &str) {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        self.touched
            .lock()
            .expect("recency lock never poisoned")
            .insert(key.to_owned(), tick);
    }
}

/// Handle on one on-disk cache directory, with process-lifetime
/// hit/miss/store counters and an optional LRU size cap.
///
/// Cloning shares the counters and the recency state (an
/// [`Engine`](crate::Engine) and the caller observing it count
/// together). The directory is created lazily on the first store.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    dir: PathBuf,
    capacity: Option<u64>,
    counters: Arc<Counters>,
    recency: Arc<Recency>,
}

/// What [`ResultCache::disk_stats`] found on disk, plus this handle's
/// lifetime eviction count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDiskStats {
    /// Number of cache entries.
    pub entries: usize,
    /// Total size of all entries, bytes.
    pub bytes: u64,
    /// Entries evicted by the size cap since this handle was created.
    pub evictions: u64,
}

impl ResultCache {
    /// A cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            ..ResultCache::default()
        }
    }

    /// Caps the cache at `bytes` on disk: every store that pushes the
    /// directory past the cap evicts least-recently-used entries (see
    /// [`ResultCache::evict_to`]) until it fits again. `bist serve`
    /// runs its server-lifetime cache with a cap; the one-shot CLI
    /// leaves it unbounded.
    #[must_use]
    pub fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity = Some(bytes);
        self
    }

    /// The configured size cap, if any.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// A cache rooted at `$BIST_CACHE_DIR`, if the variable is set and
    /// non-empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var(CACHE_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => Some(Self::at(dir)),
            _ => None,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Jobs answered from disk since this cache handle was created.
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Jobs that had to be computed.
    pub fn misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Results written to disk.
    pub fn stores(&self) -> u64 {
        self.counters.stores.load(Ordering::Relaxed)
    }

    /// Entries evicted by the size cap since this handle was created.
    pub fn evictions(&self) -> u64 {
        self.counters.evictions.load(Ordering::Relaxed)
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks `key` up on disk, counting a hit or a miss. Anything short
    /// of a complete, same-schema entry — absent file, torn write,
    /// foreign layout — is a miss.
    pub fn lookup(&self, key: &str) -> Option<JobResult> {
        let result = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|doc| codec::decode_result(&doc));
        match &result {
            Some(_) => {
                self.recency.touch(key);
                self.counters.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => self.counters.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Stores `result` under `key` atomically (write to a temporary
    /// sibling, then rename). Storage failures are deliberately silent —
    /// a read-only or full cache directory degrades to "no cache", it
    /// never fails the job that just computed a perfectly good result.
    pub fn store(&self, key: &str, result: &JobResult) {
        let text = codec::encode_result(result).render_pretty();
        let path = self.entry_path(key);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        // the temp name must be unique per *writer*, not just per
        // process: one run_batch can compute the same key on two pool
        // workers (duplicate jobs in a manifest), and a shared temp path
        // would let one writer rename the other's half-written file into
        // place — exactly the torn entry the rename scheme exists to
        // prevent
        static WRITER: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{key}-{}-{}",
            std::process::id(),
            WRITER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            self.counters.stores.fetch_add(1, Ordering::Relaxed);
            self.recency.touch(key);
            if let Some(capacity) = self.capacity {
                self.evict_to(capacity);
            }
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Evicts least-recently-used entries until the directory holds at
    /// most `budget` bytes; returns how many entries were removed (also
    /// accumulated into [`ResultCache::evictions`]).
    ///
    /// Recency is tracked in memory per handle (hits and stores touch a
    /// key); entries this handle never touched — left by earlier
    /// processes — are presumed coldest and evict first, oldest file
    /// modification time first. Removal failures are silent, like
    /// store's: a shared directory where another process already
    /// removed the file degrades gracefully.
    pub fn evict_to(&self, budget: u64) -> u64 {
        let mut entries: Vec<(String, u64, SystemTime)> = Vec::new();
        let mut total: u64 = 0;
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(key) = name.strip_suffix(".json") {
                    if name.starts_with('.') {
                        continue;
                    }
                    let meta = match entry.metadata() {
                        Ok(meta) => meta,
                        Err(_) => continue,
                    };
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    total += meta.len();
                    entries.push((key.to_owned(), meta.len(), mtime));
                }
            }
        }
        if total <= budget {
            return 0;
        }
        // coldest first: untouched entries by mtime (ties broken by key
        // for determinism), then touched entries by recency tick
        let ticks = self
            .recency
            .touched
            .lock()
            .expect("recency lock never poisoned");
        entries.sort_by(
            |(ka, _, ma), (kb, _, mb)| match (ticks.get(ka), ticks.get(kb)) {
                (Some(a), Some(b)) => a.cmp(b),
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (None, None) => ma.cmp(mb).then_with(|| ka.cmp(kb)),
            },
        );
        drop(ticks);
        let mut evicted = 0;
        for (key, bytes, _) in entries {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(self.entry_path(&key)).is_ok() {
                total = total.saturating_sub(bytes);
                evicted += 1;
                self.recency
                    .touched
                    .lock()
                    .expect("recency lock never poisoned")
                    .remove(&key);
            }
        }
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Counts the entries (and their bytes) currently on disk.
    pub fn disk_stats(&self) -> CacheDiskStats {
        let mut stats = CacheDiskStats {
            entries: 0,
            bytes: 0,
            evictions: self.evictions(),
        };
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.ends_with(".json") && !name.starts_with('.') {
                    stats.entries += 1;
                    stats.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        stats
    }

    /// Removes every cache entry (leftover temporaries included);
    /// returns how many entries were removed.
    ///
    /// # Errors
    ///
    /// The first I/O error hit while listing or removing.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if name.ends_with(".json") || name.starts_with(".tmp-") {
                std::fs::remove_file(entry.path())?;
                if name.ends_with(".json") && !name.starts_with('.') {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

/// The content address of one job: a SHA-256 over
/// [`CACHE_SCHEMA_VERSION`] and the job's wire encoding
/// ([`wire::encode_spec`]), with the spec's source replaced by the
/// realized `circuit` inline — so a named benchmark, its `.bench` text
/// and the built circuit share one key — and the pool widths and the
/// estimate-first preview cleared: results are bit-identical whatever
/// they are, so the cache deliberately serves across them.
pub fn job_digest(circuit: &Circuit, spec: &JobSpec) -> String {
    let mut h = Sha256::new();
    h.update(&CACHE_SCHEMA_VERSION.to_le_bytes());
    h.update(
        wire::encode_spec(&spec.identity(circuit))
            .render()
            .as_bytes(),
    );
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use crate::spec::{CircuitSource, HdlLanguage, SweepSpec};
    use bist_core::MixedSchemeConfig;
    use bist_faultmodel::FaultModel;
    use bist_netlist::bench;
    use bist_synth::{AreaModel, CellKind};

    fn c17() -> Circuit {
        bist_netlist::iscas85::c17()
    }

    fn sweep_spec(prefixes: &[usize], threads: usize) -> JobSpec {
        JobSpec::Sweep(SweepSpec {
            circuit: CircuitSource::iscas85("c17"),
            config: MixedSchemeConfig {
                threads,
                ..MixedSchemeConfig::default()
            },
            prefix_lengths: prefixes.to_vec(),
            fault_model: FaultModel::default(),
            estimate_first: false,
        })
    }

    #[test]
    fn digest_is_stable_and_budget_sensitive() {
        let a = job_digest(&c17(), &sweep_spec(&[0, 8], 0));
        assert_eq!(a, job_digest(&c17(), &sweep_spec(&[0, 8], 0)));
        assert_ne!(a, job_digest(&c17(), &sweep_spec(&[0, 9], 0)));
        assert_ne!(a, job_digest(&c17(), &sweep_spec(&[8, 0], 0)));
        assert_ne!(
            a,
            job_digest(&c17(), &JobSpec::solve_at(CircuitSource::iscas85("c17"), 0))
        );
    }

    #[test]
    fn digest_ignores_pool_width() {
        assert_eq!(
            job_digest(&c17(), &sweep_spec(&[0, 8], 1)),
            job_digest(&c17(), &sweep_spec(&[0, 8], 4))
        );
    }

    #[test]
    fn digest_sees_the_circuit_structure_and_name() {
        let c17 = c17();
        let renamed = bench::parse("c17b", &bench::write(&c17)).expect("round-trip");
        let spec = sweep_spec(&[0, 8], 0);
        assert_ne!(job_digest(&c17, &spec), job_digest(&renamed, &spec));
        let other = bist_netlist::iscas85::circuit("c432").expect("known");
        assert_ne!(job_digest(&c17, &spec), job_digest(&other, &spec));
    }

    #[test]
    fn digest_separates_fault_models_but_not_the_default_one() {
        // The wire omits the default model, so an explicit stuck-at spec
        // and one built by the constructors share one entry.
        let baseline = job_digest(&c17(), &sweep_spec(&[0, 8], 0));
        let with_model = |model: FaultModel| {
            let mut spec = sweep_spec(&[0, 8], 0);
            if let JobSpec::Sweep(s) = &mut spec {
                s.fault_model = model;
            }
            job_digest(&c17(), &spec)
        };
        assert_eq!(baseline, with_model(FaultModel::StuckAt));

        let transition = with_model(FaultModel::Transition);
        let bridging = with_model(FaultModel::bridging());
        assert_ne!(baseline, transition);
        assert_ne!(baseline, bridging);
        assert_ne!(transition, bridging);
        // bridging universes are parameterized: pairs/seed are part of
        // the key
        assert_ne!(
            bridging,
            with_model(FaultModel::Bridging {
                pairs: 7,
                seed: 0x1dd9,
            })
        );
    }

    #[test]
    fn digest_ignores_estimate_first() {
        // The preview only changes what streams before the exact run; the
        // committed result is byte-identical, so an estimate-first job
        // must hit (and warm) the same cache entry as the plain one.
        let baseline = job_digest(&c17(), &sweep_spec(&[0, 8], 0));
        let mut spec = sweep_spec(&[0, 8], 0);
        if let JobSpec::Sweep(s) = &mut spec {
            s.estimate_first = true;
        }
        assert_eq!(baseline, job_digest(&c17(), &spec));
    }

    /// Scales the routing factor and the first cell's area.
    fn scale_area(spec: &mut JobSpec, routing: f64, first_cell: f64) {
        let area = &mut spec.source_and_config_mut().1.area;
        let cells = CellKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let scale = if i == 0 { first_cell } else { 1.0 };
                (kind, area.cell_area_um2(kind) * scale)
            })
            .collect();
        *area = AreaModel::with_areas(cells, area.routing_factor() * routing);
    }

    /// Sets the fault model of the kinds that carry one, with the
    /// default bridging pairs and seed moved by the given steps.
    fn set_fault_model(spec: &mut JobSpec, model: FaultModel, pair_step: u32, seed_step: u64) {
        let model = match model {
            FaultModel::Bridging { pairs, seed } => FaultModel::Bridging {
                pairs: pairs + pair_step,
                seed: seed + seed_step,
            },
            other => other,
        };
        match spec {
            JobSpec::SolveAt(s) => s.fault_model = model,
            JobSpec::Sweep(s) => s.fault_model = model,
            JobSpec::CoverageCurve(s) => s.fault_model = model,
            _ => {}
        }
    }

    #[test]
    fn digest_moves_with_every_field_the_wire_carries() {
        // one edit per field the wire carries; on a kind without the
        // field an edit leaves the spec as it was
        let edits: [fn(&mut JobSpec); 14] = [
            |s| s.source_and_config_mut().1.poly = bist_lfsr::primitive_poly(17),
            |s| s.source_and_config_mut().1.atpg.podem.backtrack_limit += 1,
            |s| s.source_and_config_mut().1.atpg.podem.fill_seed ^= 1,
            |s| s.source_and_config_mut().1.atpg.no_compaction = true,
            |s| scale_area(s, 1.5, 1.0),
            |s| scale_area(s, 1.0, 1.5),
            |s| match s {
                JobSpec::SolveAt(s) => s.prefix_len += 1,
                JobSpec::Sweep(s) => s.prefix_lengths.reverse(),
                JobSpec::CoverageCurve(s) => s.checkpoints.push(64),
                JobSpec::Bakeoff(s) => s.random_length += 1,
                JobSpec::EmitHdl(s) => s.prefix_len += 1,
                JobSpec::CoverageEstimate(s) => s.prefix_len += 1,
                JobSpec::AreaReport(_) | JobSpec::Lint(_) => {}
            },
            |s| match s {
                JobSpec::Sweep(s) => s.prefix_lengths.push(16),
                JobSpec::EmitHdl(s) => s.language = HdlLanguage::Verilog,
                JobSpec::CoverageEstimate(s) => s.samples += 1,
                _ => {}
            },
            |s| match s {
                JobSpec::EmitHdl(s) => s.module_name = Some("tpg".to_owned()),
                JobSpec::CoverageEstimate(s) => s.confidence = 99,
                _ => {}
            },
            |s| match s {
                JobSpec::EmitHdl(s) => s.testbench = true,
                JobSpec::CoverageEstimate(s) => s.seed += 1,
                _ => {}
            },
            |s| set_fault_model(s, FaultModel::Transition, 0, 0),
            |s| set_fault_model(s, FaultModel::bridging(), 0, 0),
            |s| set_fault_model(s, FaultModel::bridging(), 1, 0),
            |s| set_fault_model(s, FaultModel::bridging(), 0, 1),
        ];
        // the fields that cannot change a result
        let neutral: [fn(&mut JobSpec); 3] = [
            |s| s.set_threads(3),
            |s| s.source_and_config_mut().1.atpg.threads = 2,
            |s| match s {
                JobSpec::SolveAt(s) => s.estimate_first = true,
                JobSpec::Sweep(s) => s.estimate_first = true,
                _ => {}
            },
        ];

        let c17 = c17();
        let text = bench::write(&c17);
        let renamed = bench::parse("c17b", &text).expect("round-trip");
        let rewired = bench::parse("c17", &text.replacen("NAND", "AND", 1)).expect("a netlist");
        let source = || CircuitSource::iscas85("c17");
        let kinds = [
            JobSpec::solve_at(source(), 8),
            JobSpec::sweep(source(), [0, 8]),
            JobSpec::coverage_curve(source(), [4, 32]),
            JobSpec::bakeoff(source(), 100),
            JobSpec::emit_hdl(source(), 4),
            JobSpec::area_report(source()),
            JobSpec::lint(source()),
            JobSpec::estimate(source(), 32),
        ];
        // every key below is distinct: the kind, the circuit's name and
        // structure and every edited field each move it
        let mut keys = BTreeSet::new();
        for spec in &kinds {
            let key = job_digest(&c17, spec);
            for circuit in [&c17, &renamed, &rewired] {
                assert!(keys.insert(job_digest(circuit, spec)), "{spec:?}");
            }
            for edit in edits {
                let mut edited = spec.clone();
                edit(&mut edited);
                if format!("{edited:?}") != format!("{spec:?}") {
                    assert!(keys.insert(job_digest(&c17, &edited)), "{edited:?}");
                }
            }
            for edit in neutral {
                let mut edited = spec.clone();
                edit(&mut edited);
                assert_eq!(job_digest(&c17, &edited), key, "{edited:?}");
            }
        }
        // 8 kinds x (3 circuits + 6 configurations), then the budgets,
        // the HDL artefact choice, the estimate's sampling and 4 fault
        // models on solve, sweep and curve
        assert_eq!(keys.len(), 8 * 9 + 6 + 3 + 2 + 2 + 3 * 4);
    }

    fn unique_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bist-cache-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn tiny_result() -> JobResult {
        crate::Engine::with_threads(1)
            .run(JobSpec::lint(CircuitSource::iscas85("c17")))
            .expect("c17 lints")
    }

    #[test]
    fn capped_store_evicts_least_recently_used() {
        let dir = unique_dir("lru");
        let result = tiny_result();
        // measure one entry, then cap the cache at two entries' bytes
        let probe = ResultCache::at(&dir);
        probe.store("probe", &result);
        let entry_bytes = probe.disk_stats().bytes;
        probe.clear().expect("probe clear");
        assert!(entry_bytes > 0);

        let cache = ResultCache::at(&dir).with_capacity(2 * entry_bytes);
        assert_eq!(cache.capacity(), Some(2 * entry_bytes));
        cache.store("aaaa", &result);
        cache.store("bbbb", &result);
        assert_eq!(cache.evictions(), 0);
        // touch `aaaa` so `bbbb` is now the least recently used
        assert!(cache.lookup("aaaa").is_some());
        cache.store("cccc", &result);
        let stats = cache.disk_stats();
        assert_eq!(stats.entries, 2, "cap holds two entries");
        assert_eq!(stats.evictions, 1);
        assert!(cache.lookup("aaaa").is_some(), "recently used survives");
        assert!(cache.lookup("cccc").is_some(), "just-stored survives");
        assert!(cache.lookup("bbbb").is_none(), "LRU entry was evicted");
        cache.clear().expect("clear");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn untouched_entries_evict_before_touched_ones() {
        let dir = unique_dir("lru-foreign");
        let result = tiny_result();
        // a "foreign" entry this handle never touched
        ResultCache::at(&dir).store("foreign", &result);
        let cache = ResultCache::at(&dir);
        cache.store("mine", &result);
        let evicted = cache.evict_to(cache.disk_stats().bytes - 1);
        assert_eq!(evicted, 1);
        assert!(cache.lookup("mine").is_some(), "touched entry survives");
        let stats = cache.disk_stats();
        assert_eq!(stats.entries, 1);
        cache.clear().expect("clear");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn evict_to_is_a_noop_under_budget() {
        let dir = unique_dir("lru-noop");
        let cache = ResultCache::at(&dir);
        cache.store("only", &tiny_result());
        assert_eq!(cache.evict_to(u64::MAX), 0);
        assert_eq!(cache.evictions(), 0);
        cache.clear().expect("clear");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn from_env_requires_the_variable() {
        // the test runner may or may not export it; only exercise the
        // explicit constructor here
        let cache = ResultCache::at("/tmp/bist-cache-test-nonexistent");
        assert_eq!(cache.disk_stats().entries, 0);
        assert_eq!(cache.clear().expect("missing dir clears to 0"), 0);
    }
}
