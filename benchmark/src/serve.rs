//! The `serve-mix` workload: `bist serve` driven by closed-loop
//! connections from this process with a seeded stream of repeated and
//! fresh job specs.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use bist_core::MixedGenerator;
use bist_engine::wire::{self, Request, Response};
use bist_engine::{
    cache::job_digest, codec, json, CircuitSource, Engine, JobResult, JobSpec, ProgressEvent,
    ResultCache,
};
use bist_netlist::bench;

use crate::check;
use crate::metrics;
use crate::replay::{self, Counters};
use crate::sweep;
use crate::trace::{Span, Trace};
use crate::{cpu_seconds, peak_rss_mb, Outcome, Run};

/// How long a connection waits for the next response line before the
/// job counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Setup (daemon start plus catalog preload) is repeated this often and
/// reported as its median; the last daemon serves the measured phase.
const SETUP_REPEATS: usize = 5;

/// SplitMix64: a small, fixed generator, so a seed names the same stream
/// on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A fresh spec: one never submitted before, so the daemon must run it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fresh {
    /// Solve-at on an ISCAS-85 circuit at a new prefix length.
    SolveAt(&'static str),
    /// A curve on an ISCAS-85 circuit at new checkpoints.
    Curve(&'static str),
    /// An estimate on an ISCAS-85 circuit with a new sampling seed.
    Estimate(&'static str),
    /// A curve on the mix's `inline` circuit, sent as `.bench` text.
    InlineCurve,
}

/// A job mix. The stream is dealt in decks: each deck holds every catalog
/// spec and every fresh kind its given number of times, in a seeded
/// order. A fixed composition per deck keeps the share of each job kind,
/// and so the latency percentiles, from drifting with the seed; the seed
/// picks the order and the fresh specs' parameters.
///
/// Each circuit keeps one spelling: ISCAS-85 names everywhere but the
/// `inline` circuit, which is only sent as `.bench` text. The result
/// cache answers either spelling of one circuit with the other's result.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Specs preloaded at setup, with their repeats per deck; the first
    /// is the catalog sweep.
    pub catalog: Vec<(JobSpec, usize)>,
    /// Fresh kinds with their count per deck.
    pub fresh: Vec<(Fresh, usize)>,
    pub inline: &'static str,
    /// Fresh prefix lengths lie in `max_len / 2 + 1..=max_len`, and fresh
    /// curves end at `max_len`, so a fresh job's cost barely depends on
    /// the parameters the seed draws.
    pub max_len: usize,
}

impl Mix {
    pub fn specs(&self) -> impl Iterator<Item = &JobSpec> {
        self.catalog.iter().map(|(spec, _)| spec)
    }

    fn deck_len(&self) -> usize {
        self.catalog.iter().map(|(_, n)| n).sum::<usize>() + self.deck_fresh()
    }

    fn deck_fresh(&self) -> usize {
        self.fresh.iter().map(|(_, n)| n).sum()
    }
}

/// The workload's mix: decks of 20 jobs, 14 repeats of a catalog of four
/// specs preloaded at setup and 6 fresh specs. The shares put the median
/// job mid-way through the c499 solve-at hits: 8 of 20 jobs answer
/// faster and 8 slower, so neither the seed nor a partly dealt last deck
/// moves it to another kind of job.
pub fn workload_mix() -> Mix {
    Mix {
        catalog: vec![
            (
                JobSpec::sweep(CircuitSource::iscas85("c432"), [0, 100, 200, 500, 1000]),
                3,
            ),
            (JobSpec::solve_at(CircuitSource::iscas85("c499"), 500), 4),
            (
                JobSpec::coverage_curve(
                    CircuitSource::iscas85("c7552"),
                    [4096, 8192, 16384, 32768],
                ),
                4,
            ),
            (JobSpec::estimate(CircuitSource::iscas85("c3540"), 4096), 3),
        ],
        fresh: vec![
            (Fresh::SolveAt("c432"), 1),
            (Fresh::SolveAt("c499"), 1),
            (Fresh::Curve("c5315"), 2),
            (Fresh::Estimate("c7552"), 1),
            (Fresh::InlineCurve, 1),
        ],
        inline: "c880",
        max_len: 2000,
    }
}

/// One job of the stream.
#[derive(Debug, Clone)]
pub struct StreamJob {
    pub index: u64,
    pub fresh: bool,
    pub spec: JobSpec,
}

/// One slot of a deck.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A repeat of the catalog spec with this index.
    Repeat(usize),
    Fresh(Fresh),
}

/// The seeded job stream, dealt deck by deck (see [`Mix`]).
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    mix: Mix,
    inline_text: String,
    used: BTreeSet<String>,
    deck: Vec<Slot>,
    next: u64,
}

impl Stream {
    pub fn new(mix: Mix, seed: u64) -> Result<Self, String> {
        if mix.deck_len() == 0 || mix.max_len < 2 {
            return Err("a mix needs a non-empty deck and fresh lengths above 1".to_owned());
        }
        let inline = CircuitSource::iscas85(mix.inline)
            .realize()
            .map_err(|e| e.to_string())?;
        let used = mix.specs().map(key).collect();
        Ok(Stream {
            rng: Rng::new(seed),
            inline_text: bench::write(&inline),
            mix,
            used,
            deck: Vec::new(),
            next: 0,
        })
    }

    fn deal(&mut self) {
        let mut deck = Vec::new();
        for (i, (_, n)) in self.mix.catalog.iter().enumerate() {
            deck.extend(std::iter::repeat_n(Slot::Repeat(i), *n));
        }
        for &(kind, n) in &self.mix.fresh {
            deck.extend(std::iter::repeat_n(Slot::Fresh(kind), n));
        }
        self.rng.shuffle(&mut deck);
        self.deck = deck;
    }

    pub fn inline_text(&self) -> &str {
        &self.inline_text
    }

    /// Curve checkpoints: a new one below `max_len`, then `max_len`.
    fn checkpoints(&mut self) -> Vec<usize> {
        let max = self.mix.max_len;
        vec![1 + self.rng.below(max as u64 - 1) as usize, max]
    }

    fn fresh_spec(&mut self, kind: Fresh) -> JobSpec {
        match kind {
            Fresh::SolveAt(circuit) => {
                let half = self.mix.max_len / 2;
                let p = half + 1 + self.rng.below((self.mix.max_len - half) as u64) as usize;
                JobSpec::solve_at(CircuitSource::iscas85(circuit), p)
            }
            Fresh::Curve(circuit) => {
                JobSpec::coverage_curve(CircuitSource::iscas85(circuit), self.checkpoints())
            }
            Fresh::Estimate(circuit) => {
                let mut spec = JobSpec::estimate(CircuitSource::iscas85(circuit), 4096);
                if let JobSpec::CoverageEstimate(s) = &mut spec {
                    s.seed = self.rng.next_u64();
                }
                spec
            }
            Fresh::InlineCurve => JobSpec::coverage_curve(
                CircuitSource::bench(self.mix.inline, self.inline_text.clone()),
                self.checkpoints(),
            ),
        }
    }

    pub fn next_job(&mut self) -> StreamJob {
        let index = self.next;
        self.next += 1;
        if self.deck.is_empty() {
            self.deal();
        }
        match self.deck.pop().expect("a dealt deck is not empty") {
            Slot::Fresh(kind) => loop {
                let spec = self.fresh_spec(kind);
                if self.used.insert(key(&spec)) {
                    return StreamJob {
                        index,
                        fresh: true,
                        spec,
                    };
                }
            },
            Slot::Repeat(i) => StreamJob {
                index,
                fresh: false,
                spec: self.mix.catalog[i].0.clone(),
            },
        }
    }
}

/// A spec's identity: its canonical wire encoding.
pub fn key(spec: &JobSpec) -> String {
    wire::encode_spec(spec).render()
}

/// What one connection saw of one job.
#[derive(Debug)]
pub struct Record {
    pub job: StreamJob,
    pub submit: Instant,
    pub accepted: Option<Instant>,
    pub started: Option<Instant>,
    pub finished: Option<Instant>,
    /// When `wire::decode_response` returned the terminal line.
    pub done: Instant,
    pub cached: bool,
    pub rejected: bool,
    pub result: Result<JobResult, String>,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        1e3 * self.done.duration_since(self.submit).as_secs_f64()
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        let mut line = wire::encode_request(request);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())
    }

    /// Next response line, decoded, with the instant decoding finished.
    fn next(&mut self) -> Result<(Response, Instant), String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_owned());
            }
            if !line.trim().is_empty() {
                let response = wire::decode_response(line.trim_end()).map_err(|e| e.to_string())?;
                return Ok((response, Instant::now()));
            }
        }
    }

    /// Submits one job and waits for its terminal line, as
    /// `bist --connect` does.
    fn run(&mut self, job: StreamJob) -> Record {
        let submit = Instant::now();
        let mut record = Record {
            job,
            submit,
            accepted: None,
            started: None,
            finished: None,
            done: submit,
            cached: false,
            rejected: false,
            result: Err("no answer".to_owned()),
        };
        let spec = Box::new(record.job.spec.clone());
        if let Err(e) = self.send(&Request::Submit { spec }) {
            record.result = Err(e);
            record.done = Instant::now();
            return record;
        }
        loop {
            let (response, at) = match self.next() {
                Ok(next) => next,
                Err(e) => {
                    record.result = Err(e);
                    record.done = Instant::now();
                    return record;
                }
            };
            record.done = at;
            match response {
                Response::Accepted { .. } => record.accepted = Some(at),
                Response::Event { event } => match event {
                    ProgressEvent::Started { .. } => record.started = Some(at),
                    ProgressEvent::Finished { .. } => record.finished = Some(at),
                    _ => {}
                },
                Response::Result { cached, result, .. } => {
                    record.cached = cached;
                    record.result = Ok(*result);
                    return record;
                }
                Response::Failed { error, .. } => {
                    record.result = Err(format!("job failed: {error}"));
                    return record;
                }
                Response::Rejected { reason, .. } => {
                    record.rejected = true;
                    record.result = Err(format!("rejected: {reason}"));
                    return record;
                }
                Response::Stats { .. } | Response::Stopping { .. } => {
                    record.result = Err("control response to a submission".to_owned());
                    return record;
                }
            }
        }
    }
}

/// Runs `connections` closed-loop clients until `next` hands out no more
/// jobs; returns every record in stream order.
fn drive(
    addr: &str,
    connections: usize,
    next: &(dyn Fn() -> Option<StreamJob> + Sync),
) -> Result<Vec<Record>, String> {
    let mut records = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(move || -> Result<Vec<Record>, String> {
                    let mut conn = Conn::open(addr)?;
                    let mut records = Vec::new();
                    while let Some(job) = next() {
                        records.push(conn.run(job));
                    }
                    Ok(records)
                })
            })
            .collect();
        let mut all = Vec::new();
        for client in clients {
            all.extend(
                client
                    .join()
                    .map_err(|_| "client thread panicked".to_owned())??,
            );
        }
        Ok::<_, String>(all)
    })?;
    records.sort_by_key(|r| r.job.index);
    Ok(records)
}

/// A child process that is killed and reaped if it is dropped while
/// still running, so no error path leaves a daemon behind.
pub struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if !matches!(self.0.try_wait(), Ok(Some(_))) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// The daemon under measurement.
pub enum Daemon {
    /// The release `bist serve` binary as a child process.
    Child {
        child: Reaped,
        addr: String,
        stderr: std::thread::JoinHandle<Vec<String>>,
    },
    /// An in-process server, for the smoke test.
    #[cfg(test)]
    InProcess {
        addr: String,
        thread: std::thread::JoinHandle<()>,
    },
}

/// Starts daemons with a given result-cache directory.
pub type Launch<'a> = &'a dyn Fn(&Path) -> Result<Daemon, String>;

impl Daemon {
    /// Spawns `bist serve` on an ephemeral loopback port and waits until
    /// it prints `listening`.
    pub fn spawn(bist: &Path, cache_dir: &Path, width: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bist)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--jobs",
                &width.to_string(),
                "--cache-dir",
            ])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bist.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("bist serve: listening on ") {
                    let _ = tx.send(addr.to_owned());
                }
                lines.push(line);
            }
            lines
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) => Ok(Daemon::Child {
                child: Reaped(child),
                addr,
                stderr,
            }),
            Err(_) => {
                drop(Reaped(child));
                let lines = stderr.join().unwrap_or_default();
                Err(format!(
                    "bist serve did not start listening: {}",
                    lines.join(" | ")
                ))
            }
        }
    }

    pub fn addr(&self) -> &str {
        match self {
            Daemon::Child { addr, .. } => addr,
            #[cfg(test)]
            Daemon::InProcess { addr, .. } => addr,
        }
    }

    /// CPU time the daemon has used so far, seconds. An in-process
    /// server's work is counted with this process's own.
    pub fn cpu_seconds(&self) -> Option<f64> {
        match self {
            Daemon::Child { child, .. } => cpu_seconds(child.0.id()),
            #[cfg(test)]
            Daemon::InProcess { .. } => Some(0.0),
        }
    }

    /// Peak resident memory of the process serving the jobs.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match self {
            Daemon::Child { child, .. } => peak_rss_mb(child.0.id()),
            #[cfg(test)]
            Daemon::InProcess { .. } => peak_rss_mb(std::process::id()),
        }
    }

    /// Asks the daemon to drain and waits until it has exited.
    pub fn shutdown(self) -> Result<(), String> {
        let requested = Conn::open(self.addr()).and_then(|mut conn| {
            conn.send(&Request::Shutdown)?;
            conn.next().map(|_| ())
        });
        match self {
            Daemon::Child {
                mut child, stderr, ..
            } => {
                let deadline = Instant::now() + Duration::from_secs(30);
                let status = loop {
                    match child.0.try_wait().map_err(|e| e.to_string())? {
                        Some(status) => break Some(status),
                        None if Instant::now() > deadline => break None,
                        None => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                drop(child);
                let _ = stderr.join();
                requested?;
                match status {
                    Some(s) if s.success() => Ok(()),
                    Some(s) => Err(format!("bist serve exited with {s}")),
                    None => Err("bist serve did not drain within 30 s".to_owned()),
                }
            }
            #[cfg(test)]
            Daemon::InProcess { thread, .. } => {
                requested?;
                thread
                    .join()
                    .map_err(|_| "server thread panicked".to_owned())
            }
        }
    }
}

/// One setup: start a daemon on a fresh cache directory and preload the
/// catalog through it.
fn setup_once(
    launch: Launch<'_>,
    dir: &Path,
    mix: &Mix,
    connections: usize,
) -> Result<(Daemon, Vec<Record>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let daemon = launch(dir)?;
    let catalog = Mutex::new(mix.specs().cloned().enumerate());
    let records = drive(daemon.addr(), connections, &|| {
        let (i, spec) = catalog.lock().expect("catalog lock").next()?;
        Some(StreamJob {
            index: i as u64,
            fresh: false,
            spec,
        })
    })?;
    Ok((daemon, records))
}

/// `spec` with its pool width pinned to 1, the width the daemon runs
/// every job at: one session counter (`podem_cache_hits`) depends on the
/// width, and it is part of what `bist` prints.
fn at_width_one(spec: &JobSpec) -> JobSpec {
    let mut spec = spec.clone();
    match &mut spec {
        JobSpec::SolveAt(s) => s.config.threads = 1,
        JobSpec::Sweep(s) => s.config.threads = 1,
        JobSpec::CoverageCurve(s) => s.config.threads = 1,
        JobSpec::CoverageEstimate(s) => s.config.threads = 1,
        JobSpec::Bakeoff(s) => s.config.threads = 1,
        JobSpec::EmitHdl(s) => s.config.threads = 1,
        JobSpec::AreaReport(s) => s.config.threads = 1,
        JobSpec::Lint(s) => s.config.threads = 1,
    }
    spec
}

/// The output check: each served result must render byte-identically to
/// an in-process cold run of its spec, and every distinct solved point
/// must re-grade. Returns one error per failed record or point.
fn check_records(records: &[&Record], references: &BTreeMap<String, JobResult>) -> Vec<String> {
    let mut errors = Vec::new();
    let mut graded = BTreeSet::new();
    for record in records {
        let key = key(&record.job.spec);
        let result = match &record.result {
            Ok(result) => result,
            Err(e) => {
                errors.push(format!("job {}: {e}", record.job.index));
                continue;
            }
        };
        match references.get(&key) {
            Some(reference) if check::rendered(reference) == check::rendered(result) => {}
            Some(_) => errors.push(format!(
                "job {} ({} {}): served result renders differently from a cold in-process run",
                record.job.index,
                record.job.spec.kind(),
                record.job.spec.circuit().label()
            )),
            None => errors.push(format!("job {}: no reference result", record.job.index)),
        }
        if !check::solutions(result).is_empty() && graded.insert(key) {
            match record.job.spec.circuit().realize() {
                Ok(circuit) => errors.extend(
                    check::solutions(result)
                        .iter()
                        .filter_map(|s| check::grade_solution(&circuit, s).err()),
                ),
                Err(e) => errors.push(e.to_string()),
            }
        }
    }
    errors
}

/// Catalog coverage: mean final coverage and summed aborts over the
/// catalog's solved points.
fn catalog_points(catalog: &[Record]) -> (f64, usize) {
    let points: Vec<_> = catalog
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .flat_map(check::solutions)
        .collect();
    let mean = points
        .iter()
        .map(|s| s.coverage.coverage_pct())
        .sum::<f64>()
        / points.len().max(1) as f64;
    (mean, points.iter().map(|s| s.coverage.aborted).sum())
}

/// Prints the median latency per job kind, circuit and answer: a cache
/// hit, or a fresh spec the daemon had to run.
fn print_breakdown(records: &[&Record]) {
    let mut groups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in records {
        let answer = if r.cached { "hit" } else { "run" };
        let spec = &r.job.spec;
        groups
            .entry(format!(
                "{} {} {answer}",
                spec.kind(),
                spec.circuit().label()
            ))
            .or_default()
            .push(r.latency_ms());
    }
    for (group, samples) in groups {
        println!(
            "  {group:<24} n={:<4} p50 {:>10.3} ms",
            samples.len(),
            metrics::median(&samples).unwrap_or(f64::NAN)
        );
    }
}

/// Runs the workload: setup, the measured phase, the output check and,
/// when `run.trace` is set, the per-layer trace.
pub fn run(mix: &Mix, run: &Run, launch: Launch<'_>) -> Result<Outcome, String> {
    let trace = Trace::new();
    println!(
        "bist serve --jobs {w}, {w} closed-loop connections, decks of {} jobs with {} fresh \
         specs, catalog of {}",
        mix.deck_len(),
        mix.deck_fresh(),
        mix.catalog.len(),
        w = run.width
    );
    let mut setup_times = Vec::new();
    let mut kept: Option<(Daemon, Vec<Record>, PathBuf)> = None;
    for i in 0..SETUP_REPEATS {
        let dir = run.dir.join(format!("cache-{i}"));
        let start = Instant::now();
        let (daemon, catalog) = setup_once(launch, &dir, mix, run.width)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if let Some((previous, _, previous_dir)) = kept.replace((daemon, catalog, dir)) {
            previous.shutdown()?;
            let _ = std::fs::remove_dir_all(previous_dir);
        }
    }
    let (daemon, catalog, cache_dir) = kept.expect("at least one setup");
    let setup_s = metrics::median(&setup_times).expect("setup samples");

    let stream = Mutex::new(Stream::new(mix.clone(), run.seed)?);
    let inline_text = stream.lock().expect("stream lock").inline_text().to_owned();
    // CPU time of both ends: the daemon runs the jobs, this process
    // decodes the results
    let cpu = || -> Result<f64, String> {
        let daemon_s = daemon
            .cpu_seconds()
            .ok_or("cannot read the daemon's CPU time")?;
        let client_s = cpu_seconds(std::process::id()).ok_or("cannot read /proc/self/stat")?;
        Ok(daemon_s + client_s)
    };
    let cpu_start = cpu()?;
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs_f64(run.seconds);
    let records = drive(daemon.addr(), run.width, &|| {
        (Instant::now() < deadline).then(|| stream.lock().expect("stream lock").next_job())
    })?;
    let phase_s = phase_start.elapsed().as_secs_f64();
    let phase_cpu_s = cpu()? - cpu_start;
    let rss_mb = daemon.peak_rss_mb();
    let cache_mb = ResultCache::at(&cache_dir).disk_stats().bytes as f64 / 1e6;
    daemon.shutdown()?;

    // references: one cold in-process run per distinct spec
    let mut specs: BTreeMap<String, JobSpec> = BTreeMap::new();
    for r in catalog.iter().chain(&records) {
        specs
            .entry(key(&r.job.spec))
            .or_insert_with(|| r.job.spec.clone());
    }
    let engine = Engine::with_threads(run.width);
    let mut references = BTreeMap::new();
    let mut untraced_s = 0.0;
    for spec in mix.specs() {
        let start = Instant::now();
        let result = engine.run(at_width_one(spec)).map_err(|e| e.to_string())?;
        untraced_s += start.elapsed().as_secs_f64();
        references.insert(key(spec), result);
    }
    let rest: Vec<(String, JobSpec)> = specs
        .into_iter()
        .filter(|(k, _)| !references.contains_key(k))
        .collect();
    let results = engine.run_batch(rest.iter().map(|(_, s)| at_width_one(s)).collect());
    for ((k, _), result) in rest.into_iter().zip(results) {
        references.insert(k, result.map_err(|e| e.to_string())?);
    }
    let all: Vec<&Record> = catalog.iter().chain(&records).collect();
    let errors = check_records(&all, &references);

    let completed: Vec<&Record> = records.iter().filter(|r| r.result.is_ok()).collect();
    let latencies: Vec<f64> = completed.iter().map(|r| r.latency_ms()).collect();
    let hits: Vec<f64> = completed
        .iter()
        .filter(|r| r.cached)
        .map(|r| r.latency_ms())
        .collect();
    let (coverage_pct, aborted) = catalog_points(&catalog);
    let catalog_results: Vec<&JobResult> = catalog
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    println!(
        "phase {phase_s:.3} s: {} jobs, {} fresh, {} cache hits, {} rejected",
        records.len(),
        records.iter().filter(|r| r.job.fresh).count(),
        hits.len(),
        records.iter().filter(|r| r.rejected).count()
    );
    print_breakdown(&completed);
    println!("results_digest {}", check::results_digest(catalog_results));

    let attempted = all.len() as u64;
    if run.trace {
        let values = traced_layers(
            mix,
            run,
            &trace,
            &catalog,
            &records,
            &references,
            &inline_text,
            untraced_s,
        )?;
        crate::write_spans(run, &trace)?;
        crate::print_layer_metrics(&values);
        return Ok(Outcome::finish(values, attempted, errors));
    }
    metrics::print(
        "setup_s",
        setup_s,
        "s",
        &format!("  (median of {SETUP_REPEATS})"),
    );
    metrics::print_median("job_ms_p50", "ms", &latencies);
    metrics::print_tail("job_ms_p90", "ms", &latencies, 0.9);
    if metrics::print_median("hit_ms_p50", "ms", &hits).is_none() {
        println!("metric hit_ms_p50: no cache hits in the phase");
    }
    let job_cpu_ms = 1e3 * phase_cpu_s / completed.len() as f64;
    metrics::print(
        "job_cpu_ms",
        job_cpu_ms,
        "ms",
        &format!("  (n={})", completed.len()),
    );
    metrics::print("jobs_per_s", completed.len() as f64 / phase_s, "1/s", "");
    let rss_mb = rss_mb.unwrap_or(f64::NAN);
    metrics::print("rss_mb", rss_mb, "MB", "");
    metrics::print("coverage_pct", coverage_pct, "%", "  (catalog points)");
    metrics::print("cache_mb", cache_mb, "MB", "");
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("job_cpu_ms", job_cpu_ms),
        ("rss_mb", rss_mb),
        ("coverage_pct", coverage_pct),
    ]);
    metrics::print("aborted", aborted as f64, "count", "  (catalog points)");
    Ok(Outcome::finish(values, attempted, errors))
}

/// The traced part of the run: client-side spans from the phase, spans
/// around the engine's cache, codec and wire calls on each catalog
/// result, replays of the catalog specs and the PODEM probe on the
/// catalog sweep's circuit.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    mix: &Mix,
    run: &Run,
    trace: &Trace,
    catalog: &[Record],
    records: &[Record],
    references: &BTreeMap<String, JobResult>,
    inline_text: &str,
    untraced_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // client-side spans: queue = accepted → started, run = started →
    // finished, deliver = finished → decoded
    let mut queue = Vec::new();
    let mut running = Vec::new();
    let mut deliver = Vec::new();
    for r in records.iter().filter(|r| r.result.is_ok()) {
        let job = r.job.index;
        let parent = trace.record(Span {
            name: "serve.job",
            start: trace.at(r.submit),
            end: trace.at(r.done),
            parent: None,
            job,
        });
        let (Some(accepted), Some(started), Some(finished)) = (r.accepted, r.started, r.finished)
        else {
            continue;
        };
        for (name, from, to, into) in [
            ("serve.queue", accepted, started, &mut queue),
            ("serve.run", started, finished, &mut running),
            ("serve.deliver", finished, r.done, &mut deliver),
        ] {
            trace.record(Span {
                name,
                start: trace.at(from),
                end: trace.at(to),
                parent: Some(parent),
                job,
            });
            into.push(1e3 * to.saturating_duration_since(from).as_secs_f64());
        }
    }

    // engine and wire calls on each catalog result
    let cache = ResultCache::at(run.dir.join("trace-cache"));
    let mut entry_bytes = Vec::new();
    let mut line_bytes = Vec::new();
    let mut rebuild_s = 0.0;
    for (i, record) in catalog.iter().enumerate() {
        let job = 1000 + i as u64;
        let Ok(result) = &record.result else { continue };
        let spec = &record.job.spec;
        let circuit = trace
            .span("netlist.realize", job, || spec.circuit().realize())
            .map_err(|e| e.to_string())?;
        let digest = trace.span("engine.digest", job, || job_digest(&circuit, spec));
        let text = trace.span("engine.encode", job, || {
            codec::encode_result(result).render()
        });
        entry_bytes.push(text.len() as f64);
        let decoded = trace.span("engine.decode", job, || {
            json::parse(&text)
                .ok()
                .and_then(|doc| codec::decode_result(&doc))
        });
        trace.span("engine.store", job, || cache.store(&digest, result));
        let looked_up = trace.span("engine.lookup", job, || cache.lookup(&digest));
        let response = Response::Result {
            job,
            cached: true,
            result: Box::new(result.clone()),
        };
        let line = trace.span("wire.encode", job, || wire::encode_response(&response));
        line_bytes.push(line.len() as f64);
        let back = trace.span("wire.decode", job, || wire::decode_response(&line));
        if decoded.is_none() || looked_up.is_none() || back.is_err() {
            return Err(format!(
                "catalog result {i} did not round-trip the cache codec and the wire"
            ));
        }
        if let JobResult::Sweep(_) = result {
            // what every decode of this result repeats: one generator
            // build per solved point
            let start = trace.now();
            for s in check::solutions(result) {
                let g = &s.generator;
                trace
                    .span("core.decode_rebuild", job, || {
                        MixedGenerator::build(
                            g.width(),
                            g.poly(),
                            g.prefix_len(),
                            g.deterministic(),
                        )
                    })
                    .map_err(|e| e.to_string())?;
            }
            rebuild_s += trace.now() - start;
        }
    }
    let _ = std::fs::remove_dir_all(run.dir.join("trace-cache"));

    // replays of the catalog specs, digested against the served results
    let mut counters = Counters::default();
    let mut replay_errors = Vec::new();
    for (i, record) in catalog.iter().enumerate() {
        let job = 2000 + i as u64;
        let replayed = replay::spec(trace, job, &at_width_one(&record.job.spec), &mut counters)?;
        let served = references
            .get(&key(&record.job.spec))
            .expect("catalog reference");
        if check::results_digest([&replayed]) != check::results_digest([served]) {
            replay_errors.push(format!(
                "catalog spec {i}: the traced replay digests differently"
            ));
        }
    }
    if !replay_errors.is_empty() {
        return Err(replay_errors.join("; "));
    }
    trace
        .span("netlist.parse", 3000, || {
            bench::parse(mix.inline, inline_text)
        })
        .map_err(|e| e.to_string())?;
    let probe_circuit = mix.catalog[0]
        .0
        .circuit()
        .realize()
        .map_err(|e| e.to_string())?;
    let probe = replay::probe(trace, 3001, &probe_circuit);

    let spans = trace.spans();
    let roots = ["replay.mixed", "replay.curve", "replay.estimate"];
    let replay_s: f64 = roots.iter().map(|r| crate::trace::total(&spans, r)).sum();
    let mut values = sweep::layer_values(&spans, &counters, &probe, &roots);
    let ms = |name: &str| 1e3 * crate::trace::total(&spans, name);
    let mean_kb = |bytes: &[f64]| bytes.iter().sum::<f64>() / bytes.len().max(1) as f64 / 1e3;
    let sweep_key = key(&mix.catalog[0].0);
    let sweep_hits: Vec<f64> = records
        .iter()
        .filter(|r| r.cached && r.result.is_ok() && key(&r.job.spec) == sweep_key)
        .map(|r| r.latency_ms() / 1e3)
        .collect();
    let completed = records.iter().filter(|r| r.result.is_ok()).count();
    let cached = records
        .iter()
        .filter(|r| r.result.is_ok() && r.cached)
        .count();
    values.extend([
        ("engine.digest_ms", ms("engine.digest")),
        ("engine.store_ms", ms("engine.store")),
        ("engine.lookup_ms", ms("engine.lookup")),
        ("engine.encode_ms", ms("engine.encode")),
        ("engine.decode_ms", ms("engine.decode")),
        ("engine.entry_kb", mean_kb(&entry_bytes)),
        ("wire.encode_ms", ms("wire.encode")),
        ("wire.decode_ms", ms("wire.decode")),
        ("wire.result_kb", mean_kb(&line_bytes)),
        ("serve.queue_ms_p50", metrics::median(&queue).unwrap_or(0.0)),
        ("serve.run_ms_p50", metrics::median(&running).unwrap_or(0.0)),
        (
            "serve.deliver_ms_p50",
            metrics::median(&deliver).unwrap_or(0.0),
        ),
        (
            "serve.hit_ratio",
            if completed == 0 {
                0.0
            } else {
                cached as f64 / completed as f64
            },
        ),
        (
            "serve.rejected",
            records.iter().filter(|r| r.rejected).count() as f64,
        ),
        (
            "serve.hit_rebuild_pct",
            // a served hit decodes twice: the daemon's cache lookup and
            // this client's wire decode
            metrics::median(&sweep_hits).map_or(0.0, |hit_s| 100.0 * 2.0 * rebuild_s / hit_s),
        ),
        ("trace.overhead_pct", 100.0 * (replay_s / untraced_s - 1.0)),
    ]);
    metrics::print_tail("serve.queue_ms_p90", "ms", &queue, 0.9);
    println!(
        "catalog sweep hits: n={}, generator rebuild per decode {:.4} s",
        sweep_hits.len(),
        rebuild_s
    );
    println!("untraced catalog runs {untraced_s:.4} s, traced replays {replay_s:.4} s");
    sweep::print_profile(&spans, &roots);
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_mix() -> Mix {
        Mix {
            catalog: vec![
                (JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8, 16]), 2),
                (JobSpec::solve_at(CircuitSource::iscas85("c432"), 64), 2),
                (
                    JobSpec::coverage_curve(CircuitSource::iscas85("c17"), [8, 32]),
                    2,
                ),
                (JobSpec::estimate(CircuitSource::iscas85("c432"), 256), 1),
            ],
            fresh: vec![
                (Fresh::SolveAt("c17"), 1),
                (Fresh::Curve("c432"), 1),
                (Fresh::Estimate("c432"), 1),
                (Fresh::InlineCurve, 1),
            ],
            inline: "c17",
            max_len: 200,
        }
    }

    #[test]
    fn the_stream_is_fixed_by_its_seed() {
        let keys = |seed| {
            let mut stream = Stream::new(workload_mix(), seed).expect("stream");
            (0..300)
                .map(|_| key(&stream.next_job().spec))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(1), keys(1));
        assert_ne!(keys(1), keys(2));
        let mix = workload_mix();
        let deck = mix.deck_len();
        assert_eq!(
            (deck, mix.deck_fresh()),
            (20, 6),
            "70 % repeats, 30 % fresh"
        );
        let mut stream = Stream::new(mix.clone(), 7).expect("stream");
        let jobs: Vec<StreamJob> = (0..50 * deck).map(|_| stream.next_job()).collect();
        // every deck has the same composition, in its own order
        let composition = |deck: &[StreamJob]| {
            let mut kinds: Vec<(bool, &str)> =
                deck.iter().map(|j| (j.fresh, j.spec.kind())).collect();
            kinds.sort_unstable();
            kinds
        };
        let orders: BTreeSet<Vec<String>> = jobs
            .chunks(deck)
            .map(|d| {
                assert_eq!(composition(d), composition(&jobs[..deck]));
                d.iter().map(|j| j.spec.kind().to_owned()).collect()
            })
            .collect();
        assert!(orders.len() > 1, "decks are shuffled");
        for (spec, n) in &mix.catalog {
            let repeats = jobs[..deck]
                .iter()
                .filter(|j| key(&j.spec) == key(spec))
                .count();
            assert_eq!(repeats, *n);
        }
        let fresh = jobs.iter().filter(|j| j.fresh).count();
        let fresh_keys: BTreeSet<String> = jobs
            .iter()
            .filter(|j| j.fresh)
            .map(|j| key(&j.spec))
            .collect();
        assert_eq!(fresh_keys.len(), fresh, "fresh specs are never repeated");
        // each circuit keeps one spelling: c880 only as `.bench` text
        assert!(jobs.iter().all(
            |j| !matches!(j.spec.circuit(), CircuitSource::Iscas85 { name } if name == "c880")
        ));
    }

    #[test]
    fn smoke_serve_mix_passes_the_output_check() {
        let launch = |dir: &Path| -> Result<Daemon, String> {
            let server = bist_cli::serve::Server::bind(bist_cli::serve::ServeConfig {
                listen: Some("127.0.0.1:0".to_owned()),
                jobs: 2,
                queue_capacity: 64,
                retry_after_ms: 100,
                cache: Some(ResultCache::at(dir)),
                ..Default::default()
            })
            .map_err(|e| format!("{e:?}"))?;
            let addr = server.tcp_addr().expect("tcp").to_string();
            let thread = std::thread::spawn(move || server.serve().expect("serve"));
            Ok(Daemon::InProcess { addr, thread })
        };
        let mut run = Run::smoke("serve-smoke");
        let plain = super::run(&smoke_mix(), &run, &launch).expect("smoke serve-mix");
        assert_eq!(plain.failed, 0, "{:?}", plain.errors);
        assert!(plain.attempted > 4, "the phase served jobs");
        for def in metrics::END_TO_END {
            assert!(
                plain.values[def.name].is_finite() && plain.values[def.name] > 0.0,
                "{}",
                def.name
            );
        }
        run.trace = true;
        let traced = super::run(&smoke_mix(), &run, &launch).expect("traced smoke serve-mix");
        assert_eq!(traced.failed, 0, "{:?}", traced.errors);
        for def in metrics::PER_LAYER {
            assert!(traced.values[def.name].is_finite(), "{}", def.name);
        }
        assert!(traced.values["serve.hit_ratio"] > 0.0);
    }
}
