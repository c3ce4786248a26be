//! `bist serve` — the multi-tenant test service.
//!
//! The server accepts NDJSON [`wire`] requests over
//! plain `TcpListener` (and, on unix, a unix-domain socket), multiplexes
//! any number of concurrent client sessions onto a pool of worker
//! threads, and answers repeated submissions from the engine's
//! server-lifetime [`ResultCache`]. There are no runtime dependencies:
//! the whole daemon is std threads, sockets and condvars.
//!
//! Scheduling is fair FIFO-per-client: every connection owns a private
//! queue and workers round-robin over the clients, so one tenant
//! submitting a thousand sweeps cannot starve another's single lint.
//! Admission control is a bounded global queue — when it is full the
//! submission is *rejected* with a suggested retry delay, never
//! silently parked. A [`Request::Shutdown`] stops admission and drains
//! every queued and in-flight job before [`Server::serve`] returns.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bist_engine::wire::{self, Request, Response, ServerStats, WireCacheStats};
use bist_engine::{Engine, JobId, JobSpec, ResultCache};

use crate::commands::CommandError;

/// How long the accept loops sleep between non-blocking polls, and how
/// long a worker blocks on a job's progress feed per pull.
const POLL: Duration = Duration::from_millis(25);

/// The longest request line the daemon reads, newline excluded: 4 MiB,
/// about forty times the largest ISCAS netlist sent inline (c7552's
/// `.bench` text is 98 kB). A longer line is rejected and its connection
/// closed, so a client that never sends a newline cannot grow the
/// daemon's memory without limit.
pub const MAX_REQUEST_LINE: usize = 4 << 20;

/// Configuration for [`Server::bind`].
#[derive(Debug, Default)]
pub struct ServeConfig {
    /// TCP listen address (`host:port`). When neither this nor
    /// `socket` is given the CLI defaults to `127.0.0.1:7117`.
    pub listen: Option<String>,
    /// Unix-domain socket path (unix platforms only).
    pub socket: Option<PathBuf>,
    /// Worker threads executing jobs (`0` = the machine width).
    pub jobs: usize,
    /// Admission-control bound: submissions beyond this many queued
    /// jobs are rejected with a retry hint.
    pub queue_capacity: usize,
    /// The retry delay suggested to rejected clients, milliseconds.
    pub retry_after_ms: u64,
    /// Server-lifetime result cache (with its LRU capacity already
    /// applied via [`ResultCache::with_capacity`]).
    pub cache: Option<ResultCache>,
}

/// One queued submission: which client it belongs to, its
/// server-assigned job number, and where to stream its events.
struct Ticket {
    job: u64,
    spec: JobSpec,
    writer: ClientWriter,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("job", &self.job)
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// A connection's write half, shared between its reader thread (acks,
/// stats) and whichever worker runs its jobs. Write errors are
/// swallowed: a vanished client must not take a worker down.
type ClientWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes `line` and its newline in one `write_all`, so a response leaves
/// as one segment rather than a line and a trailing byte the peer's
/// delayed ACK would hold back.
fn send_line(writer: &ClientWriter, line: &str) {
    let mut framed = String::with_capacity(line.len() + 1);
    framed.push_str(line);
    framed.push('\n');
    let mut w = writer.lock().expect("client writer lock never poisoned");
    let _ = w.write_all(framed.as_bytes());
    let _ = w.flush();
}

/// The per-client queues and the round-robin order workers pull in.
#[derive(Debug, Default)]
struct Sched {
    queues: BTreeMap<u64, VecDeque<Ticket>>,
    order: VecDeque<u64>,
    queued: usize,
    running: usize,
}

impl Sched {
    fn push(&mut self, client: u64, ticket: Ticket) {
        let queue = self.queues.entry(client).or_default();
        if queue.is_empty() {
            self.order.push_back(client);
        }
        queue.push_back(ticket);
        self.queued += 1;
    }

    /// Next ticket, round-robin over clients with work.
    fn pop(&mut self) -> Option<Ticket> {
        let client = self.order.pop_front()?;
        let queue = self
            .queues
            .get_mut(&client)
            .expect("ordered client has a queue");
        let ticket = queue.pop_front().expect("ordered queue is non-empty");
        if queue.is_empty() {
            self.queues.remove(&client);
        } else {
            self.order.push_back(client);
        }
        self.queued -= 1;
        Some(ticket)
    }
}

/// State shared by acceptors, connection readers and workers.
#[derive(Debug)]
struct Shared {
    engine: Engine,
    sched: Mutex<Sched>,
    work_ready: Condvar,
    draining: AtomicBool,
    queue_capacity: usize,
    retry_after_ms: u64,
    next_client: AtomicU64,
    next_job: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    started: Instant,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let (queued, running) = {
            let sched = self.sched.lock().expect("sched lock never poisoned");
            (sched.queued as u64, sched.running as u64)
        };
        let cache = self.engine.cache().map(|cache| {
            let disk = cache.disk_stats();
            WireCacheStats {
                hits: cache.hits(),
                misses: cache.misses(),
                stores: cache.stores(),
                evictions: cache.evictions(),
                entries: disk.entries as u64,
                bytes: disk.bytes,
                capacity_bytes: cache.capacity(),
            }
        });
        ServerStats {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            submitted: self.submitted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            failed: self.failed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            queued,
            running,
            cache,
        }
    }
}

/// A bound-but-not-yet-serving `bist serve` daemon.
///
/// [`Server::bind`] claims the sockets (so tests can bind port `0` and
/// read the real address back); [`Server::serve`] runs until a
/// [`Request::Shutdown`] drains the queue.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    jobs: usize,
    tcp: Option<TcpListener>,
    #[cfg(unix)]
    unix: Option<std::os::unix::net::UnixListener>,
    socket_path: Option<PathBuf>,
}

impl Server {
    /// Binds the configured listeners and builds the shared engine.
    ///
    /// # Errors
    ///
    /// [`CommandError::Io`] when a socket cannot be bound, and
    /// [`CommandError::Usage`] when no listener is configured (or a
    /// unix socket is requested off-unix).
    pub fn bind(config: ServeConfig) -> Result<Self, CommandError> {
        let tcp = match &config.listen {
            Some(addr) => Some(
                TcpListener::bind(addr)
                    .map_err(|e| CommandError::Io(format!("cannot listen on {addr}: {e}")))?,
            ),
            None => None,
        };
        #[cfg(unix)]
        let unix = match &config.socket {
            Some(path) => {
                // a previous unclean shutdown leaves the socket file
                // behind; rebinding it is the expected recovery
                let _ = std::fs::remove_file(path);
                Some(std::os::unix::net::UnixListener::bind(path).map_err(|e| {
                    CommandError::Io(format!("cannot listen on {}: {e}", path.display()))
                })?)
            }
            None => None,
        };
        #[cfg(not(unix))]
        if config.socket.is_some() {
            return Err(CommandError::Io(
                "--socket needs a unix platform; use --listen".to_owned(),
            ));
        }
        let none_bound = tcp.is_none() && config.socket.is_none();
        if none_bound {
            return Err(CommandError::Io(
                "serve needs --listen or --socket".to_owned(),
            ));
        }
        // one level of parallelism: the worker pool is the concurrency,
        // each job runs serially (results are bit-identical either way)
        let mut engine = Engine::with_threads(1);
        if let Some(cache) = config.cache {
            engine = engine.with_result_cache(cache);
        }
        Ok(Server {
            shared: Arc::new(Shared {
                engine,
                sched: Mutex::new(Sched::default()),
                work_ready: Condvar::new(),
                draining: AtomicBool::new(false),
                queue_capacity: config.queue_capacity.max(1),
                retry_after_ms: config.retry_after_ms,
                next_client: AtomicU64::new(1),
                next_job: AtomicU64::new(1),
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                started: Instant::now(),
            }),
            jobs: config.jobs,
            tcp,
            #[cfg(unix)]
            unix,
            socket_path: config.socket,
        })
    }

    /// The bound TCP address, when listening on TCP (`--listen
    /// 127.0.0.1:0` binds an ephemeral port; this reports which).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The bound unix-socket path, when listening on one.
    pub fn socket_path(&self) -> Option<&PathBuf> {
        self.socket_path.as_ref()
    }

    /// Runs the service until a [`Request::Shutdown`] arrives and every
    /// queued and in-flight job has drained. Returns `Ok(())` on a
    /// graceful shutdown — the daemon's exit code 0.
    ///
    /// # Errors
    ///
    /// [`CommandError::Io`] when a service thread cannot be spawned.
    pub fn serve(self) -> Result<(), CommandError> {
        let workers = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.jobs
        };
        let spawn_err = |e: std::io::Error| CommandError::Io(format!("cannot spawn: {e}"));
        let mut threads = Vec::new();
        for index in 0..workers {
            let shared = self.shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("bist-serve-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(spawn_err)?,
            );
        }
        if let Some(listener) = self.tcp {
            let shared = self.shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("bist-serve-accept-tcp".to_owned())
                    .spawn(move || accept_tcp(&shared, &listener))
                    .map_err(spawn_err)?,
            );
        }
        #[cfg(unix)]
        if let Some(listener) = self.unix {
            let shared = self.shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("bist-serve-accept-unix".to_owned())
                    .spawn(move || accept_unix(&shared, &listener))
                    .map_err(spawn_err)?,
            );
        }
        for thread in threads {
            let _ = thread.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

fn accept_tcp(shared: &Arc<Shared>, listener: &TcpListener) {
    let _ = listener.set_nonblocking(true);
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                // responses are small lines a waiting client reads at
                // once: Nagle would hold each behind the previous ACK
                let _ = stream.set_nodelay(true);
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                spawn_connection(shared, reader, Box::new(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
}

#[cfg(unix)]
fn accept_unix(shared: &Arc<Shared>, listener: &std::os::unix::net::UnixListener) {
    let _ = listener.set_nonblocking(true);
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                spawn_connection(shared, reader, Box::new(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => break,
        }
    }
}

fn spawn_connection(
    shared: &Arc<Shared>,
    reader: impl Read + Send + 'static,
    write_half: Box<dyn Write + Send>,
) {
    let client = shared.next_client.fetch_add(1, Ordering::SeqCst);
    let shared = shared.clone();
    let writer: ClientWriter = Arc::new(Mutex::new(write_half));
    // detached: the thread exits when the client hangs up; serve() only
    // waits for workers (job completion), never for idle connections
    let _ = std::thread::Builder::new()
        .name(format!("bist-serve-client-{client}"))
        .spawn(move || read_requests(&shared, client, reader, &writer));
}

fn read_requests(shared: &Arc<Shared>, client: u64, reader: impl Read, writer: &ClientWriter) {
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // one byte past the cap tells an over-long line from a full one
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_REQUEST_LINE {
            send_line(
                writer,
                &wire::encode_response(&Response::Rejected {
                    reason: format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                    retry_after_ms: None,
                }),
            );
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match wire::decode_request(line) {
            Err(e) => send_line(
                writer,
                &wire::encode_response(&Response::Rejected {
                    reason: e.to_string(),
                    retry_after_ms: None,
                }),
            ),
            Ok(Request::Submit { spec }) => admit(shared, client, *spec, writer),
            Ok(Request::Stats) => send_line(
                writer,
                &wire::encode_response(&Response::Stats {
                    stats: shared.stats(),
                }),
            ),
            Ok(Request::Shutdown) => {
                let (queued, running) = begin_drain(shared);
                send_line(
                    writer,
                    &wire::encode_response(&Response::Stopping { queued, running }),
                );
            }
        }
    }
}

/// Admission control: reject when draining or when the bounded queue is
/// full; otherwise assign a job number, enqueue on the client's private
/// queue and ack with [`Response::Accepted`].
fn admit(shared: &Shared, client: u64, spec: JobSpec, writer: &ClientWriter) {
    // the draining check lives under the sched lock so a shutdown
    // cannot slip between it and the enqueue (which would strand a
    // ticket no worker will ever pop); the `Accepted` line is also sent
    // under it — before the ticket becomes visible — so a fast worker
    // cannot interleave progress events ahead of the acceptance
    let mut sched = shared.sched.lock().expect("sched lock never poisoned");
    let rejection = if shared.draining.load(Ordering::SeqCst) {
        Response::Rejected {
            reason: "server is draining for shutdown".to_owned(),
            retry_after_ms: None,
        }
    } else if sched.queued >= shared.queue_capacity {
        Response::Rejected {
            reason: format!("queue full ({} jobs waiting)", sched.queued),
            retry_after_ms: Some(shared.retry_after_ms),
        }
    } else {
        let job = shared.next_job.fetch_add(1, Ordering::SeqCst);
        send_line(writer, &wire::encode_response(&Response::Accepted { job }));
        sched.push(
            client,
            Ticket {
                job,
                spec,
                writer: writer.clone(),
            },
        );
        shared.submitted.fetch_add(1, Ordering::SeqCst);
        shared.work_ready.notify_one();
        return;
    };
    shared.rejected.fetch_add(1, Ordering::SeqCst);
    drop(sched);
    send_line(writer, &wire::encode_response(&rejection));
}

/// Stops admission and wakes everyone; queued and in-flight jobs still
/// run to completion. Returns the queue depth at the moment of the
/// request, for [`Response::Stopping`].
fn begin_drain(shared: &Shared) -> (u64, u64) {
    let sched = shared.sched.lock().expect("sched lock never poisoned");
    shared.draining.store(true, Ordering::SeqCst);
    let snapshot = (sched.queued as u64, sched.running as u64);
    drop(sched);
    shared.work_ready.notify_all();
    snapshot
}

/// One worker: pop round-robin, run, repeat; exit once draining and
/// the queue is empty.
fn worker_loop(shared: &Shared) {
    loop {
        let ticket = {
            let mut sched = shared.sched.lock().expect("sched lock never poisoned");
            loop {
                if let Some(ticket) = sched.pop() {
                    sched.running += 1;
                    break Some(ticket);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                sched = shared
                    .work_ready
                    .wait(sched)
                    .expect("sched lock never poisoned");
            }
        };
        let Some(ticket) = ticket else { return };
        run_ticket(shared, &ticket);
        let mut sched = shared.sched.lock().expect("sched lock never poisoned");
        sched.running -= 1;
    }
}

/// Runs one admitted job on the shared engine, streaming its progress
/// events (retagged with the server-assigned job number) and its
/// terminal result/failure line back to the submitting client.
fn run_ticket(shared: &Shared, ticket: &Ticket) {
    let job = ticket.job;
    let handle = shared.engine.submit(ticket.spec.clone());
    let feed = handle.progress().clone();
    let forward = |event: bist_engine::ProgressEvent| {
        send_line(
            &ticket.writer,
            &wire::encode_response(&Response::Event {
                event: event.with_job(JobId(job)),
            }),
        );
    };
    while !handle.is_finished() {
        if let Some(event) = feed.poll_timeout(POLL) {
            forward(event);
        }
    }
    for event in feed.drain() {
        forward(event);
    }
    let cached = handle.cache_hit().unwrap_or(false);
    match handle.wait() {
        Ok(result) => {
            shared.completed.fetch_add(1, Ordering::SeqCst);
            send_line(
                &ticket.writer,
                &wire::encode_response(&Response::Result {
                    job,
                    cached,
                    result: Box::new(result),
                }),
            );
        }
        Err(e) => {
            shared.failed.fetch_add(1, Ordering::SeqCst);
            send_line(
                &ticket.writer,
                &wire::encode_response(&Response::Failed {
                    job,
                    error: e.to_string(),
                }),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(job: u64) -> Ticket {
        Ticket {
            job,
            spec: JobSpec::lint(bist_engine::CircuitSource::iscas85("c17")),
            writer: Arc::new(Mutex::new(Box::new(std::io::sink()))),
        }
    }

    #[test]
    fn sched_round_robins_across_clients() {
        let mut sched = Sched::default();
        sched.push(1, ticket(10));
        sched.push(1, ticket(11));
        sched.push(2, ticket(20));
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop()).map(|t| t.job).collect();
        assert_eq!(order, vec![10, 20, 11]);
        assert_eq!(sched.queued, 0);
    }

    #[test]
    fn sched_is_fifo_within_one_client() {
        let mut sched = Sched::default();
        for job in [1, 2, 3] {
            sched.push(7, ticket(job));
        }
        let order: Vec<u64> = std::iter::from_fn(|| sched.pop()).map(|t| t.job).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn bind_rejects_a_listenerless_config() {
        let err = Server::bind(ServeConfig {
            queue_capacity: 4,
            ..ServeConfig::default()
        });
        assert!(matches!(err, Err(CommandError::Io(_))));
    }

    #[test]
    fn bind_reports_the_ephemeral_tcp_port() {
        let server = Server::bind(ServeConfig {
            listen: Some("127.0.0.1:0".to_owned()),
            queue_capacity: 4,
            retry_after_ms: 100,
            ..ServeConfig::default()
        })
        .expect("bind 127.0.0.1:0");
        let addr = server.tcp_addr().expect("tcp listener bound");
        assert_ne!(addr.port(), 0);
    }
}
