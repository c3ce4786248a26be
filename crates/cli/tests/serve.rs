//! End-to-end contract of `bist serve`: concurrent clients over real
//! TCP sockets get results byte-identical to one-shot local runs, the
//! server-lifetime cache answers repeats without re-simulation,
//! admission control rejects (never hangs) when the queue is full, an
//! over-long request line is rejected without taking the daemon down, a
//! line just under the cap is answered promptly, a spec with a degree-0
//! LFSR polynomial fails alone, and a shutdown request drains in-flight
//! jobs before `serve()` returns.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bist_cli::commands::CommandError;
use bist_cli::render::result_json;
use bist_cli::serve::{ServeConfig, Server, MAX_REQUEST_LINE};
use bist_engine::wire::{self, Request, Response};
use bist_engine::{
    CircuitSource, Engine, FaultModel, JobResult, JobSpec, MixedSchemeConfig, ResultCache,
};

fn fresh_dir(test: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "bist-serve-{test}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a server on an ephemeral loopback port; returns its address
/// and the thread `serve()` runs on (joins to its exit status).
fn start(
    config: ServeConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<(), CommandError>>,
) {
    let server = Server::bind(ServeConfig {
        listen: Some("127.0.0.1:0".to_owned()),
        ..config
    })
    .expect("bind an ephemeral port");
    let addr = server.tcp_addr().expect("tcp listener bound");
    let thread = std::thread::spawn(move || server.serve());
    (addr, thread)
}

/// One raw wire session — deliberately not the [`bist_cli::client`]
/// plumbing, so the protocol itself is what's under test.
struct TestClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TestClient {
    /// Connects the way `bist --connect` does: `TCP_NODELAY`, one write
    /// per request line.
    fn connect(addr: SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to test server");
        writer.set_nodelay(true).expect("disable Nagle");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        TestClient { reader, writer }
    }

    fn send(&mut self, request: &Request) {
        let mut line = wire::encode_request(request);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .expect("send request line");
    }

    fn next(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert_ne!(n, 0, "server closed the connection mid-session");
        wire::decode_response(line.trim_end()).expect("response line decodes")
    }

    /// Submits and pumps the session until the terminal result,
    /// asserting every event belongs to the accepted job.
    fn run(&mut self, spec: JobSpec) -> (JobResult, bool) {
        self.send(&Request::Submit {
            spec: Box::new(spec),
        });
        let mut job = None;
        loop {
            match self.next() {
                Response::Accepted { job: id } => job = Some(id),
                Response::Event { event } => {
                    assert_eq!(Some(event.job().0), job, "events carry the accepted id");
                }
                Response::Result {
                    job: id,
                    cached,
                    result,
                } => {
                    assert_eq!(Some(id), job);
                    return (*result, cached);
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
    }
}

fn sweep_spec() -> JobSpec {
    JobSpec::sweep(CircuitSource::iscas85("c17"), [0, 8])
}

fn solve_spec() -> JobSpec {
    JobSpec::solve_at(CircuitSource::iscas85("c17"), 4)
}

fn model_sweep_spec(model: FaultModel) -> JobSpec {
    let mut spec = sweep_spec();
    if let JobSpec::Sweep(s) = &mut spec {
        s.fault_model = model;
    }
    spec
}

#[test]
fn fault_model_jobs_cross_the_wire_and_hit_the_server_cache() {
    let dir = fresh_dir("models");
    let (addr, server) = start(ServeConfig {
        jobs: 1,
        queue_capacity: 16,
        retry_after_ms: 100,
        cache: Some(ResultCache::at(&dir)),
        ..ServeConfig::default()
    });

    let local = Engine::with_threads(1);
    for model in [FaultModel::Transition, FaultModel::bridging()] {
        let (served, cached) = TestClient::connect(addr).run(model_sweep_spec(model));
        assert!(!cached, "cold cache: computed");
        let reference = local.run(model_sweep_spec(model)).expect("local run");
        assert_eq!(
            result_json(&served).render_pretty(),
            result_json(&reference).render_pretty(),
            "served {model} sweep is byte-identical to a local run"
        );
        let (again, cached) = TestClient::connect(addr).run(model_sweep_spec(model));
        assert!(cached, "identical {model} resubmission is a cache hit");
        assert_eq!(
            result_json(&again).render_pretty(),
            result_json(&served).render_pretty()
        );
    }
    // the stuck-at entry is untouched by the model runs: a default
    // sweep still computes fresh
    let (_, cached) = TestClient::connect(addr).run(sweep_spec());
    assert!(!cached, "models never alias the stuck-at entry");

    let mut control = TestClient::connect(addr);
    control.send(&Request::Shutdown);
    let Response::Stopping { .. } = control.next() else {
        panic!("shutdown request answers with stopping");
    };
    server
        .join()
        .expect("serve thread")
        .expect("graceful shutdown exits cleanly");
}

/// A cache hit of a c17 solve is far faster than a delayed ACK. A
/// response written as a line and then its newline in a second small
/// segment, with Nagle's algorithm on, waits for the client's delayed ACK
/// (40 ms on Linux), so the median hit over one connection would read
/// 40 ms or more.
#[test]
fn cache_hits_over_one_connection_are_not_held_back_by_delayed_acks() {
    let dir = fresh_dir("latency");
    let (addr, server) = start(ServeConfig {
        jobs: 1,
        queue_capacity: 16,
        retry_after_ms: 100,
        cache: Some(ResultCache::at(&dir)),
        ..ServeConfig::default()
    });

    let mut client = TestClient::connect(addr);
    let (_, cached) = client.run(solve_spec());
    assert!(!cached, "cold cache: computed");
    let mut hits_ms: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            let (_, cached) = client.run(solve_spec());
            assert!(cached, "repeat is a cache hit");
            1e3 * start.elapsed().as_secs_f64()
        })
        .collect();
    hits_ms.sort_by(f64::total_cmp);
    let median = hits_ms[hits_ms.len() / 2];
    assert!(
        median < 20.0,
        "median cache hit took {median:.1} ms, a delayed-ACK stall: {hits_ms:?}"
    );

    client.send(&Request::Shutdown);
    let Response::Stopping { .. } = client.next() else {
        panic!("shutdown request answers with stopping");
    };
    server
        .join()
        .expect("serve thread")
        .expect("graceful shutdown exits cleanly");
}

#[test]
fn concurrent_clients_match_one_shot_runs_and_repeats_hit_the_cache() {
    let dir = fresh_dir("concurrent");
    let (addr, server) = start(ServeConfig {
        jobs: 2,
        queue_capacity: 16,
        retry_after_ms: 100,
        cache: Some(ResultCache::at(&dir)),
        ..ServeConfig::default()
    });

    // two tenants submit different jobs at the same time
    let sweeper = std::thread::spawn(move || TestClient::connect(addr).run(sweep_spec()));
    let solver = std::thread::spawn(move || TestClient::connect(addr).run(solve_spec()));
    let (sweep_served, sweep_cached) = sweeper.join().expect("sweep client");
    let (solve_served, solve_cached) = solver.join().expect("solve client");
    assert!(!sweep_cached && !solve_cached, "cold cache: both computed");

    // byte-identical to the one-shot CLI path (same renderer, local run)
    let local = Engine::with_threads(1);
    let sweep_local = local.run(sweep_spec()).expect("local sweep");
    let solve_local = local.run(solve_spec()).expect("local solve");
    assert_eq!(
        result_json(&sweep_served).render_pretty(),
        result_json(&sweep_local).render_pretty(),
        "served sweep is byte-identical to a one-shot run"
    );
    assert_eq!(
        result_json(&solve_served).render_pretty(),
        result_json(&solve_local).render_pretty(),
        "served solve is byte-identical to a one-shot run"
    );

    // a repeat submission is answered from the server-lifetime cache
    let (sweep_again, cached) = TestClient::connect(addr).run(sweep_spec());
    assert!(cached, "identical resubmission is a cache hit");
    assert_eq!(
        result_json(&sweep_again).render_pretty(),
        result_json(&sweep_served).render_pretty(),
        "cached result is byte-identical to the computed one"
    );

    // lifetime stats see the traffic and the hit
    let mut control = TestClient::connect(addr);
    control.send(&Request::Stats);
    let Response::Stats { stats } = control.next() else {
        panic!("stats request answers with stats");
    };
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
    let cache = stats.cache.expect("server runs with a cache");
    assert_eq!(cache.hits, 1);
    assert_eq!(cache.stores, 2);

    // graceful shutdown: serve() returns Ok (the daemon's exit 0)
    control.send(&Request::Shutdown);
    let Response::Stopping { .. } = control.next() else {
        panic!("shutdown request answers with stopping");
    };
    server
        .join()
        .expect("serve thread")
        .expect("graceful shutdown exits cleanly");
}

#[test]
fn a_full_queue_rejects_with_a_retry_hint_and_shutdown_drains_in_flight_work() {
    let (addr, server) = start(ServeConfig {
        jobs: 1,
        queue_capacity: 1,
        retry_after_ms: 250,
        ..ServeConfig::default()
    });

    // occupy the single worker with a long job (about 0.7 s in release;
    // a c432 sweep can finish within the pause below) …
    let mut busy = TestClient::connect(addr);
    busy.send(&Request::Submit {
        spec: Box::new(JobSpec::sweep(CircuitSource::iscas85("c1355"), [0])),
    });
    let Response::Accepted { .. } = busy.next() else {
        panic!("first submission admitted");
    };
    // … give the worker a moment to pop it off the queue …
    std::thread::sleep(std::time::Duration::from_millis(150));

    // … then fill the queue; the overflow submission must be rejected
    // promptly, not parked
    let mut eager = TestClient::connect(addr);
    let mut rejections = 0;
    for _ in 0..2 {
        eager.send(&Request::Submit {
            spec: Box::new(solve_spec()),
        });
        match eager.next() {
            Response::Accepted { .. } => {}
            Response::Rejected {
                reason,
                retry_after_ms,
            } => {
                rejections += 1;
                assert!(reason.contains("queue full"), "reason names the cause");
                assert_eq!(retry_after_ms, Some(250), "rejection carries the hint");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(rejections >= 1, "a bounded queue must reject overflow");

    // shutdown drains: the in-flight sweep still completes and its
    // client still receives the terminal result line
    let mut control = TestClient::connect(addr);
    control.send(&Request::Shutdown);
    let Response::Stopping { .. } = control.next() else {
        panic!("shutdown request answers with stopping");
    };
    let drained = loop {
        match busy.next() {
            Response::Event { .. } => {}
            Response::Result { result, .. } => break result,
            other => panic!("unexpected response: {other:?}"),
        }
    };
    assert!(
        drained.as_sweep().is_some(),
        "in-flight job ran to completion"
    );
    server
        .join()
        .expect("serve thread")
        .expect("drained shutdown exits cleanly");

    // and a post-drain submission is refused, not hung: either the
    // listener is already gone (connection refused) or the session is
    // answered with a rejection / closed without a result
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(stream) => {
            let mut late = TestClient {
                reader: BufReader::new(stream.try_clone().expect("clone socket")),
                writer: stream,
            };
            late.send(&Request::Submit {
                spec: Box::new(solve_spec()),
            });
            matches!(late.next_or_eof(), None | Some(Response::Rejected { .. }))
        }
    };
    assert!(refused, "a draining/stopped server refuses new work");
}

#[test]
fn an_over_long_request_line_is_rejected_and_the_daemon_keeps_serving() {
    let (addr, server) = start(ServeConfig {
        jobs: 1,
        queue_capacity: 4,
        retry_after_ms: 100,
        ..ServeConfig::default()
    });

    // a client that streams one byte past the cap and never a newline
    let mut hostile = TestClient::connect(addr);
    let chunk = vec![b'x'; 64 << 10];
    let mut left = MAX_REQUEST_LINE + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        hostile.writer.write_all(&chunk[..n]).expect("stream bytes");
        left -= n;
    }
    hostile.writer.flush().expect("flush");
    match hostile.next() {
        Response::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert!(
                reason.contains(&MAX_REQUEST_LINE.to_string()),
                "the rejection names the cap: {reason}"
            );
            assert_eq!(retry_after_ms, None, "retrying cannot help");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    assert!(
        hostile.next_or_eof().is_none(),
        "the over-long connection is closed"
    );

    // another tenant is still served
    let (solved, cached) = TestClient::connect(addr).run(solve_spec());
    assert!(!cached);
    assert!(solved.as_solve_at().is_some(), "c17 solve answered");

    let mut control = TestClient::connect(addr);
    control.send(&Request::Shutdown);
    let Response::Stopping { .. } = control.next() else {
        panic!("shutdown request answers with stopping");
    };
    server
        .join()
        .expect("serve thread")
        .expect("graceful shutdown exits cleanly");
}

#[test]
fn a_degree_0_polynomial_fails_its_job_and_the_daemon_keeps_serving() {
    let (addr, server) = start(ServeConfig {
        jobs: 1,
        queue_capacity: 4,
        retry_after_ms: 100,
        ..ServeConfig::default()
    });

    // a hand-edited submit line: c17's solve with the constant polynomial
    let line = wire::encode_request(&Request::Submit {
        spec: Box::new(solve_spec()),
    });
    let poly = format!(r#""{:016x}""#, MixedSchemeConfig::default().poly.mask());
    assert_eq!(
        line.matches(&poly).count(),
        1,
        "one field holds the polynomial"
    );
    let line = line.replace(&poly, r#""0000000000000001""#) + "\n";
    let mut tenant = TestClient::connect(addr);
    tenant
        .writer
        .write_all(line.as_bytes())
        .and_then(|()| tenant.writer.flush())
        .expect("send the edited line");
    let error = loop {
        match tenant.next() {
            Response::Accepted { .. } | Response::Event { .. } => {}
            Response::Failed { error, .. } => break error,
            other => panic!("unexpected response: {other:?}"),
        }
    };
    assert!(
        error.contains("degree 0"),
        "the failure names the degree: {error}"
    );

    // another tenant is still served
    let (solved, cached) = TestClient::connect(addr).run(solve_spec());
    assert!(!cached);
    assert!(solved.as_solve_at().is_some(), "c17 solve answered");

    let mut control = TestClient::connect(addr);
    control.send(&Request::Shutdown);
    let Response::Stopping { .. } = control.next() else {
        panic!("shutdown request answers with stopping");
    };
    server
        .join()
        .expect("serve thread")
        .expect("graceful shutdown exits cleanly");
}

#[test]
fn a_request_line_holding_one_long_string_is_answered_promptly() {
    let (addr, server) = start(ServeConfig {
        jobs: 1,
        queue_capacity: 4,
        retry_after_ms: 100,
        ..ServeConfig::default()
    });

    // a line just under the cap whose spec is one JSON string: parsing
    // it must take time linear in its length, not pin a reader thread
    let head = r#"{"v":1,"type":"submit","spec":""#;
    let tail = "\"}\n";
    let mut line = String::with_capacity(MAX_REQUEST_LINE);
    line.push_str(head);
    line.push_str(&"A".repeat(MAX_REQUEST_LINE - head.len() - tail.len()));
    line.push_str(tail);
    assert_eq!(line.len(), MAX_REQUEST_LINE);

    let mut hostile = TestClient::connect(addr);
    hostile
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set a read timeout");
    let start = Instant::now();
    hostile
        .writer
        .write_all(line.as_bytes())
        .and_then(|()| hostile.writer.flush())
        .expect("send the line");
    let mut answer = String::new();
    hostile
        .reader
        .read_line(&mut answer)
        .expect("the daemon answers within 5 s");
    let elapsed = start.elapsed();
    match wire::decode_response(answer.trim_end()).expect("response decodes") {
        Response::Rejected { retry_after_ms, .. } => {
            assert_eq!(retry_after_ms, None, "retrying cannot help");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(5),
        "answered after {elapsed:?}"
    );

    let mut control = TestClient::connect(addr);
    control.send(&Request::Shutdown);
    let Response::Stopping { .. } = control.next() else {
        panic!("shutdown request answers with stopping");
    };
    server
        .join()
        .expect("serve thread")
        .expect("graceful shutdown exits cleanly");
}

impl TestClient {
    /// Like [`TestClient::next`] but treats EOF as `None` — for
    /// post-shutdown probes where the server may already be gone.
    fn next_or_eof(&mut self) -> Option<Response> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(wire::decode_response(line.trim_end()).expect("response decodes")),
        }
    }
}
