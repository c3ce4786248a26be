//! The client side of `bist serve`: `--connect` routing for job
//! commands and the `bist server <stats|shutdown>` verbs.
//!
//! A remote run is deliberately indistinguishable from a local one at
//! the output level: progress events render through the same
//! [`event_line`] formatter on stderr, and the returned [`JobResult`]
//! feeds the same text/JSON renderers — so a served result is
//! byte-identical on stdout to the one-shot CLI run that would have
//! computed it locally.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use bist_engine::wire::{self, Request, Response, ServerStats};
use bist_engine::{JobResult, JobSpec};

use crate::commands::CommandError;
use crate::opts::UsageError;
use crate::render::event_line;

/// A parsed `--connect` target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Connect {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A unix-domain socket path (`unix:/path`), unix platforms only.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Connect {
    /// Parses a `--connect` value: `unix:/path` is a unix socket,
    /// anything else a TCP `host:port`.
    ///
    /// # Errors
    ///
    /// [`UsageError`] for `unix:` targets on non-unix platforms.
    pub fn parse(target: &str) -> Result<Connect, UsageError> {
        if let Some(path) = target.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Connect::Unix(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(UsageError(format!(
                "unix socket target `{path}` needs a unix platform; use host:port"
            )));
        }
        Ok(Connect::Tcp(target.to_owned()))
    }

    fn open(&self) -> Result<Session, CommandError> {
        match self {
            Connect::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| CommandError::Io(format!("cannot connect to {addr}: {e}")))?;
                // one request line per exchange: send it without waiting
                // for the ACK of the previous segment
                stream
                    .set_nodelay(true)
                    .map_err(|e| CommandError::Io(format!("cannot configure socket: {e}")))?;
                let reader = stream
                    .try_clone()
                    .map_err(|e| CommandError::Io(format!("cannot clone socket: {e}")))?;
                Ok(Session {
                    reader: Box::new(BufReader::new(reader)),
                    writer: Box::new(stream),
                })
            }
            #[cfg(unix)]
            Connect::Unix(path) => {
                let stream = std::os::unix::net::UnixStream::connect(path).map_err(|e| {
                    CommandError::Io(format!("cannot connect to {}: {e}", path.display()))
                })?;
                let reader = stream
                    .try_clone()
                    .map_err(|e| CommandError::Io(format!("cannot clone socket: {e}")))?;
                Ok(Session {
                    reader: Box::new(BufReader::new(reader)),
                    writer: Box::new(stream),
                })
            }
        }
    }
}

/// One open connection: a line-buffered read half and a write half.
struct Session {
    reader: Box<dyn BufRead>,
    writer: Box<dyn Write>,
}

impl Session {
    fn send(&mut self, request: &Request) -> Result<(), CommandError> {
        let mut line = wire::encode_request(request);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| CommandError::Io(format!("cannot send request: {e}")))
    }

    fn next(&mut self) -> Result<Response, CommandError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| CommandError::Io(format!("connection lost: {e}")))?;
            if n == 0 {
                return Err(CommandError::Io("server closed the connection".to_owned()));
            }
            if line.trim().is_empty() {
                continue;
            }
            return wire::decode_response(line.trim_end())
                .map_err(|e| CommandError::Io(e.to_string()));
        }
    }
}

/// Submits one job to a running `bist serve`, streams its progress to
/// stderr (unless `quiet`) and returns the result.
///
/// # Errors
///
/// [`CommandError::Io`] when the server is unreachable, rejects the
/// submission (admission control or draining) or reports the job
/// failed; the rendered reason goes to the user verbatim.
pub fn run_remote(
    connect: &Connect,
    spec: JobSpec,
    quiet: bool,
) -> Result<JobResult, CommandError> {
    let mut session = connect.open()?;
    session.send(&Request::Submit {
        spec: Box::new(spec),
    })?;
    loop {
        match session.next()? {
            Response::Accepted { .. } => {}
            Response::Event { event } => {
                if !quiet {
                    eprintln!("{}", event_line(&event));
                }
            }
            Response::Result { result, cached, .. } => {
                if !quiet && cached {
                    eprintln!("bist: served from the result cache");
                }
                return Ok(*result);
            }
            Response::Failed { error, .. } => {
                return Err(CommandError::Io(format!("remote job failed: {error}")))
            }
            Response::Rejected {
                reason,
                retry_after_ms,
            } => {
                let hint =
                    retry_after_ms.map_or(String::new(), |ms| format!(" (retry after {ms} ms)"));
                return Err(CommandError::Io(format!(
                    "server rejected the job: {reason}{hint}"
                )));
            }
            Response::Stats { .. } | Response::Stopping { .. } => {
                return Err(CommandError::Io(
                    "unexpected control response to a submission".to_owned(),
                ))
            }
        }
    }
}

/// Fetches a running server's lifetime statistics.
///
/// # Errors
///
/// [`CommandError::Io`] on connection or protocol failure.
pub fn server_stats(connect: &Connect) -> Result<ServerStats, CommandError> {
    let mut session = connect.open()?;
    session.send(&Request::Stats)?;
    match session.next()? {
        Response::Stats { stats } => Ok(stats),
        other => Err(CommandError::Io(format!(
            "expected a stats response, got {other:?}"
        ))),
    }
}

/// Asks a running server to drain and exit; returns the `(queued,
/// running)` job counts it reported while stopping.
///
/// # Errors
///
/// [`CommandError::Io`] on connection or protocol failure.
pub fn server_shutdown(connect: &Connect) -> Result<(u64, u64), CommandError> {
    let mut session = connect.open()?;
    session.send(&Request::Shutdown)?;
    match session.next()? {
        Response::Stopping { queued, running } => Ok((queued, running)),
        other => Err(CommandError::Io(format!(
            "expected a stopping response, got {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_parse_by_scheme() {
        assert_eq!(
            Connect::parse("127.0.0.1:7117").expect("tcp"),
            Connect::Tcp("127.0.0.1:7117".to_owned())
        );
        #[cfg(unix)]
        assert_eq!(
            Connect::parse("unix:/tmp/bist.sock").expect("unix"),
            Connect::Unix(PathBuf::from("/tmp/bist.sock"))
        );
    }

    #[test]
    fn connecting_nowhere_is_an_io_error() {
        let connect = Connect::Tcp("127.0.0.1:1".to_owned());
        assert!(matches!(
            run_remote(
                &connect,
                JobSpec::lint(bist_engine::CircuitSource::iscas85("c17")),
                true
            ),
            Err(CommandError::Io(_))
        ));
    }
}
