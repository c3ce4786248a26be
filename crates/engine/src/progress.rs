//! Streaming progress and cooperative cancellation.
//!
//! A job reports its progress by calling a sink the caller hands to
//! [`Engine::run_with`](crate::Engine::run_with) or
//! [`Engine::run_batch_with`](crate::Engine::run_batch_with): an
//! `&(dyn Fn(ProgressEvent) + Sync)` that receives every
//! [`ProgressEvent`] as it happens, on the thread running the job.
//! Nothing is buffered, so a sink decides what to keep — print it, write
//! it to a socket, collect it — and it should return promptly, because
//! the job waits for it. Cancellation is cooperative: a [`CancelToken`]
//! is a flag the caller (or its sink) sets and running jobs observe at
//! their next checkpoint boundary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identifier of one submitted job, unique within an
/// [`Engine`](crate::Engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One progress notification from a running [`Engine`](crate::Engine).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// The job was accepted and is waiting for a pool worker.
    Queued {
        /// The job.
        job: JobId,
        /// Human-readable label (`"sweep c432"`, …).
        label: String,
    },
    /// A worker started executing the job.
    Started {
        /// The job.
        job: JobId,
    },
    /// The job passed an internal checkpoint — one solved prefix length,
    /// one coverage-curve point — with the fault coverage reached so far.
    Checkpoint {
        /// The job.
        job: JobId,
        /// The prefix length / sequence position just completed.
        prefix_len: usize,
        /// Fault coverage reached so far, percent.
        coverage_pct: f64,
    },
    /// The statistically qualified preview an estimate-first job emits
    /// before its exact run produces anything: a Wilson-interval
    /// coverage estimate from the representative sample. At most one per
    /// job, always before the first [`ProgressEvent::Checkpoint`]; a
    /// warm cache hit answers exactly and skips the preview.
    Estimate {
        /// The job.
        job: JobId,
        /// Prefix length the estimate speaks for (a sweep previews its
        /// longest prefix).
        prefix_len: usize,
        /// Faults sampled.
        samples: usize,
        /// Point estimate of the coverage, percent.
        estimate_pct: f64,
        /// Lower bound of the confidence interval, percent.
        lo_pct: f64,
        /// Upper bound of the confidence interval, percent.
        hi_pct: f64,
        /// Confidence level of the interval, percent.
        confidence: u32,
    },
    /// The job entered a named analysis pass (lint jobs emit one per
    /// pass: `"parse"`, `"structural"`, `"scoap"`).
    Pass {
        /// The job.
        job: JobId,
        /// Pass name.
        name: String,
    },
    /// The job completed successfully.
    Finished {
        /// The job.
        job: JobId,
        /// True when the result came from the warm cache rather than a
        /// fresh computation — same bytes either way, but clients (and
        /// `bist serve` subscribers) can tell the difference.
        cache_hit: bool,
    },
    /// The job failed; the error also comes back from the `run` call.
    Failed {
        /// The job.
        job: JobId,
        /// Rendered error message.
        message: String,
    },
    /// The job observed its cancellation token and stopped.
    Canceled {
        /// The job.
        job: JobId,
    },
}

impl ProgressEvent {
    /// The job this event belongs to.
    pub fn job(&self) -> JobId {
        match self {
            ProgressEvent::Queued { job, .. }
            | ProgressEvent::Started { job }
            | ProgressEvent::Checkpoint { job, .. }
            | ProgressEvent::Estimate { job, .. }
            | ProgressEvent::Pass { job, .. }
            | ProgressEvent::Finished { job, .. }
            | ProgressEvent::Failed { job, .. }
            | ProgressEvent::Canceled { job } => *job,
        }
    }

    /// The same event re-addressed to `job` — used by `bist serve` to
    /// translate engine-internal ids into the ids handed to clients.
    pub fn with_job(self, job: JobId) -> ProgressEvent {
        match self {
            ProgressEvent::Queued { label, .. } => ProgressEvent::Queued { job, label },
            ProgressEvent::Started { .. } => ProgressEvent::Started { job },
            ProgressEvent::Checkpoint {
                prefix_len,
                coverage_pct,
                ..
            } => ProgressEvent::Checkpoint {
                job,
                prefix_len,
                coverage_pct,
            },
            ProgressEvent::Estimate {
                prefix_len,
                samples,
                estimate_pct,
                lo_pct,
                hi_pct,
                confidence,
                ..
            } => ProgressEvent::Estimate {
                job,
                prefix_len,
                samples,
                estimate_pct,
                lo_pct,
                hi_pct,
                confidence,
            },
            ProgressEvent::Pass { name, .. } => ProgressEvent::Pass { job, name },
            ProgressEvent::Finished { cache_hit, .. } => ProgressEvent::Finished { job, cache_hit },
            ProgressEvent::Failed { message, .. } => ProgressEvent::Failed { job, message },
            ProgressEvent::Canceled { .. } => ProgressEvent::Canceled { job },
        }
    }
}

/// Cooperative cancellation flag shared between the caller and running
/// jobs.
///
/// Cancelling is a request, not preemption: a job notices the flag at
/// its next checkpoint boundary (between sweep points, between curve
/// checkpoints) and returns [`BistError::Canceled`](crate::BistError).
/// Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every job holding this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_canceled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_job_retags_every_variant() {
        let to = JobId(42);
        let cases = vec![
            ProgressEvent::Queued {
                job: JobId(1),
                label: "sweep c17".to_owned(),
            },
            ProgressEvent::Started { job: JobId(1) },
            ProgressEvent::Checkpoint {
                job: JobId(1),
                prefix_len: 8,
                coverage_pct: 50.0,
            },
            ProgressEvent::Estimate {
                job: JobId(1),
                prefix_len: 128,
                samples: 256,
                estimate_pct: 91.5,
                lo_pct: 87.2,
                hi_pct: 94.6,
                confidence: 95,
            },
            ProgressEvent::Pass {
                job: JobId(1),
                name: "scoap".to_owned(),
            },
            ProgressEvent::Finished {
                job: JobId(1),
                cache_hit: true,
            },
            ProgressEvent::Failed {
                job: JobId(1),
                message: "boom".to_owned(),
            },
            ProgressEvent::Canceled { job: JobId(1) },
        ];
        for event in cases {
            assert_eq!(event.with_job(to).job(), to);
        }
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_canceled());
        token.cancel();
        assert!(clone.is_canceled());
    }
}
