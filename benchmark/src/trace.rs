//! Spans recorded from the benchmark's own code around calls into the
//! library, kept in memory and written out when the run ends, plus the
//! self-time arithmetic the per-layer report is built from.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are seconds since the trace's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `atpg.topup`; the layer is the part before the
    /// first dot.
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The job (or replayed spec) the span belongs to.
    pub job: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A single-threaded span recorder: [`Trace::span`] nests under the
/// innermost span still open.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Seconds since the trace's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Converts an instant taken elsewhere (a client thread) to trace
    /// time.
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let index = self.record(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent,
            job,
        });
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.now();
        out
    }

    /// Adds an already-timed span; returns its index.
    pub fn record(&self, span: Span) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        spans.len() - 1
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Tab-separated spans, one per line: index, name, start, end,
    /// parent (`-` for none), job.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_s\tend_s\tparent\tjob\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{:.9}\t{:.9}\t{parent}\t{}",
                s.name, s.start, s.end, s.job
            );
        }
        out
    }
}

/// Span `index`'s duration minus the part of its interval that its
/// direct children cover. Children that overlap each other (parallel
/// calls) are counted once, and a child reaching outside its parent is
/// clipped to it; grandchildren lie inside their own parent, so only
/// direct children need subtracting.
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let parent = &spans[index];
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    covered.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut union = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (a, b) in covered {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                union += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        union += rb - ra;
    }
    parent.duration() - union
}

/// Summed duration of every span named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,10] > child [1,6] > grandchild [2,5]
        let spans = vec![
            span("replay.root", 0.0, 10.0, None),
            span("atpg.topup", 1.0, 6.0, Some(0)),
            span("faultsim.simulate", 2.0, 5.0, Some(1)),
        ];
        assert_eq!(self_time(&spans, 0), 5.0);
        assert_eq!(self_time(&spans, 1), 2.0);
        assert_eq!(self_time(&spans, 2), 3.0);
        // self times partition the root
        let sum: f64 = (0..3).map(|i| self_time(&spans, i)).sum();
        assert_eq!(sum, spans[0].duration());
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // parallel children [1,4] and [3,6] cover [1,6]; a third child
        // [8,12] sticks out of the parent and only [8,10] counts
        let spans = vec![
            span("serve.job", 0.0, 10.0, None),
            span("a.x", 1.0, 4.0, Some(0)),
            span("a.y", 3.0, 6.0, Some(0)),
            span("b.z", 8.0, 12.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 10.0 - 5.0 - 2.0);
        assert_eq!(self_time(&spans, 1) + self_time(&spans, 2), 3.0 + 3.0);
        assert_eq!(total(&spans, "a.x"), 3.0);
        assert_eq!(total(&spans, "b.z"), 4.0);
    }

    #[test]
    fn recorder_nests_under_the_open_span() {
        let trace = Trace::new();
        let value = trace.span("replay.root", 7, || {
            trace.span("core.build", 7, || 1) + trace.span("core.area", 7, || 2)
        });
        assert_eq!(value, 3);
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start && s.job == 7));
        assert_eq!(spans[1].layer(), "core");
        assert!(trace.to_tsv().lines().count() == 4);
    }
}
