//! Spans recorded in memory around the benchmark's calls into each layer.
//!
//! A span is one call: its name, start and end (seconds since the tracer
//! was made), the span that caused it and the simulation request it served.
//! Spans stay in memory until the run ends and are written once. A
//! disabled tracer records nothing and allocates nothing, so the same
//! re-drive code gives the untraced baseline for the tracing overhead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The simulation request the call served, when it served exactly one.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Spans open on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn span(&self, name: &str, request: Option<u64>) -> SpanGuard<'_> {
        self.span_under(name, request, self.current())
    }

    /// Opens a span under an explicit parent, for a call a worker thread
    /// makes on behalf of a span opened on another thread.
    pub fn span_under(
        &self,
        name: &str,
        request: Option<u64>,
        parent: Option<usize>,
    ) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let start = self.origin.elapsed().as_secs_f64();
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span store poisoned by a panicking thread");
            spans.push(Span {
                name: name.to_string(),
                start,
                end: start,
                parent,
                request,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, request);
        f()
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<usize> {
        if !self.on {
            return None;
        }
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone()
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end = self.tracer.origin.elapsed().as_secs_f64();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&x| x == id) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[id].end = end;
        }
    }
}

/// Sum of the durations of the spans named `name` that `keep` accepts.
pub fn total_where(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(Span::duration)
        .sum()
}

/// Sum of the durations of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    total_where(spans, name, |_| true)
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children on other threads may overlap each
/// other, so the covered part is the union of their intervals).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(span.start), spans[k].end.min(span.end)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut run: Option<(f64, f64)> = None;
            for (a, b) in intervals {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (span.duration() - covered).max(0.0)
        })
        .collect()
}

/// Per span name: call count, total seconds and self seconds.
pub fn summary(spans: &[Span]) -> BTreeMap<&str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name.as_str()).or_default();
        entry.0 += 1;
        entry.1 += span.duration();
        entry.2 += own;
    }
    out
}

/// Writes the spans and their per-name summary as one JSON document.
/// `header` is a list of already-encoded `"key": value` members.
pub fn write_json(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{{{header},")?;
    writeln!(w, "\"summary\": [")?;
    let sum = summary(spans);
    for (i, (name, (calls, total_s, self_s))) in sum.iter().enumerate() {
        let sep = if i + 1 < sum.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\": \"{name}\", \"calls\": {calls}, \"total_s\": {total_s}, \"self_s\": {self_s}}}{sep}"
        )?;
    }
    writeln!(w, "],\n\"spans\": [")?;
    let selfs = self_times(spans);
    for (i, (span, own)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let request = span.request.map_or("null".to_string(), |r| r.to_string());
        writeln!(
            w,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"self_s\": {own}, \"parent\": {parent}, \"request\": {request}}}{sep}",
            span.name, span.start, span.end
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("batch", 0.0, 10.0, None),
            span("request", 1.0, 4.0, Some(0)),
            span("request", 2.0, 6.0, Some(0)),
            span("request", 8.0, 9.0, Some(0)),
            span("synth", 1.0, 2.0, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 4.0).abs() < 1e-12, "10 - |[1,6] ∪ [8,9]|");
        assert!((selfs[1] - 2.0).abs() < 1e-12);
        assert!((selfs[4] - 1.0).abs() < 1e-12);
        let sum = summary(&spans);
        assert_eq!(sum["request"].0, 3);
        assert!((sum["request"].1 - 8.0).abs() < 1e-12);
    }

    #[test]
    fn nesting_on_one_thread_sets_parents_and_off_records_nothing() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer", None);
            tracer.time("inner", Some(7), || ());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        assert!(spans[0].end >= spans[1].end);

        let off = Tracer::new(false);
        off.time("inner", None, || ());
        assert!(off.spans().is_empty());
        assert_eq!(off.current(), None);
    }
}
