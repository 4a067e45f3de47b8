//! An in-memory span recorder. Spans are recorded from the benchmark's own
//! files, around the public calls into each layer; the crates carry no
//! spans yet. A span knows the span that caused it (the innermost span open
//! on the same thread) and the request it belongs to, and is written out as
//! one JSON line when the run ends.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Json};
use crate::stats;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request (query, commit, ...).
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The recorder. Disabled (the default) it records nothing, so the same
/// code path serves the untraced run.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    index: Option<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        // Relaxed: the flag publishes no other data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the recorder was made (the spans' time base).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; the innermost span already open on this thread becomes
    /// its parent and, when `request` is `None`, lends it its request id.
    pub fn enter(&self, name: &'static str, request: Option<u64>) -> Guard<'_> {
        if !self.enabled.load(Ordering::Relaxed) {
            return Guard {
                recorder: self,
                index: None,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let mut spans = self
            .spans
            .lock()
            .expect("no span is recorded while panicking");
        let request = request
            .or_else(|| parent.map(|p| spans[p].request))
            .unwrap_or(0);
        let index = spans.len();
        let start_ns = self.now_ns();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        drop(spans);
        OPEN.with(|open| open.borrow_mut().push(index));
        Guard {
            recorder: self,
            index: Some(index),
        }
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock").clone()
    }

    /// A copy of the spans recorded after the first `skip`.
    pub fn spans_from(&self, skip: usize) -> Vec<Span> {
        self.spans.lock().expect("recorder lock")[skip..].to_vec()
    }

    /// How many spans have been recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("recorder lock").len()
    }

    /// The totals of the spans named `name`.
    pub fn total(&self, name: &str) -> NameTotals {
        totals(&self.spans()).get(name).copied().unwrap_or_default()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans().iter().enumerate() {
            let line = json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::from(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request_id", Json::Num(span.request as f64)),
            ]);
            writeln!(out, "{}", json::line(&line))?;
        }
        out.flush()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.recorder.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            debug_assert_eq!(open.last(), Some(&index), "spans close innermost first");
            open.pop();
        });
        // Never panic in drop: a poisoned lock just loses this span's end.
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans[index].end_ns = end_ns;
        }
    }
}

/// The tracing overhead: how much longer the traced repetitions of an
/// operation took than the untraced repetitions of the same operation in
/// the same run (median over median, minus one). The two kinds alternate,
/// so a drift of the machine's speed hits both; what is left of it can make
/// a small overhead read negative.
pub fn overhead_frac(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    let untraced = stats::median(untraced_s);
    if untraced == 0.0 {
        0.0
    } else {
        stats::median(traced_s) / untraced - 1.0
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of the spans' durations.
    pub total_ns: u64,
    /// Sum of the spans' self times: duration minus the part of the span's
    /// interval its child spans cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Totals and self times per span name.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, NameTotals> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    for (index, span) in spans.iter().enumerate() {
        let covered = children
            .remove(&index)
            .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns() - covered;
    }
    out
}

/// The share of `[lo, hi]` that no root span (a span without a parent)
/// covers: wall time the trace cannot attribute to any layer.
pub fn residual_frac(spans: &[Span], lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let roots = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    1.0 - covered_ns(roots, lo, hi) as f64 / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("next_batch", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            // Overlapping children count the overlap once.
            span("policy", 20, 50, Some(0)),
            // A child reaching past its parent is clipped to the parent.
            span("policy", 90, 120, Some(0)),
            span("fold", 100, 160, None),
            // A grandchild reduces its parent's self time, not the root's.
            span("inner", 25, 28, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["next_batch"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 100 - 40 - 10
            }
        );
        assert_eq!(t["policy"].count, 2);
        assert_eq!(t["policy"].total_ns, 60);
        assert_eq!(t["policy"].self_ns, 60 - 3);
        assert_eq!(t["fold"].self_ns, 60);
        // Roots cover [0, 160]; the window is [0, 200].
        assert!((residual_frac(&spans, 0, 200) - 0.2).abs() < 1e-12);
        assert_eq!(residual_frac(&spans, 5, 5), 0.0);

        // Overhead is the traced median over the untraced median, minus 1.
        assert!((overhead_frac(&[1.02, 1.05, 1.03], &[1.0, 0.9, 1.1]) - 0.03).abs() < 1e-12);
        assert_eq!(overhead_frac(&[1.0], &[]), 0.0);
    }

    #[test]
    fn recorder_links_parents_and_requests_per_thread() {
        let rec = Recorder::new();
        {
            let _off = rec.enter("ignored", Some(1));
        }
        assert!(
            rec.spans().is_empty(),
            "a disabled recorder records nothing"
        );
        rec.set_enabled(true);
        {
            let _query = rec.enter("query", Some(42));
            {
                let _batch = rec.enter("next_batch", None);
                let _io = rec.enter("submit", None);
            }
            let _fold = rec.enter("fold", None);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| drop(rec.enter("elsewhere", None)));
        });
        let spans = rec.spans();
        let names: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            names,
            vec![
                ("query", None, 42),
                ("next_batch", Some(0), 42),
                ("submit", Some(1), 42),
                ("fold", Some(0), 42),
                // Another thread's span has no parent here.
                ("elsewhere", None, 0),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);

        let env = crate::common::Env::new(1, 1.0, false, true);
        let dir = env.scratch("trace").unwrap();
        let path = dir.path().join("spans.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[2].get("name").and_then(Json::as_str), Some("submit"));
        assert_eq!(lines[2].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            lines[2].get("request_id").and_then(Json::as_f64),
            Some(42.0)
        );
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
    }
}
