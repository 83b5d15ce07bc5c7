//! The driver's own span recorder: spans are taken around calls into the
//! layers' public functions, kept in memory, and written out as a
//! chrome-trace file when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::stats;

/// Name of the span that wraps one whole op; every other span recorded
/// while it is open is its descendant.
pub const OP: &str = "op";

/// One recorded interval. Times are microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one op; 0 outside any op.
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span and count recorder. When disabled every method returns at once, so
/// the untraced run executes the same code without reading the clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    values: Vec<(&'static str, f64)>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            values: Vec::new(),
            next_op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span called `name`, a child of the innermost open
    /// span. A span named [`OP`] starts a new op identifier.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if name == OP {
            self.next_op += 1;
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let op = if name == OP { self.next_op } else { parent.map_or(0, |p| self.spans[p].op) };
        let start_us = self.now_us();
        self.spans.push(Span { name, start_us, end_us: start_us, parent, op });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Record a finished op from the caller's own clock readings, for ops
    /// that overlap in time and so cannot nest as closures. Returns the
    /// span's index for [`Tracer::reported_in`].
    pub fn op_interval(&mut self, start: Instant, dur: Duration) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.next_op += 1;
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let end_us = start_us + dur.as_secs_f64() * 1e6;
        self.spans.push(Span { name: OP, start_us, end_us, parent: None, op: self.next_op });
        Some(self.spans.len() - 1)
    }

    /// Record a child of span `parent` from a duration that a layer
    /// measured itself and reported (`queue_micros`, `layer_micros`). Such
    /// spans are laid end to end from the parent's start.
    pub fn reported_in(&mut self, parent: usize, name: &'static str, dur_us: f64) {
        if !self.enabled {
            return;
        }
        // Children are recorded after their parent.
        let start_us = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_us)
            .fold(self.spans[parent].start_us, f64::max);
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us + dur_us,
            parent: Some(parent),
            op,
        });
    }

    /// [`Tracer::reported_in`] the innermost open span.
    pub fn reported(&mut self, name: &'static str, dur_us: f64) {
        if let Some(&parent) = self.open.last() {
            self.reported_in(parent, name, dur_us);
        }
    }

    /// Record a count or ratio observed at a layer boundary.
    pub fn value(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            self.values.push((name, v));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us() / 1e3).collect()
    }

    /// Median duration in milliseconds of the spans called `name`.
    pub fn p50_ms(&self, name: &str) -> f64 {
        stats::median(&self.durations_ms(name))
    }

    /// Mean of the values recorded under `name`.
    pub fn mean_value(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.values.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v).collect();
        stats::mean(&v)
    }

    /// Every span as a chrome-trace "complete" event in the JSON array
    /// format, one event per line, under process `pid` named `process`;
    /// `args` carries the span's own index, its parent's and the op
    /// identifier.
    pub fn chrome_trace(&self, pid: usize, process: &str) -> String {
        let mut out = format!(
            "[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{pid},\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us(),
                s.op
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Join chrome-trace arrays written by [`Tracer::chrome_trace`] into one.
pub fn merge_chrome_traces(traces: &[String]) -> String {
    let events: Vec<&str> = traces
        .iter()
        .map(|t| t.trim().trim_start_matches('[').trim_end_matches(']').trim())
        .filter(|t| !t.is_empty())
        .collect();
    format!("[\n{}\n]\n", events.join(",\n"))
}

/// Part of span `id`'s interval that its direct children cover (the union
/// of their intervals, clipped to the span), in microseconds.
pub fn covered_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    // Children are recorded after their parent.
    let mut kids: Vec<(f64, f64)> = spans[id + 1..]
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in kids {
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    covered
}

/// A span's self time: its duration minus what its children cover.
pub fn self_us(spans: &[Span], id: usize) -> f64 {
    spans[id].dur_us() - covered_us(spans, id)
}

/// Share of all op time that the ops' child spans account for: one minus
/// the ops' own self time over their duration.
pub fn op_coverage(spans: &[Span]) -> f64 {
    let (mut unattributed, mut total) = (0.0, 0.0);
    for (id, s) in spans.iter().enumerate() {
        if s.name == OP {
            unattributed += self_us(spans, id);
            total += s.dur_us();
        }
    }
    if total == 0.0 {
        0.0
    } else {
        1.0 - unattributed / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name, start_us, end_us, parent, op: 1 }
    }

    #[test]
    fn self_time_and_coverage_on_a_hand_built_tree() {
        // op [0,100): a [10,40), b [30,60) overlapping a, c [70,120)
        // running past the op's end; a has a child of its own.
        let spans = vec![
            span(OP, 0.0, 100.0, None),
            span("x.a", 10.0, 40.0, Some(0)),
            span("x.b", 30.0, 60.0, Some(0)),
            span("x.c", 70.0, 120.0, Some(0)),
            span("x.a.inner", 15.0, 25.0, Some(1)),
        ];
        // Union of children inside the op: [10,60) + [70,100) = 80.
        assert_eq!(covered_us(&spans, 0), 80.0);
        assert_eq!(self_us(&spans, 0), 20.0);
        // The grandchild counts against a, not against the op.
        assert_eq!(self_us(&spans, 1), 20.0);
        assert_eq!(self_us(&spans, 4), 10.0);
        assert!((op_coverage(&spans) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn coverage_sums_over_ops() {
        let spans = vec![
            span(OP, 0.0, 10.0, None),
            span("x.a", 0.0, 10.0, Some(0)),
            span(OP, 10.0, 40.0, None),
            span("x.a", 10.0, 25.0, Some(2)),
        ];
        assert!((op_coverage(&spans) - 25.0 / 40.0).abs() < 1e-12);
        assert_eq!(op_coverage(&[]), 0.0);
    }

    #[test]
    fn tracer_links_parents_and_op_ids() {
        let mut tr = Tracer::new(true);
        tr.span("setup.gen", |_| ());
        for _ in 0..2 {
            tr.span(OP, |tr| {
                tr.span("core.kernel", |_| ());
                tr.reported("serve.queue", 5.0);
                tr.reported("serve.service", 7.0);
            });
        }
        let s = tr.spans();
        assert_eq!(s.len(), 9);
        assert_eq!((s[0].op, s[0].parent), (0, None));
        assert_eq!((s[1].name, s[1].op), (OP, 1));
        assert_eq!((s[2].parent, s[2].op), (Some(1), 1));
        assert_eq!((s[5].name, s[5].op), (OP, 2));
        assert_eq!((s[8].parent, s[8].op), (Some(5), 2));
        // Reported spans are laid end to end after the measured child.
        assert_eq!(s[8].start_us, s[7].end_us);
        assert!((s[8].dur_us() - 7.0).abs() < 1e-6);
        assert!((tr.p50_ms("serve.queue") - 0.005).abs() < 1e-9);
        assert_eq!(tr.durations_ms("serve.queue").len(), 2);
        let json = tr.chrome_trace(3, "w");
        assert!(json.contains("\"pid\":3,\"tid\":1,\"args\":{\"id\":8,\"parent\":5,\"op\":2}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 9);
        let merged = merge_chrome_traces(&[json.clone(), Tracer::new(true).chrome_trace(4, "v")]);
        assert_eq!(merged.matches("\"ph\":\"X\"").count(), 9);
        assert_eq!(merged.matches("process_name").count(), 2);
        assert_eq!((merged.matches('[').count(), merged.matches(']').count()), (1, 1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span(OP, |tr| {
            tr.reported("serve.queue", 5.0);
            tr.value("serve.batch", 2.0);
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.mean_value("serve.batch"), 0.0);
    }
}
