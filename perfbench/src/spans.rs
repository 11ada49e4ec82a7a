//! The benchmark's own spans: one around each call it makes into a layer.
//!
//! Spans are kept in memory and written out when the run ends. A disabled
//! log (the untraced runs) records nothing, so the end-to-end figures carry
//! no tracing cost.

use std::collections::BTreeMap;

use tofu_obs::json::Json;
use tofu_obs::Collector;

/// Index of a span in its log.
pub type SpanId = usize;

/// One closed interval of work, with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.partition`.
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, seconds since the log's clock epoch.
    pub start: f64,
    /// End, seconds since the log's clock epoch.
    pub end: f64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An append-only span log. Its clock is a [`Collector`]'s, so spans line
/// up with the events the program itself records into that collector.
pub struct SpanLog {
    clock: Option<Collector>,
    spans: Vec<Span>,
    /// Spans entered and not yet exited; the innermost is the parent of
    /// the next span recorded.
    open: Vec<SpanId>,
}

impl SpanLog {
    /// A log that records spans, timed on `clock`.
    pub fn enabled(clock: Collector) -> SpanLog {
        SpanLog {
            clock: Some(clock),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> SpanLog {
        SpanLog {
            clock: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.clock.is_some()
    }

    /// The collector whose clock times the log, when enabled.
    pub fn collector(&self) -> Option<&Collector> {
        self.clock.as_ref()
    }

    /// Seconds since the clock epoch (`0` when disabled).
    pub fn now(&self) -> f64 {
        self.clock.as_ref().map_or(0.0, |c| c.now_us() / 1e6)
    }

    /// Records a finished span inside the innermost entered one.
    fn record(&mut self, name: &'static str, start: f64, end: f64) -> Option<SpanId> {
        if !self.on() {
            return None;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end);
        out
    }

    /// Opens a span that encloses every span recorded until the matching
    /// [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<SpanId> {
        let now = self.now();
        let id = self.record(name, now, now)?;
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened with [`SpanLog::enter`].
    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.now();
            self.open.retain(|&o| o != id);
        }
    }

    /// Appends spans recorded by another thread on the same clock.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time summed per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for id in 0..self.spans.len() {
            *out.entry(self.spans[id].name).or_insert(0.0) += self_time(&self.spans, id);
        }
        out
    }

    /// The spans as JSON, for the file written at exit.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::from(s.name)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let s = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = s.start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    s.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("step", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 5.0, 9.0),
            span("b.inner", Some(2), 6.0, 7.0),
        ];
        assert_eq!(self_time(&spans, 0), 4.0);
        assert_eq!(self_time(&spans, 1), 2.0);
        assert_eq!(self_time(&spans, 2), 3.0);
        assert_eq!(self_time(&spans, 3), 1.0);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("call", None, 0.0, 10.0),
            span("x", Some(0), 2.0, 6.0),
            span("y", Some(0), 4.0, 8.0),
            span("z", Some(0), 9.0, 12.0),
        ];
        // Covered: [2, 8) and [9, 10).
        assert_eq!(self_time(&spans, 0), 3.0);
    }

    #[test]
    fn self_times_sum_to_root_duration() {
        let mut log = SpanLog::enabled(Collector::new());
        log.spans = vec![
            span("root", None, 0.0, 8.0),
            span("a", Some(0), 1.0, 4.0),
            span("a.x", Some(1), 2.0, 3.0),
            span("b", Some(0), 5.0, 7.0),
        ];
        let total: f64 = log.self_time_by_name().values().sum();
        assert_eq!(total, 8.0);
    }

    #[test]
    fn entered_spans_parent_the_spans_inside_them() {
        let mut log = SpanLog::enabled(Collector::new());
        let outer = log.enter("outer");
        log.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.exit(outer);
        log.time("after", || ());
        assert_eq!(log.spans[1].parent, outer);
        assert_eq!(log.spans[2].parent, None);
        let by_name = log.self_time_by_name();
        let inner = log.spans[1].duration();
        assert!((by_name["outer"] - (log.spans[0].duration() - inner)).abs() < 1e-12);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.time("x", || 3), 3);
        let id = log.enter("y");
        log.exit(id);
        assert!(id.is_none() && log.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = SpanLog::enabled(Collector::new());
        a.time("a", || ());
        let mut b = SpanLog::enabled(Collector::new());
        let p = b.enter("p");
        b.time("c", || ());
        b.exit(p);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
