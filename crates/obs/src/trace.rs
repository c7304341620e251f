//! A lightweight span tracer: an arena of timed spans forming a tree.
//!
//! A [`Trace`] owns all spans; [`SpanId`]s are plain indexes into it, so
//! threading a trace through a recursive executor needs only `&mut Trace`
//! and copies of the parent id — no `Rc`, no thread-locals. Each span
//! carries a name, monotonic wall time ([`std::time::Instant`]), an
//! optional output row count, and arbitrary named `u64` attributes (the
//! query layer attaches kvstore IO deltas — blocks read, cache hits,
//! bytes — without this crate depending on the kvstore types).
//!
//! [`Trace::render`] pretty-prints the tree; `EXPLAIN ANALYZE` output is
//! produced from it, and the slow-query log reads the same spans.

use std::time::{Duration, Instant};

/// Handle to one span inside a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(usize);

#[derive(Debug)]
struct SpanData {
    name: String,
    parent: Option<SpanId>,
    started: Instant,
    elapsed: Option<Duration>,
    rows: Option<u64>,
    attrs: Vec<(&'static str, u64)>,
}

/// A tree of timed spans recorded during one traced operation.
#[derive(Debug)]
pub struct Trace {
    spans: Vec<SpanData>,
}

impl Trace {
    /// Starts a new trace whose root span is `name`. The root is span id
    /// returned by [`Trace::root`].
    pub fn new(name: impl Into<String>) -> Self {
        let mut t = Trace { spans: Vec::new() };
        t.push(name.into(), None);
        t
    }

    /// The root span's id.
    pub fn root(&self) -> SpanId {
        SpanId(0)
    }

    /// Starts a child span under `parent` and returns its id. The span's
    /// clock starts now and stops at [`Trace::end`].
    pub fn start(&mut self, name: impl Into<String>, parent: SpanId) -> SpanId {
        self.push(name.into(), Some(parent))
    }

    fn push(&mut self, name: String, parent: Option<SpanId>) -> SpanId {
        let id = SpanId(self.spans.len());
        self.spans.push(SpanData {
            name,
            parent,
            started: Instant::now(),
            elapsed: None,
            rows: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Stops `span`'s clock: its time is `elapsed` when given — as for a
    /// pipelined operator, whose time is the sum of the calls made into
    /// it, interleaved with its neighbours' — else the wall time since it
    /// started. Ending a span twice keeps the first elapsed time; a span
    /// never ended reports time-to-render.
    pub fn end(&mut self, span: SpanId, elapsed: Option<Duration>) {
        let s = &mut self.spans[span.0];
        if s.elapsed.is_none() {
            s.elapsed = Some(elapsed.unwrap_or_else(|| s.started.elapsed()));
        }
    }

    /// Records the span's output row count.
    pub fn set_rows(&mut self, span: SpanId, rows: u64) {
        self.spans[span.0].rows = Some(rows);
    }

    /// Attaches (or accumulates into) a named `u64` attribute.
    pub fn add_attr(&mut self, span: SpanId, name: &'static str, value: u64) {
        let s = &mut self.spans[span.0];
        if let Some(a) = s.attrs.iter_mut().find(|(n, _)| *n == name) {
            a.1 += value;
        } else {
            s.attrs.push((name, value));
        }
    }

    /// The span's name.
    pub fn name(&self, span: SpanId) -> &str {
        &self.spans[span.0].name
    }

    /// Elapsed wall time (final if ended, running if not).
    pub fn elapsed(&self, span: SpanId) -> Duration {
        let s = &self.spans[span.0];
        s.elapsed.unwrap_or_else(|| s.started.elapsed())
    }

    /// Recorded output rows, if set.
    pub fn rows(&self, span: SpanId) -> Option<u64> {
        self.spans[span.0].rows
    }

    /// Looks up an attribute by name.
    pub fn attr(&self, span: SpanId, name: &str) -> Option<u64> {
        self.attrs(span)
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The span's attributes, in the order they were first attached.
    pub fn attrs(&self, span: SpanId) -> &[(&'static str, u64)] {
        &self.spans[span.0].attrs
    }

    /// Ids of `span`'s direct children, in start order.
    pub fn children(&self, span: SpanId) -> Vec<SpanId> {
        (0..self.spans.len())
            .map(SpanId)
            .filter(|&id| self.spans[id.0].parent == Some(span))
            .collect()
    }

    /// Renders the span tree, indented two spaces per level:
    ///
    /// ```text
    /// query (time=1.42ms)
    ///   Scan orders (time=1.31ms, rows=880, blocks_read=12)
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(self.root(), 0, &mut out);
        out
    }

    fn render_into(&self, span: SpanId, depth: usize, out: &mut String) {
        let s = &self.spans[span.0];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&s.name);
        out.push_str(" (time=");
        out.push_str(&fmt_duration(self.elapsed(span)));
        if let Some(rows) = s.rows {
            out.push_str(&format!(", rows={rows}"));
        }
        for (name, value) in &s.attrs {
            out.push_str(&format!(", {name}={value}"));
        }
        out.push_str(")\n");
        for child in self.children(span) {
            self.render_into(child, depth + 1, out);
        }
    }
}

/// Formats a duration with sensible units (`837ns`, `14.2us`, `3.91ms`,
/// `2.15s`).
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_nesting() {
        let mut t = Trace::new("query");
        let root = t.root();
        let a = t.start("Filter", root);
        let b = t.start("Scan", a);
        t.end(b, None);
        t.end(a, None);

        assert_eq!(t.children(root), vec![a]);
        assert_eq!(t.children(a), vec![b]);
        assert!(t.children(b).is_empty());
        assert_eq!(t.name(b), "Scan");
    }

    #[test]
    fn siblings_keep_start_order() {
        let mut t = Trace::new("root");
        let l = t.start("left", t.root());
        let r = t.start("right", t.root());
        t.end(l, None);
        t.end(r, None);
        assert_eq!(t.children(t.root()), vec![l, r]);
    }

    #[test]
    fn rows_and_attrs_accumulate() {
        let mut t = Trace::new("q");
        let s = t.start("Scan", t.root());
        t.set_rows(s, 42);
        t.add_attr(s, "blocks_read", 3);
        t.add_attr(s, "blocks_read", 4);
        t.add_attr(s, "cache_hits", 1);
        t.end(s, None);
        assert_eq!(t.rows(s), Some(42));
        assert_eq!(t.attr(s, "blocks_read"), Some(7));
        assert_eq!(t.attr(s, "cache_hits"), Some(1));
        assert_eq!(t.attr(s, "nope"), None);
    }

    #[test]
    fn end_is_idempotent_and_elapsed_monotonic() {
        let mut t = Trace::new("q");
        let s = t.start("work", t.root());
        std::thread::sleep(Duration::from_millis(1));
        t.end(s, None);
        let first = t.elapsed(s);
        t.end(s, None);
        assert_eq!(t.elapsed(s), first);
        assert!(first >= Duration::from_millis(1));
    }

    #[test]
    fn render_shows_tree_shape() {
        let mut t = Trace::new("query");
        let f = t.start("Filter", t.root());
        let s = t.start("Scan orders", f);
        t.set_rows(s, 10);
        t.add_attr(s, "blocks_read", 5);
        t.end(s, None);
        t.end(f, None);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("query (time="));
        assert!(lines[1].starts_with("  Filter (time="));
        assert!(lines[2].starts_with("    Scan orders (time="));
        assert!(lines[2].contains("rows=10"));
        assert!(lines[2].contains("blocks_read=5"));
    }

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_micros(14)), "14.00us");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }
}
