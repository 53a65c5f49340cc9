//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (the library itself is not instrumented). Each span
//! carries a name, start and end offsets from the tracer's origin, the
//! span that caused it, and the request it belongs to (`run`: 0 for the
//! workload's own pass, the query index for a replayed query). Calls too
//! fine-grained for one span each (a sink push per trace event, a window
//! read per snapshot) are folded into one *aggregate* span per parent:
//! the summed time inside the calls, with the call count.
//!
//! A span's self time is its duration minus the time its direct children
//! cover. Children never overlap (the traced passes are single-threaded at
//! the span level), so summing self time over every span under a root
//! reproduces the root's duration, and the root's own self time is the
//! part no layer accounts for — the residual the report states.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub run: u64,
    /// Offset from the tracer origin.
    pub start: Duration,
    pub end: Duration,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Span and count recorder. Not thread-safe by design: every traced pass
/// runs its layer calls from one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Sets the request id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span under the innermost open span; returns its handle.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            run: self.run,
            start: now,
            end: now,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records an aggregate child of the innermost open span: `total` time
    /// spent inside `calls` non-overlapping calls that ended by now.
    pub fn aggregate(&mut self, name: &'static str, total: Duration, calls: u64) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            run: self.run,
            start: now.saturating_sub(total),
            end: now,
            calls,
        });
    }

    /// Adds `delta` to the named count.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_insert(0.0) += delta;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the durations of direct children.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.secs();
            }
        }
        out
    }

    /// The share of the root spans' time that no child span covers: the
    /// part of the traced pass no layer accounts for.
    pub fn residual_frac(&self) -> f64 {
        let own = self.self_secs();
        let (mut unattributed, mut total) = (0.0, 0.0);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                unattributed += own;
                total += s.secs();
            }
        }
        unattributed / total
    }

    /// Summed self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// The spans and counts as one JSON document.
    pub fn to_json(&self) -> String {
        let own = self.self_secs();
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"run\":{},\"start_s\":{},\
                 \"end_s\":{},\"self_s\":{},\"calls\":{}}}",
                s.name,
                s.run,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                own[i],
                s.calls
            );
        }
        out.push_str("\n],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n\"{k}\":{v}");
        }
        out.push_str("\n}}\n");
        out
    }
}

/// Opens a span when a tracer is present (untraced passes pass `None`).
pub fn open(tr: &mut Option<&mut Tracer>, name: &'static str) -> Option<usize> {
    tr.as_deref_mut().map(|t| t.begin(name))
}

/// Closes a span opened by [`open`].
pub fn close(tr: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
        t.end(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root [0,10] with children a [1,4] and
    /// b [5,9]; b has child c [6,8] and an aggregate d of 0.5 s.
    fn fixture() -> Tracer {
        let mut t = Tracer::default();
        let at = |s: f64| Duration::from_secs_f64(s);
        let mk = |name, parent, start, end, calls| Span {
            name,
            parent,
            run: 0,
            start: at(start),
            end: at(end),
            calls,
        };
        t.spans = vec![
            mk("root", None, 0.0, 10.0, 1),
            mk("a", Some(0), 1.0, 4.0, 1),
            mk("b", Some(0), 5.0, 9.0, 1),
            mk("c", Some(2), 6.0, 8.0, 1),
            mk("d", Some(2), 8.0, 8.5, 40),
        ];
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let own = fixture().self_secs();
        let want = [3.0, 3.0, 1.5, 2.0, 0.5];
        for (got, want) in own.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{own:?}");
        }
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let t = fixture();
        let sum: f64 = t.self_secs().iter().sum();
        assert!((sum - t.spans()[0].secs()).abs() < 1e-9);
        let by_name = t.self_by_name();
        assert!((by_name["root"] - 3.0).abs() < 1e-9, "root self = unattributed residual");
        assert!((t.residual_frac() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn live_spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::default();
        let root = t.begin("root");
        t.set_run(7);
        t.span("child", || std::hint::black_box(1 + 1));
        t.aggregate("agg", Duration::from_nanos(10), 3);
        t.end(root);
        t.count("n", 2.0);
        t.count("n", 3.0);
        let s = t.spans();
        assert_eq!((s[1].parent, s[1].run), (Some(0), 7));
        assert_eq!((s[2].parent, s[2].calls), (Some(0), 3));
        assert_eq!(t.counts()["n"], 5.0);
        let sum: f64 = t.self_secs().iter().sum();
        assert!((sum - s[0].secs()).abs() < 1e-9);
        assert!(t.to_json().contains("\"name\":\"agg\""));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::default();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
