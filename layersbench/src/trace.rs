//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (the program itself carries no tracing), kept
//! in memory, and written as JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `phase1` or `checkpoint.log`.
    pub name: &'static str,
    /// Request (operation) the span belongs to; spans of one request
    /// share it.
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Single-threaded span recorder: [`Tracer::span`] nests, and the span
/// open when a child starts becomes its parent.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A tracer with no spans.
    pub fn new() -> Self {
        Tracer::default()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                req,
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 / 1e9
        })
        .collect()
}

/// Per span name: (total seconds, self seconds, count).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += s.secs();
        e.1 += own;
        e.2 += 1;
    }
    out
}

/// Durations in seconds of every span named `name`, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// The spans as JSON lines: name, request, parent, start and end in
/// microseconds, and self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.name,
            s.req,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            own * 1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nesting_records_parents_and_requests() {
        let t = Tracer::new();
        let v = t.span("outer", 7, || t.span("inner", 7, || 41) + 1);
        assert_eq!(v, 42);
        t.span("next", 8, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(
            (spans[2].name, spans[2].parent, spans[2].req),
            ("next", None, 8)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 50), // overlaps a by 10
            span("c", Some(1), 15, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 60.0 / 1e9); // 100 - |[10,50]|
        assert_eq!(own[1], 25.0 / 1e9);
        assert_eq!(own[2], 20.0 / 1e9);
        assert_eq!(own[3], 5.0 / 1e9);
        let t = totals(&spans);
        assert_eq!(t["root"].2, 1);
        assert_eq!(durations(&spans, "a"), vec![30.0 / 1e9]);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = vec![span("root", None, 0, 2000), span("a", Some(0), 500, 1000)];
        let text = to_jsonl(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(second.get("self_us").and_then(|v| v.as_f64()), Some(0.5));
    }
}
