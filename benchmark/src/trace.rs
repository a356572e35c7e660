//! In-memory spans around the calls into each layer, written out as a Chrome
//! trace-event file when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the public
//! functions of each crate; nothing inside the library is instrumented. A
//! span's name is `<layer>.<stage>`; the layer of `request` (the span around
//! one whole op) is the harness.

use std::path::Path;
use std::time::Instant;

use crate::alloc::Snapshot;
use crate::json::Value;

/// Spans kept per run. Reserved up front so recording never allocates inside
/// a span (which would count against that span's `allocs`).
const CAPACITY: usize = 400_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one op: `round * ops + op`.
    pub op: u64,
    /// Heap allocations (all threads) between start and end.
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// `tune` for `tune.choose`; the whole name when there is no dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(u32, Snapshot)>,
    op: u64,
    dropped: u64,
}

/// Handle of an open span; closing out of order is a harness bug.
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(CAPACITY),
            open: Vec::with_capacity(16),
            op: 0,
            dropped: 0,
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return Open(u32::MAX);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map(|(i, _)| *i),
            op: self.op,
            allocs: 0,
        });
        self.open.push((index, Snapshot::now()));
        // Read the clock last, so the bookkeeping above is outside the span.
        self.spans[index as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(index)
    }

    pub fn end(&mut self, span: Open) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        if span.0 == u32::MAX {
            return;
        }
        let (index, at_start) = self.open.pop().expect("end without begin");
        assert_eq!(index, span.0, "spans must close innermost first");
        let s = &mut self.spans[index as usize];
        s.end_ns = end_ns;
        s.allocs = Snapshot::since(at_start).allocs;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Closes every span still open — after a panic unwound through them.
    pub fn unwind(&mut self) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        while let Some((index, _)) = self.open.pop() {
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per span, its duration minus the time its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                let p = &mut own[parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Writes the Chrome trace-event file (load it in `chrome://tracing` or
    /// Perfetto). One complete event per span; `args` carry op, parent and
    /// the allocation count.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("cat", Value::str(s.layer())),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Num(i as f64)),
                            ("op", Value::Num(s.op as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                            ),
                            ("allocs", Value::Num(s.allocs as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::obj([
            ("displayTimeUnit", Value::str("ms")),
            ("droppedSpans", Value::Num(self.dropped as f64)),
            ("traceEvents", Value::Arr(events)),
        ]);
        std::fs::write(path, doc.to_line())
    }
}

/// Runs `f`, inside a span when there is a tracer: for code that is the same
/// with tracing on and off.
pub fn span_if<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_are_shared() {
        let mut t = Tracer::new();
        t.set_op(7);
        let request = t.begin("request");
        t.span("tune.choose", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let boxed = t.span("exec.run_dense", || Box::new(5u8));
        t.end(request);
        drop(boxed);

        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[1].layer(), "tune");
        assert_eq!(spans[0].layer(), "request");
        assert!(spans[2].allocs >= 1);

        let own = t.self_ns();
        assert_eq!(own[1], spans[1].dur_ns());
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert!(own[0] < spans[1].dur_ns(), "the sleep belongs to the child");
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut t = Tracer::new();
        t.span("net.sim_first", || ());
        let dir = crate::run::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-selftest-{}.json", std::process::id()));
        t.write_chrome(&path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("net.sim_first")
        );
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
    }
}
