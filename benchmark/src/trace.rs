//! In-memory spans around the calls the benchmark makes into each
//! layer, their self times, and the JSON-lines dump.
//!
//! A span is `{id, parent, op, name, start_ns, end_ns}`: `op` is the
//! index of the benchmark operation that caused it (spans of one
//! operation share it), `parent` is 0 for a root. A layer's self time
//! is its span's duration minus the part of that interval its child
//! spans cover, so the self times under one root add up to the root's
//! duration exactly.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, unique within a tracer.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Index of the benchmark operation this span belongs to.
    pub op: u32,
    /// Layer name (`crate.module.call`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Records spans of one pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not
    /// reallocate inside a timed pass.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, op: u32, name: &'static str) {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, op: u32, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(op, name);
        let out = f();
        (out, self.exit())
    }

    /// Everything recorded.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Count and total self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Sum of their full durations.
    pub total_ns: u64,
}

/// Self time per span name. Children may overlap each other and may
/// stick out of their parent; only the part of the parent's interval
/// that at least one child covers is subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += total - covered;
        e.total_ns += total;
    }
    out
}

/// Sum of the durations of the root spans: the time the blocking chain
/// of operations accounts for.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "child", 10, 60),
            span(3, 2, "grand", 20, 30),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"].self_ns, 50);
        assert_eq!(st["child"].self_ns, 40);
        assert_eq!(st["grand"].self_ns, 10);
        // Self times under one root sum to the root's duration.
        assert_eq!(st.values().map(|s| s.self_ns).sum::<u64>(), 100);
        assert_eq!(root_ns(&spans), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Children 10..50 and 30..70 cover 10..70 = 60 of the parent.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 50),
            span(3, 1, "b", 30, 70),
        ];
        assert_eq!(self_times(&spans)["root"].self_ns, 40);
        // A child contained in another adds nothing; one sticking out is clipped.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 90),
            span(3, 1, "b", 20, 30),
            span(4, 1, "c", 80, 120),
        ];
        assert_eq!(self_times(&spans)["root"].self_ns, 10);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut t = Tracer::with_capacity(4);
        t.enter(7, "op");
        let ((), _) = t.span(7, "inner", || ());
        t.exit();
        t.enter(8, "op");
        t.exit();
        let s = &t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].id, s[0].parent, s[0].op), (1, 0, 7));
        assert_eq!((s[1].id, s[1].parent, s[1].op), (2, 1, 7));
        assert_eq!((s[2].id, s[2].parent, s[2].op), (3, 0, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(self_times(s)["op"].count, 2);
    }
}
