//! Outside-in spans: the benchmark times the public calls it makes into
//! each layer, from its own files. Spans stay in memory and are written
//! out when the run ends; end-to-end numbers always come from runs with
//! the tracer off.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent == 0` marks a root (`session`, `network`,
/// `layer`); `request` is the session / network / layer index the span
/// belongs to, shared by a root and its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per span name: how many, total duration, and self time (duration
/// minus the part of it child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Self { enabled: false, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn on() -> Self {
        Self { enabled: true, ..Self::off() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (`0` when tracing is off, which
    /// is also a valid "no parent").
    pub fn open(&mut self, name: &'static str, parent: u32, request: usize) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, request: request as u32, name, start_ns, end_ns: 0 });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id != 0 {
            let end = self.now_ns();
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Times one call as a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = call();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// One flat JSON object per span, in the records codec's dialect.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span), summed per name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered.min(duration);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, request: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // session [0,100) with submit [10,30) and wait [30,90); wait has
        // a grandchild [40,50). Overlapping children count once.
        let spans = vec![
            span(1, 0, "session", 0, 100),
            span(2, 1, "client.submit", 10, 30),
            span(3, 1, "client.wait", 30, 90),
            span(4, 3, "inner", 40, 50),
            span(5, 1, "overlap", 80, 95),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["session"],
            NameTotals { count: 1, total_ns: 100, self_ns: 100 - 20 - 60 - 5 }
        );
        assert_eq!(t["client.wait"], NameTotals { count: 1, total_ns: 60, self_ns: 50 });
        assert_eq!(t["client.submit"].self_ns, 20);
        assert_eq!(t["inner"].self_ns, 10);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let root = t.open("session", 0, 3);
        assert_eq!(root, 0);
        assert_eq!(t.span("client.submit", root, 3, || 41 + 1), 42);
        t.close(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_share_the_request_id_and_nest_in_time() {
        let mut t = Tracer::on();
        let root = t.open("layer", 0, 7);
        t.span("execute_direct", root, 7, || std::hint::black_box(1));
        t.close(root);
        let [outer, inner] = t.spans() else { panic!("two spans") };
        assert_eq!((outer.parent, inner.parent, inner.request), (0, outer.id, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
