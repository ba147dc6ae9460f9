//! The benchmark's own spans. A span records a name, start, end, parent
//! and request id; spans stay in memory and are written out when the run
//! ends. Disabled tracers record nothing, so the untraced run pays one
//! branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `llm.translate` or `client.request`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder; merge recorders when their threads end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// A handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A recorder timing from `epoch`; records nothing unless `on`.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// An empty recorder sharing this one's epoch and switch, for
    /// another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.on)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        from: Instant,
        to: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(from), self.ns(to));
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        }
    }

    /// Appends another recorder's spans, keeping parent links intact.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (spans, total milliseconds, total self
    /// milliseconds), where self time is a span's duration minus the
    /// time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ms += s.dur_ns() as f64 / 1e6;
            e.self_ms += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        f.flush()
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStats {
    /// How many spans.
    pub count: u64,
    /// Sum of their durations (ms).
    pub total_ms: f64,
    /// Sum of their self times (ms).
    pub self_ms: f64,
}

impl SpanStats {
    /// Mean duration per span (ms), 0 when there are none.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_merge_keeps_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        let root = t.open("root", None, 1);
        t.time("child", root, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let mut other = t.fork();
        let r2 = other.open("root", None, 2);
        other.close(r2);
        t.merge(other);
        let s = t.summary();
        assert_eq!(s["root"].count, 2);
        assert!(s["root"].self_ms < s["root"].total_ms);
        assert!(s["child"].self_ms >= 2.0);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("x", None, 0);
        t.close(id);
        t.record("y", None, 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
    }
}
