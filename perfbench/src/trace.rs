//! In-memory spans recorded from the benchmark's side of each layer
//! boundary. Nothing inside the program is instrumented: a span is the
//! wall time of one call into a layer's public function.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    op: u64,
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans (name, start, end, parent, and the op they belong to)
/// and writes them out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span for `op` under `parent`.
    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes `span` and returns its duration in milliseconds.
    pub fn end(&mut self, span: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[span];
        s.end_ns = end_ns;
        (end_ns - s.start_ns) as f64 / 1e6
    }

    /// A span's duration minus the time its direct children cover, in
    /// milliseconds.
    pub fn self_ms(&self, span: SpanId) -> f64 {
        let s = &self.spans[span];
        let children: u64 = self
            .spans
            .iter()
            .skip(span + 1)
            .filter(|c| c.parent == Some(span))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e6
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        let root = t.begin(0, "round", None);
        let child = t.begin(0, "step", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ms = t.end(child);
        let total = t.end(root);
        assert!(child_ms >= 2.0);
        assert!((t.self_ms(root) - (total - child_ms)).abs() < 1e-6);
        assert_eq!(t.len(), 2);
    }
}
