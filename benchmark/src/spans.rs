//! The benchmark's own spans: run phases, probe batches, and the sampled
//! cross-shard timelines drained from the replicas. Kept in memory and
//! written as JSON lines when the run ends; spans *inside* the program
//! are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Trace id of the request the span belongs to, if any.
    pub request: Option<u64>,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.add(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn add(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn within<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns) - covered
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut w = ringbft_obs::json::ObjectWriter::new();
            w.field_u64("id", id as u64)
                .field_str("name", &s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_u64("self_ns", self.self_ns(id));
            if let Some(p) = s.parent {
                w.field_u64("parent", p as u64);
            }
            if let Some(r) = s.request {
                w.field_u64("request", r);
            }
            writeln!(f, "{}", w.finish())?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new();
        let run = log.add("run", 0, 100, None, None);
        log.add("a", 10, 40, Some(run), None);
        log.add("b", 30, 60, Some(run), None); // overlaps a
        log.add("c", 90, 120, Some(run), None); // clipped to the parent
        let leaf = log.add("leaf", 0, 5, Some(run), Some(7));
        assert_eq!(log.self_ns(run), 100 - (50 + 10 + 5));
        assert_eq!(log.self_ns(leaf), 5);
    }
}
