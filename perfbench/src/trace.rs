//! Spans of the traced run, kept in memory and written out at exit.
//!
//! A span is a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it and the request it belongs to. A
//! layer's self time is its span's duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Span ids are unique across threads; 0 means "no parent".
static NEXT_ID: AtomicU32 = AtomicU32::new(1);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The request (or page, or training repetition) the span serves.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A run's span buffer.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Times `f` as a span under `parent`.
    pub fn time<R>(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(trace, parent, name, start, Instant::now());
        r
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends; close it with [`Spans::close`].
    pub fn open(&self) -> (u32, Instant) {
        (NEXT_ID.fetch_add(1, Ordering::Relaxed), Instant::now())
    }

    pub fn close(
        &mut self,
        (id, start): (u32, Instant),
        trace: u64,
        parent: u32,
        name: &'static str,
    ) {
        let end = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut spans = Spans::new(epoch);
        spans.spans.push(Span {
            id: 1,
            parent: 0,
            trace: 0,
            name: "outer",
            start_ns: 0,
            end_ns: 100,
        });
        spans.spans.push(Span {
            id: 2,
            parent: 1,
            trace: 0,
            name: "inner",
            start_ns: 10,
            end_ns: 40,
        });
        let totals = spans.by_name();
        assert_eq!(totals["outer"].total_ns, 100);
        assert_eq!(totals["outer"].self_ns, 70);
        assert_eq!(totals["inner"].self_ns, 30);
    }
}
