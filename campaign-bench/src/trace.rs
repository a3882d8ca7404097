//! Spans around every call the benchmark makes into a layer's public API.
//!
//! Every call is timed; with tracing on, each also leaves one span in
//! memory (name, layer, cell, start and end, parent), written out as JSON
//! lines when the run ends.  A layer's *self time* is the part of its
//! spans' intervals that no child span covers.  Spans inside the engine
//! (restore, fork, probe, classify) are out of reach from here: the
//! benchmark only sees the public calls.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span (0 is "no parent").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span and returns its result with the wall time it
    /// took, in seconds.  `f` receives the span's id to parent nested spans.
    pub fn span<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        layer: &'static str,
        cell: Option<usize>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        // Relaxed: the counter only hands out unique ids and publishes
        // nothing else.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = f(SpanId(id));
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans
                .lock()
                .expect("no thread panics while holding the span list")
                .push(Span {
                    id,
                    parent: parent.0,
                    name,
                    layer,
                    cell,
                    start_ns: ns(start),
                    end_ns: ns(end),
                });
        }
        (result, end.duration_since(start).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone()
    }

    /// Self time per layer, in seconds.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered(s.start_ns, s.end_ns, kids));
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::Str(s.name.into())),
                ("layer", Json::Str(s.layer.into())),
                ("cell", Json::num(s.cell.map(|c| c as f64))),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered(0, 100, &[]), 0);
        assert_eq!(covered(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered(10, 20, &[(0, 15), (18, 40)]), 7);
    }

    #[test]
    fn self_time_subtracts_children_and_untraced_runs_record_nothing() {
        let t = Tracer::new(true);
        let ((), outer) = t.span(SpanId::ROOT, "outer", "bench", None, |id| {
            t.span(id, "inner", "inject", Some(3), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let self_times = t.layer_self_times();
        assert!(self_times["inject"] >= 0.02);
        assert!((self_times["bench"] + self_times["inject"] - outer).abs() < 1e-6);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].cell, Some(3));
        assert_eq!(spans[0].parent, spans[1].id);

        let off = Tracer::new(false);
        let (v, secs) = off.span(SpanId::ROOT, "x", "core", None, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());
    }
}
