//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the id of the op it belongs to and an
//! optional parent span. Spans are only appended while an op runs; self
//! times, per-name aggregates and the span dump are computed after the
//! measured window.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(n: usize) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(n),
        }
    }

    /// Records a finished interval; returns its index for use as a parent.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            op,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(op, name, parent, start, Instant::now());
        out
    }

    /// Opens a parent span whose end is fixed later by [`Tracer::close`].
    pub fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(op, name, parent, now, now)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = Instant::now();
    }

    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.ms() - c).max(0.0))
            .collect()
    }

    /// Per op, the summed self time of the spans named `name`; one value
    /// per op that has such a span.
    pub fn per_op_self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_ms();
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, v) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *by_op.entry(s.op).or_default() += v;
            }
        }
        by_op.into_values().collect()
    }

    /// Per op, the total duration of the spans named `name`.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.ms();
        }
        by_op.into_values().collect()
    }

    /// Per root span (no parent) named `root`, the share of its duration
    /// covered by its direct children.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == root && s.ms() > 0.0)
            .map(|(i, s)| (child[i] / s.ms()).min(1.0))
            .collect()
    }

    /// Writes every span as one JSON object per line (times in µs from the
    /// first span).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let Some(origin) = self.spans.iter().map(|s| s.start).min() else {
            return std::fs::write(path, "");
        };
        let selfs = self.self_ms();
        let mut out = String::new();
        for (i, (s, self_ms)) in self.spans.iter().zip(selfs).enumerate() {
            let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.op,
                s.name,
                us(s.start),
                us(s.end),
                self_ms * 1e3
            );
        }
        std::fs::write(path, out)
    }
}
