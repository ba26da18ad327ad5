//! In-memory spans, written out as JSON lines when the benchmark ends.
//!
//! A span is one timed interval at a layer boundary: name, start, end, the
//! span that caused it, and the request it belongs to. A layer's self time
//! is its span minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The benchmark's one clock read. Measuring time is the benchmark's job;
/// nothing it reads feeds a byte the program serves.
pub fn now() -> Instant {
    // olive-lint: allow(no-wallclock-in-deterministic-paths): the benchmark's clock; it times the program from outside and never feeds its output
    Instant::now()
}

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            list: Vec::new(),
        }
    }

    /// Records a finished span; returns its id.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.list.push(Span {
            name: name.into(),
            parent,
            request,
            start,
            end,
        });
        self.list.len() - 1
    }

    /// Times `f` as a span; `f` receives the span id to parent nested spans.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Spans, usize) -> R,
    ) -> R {
        let start = now();
        let id = self.push(name, parent, request, start, start);
        let out = f(self, id);
        self.list[id].end = now();
        out
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.list.iter().filter(move |s| s.name == name)
    }

    /// Mean duration of the spans called `name`, µs (0 when there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let us: Vec<f64> = self.named(name).map(Span::us).collect();
        crate::stats::mean(&us)
    }

    /// Self time of every span, µs: its duration minus the union of its
    /// direct children's intervals.
    pub fn self_us(&self) -> Vec<f64> {
        let mut children: BTreeMap<usize, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in &self.list {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        self.list
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut kids = children.remove(&id).unwrap_or_default();
                kids.sort();
                let mut covered = 0.0;
                let mut reach = s.start;
                for (start, end) in kids {
                    let start = start.clamp(reach, s.end);
                    let end = end.clamp(start, s.end);
                    covered += (end - start).as_secs_f64();
                    reach = end;
                }
                (s.us() - covered * 1e6).max(0.0)
            })
            .collect()
    }

    /// Writes every span as one JSON line; times are µs since the origin.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_us) in self.list.iter().enumerate().zip(self.self_us()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{self_us:.3}}}",
                s.name,
                s.request,
                at(s.start),
                at(s.end),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let t0 = now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut spans = Spans::new(t0);
        let root = spans.push("root", None, 0, ms(0), ms(10));
        spans.push("a", Some(root), 0, ms(1), ms(4));
        spans.push("b", Some(root), 0, ms(3), ms(6)); // overlaps a
        let self_us = spans.self_us();
        assert!((self_us[root] - 5000.0).abs() < 1e-6, "{}", self_us[root]);
        assert!((self_us[1] - 3000.0).abs() < 1e-6);
        assert!((spans.mean_us("a") - 3000.0).abs() < 1e-6);
    }
}
