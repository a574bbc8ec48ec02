//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, the layer it is charged
//! to, start and end (offsets from the recorder's epoch), the span that
//! caused it and the campaign job it belongs to. Spans stay in memory
//! and are rolled up when the run ends; a layer's *self time* is the
//! duration of its spans minus the part covered by their children.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub job: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records spans around calls made from the benchmark's own code.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; the innermost open span is its parent. Close it
    /// with [`Tracer::end`].
    pub fn begin(&mut self, layer: &'static str, name: &'static str, job: Option<usize>) -> usize {
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a span of its own.
    pub fn leaf<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.begin(layer, name, job);
        let out = f();
        self.end(idx);
        out
    }

    /// The spans as JSON lines, in recording order: name, layer, start
    /// and end in seconds from the epoch, parent index and job id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"job\":{}}}\n",
                s.name,
                s.layer,
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                opt(s.parent),
                opt(s.job)
            ));
        }
        out
    }

    /// Total wall time covered by root spans.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Summed duration of every span with this name.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Self time per layer: each span's duration minus its direct
    /// children's durations (children nest strictly inside parents).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_secs) {
            *by_layer.entry(s.layer).or_insert(0.0) += (s.secs() - children).max(0.0);
        }
        by_layer
    }
}
