//! Driver-side spans: one per call the ledger makes into a layer.
//!
//! A span records name, start, end and the span that caused it. Spans
//! stay in memory and are written out when the run ends. A layer's
//! *self time* is its span's duration minus the part its child spans
//! cover, so the self times of a tree sum to the root's duration by
//! construction: what no child explains stays on the parent as its
//! residual and is reported, never dropped.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `lab.run_keys`.
    pub name: String,
    /// Start, seconds since tracer creation.
    pub start: f64,
    /// End, seconds since tracer creation.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// Span recorder. With tracing off [`Tracer::span`] only calls the
/// closure — no clock reads — so untraced iterations measure the
/// program alone.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls (`!on`).
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.t0.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        out
    }

    /// How many spans carry this name.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name (summed over spans sharing a name):
    /// duration minus the duration of direct children.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            *by_name.entry(s.name.clone()).or_insert(0.0) += t;
        }
        by_name
    }

    /// Total duration of the root spans.
    pub fn root_total(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// The span list as JSON (`name`, `start_s`, `end_s`, `parent`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.clone())),
                        ("start_s", Json::Num(s.start)),
                        ("end_s", Json::Num(s.end)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut tr = Tracer::new(true);
        tr.span("iter", |tr| {
            tr.span("a.x", |tr| {
                tr.span("b.y", |_| std::hint::black_box((0..10_000u64).sum::<u64>()));
            });
            tr.span("a.x", |_| ());
        });
        assert_eq!(tr.spans.len(), 4);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.count("a.x"), 2);
        let own = tr.self_times();
        let sum: f64 = own.values().sum();
        assert!((sum - tr.root_total()).abs() < 1e-12);
        assert!(own.values().all(|&t| t >= 0.0));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        assert!(tr.spans.is_empty());
    }
}
