//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `name, start, end, parent, request`. Names are
//! `<layer>.<call>`, where the layer is one of the repository's crates
//! (`sim`, `monitor`, `features`, `linalg`, `ml`, `core`, `registry`,
//! `serve`) or a benchmark-side root such as `build` or `loadgen`. Spans
//! stay in memory until the run ends and are written out with the
//! per-layer self times derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept per run; later ones are counted, not stored, so a long
/// traced run cannot grow without bound.
pub const MAX_SPANS: usize = 200_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier (0 = not a request).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans when enabled; when disabled every call just runs its
/// closure, so untraced and traced runs share one code path. Spans nest
/// under the innermost open span of the same tracer.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start = Instant::now();
        let idx = self.push(name, start, start, request);
        if let Some(i) = idx {
            self.stack.push(i);
        }
        let out = f(self);
        if let Some(i) = idx {
            self.stack.pop();
            self.spans[i].end_ns = self.ns(Instant::now());
        }
        out
    }

    /// Record an interval measured elsewhere (e.g. a request whose start
    /// and end were seen by different code), nested under the innermost
    /// open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, request: u64) {
        if self.on {
            self.push(name, start, end, request);
        }
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant, request: u64) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent: self.stack.last().copied(),
            request,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not stored because [`MAX_SPANS`] was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (children clipped to the parent,
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Summed self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("build.pass", 0, 100, None),
            span("features.aggregate", 10, 30, Some(0)),
            span("ml.fit", 40, 90, Some(0)),
            span("linalg.solve", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["build"], 30);
        assert_eq!(layers["ml"], 30);
        assert_eq!(layers["linalg"], 20);
        // Self times partition the root interval exactly.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("serve.request", 100, 200, None),
            span("serve.a", 90, 150, Some(0)),
            span("serve.b", 140, 160, Some(0)),
            span("serve.c", 190, 230, Some(0)),
        ];
        // Covered: [100, 160) ∪ [190, 200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        t.span("build.pass", 1, |t| {
            t.span("features.aggregate", 1, |_| ());
        });
        t.span("registry.install", 2, |t| {
            t.span("registry.load", 2, |_| ())
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));

        let mut off = Tracer::new(false, origin);
        assert_eq!(off.span("x.y", 0, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
