//! A workload run's results: metrics, failed checks, details, and the
//! trace written by `--trace` runs.

use crate::trace::{layer_self_ns, Tracer};
use crate::{Ctx, END_TO_END, PER_LAYER};

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit of the shortest round-trip form; `null`
/// for a non-finite value.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Spans of a traced run and the share of the workload's result no
/// layer span explains.
pub struct TraceData {
    /// The run's spans.
    pub tracer: Tracer,
    /// Unexplained share of the end-to-end result.
    pub residual: f64,
}

/// Everything one workload run reports.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// End-to-end metrics.
    pub e2e: Vec<(String, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were dropped.
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Extra fields for the result file, as raw JSON values.
    details: Vec<(String, String)>,
    /// Spans and residual of a traced run.
    pub trace: Option<TraceData>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            e2e: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            details: Vec::new(),
            trace: None,
        }
    }

    /// Set an end-to-end metric.
    pub fn e2e_metric(&mut self, name: &str, value: f64) {
        set(&mut self.e2e, name, value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        set(&mut self.layers, name, value);
    }

    /// Record a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.problem(msg());
        }
    }

    /// Add a raw JSON field to the result file.
    pub fn detail(&mut self, key: &str, raw_json: String) {
        self.details.push((key.to_string(), raw_json));
    }

    /// Put the metrics in catalogue order. Untraced runs keep only the
    /// end-to-end metrics (a missing one is a failed check); traced runs
    /// keep only per-layer metrics, with 0 for layers the workload does
    /// not touch, and the tracing overhead against `untraced_p50_ms`.
    pub fn finish(&mut self, trace: bool, untraced_p50_ms: Option<f64>) {
        if trace {
            if let (Some(untraced), Some(traced)) =
                (untraced_p50_ms, get(&self.e2e, "result_p50_ms"))
            {
                self.layer("trace.overhead_share", (traced - untraced) / untraced);
            }
            self.layers = PER_LAYER
                .iter()
                .map(|d| (d.name.to_string(), get(&self.layers, d.name).unwrap_or(0.0)))
                .collect();
            self.e2e.retain(|(n, _)| n == "result_p50_ms");
        } else {
            self.layers.clear();
            let mut ordered = Vec::new();
            for d in &END_TO_END {
                match get(&self.e2e, d.name) {
                    Some(v) if v.is_finite() && v > 0.0 => ordered.push((d.name.to_string(), v)),
                    other => self.problems.push(format!(
                        "end-to-end metric {} missing or not positive: {other:?}",
                        d.name
                    )),
                }
            }
            self.e2e = ordered;
        }
    }

    /// The result file: run settings, metrics, checks, details and, for a
    /// traced run, spans with per-layer self times.
    pub fn to_json(&self, ctx: &Ctx) -> String {
        let obj = |list: &[(String, f64)]| {
            let items: Vec<String> = list
                .iter()
                .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
                .collect();
            format!("{{{}}}", items.join(", "))
        };
        let mut fields = vec![
            ("workload".to_string(), json_str(self.workload)),
            ("seed".to_string(), ctx.seed.to_string()),
            ("seconds".to_string(), json_num(ctx.seconds)),
            ("smoke".to_string(), ctx.smoke.to_string()),
            ("trace".to_string(), ctx.trace.to_string()),
            ("correct".to_string(), self.problems.is_empty().to_string()),
            ("attempted".to_string(), self.attempted.to_string()),
            ("failed".to_string(), self.failed.to_string()),
            ("end_to_end".to_string(), obj(&self.e2e)),
            ("per_layer".to_string(), obj(&self.layers)),
            (
                "problems".to_string(),
                format!(
                    "[{}]",
                    self.problems
                        .iter()
                        .map(|p| json_str(p))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ];
        fields.extend(self.details.iter().cloned());
        if let Some(t) = &self.trace {
            let self_ns = layer_self_ns(t.tracer.spans());
            let layers: Vec<String> = self_ns
                .iter()
                .map(|(l, ns)| format!("{}: {ns}", json_str(l)))
                .collect();
            fields.push((
                "layer_self_ns".to_string(),
                format!("{{{}}}", layers.join(", ")),
            ));
            fields.push(("residual".to_string(), json_num(t.residual)));
            fields.push((
                "tracing_overhead_share".to_string(),
                get(&self.layers, "trace.overhead_share").map_or("null".to_string(), json_num),
            ));
            fields.push(("spans_dropped".to_string(), t.tracer.dropped().to_string()));
            let spans: Vec<String> = t
                .tracer
                .spans()
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                        json_str(&s.name),
                        s.start_ns,
                        s.end_ns,
                        s.parent.map_or("null".to_string(), |p| p.to_string()),
                        s.request
                    )
                })
                .collect();
            fields.push((
                "spans".to_string(),
                format!("[\n    {}\n  ]", spans.join(",\n    ")),
            ));
        }
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("  {}: {v}", json_str(k)))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }
}

fn get(list: &[(String, f64)], name: &str) -> Option<f64> {
    list.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

fn set(list: &mut Vec<(String, f64)>, name: &str, value: f64) {
    match list.iter_mut().find(|(n, _)| n == name) {
        Some(slot) => slot.1 = value,
        None => list.push((name.to_string(), value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(1e-7), "0.0000001");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn traced_reports_list_every_layer() {
        let mut r = Report::new("rescore");
        r.layer("core.query_ms", 3.5);
        r.e2e_metric("result_p50_ms", 4.0);
        r.finish(true, Some(3.2));
        assert_eq!(r.layers.len(), PER_LAYER.len());
        let got = |n: &str| get(&r.layers, n);
        assert_eq!(got("core.query_ms"), Some(3.5));
        assert_eq!(got("ml.fit_s.svm"), Some(0.0));
        assert!((got("trace.overhead_share").unwrap() - 0.25).abs() < 1e-12);
        assert!(r.problems.is_empty());
    }

    #[test]
    fn untraced_reports_need_every_end_to_end_metric() {
        let mut r = Report::new("build");
        r.e2e_metric("setup_s", 1.0);
        r.layer("core.query_ms", 3.5);
        r.finish(false, None);
        assert!(r.layers.is_empty());
        assert_eq!(r.e2e.len(), 1);
        assert_eq!(r.problems.len(), END_TO_END.len() - 1);
    }
}
