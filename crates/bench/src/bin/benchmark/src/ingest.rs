//! `ingest`: open-loop FMC traffic on the serve data plane.
//!
//! Two connections, one simulated host each, replay pregenerated scripts
//! with inline `Fail`s up a six-rung ascending rate ladder at
//! {1/8, 1/4, 1/2, 3/4, 1, 5/4}·C, C being the 2-connection closed-loop
//! capacity ([`CAPACITY`]). The served model is a linear model fitted in
//! set-up, published to a `ModelStore` and cold-started from it, so model
//! cost is negligible and the run is dominated by wire decode, the
//! reactor, shard queues and window aggregation. The end-to-end result is
//! the estimate latency at the reference rung 1/4·C; the rate is the
//! highest rung that passes the ladder rule.

use crate::openloop::{highest_passing, RungOutcome};
use crate::report::{Report, TraceData};
use crate::stats::{interpolated, median, rank_or_zero};
use crate::trace::Tracer;
use crate::traffic::{self, agg, make_script, Phase, Script};
use crate::{repeated_setup, Ctx};
use bytes::BytesMut;
use f2pm::OnlinePredictor;
use f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_ml::linreg::LinearModel;
use f2pm_ml::{Model, SavedModel};
use f2pm_monitor::wire::{FrameDecoder, Message};
use f2pm_registry::{ArtifactMeta, ModelStore};
use f2pm_serve::{AlertPolicy, ModelRegistry, PredictionServer, ServeConfig, ServeHandle};
use std::path::Path;
use std::time::{Duration, Instant};

/// C: the 2-connection closed-loop capacity in datapoints per second,
/// measured with `--calibrate` on the commit that introduced this
/// benchmark (2-thread box) and rounded to 1k. Fixed, so every later
/// commit climbs the same ladder.
pub const CAPACITY: f64 = 376_000.0;

/// The ladder's rungs as fractions of [`CAPACITY`].
pub const LADDER: [f64; 6] = [0.125, 0.25, 0.5, 0.75, 1.0, 1.25];

/// The rung whose latencies are the end-to-end result (1/4·C).
pub const REFERENCE_RUNG: usize = 1;

/// Datapoints simulated per host in set-up; scripts replay cyclically.
const SCRIPT_POINTS: usize = 40_000;

/// The serve configuration both serve workloads use: one shard per host,
/// and every closed window pushes its estimate.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: traffic::HOSTS,
        policy: AlertPolicy {
            rttf_threshold_s: f64::INFINITY,
            consecutive_hits: 1,
        },
        ..ServeConfig::default()
    }
}

/// Both hosts' scripts for `seed`.
pub fn scripts(seed: u64, points: usize) -> [Script; traffic::HOSTS] {
    [make_script(seed, 0, points), make_script(seed, 1, points)]
}

struct Setup {
    server: ServeHandle,
    scripts: [Script; traffic::HOSTS],
    model: LinearModel,
}

fn setup(ctx: &Ctx, store_dir: &Path) -> Setup {
    let scripts = scripts(ctx.seed, ctx.pick(SCRIPT_POINTS, SCRIPT_POINTS / 10));
    let model = traffic::fit_linear(scripts.iter().flat_map(|s| &s.lives));
    let store = ModelStore::open(store_dir).expect("opening the model store");
    let meta = ArtifactMeta::new(
        "linear",
        agg(),
        aggregated_column_names_with(&agg()),
        f64::NAN,
    );
    store
        .publish(&meta, &SavedModel::Linear(model.clone()))
        .expect("publishing the served model");
    let registry = ModelRegistry::from_store(&store).expect("cold start from the store");
    let server = PredictionServer::start("127.0.0.1:0", serve_config(), registry)
        .expect("starting the server");
    Setup {
        server,
        scripts,
        model,
    }
}

/// Relative agreement to 1e-9.
pub fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
}

/// Closed-loop capacity of the 2-connection generator against a fresh
/// server: datapoints sent over the time until the server caught up.
pub fn calibrate(ctx: &Ctx) -> f64 {
    let dir = ctx.work_dir("calibrate");
    let s = setup(ctx, &dir.join("models"));
    let phase = Phase {
        rate: None,
        duration: Duration::from_secs_f64(ctx.seconds.min(5.0)),
        keep: false,
    };
    let out = traffic::run(
        s.server.addr(),
        &s.scripts,
        &[phase],
        &mut |_| {},
        &|_, _| true,
    )
    .expect("calibration traffic");
    s.server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    let log = &out.phases[0];
    let secs = (log.end + log.settled_after.unwrap_or_default())
        .saturating_duration_since(log.start)
        .as_secs_f64();
    out.datapoints_sent as f64 / secs
}

/// ns per item of `f` run over `items` items.
fn per_item_ns(items: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Replays of the layers an ingested datapoint crosses, one span each.
fn replay_layers(script: &Script, model: &LinearModel, tr: &mut Tracer, report: &mut Report) {
    let frames: Vec<Message> = script
        .lives
        .iter()
        .flat_map(|l| l.datapoints.iter().map(|&d| Message::Datapoint(d)))
        .collect();
    let mut wire = BytesMut::new();
    let encode_ns = tr.span("monitor.encode", 0, |_| {
        per_item_ns(frames.len(), || {
            for m in &frames {
                m.encode_into(&mut wire);
            }
        })
    });
    let mut decoded = 0usize;
    let decode_ns = tr.span("monitor.decode", 0, |_| {
        per_item_ns(frames.len(), || {
            let mut dec = FrameDecoder::new();
            dec.push_bytes(&wire);
            while let Ok(Some(_)) = dec.try_frame() {
                decoded += 1;
            }
        })
    });
    report.check(decoded == frames.len(), || {
        format!("decode replay: {decoded} of {} frames", frames.len())
    });

    let columns = aggregated_column_names_with(&agg());
    let mut estimates = Vec::new();
    let push_ns = tr.span("core.window_push", 0, |_| {
        per_item_ns(frames.len(), || {
            for life in &script.lives {
                let mut p = OnlinePredictor::new(Box::new(model.clone()), &columns, agg());
                estimates.extend(life.datapoints.iter().filter_map(|&d| p.push(d)));
            }
        })
    });
    let rows: Vec<&Vec<f64>> = script
        .lives
        .iter()
        .flat_map(|l| l.windows.iter().map(|w| &w.row))
        .collect();
    let mut predicted = Vec::with_capacity(rows.len());
    let predict_ns = tr.span("ml.predict", 0, |_| {
        per_item_ns(rows.len(), || {
            predicted.extend(rows.iter().map(|r| model.predict_row(r).max(0.0)));
        })
    });
    report.check(
        estimates.len() == predicted.len()
            && estimates.iter().zip(&predicted).all(|(a, b)| same(*a, *b)),
        || "OnlinePredictor::push replay disagrees with the window replay".to_string(),
    );
    report.layer("monitor.encode_ns", encode_ns);
    report.layer("monitor.decode_ns", decode_ns);
    report.layer("core.window_push_ns", push_ns);
    report.layer("ml.predict_ns", predict_ns);
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("ingest");
    let dir = ctx.work_dir("ingest");
    let mut round = 0;
    let (s, setup_s) = repeated_setup(
        || {
            round += 1;
            setup(ctx, &dir.join(format!("models-{round}")))
        },
        |old| {
            old.server.shutdown();
        },
    );
    report.e2e_metric("setup_s", setup_s);

    let rung_s = ctx.seconds / LADDER.len() as f64;
    let phases: Vec<Phase> = LADDER
        .iter()
        .enumerate()
        .map(|(i, f)| Phase {
            rate: Some(f * CAPACITY * ctx.pick(1.0, 0.1)),
            duration: Duration::from_secs_f64(rung_s),
            keep: i == REFERENCE_RUNG,
        })
        .collect();
    let model = &s.model;
    let verify = |e: &traffic::Received, w: &traffic::Window| {
        e.t == w.t && same(e.rttf, model.predict_row(&w.row).max(0.0))
    };
    let run = traffic::run(s.server.addr(), &s.scripts, &phases, &mut |_| {}, &verify);
    let snapshot = s.server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            report.problem(format!("traffic failed: {e}"));
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };

    let rungs = evaluate_rungs(&out);
    let (estimates, wrong, replies) = out.replies();
    let missing_estimates = out.windows_sent.saturating_sub(estimates);
    let missing_replies = out.predicts_sent.saturating_sub(replies);
    report.attempted = out.datapoints_sent + out.predicts_sent;
    report.failed = wrong + missing_estimates + missing_replies + out.protocol_failures;
    report.check(wrong == 0, || {
        format!("{wrong} pushed estimates differ from the replay")
    });
    report.check(missing_estimates == 0, || {
        format!(
            "{missing_estimates} of {} estimates never arrived",
            out.windows_sent
        )
    });
    report.check(missing_replies == 0, || {
        format!("{missing_replies} predict replies never arrived")
    });
    report.check(out.protocol_failures == 0, || {
        format!("{} protocol failures", out.protocol_failures)
    });
    check_scrape(&mut report, &out);
    report.check(snapshot.dropped == 0, || {
        format!("server dropped {} frames", snapshot.dropped)
    });

    let best = highest_passing(&rungs);
    report.detail("rungs", rungs_json(&rungs, best));
    report.detail(
        "max_rate_dps",
        best.map_or("null".to_string(), |i| rungs[i].achieved.to_string()),
    );
    // The serve path's cost: datapoints ingested per CPU-second the server
    // spent, over the whole ladder.
    report.e2e_metric("rate_per_s", out.datapoints_sent as f64 / out.server_cpu_s);
    report.detail("server_cpu_s", out.server_cpu_s.to_string());
    let reference = &out.phases[REFERENCE_RUNG];
    let (estimate_us, predict_us) = reference.latencies();
    if estimate_us.is_empty() {
        report.problem("no estimate arrived at the reference rung");
        return report;
    }
    let ms: Vec<f64> = estimate_us.iter().map(|u| u / 1e3).collect();
    report.e2e_metric("result_p50_ms", median(&ms));
    report.e2e_metric("result_p90_ms", interpolated(&ms, 0.9));
    report.detail("reference_estimates", estimate_us.len().to_string());
    if let Some((p, v)) = crate::stats::supported_tail(&estimate_us) {
        report.detail(
            "reference_tail",
            format!("{{\"percentile\": {p}, \"us\": {v}}}"),
        );
    }

    if ctx.trace {
        let mut tracer = Tracer::new(true, out.phases[0].start);
        traffic::request_spans(reference, &mut tracer);
        serve_loadgen_layers(&mut report, &out, reference, &estimate_us, &predict_us);
        report.layer("loadgen.rungs_passed", best.map_or(0.0, |i| (i + 1) as f64));
        replay_layers(&s.scripts[0], &s.model, &mut tracer, &mut report);
        let residual = stage_residual(&report, median(&estimate_us));
        report.layer("ingest.residual", residual);
        report.trace = Some(TraceData { tracer, residual });
    }
    report
}

/// The scrape checks shared by both serve workloads: every phase's scrape
/// caught up with the sent count exactly.
pub fn check_scrape(report: &mut Report, out: &traffic::Outcome) {
    for (i, p) in out.phases.iter().enumerate() {
        report.check(p.settled_after.is_some(), || {
            format!("phase {i}: scraped datapoints never reached the sent count")
        });
    }
    let scraped = traffic::metric(&out.final_scrape, "f2pm_serve_datapoints_total");
    let expected = out.datapoints_before + out.datapoints_sent;
    report.check(scraped == Some(expected as f64), || {
        format!(
            "scraped f2pm_serve_datapoints_total {scraped:?} != {} before + {} sent",
            out.datapoints_before, out.datapoints_sent
        )
    });
}

/// Serve-stage, counter and generator layers of a serve workload, taken
/// at its reference phase.
pub fn serve_loadgen_layers(
    report: &mut Report,
    out: &traffic::Outcome,
    reference: &traffic::PhaseLog,
    estimate_us: &[f64],
    predict_us: &[f64],
) {
    traffic::serve_layers(report, &out.final_scrape);
    report.layer(
        "loadgen.lag_p99_us",
        rank_or_zero(&reference.lateness_us, 0.99),
    );
    report.layer("loadgen.estimate_p99_us", rank_or_zero(estimate_us, 0.99));
    report.layer("loadgen.predict_p50_us", rank_or_zero(predict_us, 0.5));
    report.layer("loadgen.predict_p99_us", rank_or_zero(predict_us, 0.99));
}

/// Share of the median estimate latency the serve stages' p50s leave
/// unexplained.
pub fn stage_residual(report: &Report, e2e_p50_us: f64) -> f64 {
    let stage = |n: &str| {
        report
            .layers
            .iter()
            .find(|(k, _)| k == n)
            .map_or(0.0, |&(_, v)| v)
    };
    let explained = stage("serve.decode_p50_us")
        + stage("serve.queue_wait_p50_us")
        + stage("serve.estimate_p50_us")
        + stage("serve.reply_p50_us");
    (e2e_p50_us - explained) / e2e_p50_us
}

fn evaluate_rungs(out: &traffic::Outcome) -> Vec<RungOutcome> {
    out.phases
        .iter()
        .map(|p| {
            let r = &p.replies;
            let missing = p.windows.saturating_sub(r.estimates);
            RungOutcome {
                rate: p.phase.rate.unwrap_or(0.0),
                achieved: p.achieved_rate(),
                sent: p.datapoints + p.predicts,
                succeeded: r.estimates - r.wrong,
                failed: r.wrong + missing,
                estimate_us: r.estimate_us,
                lateness_us: p.lateness,
                settled_after: p.settled_after,
            }
        })
        .collect()
}

fn rungs_json(rungs: &[RungOutcome], best: Option<usize>) -> String {
    let items: Vec<String> = rungs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "{{\"rate\": {}, \"achieved\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \
                 \"estimates_over_limit\": {}, \"late_over_limit\": {}, \"settled_ms\": {}, \"passes\": {}}}",
                r.rate,
                r.achieved,
                r.sent,
                r.succeeded,
                r.failed,
                r.estimate_us.over,
                r.lateness_us.over,
                r.settled_after
                    .map_or("null".to_string(), |d| (d.as_secs_f64() * 1e3).to_string()),
                best.is_some_and(|b| i <= b)
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}
