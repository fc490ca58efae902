//! `benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! benchmark --workload <build|ingest|refresh|rescore|all> [--seed S]
//!           [--seconds N] [--trace [0|1]] [--smoke] [--repeat N]
//! ```
//!
//! Every workload runs in its own re-exec'd child process, so its peak
//! memory is its own. The parent prints each metric as
//! `workload metric value unit` and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics, or with `--trace 1` the per-layer ones. Details of each run
//! go to `target/benchmark/<workload>-<seed>.json` (traced runs:
//! `.trace.json`). The process exits non-zero when any output check
//! fails. See README.md in this directory for the workloads, the metric
//! glossary and the trace format.

mod build;
mod ingest;
mod openloop;
mod refresh;
mod report;
mod rescore;
mod stats;
mod trace;
mod traffic;

use report::{json_str, Report};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The workloads, in `--workload all` order.
pub const WORKLOADS: [&str; 4] = ["build", "ingest", "refresh", "rescore"];

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One metric of the catalogue BENCHMARK.json mirrors.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports each (see README.md for
/// what "result" and "rate" mean per workload).
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.2),
    e2e("result_p50_ms", "ms", Lower, 0.25),
    e2e("result_p90_ms", "ms", Lower, 0.25),
    e2e("rate_per_s", "1/s", Higher, 0.25),
];

/// Per-layer metrics, from `--trace` runs. A workload that does not touch
/// a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // build
    layer("sim.campaign_s", "s", Lower),
    layer("monitor.history_s", "s", Lower),
    layer("features.aggregate_s", "s", Lower),
    layer("features.lasso_path_s", "s", Lower),
    layer("core.model_grid_s", "s", Lower),
    layer("ml.fit_s.linear_regression", "s", Lower),
    layer("ml.fit_s.m5p", "s", Lower),
    layer("ml.fit_s.rep_tree", "s", Lower),
    layer("ml.fit_s.svm", "s", Lower),
    layer("ml.fit_s.ls_svm", "s", Lower),
    layer("ml.fit_s.lasso_lambda_1e0", "s", Lower),
    layer("ml.fit_s.lasso_lambda_1e3", "s", Lower),
    layer("ml.fit_s.lasso_lambda_1e9", "s", Lower),
    layer("ml.validate_s.linear_regression", "s", Lower),
    layer("ml.validate_s.m5p", "s", Lower),
    layer("ml.validate_s.rep_tree", "s", Lower),
    layer("ml.validate_s.svm", "s", Lower),
    layer("ml.validate_s.ls_svm", "s", Lower),
    layer("ml.validate_s.lasso_lambda_1e0", "s", Lower),
    layer("ml.validate_s.lasso_lambda_1e3", "s", Lower),
    layer("ml.validate_s.lasso_lambda_1e9", "s", Lower),
    layer("linalg.cholesky_solve_s", "s", Lower),
    layer("linalg.cg_solve_s", "s", Lower),
    layer("features.rows_train", "count", Higher),
    layer("features.selected_columns", "count", Higher),
    layer("ml.methods_ok", "count", Higher),
    layer("ml.best_smae_s", "s", Lower),
    layer("build.residual", "share", Lower),
    // ingest (serve.* and loadgen.* also on refresh)
    layer("monitor.encode_ns", "ns", Lower),
    layer("monitor.decode_ns", "ns", Lower),
    layer("core.window_push_ns", "ns", Lower),
    layer("ml.predict_ns", "ns", Lower),
    layer("serve.decode_p50_us", "us", Lower),
    layer("serve.decode_p99_us", "us", Lower),
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.queue_wait_p99_us", "us", Lower),
    layer("serve.estimate_p50_us", "us", Lower),
    layer("serve.estimate_p99_us", "us", Lower),
    layer("serve.reply_p50_us", "us", Lower),
    layer("serve.reply_p99_us", "us", Lower),
    layer("serve.reactor_turn_p50_us", "us", Lower),
    layer("serve.reactor_turn_p99_us", "us", Lower),
    layer("serve.datapoints", "count", Higher),
    layer("serve.estimates", "count", Higher),
    layer("serve.alerts", "count", Higher),
    layer("serve.dropped", "count", Lower),
    layer("serve.conns_accepted", "count", Lower),
    layer("loadgen.lag_p99_us", "us", Lower),
    layer("loadgen.estimate_p99_us", "us", Lower),
    layer("loadgen.predict_p50_us", "us", Lower),
    layer("loadgen.predict_p99_us", "us", Lower),
    layer("loadgen.rungs_passed", "count", Higher),
    layer("ingest.residual", "share", Lower),
    // refresh
    layer("features.push_run_ms", "ms", Lower),
    layer("core.retrain_p50_ms", "ms", Lower),
    layer("core.retrain_p90_ms", "ms", Lower),
    layer("registry.publish_ms", "ms", Lower),
    layer("registry.install_ms", "ms", Lower),
    layer("ml.predict_row_us", "us", Lower),
    layer("retrain.runs", "count", Higher),
    layer("retrain.warm_share", "share", Higher),
    layer("retrain.fallback", "count", Lower),
    layer("retrain.tap_dropped", "count", Lower),
    layer("retrain.runs_skipped", "count", Lower),
    layer("refresh.residual", "share", Lower),
    // rescore
    layer("features.export_s", "s", Lower),
    layer("registry.save_s", "s", Lower),
    layer("registry.load_s", "s", Lower),
    layer("registry.container_mib", "MiB", Lower),
    layer("core.query_ms", "ms", Lower),
    layer("ml.predict_columns_ms", "ms", Lower),
    layer("core.pruned_query_us", "us", Lower),
    layer("core.chunks_pruned", "count", Higher),
    layer("rescore.residual", "share", Lower),
    // every workload
    layer("trace.overhead_share", "share", Lower),
];

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase should take.
    pub seconds: f64,
    /// Record spans and run the per-layer replays.
    pub trace: bool,
    /// About 1/10 scale, same checks.
    pub smoke: bool,
    /// Where results and scratch files go (`target/benchmark`).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// `full` at full scale, `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// A fresh scratch directory for this run, removed by the caller.
    pub fn work_dir(&self, workload: &str) -> PathBuf {
        let dir = self
            .out_dir
            .join(format!("work-{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("creating the scratch directory");
        dir
    }
}

/// Run `setup` [`SETUP_REPEATS`] times, tearing down all but the last
/// result; returns it with the median set-up seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

fn run_workload(name: &str, ctx: &Ctx) -> Report {
    match name {
        "build" => build::run(ctx),
        "ingest" => ingest::run(ctx),
        "refresh" => refresh::run(ctx),
        "rescore" => rescore::run(ctx),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    child: bool,
    calibrate: bool,
    untraced_p50_ms: Option<f64>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "benchmark: {msg}\nusage: benchmark --workload <build|ingest|refresh|rescore|all> \
         [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--repeat N] [--calibrate]"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut a = Args {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        child: false,
        calibrate: false,
        untraced_p50_ms: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value("--workload"),
            "--seed" => {
                a.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                a.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--repeat" => {
                a.repeat = value("--repeat")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("bad --repeat"))
            }
            "--untraced-p50" => a.untraced_p50_ms = value("--untraced-p50").parse().ok(),
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => a.smoke = true,
            "--child" => a.child = true,
            "--calibrate" => a.calibrate = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload {:?}", a.workload));
    }
    a
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("benchmark");
    std::fs::create_dir_all(&dir).expect("creating target/benchmark");
    dir
}

/// One child run as the parent sees it.
#[derive(Debug, Clone, Default)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: Vec<(String, f64)>,
    layers: Vec<(String, f64)>,
    problems: Vec<String>,
}

impl ChildResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(&self.layers)
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The child's stdout protocol: one `metric e|l <name> <value>` line per
/// metric, `problem <text>` per failed check, and a final
/// `outcome <0|1> <attempted> <failed>`.
fn emit(report: &Report) {
    for (name, v) in &report.e2e {
        println!("metric e {name} {v}");
    }
    for (name, v) in &report.layers {
        println!("metric l {name} {v}");
    }
    for p in &report.problems {
        println!("problem {}", p.replace('\n', " "));
    }
    println!(
        "outcome {} {} {}",
        u8::from(report.problems.is_empty()),
        report.attempted,
        report.failed
    );
}

fn parse_child(stdout: &str) -> Option<ChildResult> {
    let mut r = ChildResult::default();
    let mut done = false;
    for line in stdout.lines() {
        let mut parts = line.splitn(2, ' ');
        let (tag, rest) = (parts.next()?, parts.next().unwrap_or(""));
        match tag {
            "metric" => {
                let f: Vec<&str> = rest.split(' ').collect();
                let [kind, name, value] = f[..] else {
                    return None;
                };
                let entry = (name.to_string(), value.parse().ok()?);
                if kind == "e" {
                    r.e2e.push(entry);
                } else {
                    r.layers.push(entry);
                }
            }
            "problem" => r.problems.push(rest.to_string()),
            "outcome" => {
                let f: Vec<&str> = rest.split(' ').collect();
                let [ok, attempted, failed] = f[..] else {
                    return None;
                };
                r.correct = ok == "1";
                r.attempted = attempted.parse().ok()?;
                r.failed = failed.parse().ok()?;
                done = true;
            }
            _ => {}
        }
    }
    done.then_some(r)
}

fn spawn_child(args: &Args, workload: &str, trace: bool, untraced_p50: Option<f64>) -> ChildResult {
    let exe = std::env::current_exe().expect("locating the benchmark executable");
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = untraced_p50 {
        cmd.args(["--untraced-p50", &p.to_string()]);
    }
    let failed = |why: String| ChildResult {
        problems: vec![why],
        failed: 1,
        attempted: 1,
        ..ChildResult::default()
    };
    match cmd.output() {
        Ok(out) => {
            let stdout = String::from_utf8_lossy(&out.stdout);
            match parse_child(&stdout) {
                Some(r) if out.status.success() => r,
                Some(mut r) => {
                    r.correct = false;
                    r.problems.push(format!("child exited with {}", out.status));
                    r
                }
                None => failed(format!("{workload}: child exited with {}", out.status)),
            }
        }
        Err(e) => failed(format!("{workload}: could not start the child: {e}")),
    }
}

/// Run one workload: an untraced child, then (with `--trace`) a traced one
/// told the untraced result. A traced run gives each child half the time,
/// so tracing costs no longer than a plain run plus its replays.
fn measure(args: &Args, workload: &str) -> (ChildResult, Option<ChildResult>) {
    if !args.trace {
        return (spawn_child(args, workload, false, None), None);
    }
    let half = Args {
        seconds: args.seconds / 2.0,
        ..args.clone()
    };
    let plain = spawn_child(&half, workload, false, None);
    let traced = spawn_child(&half, workload, true, plain.get("result_p50_ms"));
    (plain, Some(traced))
}

fn print_metrics(workload: &str, metrics: &[(String, f64)]) {
    for (name, v) in metrics {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .map_or("", |d| d.unit);
        println!("{workload} {name} {v} {unit}");
    }
}

fn final_json(rows: &[(&str, &ChildResult)], prefix: bool, layers: bool) -> String {
    let mut metrics = Vec::new();
    for (workload, r) in rows {
        let list = if layers { &r.layers } else { &r.e2e };
        for (name, v) in list {
            let unit = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|d| d.name == name)
                .map_or("", |d| d.unit);
            let key = if prefix {
                format!("{workload}:{name}")
            } else {
                name.clone()
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&key),
                report::json_num(*v),
                json_str(unit)
            ));
        }
    }
    let correct = rows.iter().all(|(_, r)| r.correct);
    let attempted: u64 = rows.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = rows.iter().map(|(_, r)| r.failed).sum();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn run_parent(args: &Args) -> bool {
    let list: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    if args.repeat > 1 {
        return repeat(args, &list);
    }
    let mut shown = Vec::new();
    for &w in &list {
        let (plain, traced) = measure(args, w);
        print_metrics(w, &plain.e2e);
        let shown_run = match traced {
            Some(t) => {
                print_metrics(w, &t.layers);
                let mut merged = t;
                merged.correct &= plain.correct;
                merged.attempted += plain.attempted;
                merged.failed += plain.failed;
                merged.problems.extend(plain.problems);
                merged
            }
            None => plain,
        };
        for p in &shown_run.problems {
            eprintln!("benchmark: {w}: CHECK FAILED: {p}");
        }
        shown.push((w, shown_run));
    }
    let rows: Vec<(&str, &ChildResult)> = shown.iter().map(|(w, r)| (*w, r)).collect();
    println!("{}", final_json(&rows, list.len() > 1, args.trace));
    rows.iter().all(|(_, r)| r.correct)
}

/// `--repeat N`: N fresh children per workload, alternating the order of
/// workloads between rounds; per metric the median, quartiles and
/// spreads, flagging end-to-end metrics whose range exceeds their bound.
fn repeat(args: &Args, list: &[&str]) -> bool {
    let mut runs: Vec<(String, ChildResult)> = Vec::new();
    for round in 0..args.repeat {
        let mut order = list.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let (plain, traced) = measure(args, w);
            eprintln!("benchmark: round {} {w} done", round + 1);
            runs.push((w.to_string(), plain));
            if let Some(t) = traced {
                runs.push((w.to_string(), t));
            }
        }
    }
    let mut all_ok = true;
    println!("workload metric median q1 q3 range/median iqr/median bound flag");
    for &w in list {
        let mine: Vec<&ChildResult> = runs
            .iter()
            .filter(|(n, _)| n == w)
            .map(|(_, r)| r)
            .collect();
        for r in &mine {
            for p in &r.problems {
                eprintln!("benchmark: {w}: CHECK FAILED: {p}");
            }
            all_ok &= r.correct;
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let values: Vec<f64> = mine.iter().filter_map(|r| r.get(def.name)).collect();
            if values.is_empty() {
                continue;
            }
            let (q1, med, q3) = stats::quartiles(&values);
            let range = stats::range_share(&values);
            let iqr = stats::iqr_share(&values);
            let flag = match def.bound {
                Some(b) if range > b => "SPREAD>BOUND",
                _ => "",
            };
            println!(
                "{w} {} {med:.6} {q1:.6} {q3:.6} {range:.4} {iqr:.4} {} {flag}",
                def.name,
                def.bound.map_or("-".to_string(), |b| b.to_string())
            );
        }
    }
    all_ok
}

fn run_child(args: &Args) {
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.smoke {
            args.seconds / 10.0
        } else {
            args.seconds
        },
        trace: args.trace,
        smoke: args.smoke,
        out_dir: out_dir(),
    };
    let mut report = run_workload(&args.workload, &ctx);
    if !ctx.trace {
        report.e2e_metric("peak_rss_mib", peak_rss_mib());
    }
    report.detail(
        "machine_threads",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    report.detail("pool_threads", f2pm_linalg::pool_threads().to_string());
    report.finish(ctx.trace, args.untraced_p50_ms);
    let file = ctx.out_dir.join(format!(
        "{}-{}{}.json",
        report.workload,
        ctx.seed,
        if ctx.trace { ".trace" } else { "" }
    ));
    if let Err(e) = std::fs::write(&file, report.to_json(&ctx)) {
        report.problem(format!("writing {}: {e}", file.display()));
    }
    emit(&report);
    std::process::exit(if report.problems.is_empty() { 0 } else { 1 });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    if args.child {
        run_child(&args);
    }
    if args.calibrate {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: false,
            smoke: args.smoke,
            out_dir: out_dir(),
        };
        let c = ingest::calibrate(&ctx);
        println!("closed-loop capacity C = {c:.0} dp/s");
        return;
    }
    let ok = run_parent(&args);
    std::process::exit(if ok { 0 } else { 1 });
}

/// Where BENCHMARK.json sits relative to this package.
#[cfg(test)]
fn benchmark_json() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_protocol_round_trips() {
        let text = "noise\nmetric e setup_s 0.5\nmetric l serve.dropped 0\n\
                    problem estimate 3 mismatched\noutcome 0 120 3\n";
        let r = parse_child(text).expect("parses");
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (120, 3));
        assert_eq!(r.get("setup_s"), Some(0.5));
        assert_eq!(r.get("serve.dropped"), Some(0.0));
        assert_eq!(r.problems, vec!["estimate 3 mismatched".to_string()]);
        assert!(parse_child("metric e x 1\n").is_none(), "no outcome line");
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&["--trace"]).trace);
        assert!(args(&["--trace", "1"]).trace);
        assert!(!args(&["--trace", "0", "--seed", "7"]).trace);
        let a = args(&["--workload", "ingest", "--trace", "--seed", "7"]);
        assert!(a.trace);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn final_json_shape() {
        let r = ChildResult {
            correct: true,
            attempted: 10,
            failed: 0,
            e2e: vec![("setup_s".to_string(), 0.8127)],
            layers: Vec::new(),
            problems: Vec::new(),
        };
        assert_eq!(
            final_json(&[("build", &r)], false, false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    /// The `ingest` and `rescore` smoke runs, in process, pass every
    /// output check and report every end-to-end metric.
    #[test]
    fn ingest_and_rescore_smoke_in_process() {
        let started = Instant::now();
        for workload in ["ingest", "rescore"] {
            let ctx = Ctx {
                seed: 7,
                seconds: DEFAULT_SECONDS / 10.0,
                trace: false,
                smoke: true,
                out_dir: out_dir(),
            };
            let mut report = run_workload(workload, &ctx);
            report.e2e_metric("peak_rss_mib", peak_rss_mib());
            report.finish(false, None);
            assert!(
                report.problems.is_empty(),
                "{workload}: {:?}",
                report.problems
            );
            assert_eq!(report.e2e.len(), END_TO_END.len());
            assert!(report.attempted > 0 && report.failed == 0);
        }
        let took = started.elapsed().as_secs_f64();
        assert!(took <= 10.0, "smoke took {took:.1} s");
    }

    /// BENCHMARK.json must list exactly this catalogue.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let Ok(text) = std::fs::read_to_string(benchmark_json()) else {
            return; // outside a full checkout
        };
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
            let direction = format!("{:?}", def.better).to_lowercase();
            let better = format!("{needle}, \"better\": \"{direction}\"");
            assert!(text.contains(&better), "direction of {}", def.name);
            if let Some(b) = def.bound {
                assert!(
                    text.contains(&format!("{better}, \"bound\": {b}")),
                    "bound of {}",
                    def.name
                );
            }
        }
        let listed = text.matches("\"name\": ").count();
        let workloads = WORKLOADS.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
        assert!(text.contains(&format!("\"run_seconds\": {},", DEFAULT_SECONDS as u64)));
    }
}
