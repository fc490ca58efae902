//! End-to-end tests of the compiled `f2pm` binary: the full
//! campaign → evaluate → train → predict lifecycle through the real CLI
//! surface (process spawning, exit codes, stdout/stderr), and `serve`'s
//! orderly shutdown on SIGTERM.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use f2pm_monitor::{load_csv, Datapoint, FeatureMonitorClient, FmcConfig};

fn f2pm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_f2pm"))
        .args(args)
        .output()
        .expect("spawn f2pm binary")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("f2pm_bin_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = f2pm(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("campaign"));
    assert!(text.contains("predict"));
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = f2pm(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = f2pm(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_lifecycle_campaign_evaluate_train_predict() {
    let dir = tmpdir("lifecycle");
    let hist = dir.join("history.csv");
    let model = dir.join("model.f2pm");

    // 1. Collect.
    let out = f2pm(&[
        "campaign",
        "--runs",
        "3",
        "--seed",
        "9",
        "--quick",
        "--out",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(hist.exists());

    // 2. Compare methods.
    let out = f2pm(&["evaluate", "--history", hist.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("rep_tree"));
    assert!(table.contains("S-MAE"));

    // 3. Train + persist as a checksummed artifact.
    let out = f2pm(&[
        "train",
        "--history",
        hist.to_str().unwrap(),
        "--method",
        "rep_tree",
        "--out",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let model_bytes = std::fs::read(&model).unwrap();
    assert!(model_bytes.starts_with(b"F2PM"));

    // 4. Predict on the saved history.
    let out = f2pm(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--history",
        hist.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let preds = String::from_utf8_lossy(&out.stdout);
    assert!(preds.contains("predicted RTTF"));
    // At least a handful of prediction rows with actuals present.
    let rows = preds
        .lines()
        .filter(|l| l.split_whitespace().count() == 3 && !l.contains("RTTF"))
        .count();
    assert!(rows > 5, "prediction rows:\n{preds}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_rejects_missing_history_file() {
    let out = f2pm(&[
        "train",
        "--history",
        "/nonexistent/f2pm.csv",
        "--method",
        "linear",
        "--out",
        "never_written.f2pm",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("reading"));
}

#[test]
fn train_rejects_unknown_method() {
    let dir = tmpdir("badmethod");
    let hist = dir.join("h.csv");
    let out = f2pm(&[
        "campaign",
        "--runs",
        "1",
        "--quick",
        "--out",
        hist.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = f2pm(&[
        "train",
        "--history",
        hist.to_str().unwrap(),
        "--method",
        "deep_transformer",
        "--out",
        dir.join("m.f2pm").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_shuts_down_in_order_on_sigterm() {
    let dir = tmpdir("sigterm");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (hist, model, record) = (path("history.csv"), path("model.f2pm"), path("recorded"));
    let out = f2pm(&[
        "campaign", "--runs", "2", "--seed", "7", "--quick", "--out", &hist,
    ]);
    assert!(out.status.success(), "campaign failed");
    let out = f2pm(&[
        "train",
        "--history",
        &hist,
        "--method",
        "linear",
        "--out",
        &model,
    ]);
    assert!(out.status.success(), "train failed");

    // No --seconds: the server runs until it is signalled.
    let mut server = Command::new(env!("CARGO_BIN_EXE_f2pm"))
        .args(["serve", "--model", &model, "--addr", "127.0.0.1:0"])
        .args(["--shards", "1", "--reactors", "1", "--record", &record])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn f2pm serve");
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .split_once(" on ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    // One host's life, ending in a failure. `close` returns once the
    // server has read everything, up to the Bye.
    let points: Vec<Datapoint> = (0..40)
        .map(|i| Datapoint {
            t_gen: i as f64 * 5.0 + 0.25,
            values: std::array::from_fn(|j| 100.0 + i as f64 / 3.0 + j as f64),
        })
        .collect();
    let cfg = FmcConfig {
        host_id: 7,
        ..FmcConfig::default()
    };
    let mut fmc = FeatureMonitorClient::connect(addr, cfg).unwrap();
    for d in &points {
        fmc.send_datapoint(d).unwrap();
    }
    fmc.send_fail(205.0).unwrap();
    fmc.close().unwrap();

    let pid = server.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    let status = server.wait().unwrap();
    assert_eq!(status.code(), Some(0), "serve exited with {status}");

    // Every datapoint sent reached the record, and so did the failure.
    let runs = load_csv(dir.join("recorded").join("host-7.csv"))
        .unwrap()
        .runs();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].fail_time, Some(205.0));
    let recorded: Vec<(f64, [f64; 14])> = runs[0]
        .datapoints
        .iter()
        .map(|d| (d.t_gen, d.values))
        .collect();
    let sent: Vec<(f64, [f64; 14])> = points.iter().map(|d| (d.t_gen, d.values)).collect();
    assert_eq!(recorded, sent);
    std::fs::remove_dir_all(&dir).ok();
}
