//! End-to-end tests of the compiled `f2pm` binary: the full
//! campaign → evaluate → train → predict lifecycle through the real CLI
//! surface (process spawning, exit codes, stdout/stderr).

use std::path::PathBuf;
use std::process::{Command, Output};

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
