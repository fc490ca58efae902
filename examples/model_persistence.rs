//! Train on one "machine", predict on another: the deployment split the
//! paper's architecture implies (models built where the FMS lives, applied
//! near the monitored guest).
//!
//! 1. collect a campaign and archive it as CSV;
//! 2. train a REP-Tree, save it as a checksummed F2PM artifact that also
//!    records the aggregation config and input columns it was trained on;
//! 3. "elsewhere": load (and checksum-verify) the artifact and the
//!    archive, aggregate the archived run the way the artifact says, and
//!    compare the estimates against ground truth.
//!
//! ```text
//! cargo run --release --example model_persistence
//! ```

use f2pm_repro::f2pm::F2pmConfig;
use f2pm_repro::f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_repro::f2pm_features::{aggregate_history, Dataset};
use f2pm_repro::f2pm_ml::{Metrics, RepTree, RepTreeParams, SMaeThreshold, SavedModel};
use f2pm_repro::f2pm_monitor::{load_csv, save_csv, DataHistory};
use f2pm_repro::f2pm_registry::{artifact, ArtifactMeta};
use f2pm_repro::f2pm_sim::Campaign;

fn main() {
    let dir = std::env::temp_dir().join(format!("f2pm_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let history_path = dir.join("history.csv");
    let model_path = dir.join("rep_tree.f2pm");

    // --- Training side -------------------------------------------------
    let cfg = F2pmConfig::quick();
    println!("[train side] collecting {} runs...", cfg.campaign.runs);
    let runs = Campaign::new(cfg.campaign.clone(), 77).run_all();
    let history = DataHistory::from_campaign(&runs);
    save_csv(&history, &history_path).expect("archive history");

    let agg = cfg.aggregation;
    let points = aggregate_history(&history, &agg);
    let ds = Dataset::from_points(&points);
    let tree = RepTree::new(RepTreeParams::default())
        .fit_tree(&ds.x, &ds.y)
        .expect("fit");
    println!(
        "[train side] fitted rep_tree with {} leaves on {} windows",
        tree.leaf_count(),
        ds.len()
    );
    let saved = SavedModel::RepTree(tree);
    let fitted = saved.as_model().predict_batch(&ds.x).expect("score");
    let smae = Metrics::compute(&fitted, &ds.y, SMaeThreshold::paper_default()).smae;
    let meta = ArtifactMeta::new("rep_tree", agg, aggregated_column_names_with(&agg), smae);
    artifact::save(&model_path, &meta, &saved).expect("save artifact");
    println!(
        "[train side] artifact saved to {} ({} bytes)",
        model_path.display(),
        std::fs::metadata(&model_path).unwrap().len()
    );

    // --- Prediction side (a different process in real deployments) -----
    let (meta, loaded) = artifact::load(&model_path).expect("load artifact");
    println!(
        "\n[predict side] loaded a checksum-verified `{}` model ({} inputs, {} s windows, \
         training S-MAE {:.1} s)",
        loaded.kind(),
        meta.columns.len(),
        meta.agg.window_s,
        meta.train_smae
    );
    let archive = load_csv(&history_path).expect("load archive");
    let run = archive.runs().into_iter().next().expect("first run");
    let fail_t = run.fail_time.expect("failing run");

    let points = f2pm_repro::f2pm_features::aggregate_run(&run, &meta.agg);
    println!(
        "[predict side] replaying {} windows of the archived run (fails at {:.0} s):\n",
        points.len(),
        fail_t
    );
    println!(
        "{:>10} {:>16} {:>14} {:>10}",
        "t(s)", "predicted(s)", "actual(s)", "error(s)"
    );
    let model = loaded.as_model();
    let show = points.len().min(10);
    for p in points.iter().take(show) {
        let est = model.predict_row(&p.inputs_with(&meta.agg)).max(0.0);
        let actual = p.rttf.unwrap();
        println!(
            "{:>10.1} {:>16.1} {:>14.1} {:>10.1}",
            p.t_repr,
            est,
            actual,
            (est - actual).abs()
        );
    }
    if points.len() > show {
        println!("   ... ({} more windows)", points.len() - show);
    }

    std::fs::remove_dir_all(&dir).ok();
    println!("\nlist and verify artifacts in a model store with `f2pm models DIR list|verify`.");
}
