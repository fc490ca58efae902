//! `predict_batch` must be indistinguishable from a `predict_row` loop —
//! bit-for-bit — for every model type, across both the serial and the
//! parallel batch paths. The batched implementations share the
//! per-coordinate accumulation order with the row path, so the outputs
//! are asserted with exact equality, not a tolerance. Linear-kernel SVM
//! models score through primal weights derived when the model is built,
//! so they must also score identically however they were built: fitted,
//! reloaded through the binary model codec, or assembled with
//! `from_parts`.

use f2pm_repro::f2pm_linalg::{Matrix, Standardizer};
use f2pm_repro::f2pm_ml::lssvm::LsSvmModel;
use f2pm_repro::f2pm_ml::{
    persist_bin, Kernel, LassoRegressor, LinearRegression, LsSvmRegressor, M5Params, M5Prime,
    Model, Regressor, RepTree, RepTreeParams, SavedModel, SvrParams, SvrRegressor,
};

/// Deterministic design matrix with a mildly nonlinear target.
fn design(n: usize, p: usize, phase: f64) -> (Matrix, Vec<f64>) {
    let mut x = Matrix::zeros(n, p);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let mut acc = 0.0;
        for j in 0..p {
            let v = ((i * p + j) as f64 * 0.29 + phase).sin() * 2.5;
            x[(i, j)] = v;
            acc += v * (j as f64 + 1.0) * 0.4;
        }
        y.push(acc + (i as f64 * 0.17).cos() * 8.0 + 60.0);
    }
    (x, y)
}

fn regressors() -> Vec<(&'static str, Box<dyn Regressor>)> {
    vec![
        ("linear", Box::new(LinearRegression::new())),
        ("lasso", Box::new(LassoRegressor::new(0.5))),
        ("rep_tree", Box::new(RepTree::new(RepTreeParams::default()))),
        ("m5p", Box::new(M5Prime::new(M5Params::default()))),
        (
            "svr",
            Box::new(SvrRegressor::new(SvrParams {
                kernel: Kernel::Rbf { gamma: 0.2 },
                ..SvrParams::default()
            })),
        ),
        (
            "ls_svm",
            Box::new(LsSvmRegressor::new(Kernel::Rbf { gamma: 0.2 }, 10.0)),
        ),
        (
            "svr_linear",
            Box::new(SvrRegressor::new(SvrParams {
                kernel: Kernel::Linear,
                c: 100.0,
                ..SvrParams::default()
            })),
        ),
        (
            "ls_svm_linear",
            Box::new(LsSvmRegressor::new(Kernel::Linear, 10.0)),
        ),
    ]
}

fn assert_batch_matches_rows(queries: &Matrix, label: &str) {
    let (train_x, train_y) = design(150, 6, 0.0);
    for (name, reg) in regressors() {
        let model = reg.fit(&train_x, &train_y).expect(name);
        let batch = model.predict_batch(queries).expect(name);
        assert_eq!(batch.len(), queries.rows(), "{label}/{name}: output length");
        for (i, &got) in batch.iter().enumerate() {
            let row = model.predict_row(queries.row(i));
            assert!(
                got == row || (got.is_nan() && row.is_nan()),
                "{label}/{name}: row {i} batch {got} != per-row {row}",
            );
        }
    }
}

#[test]
fn batch_equals_row_loop_serial_path() {
    // Below the parallel threshold: the serial batch path runs.
    let (queries, _) = design(40, 6, 1.3);
    assert_batch_matches_rows(&queries, "serial");
}

#[test]
fn batch_equals_row_loop_parallel_path() {
    // Well above PREDICT_PARALLEL_THRESHOLD (128): the banded parallel
    // overrides of the kernel models run, with per-thread scratch.
    let (queries, _) = design(700, 6, 2.1);
    assert_batch_matches_rows(&queries, "parallel");
}

#[test]
fn batch_rejects_width_mismatch() {
    let (train_x, train_y) = design(80, 6, 0.0);
    let (bad, _) = design(10, 5, 0.4);
    for (name, reg) in regressors() {
        let model = reg.fit(&train_x, &train_y).expect(name);
        assert!(
            model.predict_batch(&bad).is_err(),
            "{name}: width mismatch must error"
        );
    }
}

#[test]
fn batch_on_empty_query_set_is_empty() {
    let (train_x, train_y) = design(80, 6, 0.0);
    let empty = Matrix::zeros(0, 6);
    for (name, reg) in regressors() {
        let model = reg.fit(&train_x, &train_y).expect(name);
        assert!(
            model.predict_batch(&empty).expect(name).is_empty(),
            "{name}"
        );
    }
}

/// Row and batch scores of `model`, asserting they agree bit for bit.
fn scores(model: &dyn Model, queries: &Matrix, label: &str) -> Vec<f64> {
    let batch = model.predict_batch(queries).expect(label);
    for (i, &got) in batch.iter().enumerate() {
        let row = model.predict_row(queries.row(i));
        assert_eq!(got.to_bits(), row.to_bits(), "{label}: row {i}");
    }
    batch
}

#[test]
fn linear_kernel_models_score_identically_across_construction_paths() {
    let (train_x, train_y) = design(150, 6, 0.0);
    // Above the parallel threshold, so a batch could fan out.
    let (queries, _) = design(700, 6, 2.1);

    let svr = SvrRegressor::new(SvrParams {
        kernel: Kernel::Linear,
        c: 100.0,
        ..SvrParams::default()
    })
    .fit_svr(&train_x, &train_y)
    .expect("svr fit");
    let lssvm = LsSvmRegressor::new(Kernel::Linear, 10.0)
        .fit_lssvm(&train_x, &train_y)
        .expect("ls_svm fit");

    // `from_parts` from the same standardized rows and dual solution.
    let standardizer = Standardizer::fit(&train_x);
    let support = standardizer.transform(&train_x);
    let assembled = LsSvmModel::from_parts(
        Kernel::Linear,
        standardizer,
        support,
        lssvm.alpha().to_vec(),
        lssvm.bias(),
    );
    let want = scores(&lssvm, &queries, "ls_svm fitted");
    assert_eq!(
        scores(&assembled, &queries, "ls_svm from_parts"),
        want,
        "ls_svm: from_parts scores differ from the fitted model"
    );

    for (name, saved) in [
        ("svr", SavedModel::Svr(svr)),
        ("ls_svm", SavedModel::LsSvm(lssvm)),
    ] {
        let fresh = scores(saved.as_model(), &queries, name);

        let mut bytes = Vec::new();
        persist_bin::encode_payload(&saved, &mut bytes);
        let binary = persist_bin::decode_payload(persist_bin::kind_tag(&saved), &bytes)
            .expect("binary decode");
        let label = format!("{name} binary round trip");
        assert_eq!(
            scores(binary.as_model(), &queries, &label),
            fresh,
            "{label}: scores differ from the fitted model"
        );
    }
}
