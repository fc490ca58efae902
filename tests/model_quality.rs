//! Model-quality guard: the quick workflow on a fixed seed must keep
//! fitting the same models. Every suite row's validation S-MAE, in both
//! variants, is pinned to the values the pipeline produced before the
//! linear-kernel SVM rows moved to the primal solvers (when they still
//! trained on the n × n Gram matrix), and the overall best row must not
//! change. A solver rewrite that lands on a different optimum fails here,
//! at `cargo test`, not only in the benchmark. The golden checksums below
//! pin every validation prediction of the 8-row suite bit for bit, so a
//! kernel change that only reorders a sum fails too.

use f2pm_repro::f2pm::{run_workflow, F2pmConfig};
use f2pm_repro::f2pm_linalg::Matrix;
use f2pm_repro::f2pm_ml::{paper_method_suite, SvrParams};

/// Relative S-MAE tolerance: far below any model-selection difference,
/// far above the rounding of an equivalent solver.
const REL_TOL: f64 = 1e-6;

const SEED: u64 = 42;

/// `(variant index, method, S-MAE)` from the Gram-matrix solvers.
const PINNED: &[(usize, &str, f64)] = &[
    (0, "linear_regression", 8.462630574608381),
    (0, "m5p", 8.462630574608381),
    (0, "rep_tree", 26.395686801515467),
    (0, "svm", 8.66727312781574),
    (0, "ls_svm", 6.940887771140975),
    (0, "lasso_lambda_1e0", 6.8372092506087805),
    (0, "lasso_lambda_1e9", 73.62991420752975),
    (1, "linear_regression", 7.0046154827917055),
    (1, "m5p", 12.548914515122265),
    (1, "rep_tree", 31.806731938065933),
    (1, "svm", 7.434345990738663),
    (1, "ls_svm", 6.995153074278452),
    (1, "lasso_lambda_1e0", 7.004616692185283),
    (1, "lasso_lambda_1e9", 73.62991420752975),
];

const BEST: (&str, f64) = ("lasso_lambda_1e0", 6.8372092506087805);

#[test]
fn quick_workflow_smae_is_pinned_in_both_variants() {
    let report = run_workflow(&F2pmConfig::quick(), SEED).expect("enough data");
    assert_eq!(report.variants.len(), 2, "both variants must run");
    for v in &report.variants {
        assert_eq!(
            v.ok_reports().count(),
            PINNED.len() / 2,
            "{}: every suite row must fit",
            v.variant
        );
    }
    for &(variant, name, pinned) in PINNED {
        let got = report.variants[variant]
            .by_name(name)
            .unwrap_or_else(|| panic!("variant {variant}: no {name} row"))
            .metrics
            .smae;
        assert!(
            (got - pinned).abs() <= REL_TOL * pinned,
            "variant {variant} {name}: S-MAE {got} drifted from {pinned}"
        );
    }
    let best = report.best_by_smae().expect("a best row");
    assert_eq!(best.name, BEST.0, "best row changed");
    assert!((best.metrics.smae - BEST.1).abs() <= REL_TOL * BEST.1);
}

/// FNV-1a over the bit patterns of `vals`.
fn fnv1a(vals: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in vals {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `(variant index, method, FNV-1a of the validation predictions' bits)`
/// of the quick workflow with the 8-row suite, computed with the indexed
/// 4-lane `dot` that `f2pm_linalg::dot`'s chunked form replaced.
const GOLDEN_QUICK: &[(usize, &str, u64)] = &[
    (0, "linear_regression", 0xccc0_1574_0833_0a6a),
    (0, "m5p", 0xccc0_1574_0833_0a6a),
    (0, "rep_tree", 0xda98_f0a6_3724_f38d),
    (0, "svm", 0x7613_99cb_44fe_1780),
    (0, "ls_svm", 0xc44e_7f46_ea1e_3f27),
    (0, "lasso_lambda_1e0", 0xea8b_3bee_aec8_ac6f),
    (0, "lasso_lambda_1e3", 0xd885_7c33_3f4e_edfe),
    (0, "lasso_lambda_1e9", 0xb4ba_387b_df22_870d),
    (1, "linear_regression", 0x1de5_45f0_7a51_fe6f),
    (1, "m5p", 0x1465_aef6_6d34_31a7),
    (1, "rep_tree", 0x8191_2b15_8083_4383),
    (1, "svm", 0x2813_3870_cffd_a39b),
    (1, "ls_svm", 0xad40_6924_884b_2884),
    (1, "lasso_lambda_1e0", 0xf15c_a427_b249_0872),
    (1, "lasso_lambda_1e3", 0x54f8_2e19_f8d8_4c8a),
    (1, "lasso_lambda_1e9", 0xb4ba_387b_df22_870d),
];

/// `(method, FNV-1a of the validation predictions' bits)` of the suite
/// fit on [`build_scale_data`], computed like [`GOLDEN_QUICK`].
const GOLDEN_BUILD_SCALE: &[(&str, u64)] = &[
    ("linear_regression", 0xaa7c_ba31_9b69_f9b9),
    ("m5p", 0xdfc0_580c_2b59_d6ca),
    ("rep_tree", 0x9e04_ea53_c7a1_c501),
    ("svm", 0x6255_e73c_ae47_6f32),
    ("ls_svm", 0x4d94_30b7_5261_f271),
    ("lasso_lambda_1e0", 0x691d_3f10_3b85_5823),
    ("lasso_lambda_1e3", 0x0c60_e5d2_e08a_2225),
    ("lasso_lambda_1e9", 0x0c60_e5d2_e08a_2225),
];

/// The quick workflow on the fixed seed, with the build workload's 8-row
/// suite (lasso rows at λ = 1, 10³ and 10⁹), must reproduce every
/// validation prediction bit for bit in both variants. A kernel rewrite
/// that keeps each model within the S-MAE pins above but reorders a
/// single sum fails here.
#[test]
fn quick_workflow_predictions_are_bit_identical() {
    let mut cfg = F2pmConfig::quick();
    cfg.lasso_predictor_lambdas = vec![1e0, 1e3, 1e9];
    let report = run_workflow(&cfg, SEED).expect("enough data");
    let mut got = Vec::new();
    for (v, variant) in report.variants.iter().enumerate() {
        for r in variant.ok_reports() {
            got.push((v, r.name.as_str(), fnv1a(&r.predictions)));
        }
    }
    assert_eq!(got, GOLDEN_QUICK, "validation prediction checksums");
}

/// Training rows, their labels and validation rows of a seeded 30-column
/// regression problem with more training rows than
/// `SvrParams::shrink_min_n`, so the SVR fit shrinks.
fn build_scale_data() -> (Matrix, Vec<f64>, Matrix) {
    const COLS: usize = 30;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut draw = |n: usize| {
        let mut x = Matrix::zeros(n, COLS);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let row = x.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = next() * (1.0 + j as f64);
            }
            let kink = if row[2] > 1.5 {
                90.0 * (row[2] - 1.5)
            } else {
                0.0
            };
            let signal = 4000.0 - 60.0 * row[0] + 15.0 * row[7] - 8.0 * row[13] + 3.0 * row[29];
            y.push(signal - kink + 200.0 * (next() - 0.5));
        }
        (x, y)
    };
    let (x, y) = draw(SvrParams::default().shrink_min_n + 400);
    let (vx, _) = draw(600);
    (x, y, vx)
}

/// The same suite at the build workload's width and above the SVR
/// shrinking threshold must reproduce every validation prediction bit
/// for bit.
#[test]
fn build_scale_suite_predictions_are_bit_identical() {
    let (x, y, vx) = build_scale_data();
    let got: Vec<(String, u64)> = paper_method_suite(&[1e0, 1e3, 1e9])
        .iter()
        .map(|m| {
            let model = m.fit(&x, &y).expect("fit");
            let p = model.predict_batch(&vx).expect("predict");
            (m.name(), fnv1a(&p))
        })
        .collect();
    let want: Vec<(String, u64)> = GOLDEN_BUILD_SCALE
        .iter()
        .map(|&(n, h)| (n.to_string(), h))
        .collect();
    assert_eq!(got, want, "validation prediction checksums");
}
