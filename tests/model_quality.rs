//! Model-quality guard: the quick workflow on a fixed seed must keep
//! fitting the same models. Every suite row's validation S-MAE, in both
//! variants, is pinned to the values the pipeline produced before the
//! linear-kernel SVM rows moved to the primal solvers (when they still
//! trained on the n × n Gram matrix), and the overall best row must not
//! change. A solver rewrite that lands on a different optimum fails here,
//! at `cargo test`, not only in the benchmark.

use f2pm_repro::f2pm::{run_workflow, F2pmConfig};

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
