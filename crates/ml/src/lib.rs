//! # f2pm-ml
//!
//! The six machine-learning methods F2PM uses to build RTTF prediction
//! models (§III-D of the paper), hand-rolled on `f2pm-linalg` because no
//! mature Rust ML stack exists in the offline dependency set:
//!
//! | Paper method              | Module       | Algorithm                              |
//! |---------------------------|--------------|----------------------------------------|
//! | Linear Regression         | [`linreg`]   | OLS on the Cholesky factor of the centered normal equations |
//! | M5P                       | [`m5p`]      | model tree: SDR splits, linear leaf models, pruning, smoothing (Wang & Witten) |
//! | REP-Tree                  | [`reptree`]  | variance-reduction tree + reduced-error pruning with backfitting (split search shared with M5P) |
//! | Lasso as a Predictor      | [`lasso`]    | coordinate descent (shared with the selection phase) |
//! | SVM (SMOreg-style ε-SVR)  | [`svr`]      | dual coordinate descent, linear/RBF kernels (linear: primal gradient, no Gram) |
//! | Least-Square SVM          | [`lssvm`]    | Suykens kernel system via Cholesky (linear: (d+1)² primal normal equations) |
//!
//! All models implement the object-safe [`Regressor`]/[`Model`] pair so the
//! framework can fit, time and compare them uniformly; [`validate`]
//! produces the paper's metric set (MAE, RAE, Max-AE, S-MAE, training and
//! validation time — §III-D) for each model, fanning independent fits out
//! over crossbeam scoped threads. A fitted model persists as a
//! [`SavedModel`], whose binary payload codec ([`persist_bin`]) is the
//! model half of the checksummed `f2pm-registry` artifact.

// Indexed loops in the numeric kernels intentionally mirror the textbook
// algorithm statements (i/j/k over matrix entries).
#![allow(clippy::needless_range_loop)]

pub(crate) mod batch;
pub mod error;
pub mod kernel;
pub mod lasso;
pub mod linreg;
pub mod lssvm;
pub mod m5p;
pub mod metrics;
pub mod persist_bin;
pub mod regressor;
pub mod reptree;
pub(crate) mod split;
pub mod svr;
pub mod validate;

pub use error::MlError;
pub use kernel::Kernel;
pub use lasso::LassoRegressor;
pub use linreg::LinearRegression;
pub use lssvm::LsSvmRegressor;
pub use m5p::{M5Params, M5Prime};
pub use metrics::{Metrics, SMaeThreshold};
pub use persist_bin::SavedModel;
pub use regressor::{Model, Regressor};
pub use reptree::{RepTree, RepTreeParams};
pub use svr::{SvrParams, SvrRegressor};
pub use validate::{
    cross_validate, evaluate_all, evaluate_grid, evaluate_one, CrossValidation, GridVariant,
    ModelReport,
};

/// The paper's full §III-D method set with default hyper-parameters, ready
/// for [`evaluate_all`]. Lasso-as-a-predictor appears once per λ in the
/// given grid, as in Table II.
pub fn paper_method_suite(lasso_lambdas: &[f64]) -> Vec<Box<dyn Regressor>> {
    let mut suite: Vec<Box<dyn Regressor>> = vec![
        Box::new(LinearRegression::new()),
        Box::new(M5Prime::new(M5Params::default())),
        Box::new(RepTree::new(RepTreeParams::default())),
        // WEKA's SMOreg default kernel is PolyKernel of degree 1 — i.e.
        // *linear* SVR — which is why the paper's SVM rows sit next to
        // plain linear regression in Table II. We mirror that here.
        Box::new(SvrRegressor::new(SvrParams {
            kernel: Kernel::Linear,
            c: 100.0,
            ..SvrParams::default()
        })),
        Box::new(LsSvmRegressor::new(Kernel::Linear, 10.0)),
    ];
    for &l in lasso_lambdas {
        suite.push(Box::new(LassoRegressor::new(l)));
    }
    suite
}
