//! # f2pm-features
//!
//! The data-preparation pipeline of F2PM (§III-B and §III-C of the paper):
//!
//! 1. **Aggregation** ([`aggregate`]): raw datapoints are averaged into
//!    fixed-width time windows (the paper's Fig. 2 scheme); per-feature
//!    **slopes** (Eq. 1) and the **inter-generation time** derived metric
//!    are attached; every aggregated point is labeled with its ground-truth
//!    **RTTF** using the run's fail event. One streaming
//!    [`WindowAggregator`] computes every window, offline and online.
//! 2. **Dataset assembly** ([`dataset`]): aggregated points become a design
//!    matrix with 30 named input columns (14 feature means, 14 feature
//!    slopes, the inter-generation time and its slope) plus the RTTF
//!    target, with deterministic holdout / k-fold splitting.
//! 3. **Feature selection** ([`select`], [`lasso`]): the paper's Lasso
//!    Regularization path (Eq. 2) over a user-supplied λ̄ vector — as λ
//!    grows, more β entries hit exactly zero and the corresponding columns
//!    are dropped, producing one candidate training set per λ (Fig. 4 /
//!    Table I).

pub mod aggregate;
pub mod column_store;
pub mod dataset;
pub mod lasso;
pub mod select;
pub mod select_data;
pub mod sliding;

pub use aggregate::{
    aggregate_history, aggregate_run, AggregatedPoint, AggregationConfig, WindowAggregator,
};
pub use column_store::{
    ChunkRef, Column, ColumnData, ColumnSlice, ColumnStore, ColumnStoreBuilder, ColumnType,
    FeatureChunk, ZoneMap, COL_HOST_ID, COL_RTTF, COL_RUN_ID, COL_T, DEFAULT_CHUNK_ROWS,
};
pub use dataset::{Dataset, KFold};
pub use lasso::{LassoProblem, LassoSolution, LassoSolverConfig};
pub use select::{lasso_path, paper_lambda_grid, LassoPathPoint, SelectionReport};
pub use select_data::{robust_outlier_filter, RunTaggedDataset};
pub use sliding::{CachedRun, SlidingAggregator, WindowShift};
