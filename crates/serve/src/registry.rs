//! Hot-reloadable model registry.
//!
//! The serving path must be able to swap in a freshly trained model (the
//! retrain worker keeps learning from the runs the shards close, through
//! the retrain tap, while the service predicts) without dropping
//! connections or resetting per-host window state. The registry therefore
//! separates two lifetimes:
//!
//! - the **registry** lives as long as the server and pins the input
//!   contract (column names + aggregation config, fixed at creation);
//! - the **model entry** is an immutable `Arc` the registry swaps
//!   atomically on every [`ModelRegistry::install`].
//!
//! Predictors never hold a concrete model. They hold a
//! [`ModelRegistry::shared_model`] handle — a thin [`Model`] that forwards
//! each prediction to the entry current *at that moment*. A hot-reload is
//! one `Arc` swap: in-flight predictions finish on the old entry (their
//! clone keeps it alive), the next window scores on the new one, and no
//! per-host `OnlinePredictor` buffer is touched.

use f2pm_features::AggregationConfig;
use f2pm_ml::{Model, SavedModel};
use f2pm_registry::ModelStore;
use parking_lot::RwLock;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One installed model plus its generation stamp.
pub struct ModelEntry {
    /// The fitted model (any of the §III-D method suite).
    pub model: Box<dyn Model>,
    /// 1 for the boot model, +1 per reload.
    pub generation: u64,
    /// Type tag of the persisted model (`"linear"`, `"rep_tree"`, ...).
    pub kind: &'static str,
}

/// The registry: current model entry + the fixed input contract.
pub struct ModelRegistry {
    current: RwLock<Arc<ModelEntry>>,
    generation: AtomicU64,
    columns: Vec<String>,
    agg: AggregationConfig,
}

impl ModelRegistry {
    /// Create a registry serving `saved` with the given input columns and
    /// aggregation config. Fails if the model width does not match the
    /// column count, or a column name is not part of the aggregated
    /// layout `agg` defines.
    pub fn new(
        saved: SavedModel,
        columns: Vec<String>,
        agg: AggregationConfig,
    ) -> io::Result<Arc<Self>> {
        let all = f2pm_features::aggregate::aggregated_column_names_with(&agg);
        for c in &columns {
            if !all.contains(c) {
                return Err(invalid(format!("unknown aggregated column {c:?}")));
            }
        }
        check_width(&saved, columns.len())?;
        let kind = saved.kind();
        let registry = Arc::new(ModelRegistry {
            current: RwLock::new(Arc::new(ModelEntry {
                model: saved.into_model(),
                generation: 1,
                kind,
            })),
            generation: AtomicU64::new(1),
            columns,
            agg,
        });
        Ok(registry)
    }

    /// Load one artifact file (checksum-verified) and serve it with the
    /// input contract its own metadata records — the single-file
    /// counterpart of [`ModelRegistry::from_store`].
    pub fn from_artifact(path: impl AsRef<Path>) -> io::Result<Arc<Self>> {
        let (meta, saved) = f2pm_registry::artifact::load(path).map_err(io::Error::from)?;
        Self::new(saved, meta.columns, meta.agg)
    }

    /// Cold-start from a model store: load the manifest-active artifact
    /// (checksum-verified) and serve it with the input contract the
    /// artifact's own metadata records — no training pass, no `--history`.
    /// Fails if nothing has been published yet.
    pub fn from_store(store: &ModelStore) -> io::Result<Arc<Self>> {
        let (generation, meta, saved) = store
            .load_active()
            .map_err(io::Error::from)?
            .ok_or_else(|| invalid("model store has no published generation".to_string()))?;
        let registry = Self::new(saved, meta.columns, meta.agg)?;
        set_store_generation_gauge(generation);
        Ok(registry)
    }

    /// Install a new model atomically; every shared-model handle sees it
    /// on its next prediction. Returns the new generation.
    pub fn install(&self, saved: SavedModel) -> io::Result<u64> {
        check_width(&saved, self.columns.len())?;
        let kind = saved.kind();
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        *self.current.write() = Arc::new(ModelEntry {
            model: saved.into_model(),
            generation,
            kind,
        });
        Ok(generation)
    }

    /// The entry currently being served.
    pub fn current(&self) -> Arc<ModelEntry> {
        Arc::clone(&self.current.read())
    }

    /// Generation of the current entry (1 = boot model).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// The fixed input columns (in model order).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The fixed aggregation config.
    pub fn agg(&self) -> AggregationConfig {
        self.agg
    }

    /// A [`Model`] handle that always predicts with the registry's current
    /// entry. Hand this to an `OnlinePredictor` to make it hot-reloadable.
    pub fn shared_model(self: &Arc<Self>) -> Box<dyn Model> {
        Box::new(RegistryModel {
            width: self.columns.len(),
            registry: Arc::clone(self),
        })
    }
}

/// A `Model` view of the registry's current entry (see
/// [`ModelRegistry::shared_model`]).
struct RegistryModel {
    registry: Arc<ModelRegistry>,
    /// Cached: install() guarantees every entry has this width.
    width: usize,
}

impl Model for RegistryModel {
    fn width(&self) -> usize {
        self.width
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        // Clone the Arc out of the lock so a concurrent reload never
        // blocks on (or is blocked by) an in-flight prediction.
        let entry = self.registry.current();
        entry.model.predict_row(row)
    }

    fn predict_batch(&self, x: &f2pm_linalg::Matrix) -> Result<Vec<f64>, f2pm_ml::MlError> {
        let entry = self.registry.current();
        entry.model.predict_batch(x)
    }
}

/// Polls a [`ModelStore`]'s manifest and installs newly published (or
/// rolled-back) generations into a live [`ModelRegistry`].
///
/// The cheap path — reading the few-line manifest — runs every
/// [`StoreWatcher::poll`]; the artifact itself is only loaded (and
/// checksum-verified) when the active generation actually changes.
/// A generation that fails to load or breaks the input contract leaves
/// the registry untouched and is refused once: later polls skip it until
/// the manifest names another generation, so a corrupted artifact can
/// never displace a serving model nor be re-read on every tick.
pub struct StoreWatcher {
    store: ModelStore,
    registry: Arc<ModelRegistry>,
    last: Option<u64>,
    refused: Option<u64>,
}

impl StoreWatcher {
    /// Watch `store` for generation changes relative to
    /// `installed_generation` (the store generation the registry booted
    /// from, or `None` to treat the first observed manifest as new).
    pub fn new(
        store: ModelStore,
        registry: Arc<ModelRegistry>,
        installed_generation: Option<u64>,
    ) -> Self {
        StoreWatcher {
            store,
            registry,
            last: installed_generation,
            refused: None,
        }
    }

    /// One poll tick. Returns `Ok(Some((store_gen, install_gen)))` when a
    /// new generation was installed, `Ok(None)` when the manifest is
    /// unchanged (or absent) or still names a refused generation, and
    /// `Err` — once per generation — when the active artifact exists but
    /// cannot be loaded or records another input contract (columns or
    /// aggregation config) than the registry's. The previous model keeps
    /// serving.
    pub fn poll(&mut self) -> io::Result<Option<(u64, u64)>> {
        let active = match self.store.active_generation() {
            Ok(Some(g)) => g,
            Ok(None) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if self.last == Some(active) || self.refused == Some(active) {
            return Ok(None);
        }
        let installed = self.install(active);
        self.refused = installed.is_err().then_some(active);
        installed.map(Some)
    }

    /// Load store generation `active` and install it if it keeps the
    /// registry's input contract.
    fn install(&mut self, active: u64) -> io::Result<(u64, u64)> {
        let (meta, saved) = self.store.load(active).map_err(io::Error::from)?;
        // Every per-host window in flight and every row follows the
        // contract fixed at creation; a model speaking other columns or
        // another aggregation would score rows it was never trained on.
        if meta.columns != self.registry.columns {
            return Err(invalid(format!(
                "generation {active} changes the served columns {:?} to {:?}",
                self.registry.columns, meta.columns
            )));
        }
        if meta.agg != self.registry.agg {
            return Err(invalid(format!(
                "generation {active} changes the served aggregation {:?} to {:?}",
                self.registry.agg, meta.agg
            )));
        }
        let install_gen = self.registry.install(saved)?;
        self.last = Some(active);
        set_store_generation_gauge(active);
        Ok((active, install_gen))
    }

    /// The store generation currently installed (if any).
    pub fn installed_generation(&self) -> Option<u64> {
        self.last
    }
}

/// Record the store generation a serve process last installed on the
/// process-global metrics registry, so scrapes carry it.
fn set_store_generation_gauge(generation: u64) {
    f2pm_obs::global()
        .gauge(f2pm_registry::ACTIVE_GENERATION_METRIC)
        .set_u64(generation);
}

fn check_width(saved: &SavedModel, columns: usize) -> io::Result<()> {
    let width = saved.as_model().width();
    if width != columns {
        return Err(invalid(format!(
            "model width {width} != registry column count {columns}"
        )));
    }
    Ok(())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_ml::linreg::LinearModel;

    fn linear(intercept: f64, coefficients: Vec<f64>) -> SavedModel {
        SavedModel::Linear(LinearModel {
            intercept,
            coefficients,
        })
    }

    fn test_columns() -> Vec<String> {
        vec!["swap_used".to_string(), "swap_used_slope".to_string()]
    }

    #[test]
    fn install_swaps_model_for_shared_handles() {
        let reg = ModelRegistry::new(
            linear(1000.0, vec![-2.0, 0.0]),
            test_columns(),
            AggregationConfig::default(),
        )
        .unwrap();
        let handle = reg.shared_model();
        assert_eq!(handle.width(), 2);
        assert_eq!(handle.predict_row(&[100.0, 0.0]), 800.0);
        assert_eq!(reg.generation(), 1);

        let g = reg.install(linear(500.0, vec![-1.0, 0.0])).unwrap();
        assert_eq!(g, 2);
        assert_eq!(reg.generation(), 2);
        // Same handle, new model — no re-wiring needed.
        assert_eq!(handle.predict_row(&[100.0, 0.0]), 400.0);
        assert_eq!(reg.current().kind, "linear");
    }

    #[test]
    fn width_mismatch_rejected_at_create_and_install() {
        let r = ModelRegistry::new(
            linear(0.0, vec![1.0]),
            test_columns(),
            AggregationConfig::default(),
        );
        assert!(r.is_err(), "1-wide model vs 2 columns");

        let reg = ModelRegistry::new(
            linear(0.0, vec![1.0, 2.0]),
            test_columns(),
            AggregationConfig::default(),
        )
        .unwrap();
        assert!(reg.install(linear(0.0, vec![1.0, 2.0, 3.0])).is_err());
        assert_eq!(reg.generation(), 1, "failed install leaves generation");
        assert_eq!(reg.current().generation, 1);
    }

    #[test]
    fn unknown_column_rejected() {
        let r = ModelRegistry::new(
            linear(0.0, vec![1.0]),
            vec!["bogus".to_string()],
            AggregationConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn artifact_file_serves_its_own_contract() {
        use f2pm_registry::{artifact, ArtifactMeta};
        let dir = std::env::temp_dir().join(format!("f2pm_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.f2pm");
        let agg = AggregationConfig {
            window_s: 15.0,
            ..AggregationConfig::default()
        };
        let meta = ArtifactMeta::new("linear", agg, test_columns(), 1.0);
        artifact::save(&path, &meta, &linear(7.0, vec![0.0, 0.0])).unwrap();

        let reg = ModelRegistry::from_artifact(&path).unwrap();
        assert_eq!(reg.columns(), test_columns().as_slice());
        assert_eq!(reg.agg(), agg);
        assert_eq!(reg.shared_model().predict_row(&[1.0, 1.0]), 7.0);

        // One flipped payload byte (the payload CRC is the last 4 bytes)
        // fails the checksum before decoding.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let err = ModelRegistry::from_artifact(&path).err().expect("corrupt");
        assert!(err.to_string().contains("checksum"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_cold_start_and_watcher_follow_manifest() {
        use f2pm_registry::ArtifactMeta;
        let dir = std::env::temp_dir().join(format!("f2pm_store_watch_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ModelStore::open(&dir).unwrap();
        let meta = ArtifactMeta {
            method: "linear".to_string(),
            created_at_unix: 0,
            train_smae: 1.0,
            agg: AggregationConfig::default(),
            columns: test_columns(),
        };

        // Empty store: cold start refuses with a clear error.
        assert!(ModelRegistry::from_store(&store).is_err());

        store.publish(&meta, &linear(10.0, vec![0.0, 0.0])).unwrap();
        let reg = ModelRegistry::from_store(&store).unwrap();
        assert_eq!(reg.columns(), test_columns().as_slice());
        let handle = reg.shared_model();
        assert_eq!(handle.predict_row(&[0.0, 0.0]), 10.0);

        let mut watcher =
            StoreWatcher::new(ModelStore::open(&dir).unwrap(), Arc::clone(&reg), Some(1));
        // Unchanged manifest: no reload, no generation bump.
        assert!(watcher.poll().unwrap().is_none());
        assert_eq!(reg.generation(), 1);

        // Publish → watcher installs the new generation.
        store.publish(&meta, &linear(20.0, vec![0.0, 0.0])).unwrap();
        assert_eq!(watcher.poll().unwrap(), Some((2, 2)));
        assert_eq!(handle.predict_row(&[0.0, 0.0]), 20.0);

        // Rollback → manifest reverts, install generation still advances.
        store.rollback(None).unwrap();
        assert_eq!(watcher.poll().unwrap(), Some((1, 3)));
        assert_eq!(handle.predict_row(&[0.0, 0.0]), 10.0);
        assert_eq!(watcher.installed_generation(), Some(1));

        // A corrupted active artifact errors but never displaces the
        // serving model; the next good publish heals the watcher.
        store.publish(&meta, &linear(30.0, vec![0.0, 0.0])).unwrap();
        let path = dir.join(f2pm_registry::store::artifact_name(3));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 20;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert!(watcher.poll().is_err());
        assert_eq!(watcher.poll().unwrap(), None, "refused once, not re-read");
        assert_eq!(handle.predict_row(&[0.0, 0.0]), 10.0);
        store.publish(&meta, &linear(40.0, vec![0.0, 0.0])).unwrap();
        assert_eq!(watcher.poll().unwrap(), Some((4, 4)));
        assert_eq!(handle.predict_row(&[0.0, 0.0]), 40.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A generation with the served width but other columns, or another
    /// aggregation config, is refused by name once and never installed
    /// nor re-read; the next matching publish installs.
    #[test]
    fn watcher_refuses_a_changed_input_contract() {
        use f2pm_registry::ArtifactMeta;
        let dir = std::env::temp_dir().join(format!("f2pm_store_contract_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ModelStore::open(&dir).unwrap();
        let meta = ArtifactMeta::new("linear", AggregationConfig::default(), test_columns(), 1.0);
        store.publish(&meta, &linear(10.0, vec![0.0, 0.0])).unwrap();
        let reg = ModelRegistry::from_store(&store).unwrap();
        let handle = reg.shared_model();
        let mut watcher =
            StoreWatcher::new(ModelStore::open(&dir).unwrap(), Arc::clone(&reg), Some(1));

        let mut swapped = meta.clone();
        swapped.columns.reverse();
        let mut rewindowed = meta.clone();
        rewindowed.agg.window_s = 15.0;
        for (bad, field) in [(swapped, "columns"), (rewindowed, "aggregation")] {
            let refused = store.publish(&bad, &linear(20.0, vec![0.0, 0.0])).unwrap();
            let err = watcher.poll().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(field), "{err}");
            assert_eq!(reg.generation(), 1);
            assert_eq!(handle.predict_row(&[0.0, 0.0]), 10.0);
            // The refused generation is not read again while the
            // manifest names it: a missing or corrupt file goes unseen.
            let path = dir.join(f2pm_registry::store::artifact_name(refused));
            if field == "columns" {
                std::fs::remove_file(&path).unwrap();
            } else {
                std::fs::write(&path, b"not an artifact").unwrap();
            }
            assert_eq!(watcher.poll().unwrap(), None);
            assert_eq!(handle.predict_row(&[0.0, 0.0]), 10.0);
        }

        store.publish(&meta, &linear(30.0, vec![0.0, 0.0])).unwrap();
        assert_eq!(watcher.poll().unwrap(), Some((4, 2)));
        assert_eq!(handle.predict_row(&[0.0, 0.0]), 30.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn swapped_out_entry_survives_inflight_use() {
        let reg = ModelRegistry::new(
            linear(10.0, vec![0.0, 0.0]),
            test_columns(),
            AggregationConfig::default(),
        )
        .unwrap();
        let old = reg.current();
        reg.install(linear(20.0, vec![0.0, 0.0])).unwrap();
        // The old entry stays valid for whoever still holds it.
        assert_eq!(old.model.predict_row(&[0.0, 0.0]), 10.0);
        assert_eq!(reg.current().model.predict_row(&[0.0, 0.0]), 20.0);
    }
}
