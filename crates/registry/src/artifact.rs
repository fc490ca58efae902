//! The versioned binary artifact container (DESIGN.md §12.1).
//!
//! The layout is the shared [`frame`](crate::frame): magic `F2PM`,
//! format version 1, the model-kind tag (`f2pm_ml::persist_bin::TAG_*`)
//! in byte 8, the metadata block, then the model payload in the
//! `f2pm_ml::persist_bin` encoding.
//!
//! Both checksums are verified before anything is deserialized, so a
//! torn write or bit rot is reported as a typed
//! [`RegistryError::ChecksumMismatch`] instead of reaching the payload
//! decoder (which is itself hardened against arbitrary bytes).

use crate::frame::{self, field, last_lines, meta_lines, parse};
use crate::{RegistryError, Result};
use f2pm_features::AggregationConfig;
use f2pm_ml::persist_bin;
use f2pm_ml::SavedModel;
use std::fmt::Write as _;
use std::path::Path;

/// File magic: the first four bytes of every artifact.
pub const MAGIC: [u8; 4] = *b"F2PM";
/// Current artifact format version.
pub const FORMAT_VERSION: u32 = 1;

/// Training provenance stored alongside the model payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactMeta {
    /// Training method name (`"linear"`, `"rep_tree"`, ...).
    pub method: String,
    /// Unix seconds when the artifact was created.
    pub created_at_unix: u64,
    /// Training-set S-MAE (seconds) at train time; `NaN` when unknown.
    pub train_smae: f64,
    /// Aggregation config the model was trained against — a serve
    /// instance must aggregate incoming datapoints identically.
    pub agg: AggregationConfig,
    /// Feature columns, in model input order.
    pub columns: Vec<String>,
}

impl ArtifactMeta {
    /// Metadata for a model trained now over `columns` under `agg`.
    pub fn new(
        method: &str,
        agg: AggregationConfig,
        columns: Vec<String>,
        train_smae: f64,
    ) -> Self {
        let created_at_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        ArtifactMeta {
            method: method.to_string(),
            created_at_unix,
            train_smae,
            agg,
            columns,
        }
    }
}

/// Serialize `meta` + `model` into a complete artifact byte image.
pub fn encode(meta: &ArtifactMeta, model: &SavedModel) -> Vec<u8> {
    let meta_block = encode_meta(meta);
    frame::encode(
        MAGIC,
        FORMAT_VERSION,
        persist_bin::kind_tag(model),
        &meta_block,
        0,
        |out| persist_bin::encode_payload(model, out),
    )
}

/// Decode a complete artifact: verify both checksums, then parse
/// metadata and payload. The returned model's width always equals
/// `meta.columns.len()`.
pub fn decode(bytes: &[u8]) -> Result<(ArtifactMeta, SavedModel)> {
    let (tag, meta, payload) = frame::split(bytes, MAGIC, FORMAT_VERSION, decode_meta_block)?;
    let model = persist_bin::decode_payload(tag, payload)
        .map_err(|e| RegistryError::Malformed(e.to_string()))?;
    if model.as_model().width() != meta.columns.len() {
        return Err(RegistryError::Malformed(format!(
            "model width {} != {} metadata columns",
            model.as_model().width(),
            meta.columns.len()
        )));
    }
    Ok((meta, model))
}

/// Decode only the header + metadata (both checksum-verified — the
/// payload CRC is checked too, so this is a full integrity pass without
/// the payload deserialization cost). Returns the kind tag and metadata.
pub fn decode_meta(bytes: &[u8]) -> Result<(u8, ArtifactMeta)> {
    let (tag, meta, _) = frame::split(bytes, MAGIC, FORMAT_VERSION, decode_meta_block)?;
    Ok((tag, meta))
}

/// Write an artifact image to `path` (no durability guarantees — the
/// store layers tmp-file + fsync + rename on top of this).
pub fn save(path: impl AsRef<Path>, meta: &ArtifactMeta, model: &SavedModel) -> Result<()> {
    std::fs::write(path, encode(meta, model))?;
    Ok(())
}

/// Read and fully decode an artifact file, timing the load into the
/// process-global `f2pm_registry_artifact_load_us` histogram.
pub fn load(path: impl AsRef<Path>) -> Result<(ArtifactMeta, SavedModel)> {
    let started = std::time::Instant::now();
    let bytes = std::fs::read(path)?;
    let decoded = decode(&bytes)?;
    f2pm_obs::global()
        .histogram(crate::ARTIFACT_LOAD_METRIC)
        .record_duration(started.elapsed());
    Ok(decoded)
}

fn encode_meta(meta: &ArtifactMeta) -> Vec<u8> {
    let mut s = String::new();
    writeln!(s, "method {}", meta.method).unwrap();
    writeln!(s, "created_at {}", meta.created_at_unix).unwrap();
    writeln!(s, "train_smae {}", meta.train_smae).unwrap();
    writeln!(s, "window_s {}", meta.agg.window_s).unwrap();
    writeln!(s, "min_points {}", meta.agg.min_points).unwrap();
    writeln!(s, "include_stddev {}", u8::from(meta.agg.include_stddev)).unwrap();
    writeln!(s, "columns {}", meta.columns.len()).unwrap();
    for c in &meta.columns {
        writeln!(s, "{c}").unwrap();
    }
    s.into_bytes()
}

fn decode_meta_block(bytes: &[u8]) -> Result<ArtifactMeta> {
    let mut lines = meta_lines(bytes)?;
    let mut next = |label: &str| field(&mut lines, label);
    let method = next("method")?.to_string();
    let created_at_unix = parse(next("created_at")?, "created_at")?;
    let train_smae: f64 = parse(next("train_smae")?, "train_smae")?;
    let window_s: f64 = parse(next("window_s")?, "window_s")?;
    let min_points: usize = parse(next("min_points")?, "min_points")?;
    let include_stddev = match next("include_stddev")? {
        "0" => false,
        "1" => true,
        other => {
            return Err(RegistryError::Malformed(format!(
                "bad include_stddev {other:?}"
            )))
        }
    };
    let n_columns: usize = parse(next("columns")?, "columns")?;
    let columns = last_lines(lines, n_columns, bytes.len())?
        .into_iter()
        .map(str::to_string)
        .collect();
    if !(window_s.is_finite() && window_s > 0.0) {
        return Err(RegistryError::Malformed(format!("bad window_s {window_s}")));
    }
    Ok(ArtifactMeta {
        method,
        created_at_unix,
        train_smae,
        agg: AggregationConfig {
            window_s,
            min_points,
            include_stddev,
        },
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_ml::linreg::LinearModel;

    fn meta2() -> ArtifactMeta {
        ArtifactMeta {
            method: "linear".to_string(),
            created_at_unix: 1_754_500_000,
            train_smae: 123.5,
            agg: AggregationConfig {
                window_s: 30.0,
                min_points: 2,
                include_stddev: false,
            },
            columns: vec!["swap_used".to_string(), "swap_used_slope".to_string()],
        }
    }

    fn linear2() -> SavedModel {
        SavedModel::Linear(LinearModel {
            intercept: 1000.0,
            coefficients: vec![-2.0, 0.5],
        })
    }

    #[test]
    fn encode_decode_roundtrip() {
        let bytes = encode(&meta2(), &linear2());
        assert_eq!(&bytes[..4], b"F2PM");
        let (meta, model) = decode(&bytes).unwrap();
        assert_eq!(meta, meta2());
        assert_eq!(model.kind(), "linear");
        assert_eq!(model.as_model().predict_row(&[100.0, 0.0]), 800.0);
        let (tag, meta_only) = decode_meta(&bytes).unwrap();
        assert_eq!(tag, f2pm_ml::persist_bin::TAG_LINEAR);
        assert_eq!(meta_only, meta2());
    }

    #[test]
    fn nan_smae_and_weird_method_names_roundtrip() {
        let mut m = meta2();
        m.train_smae = f64::NAN;
        m.method = "imported-v1".to_string();
        let bytes = encode(&m, &linear2());
        let (meta, _) = decode(&bytes).unwrap();
        assert!(meta.train_smae.is_nan());
        assert_eq!(meta.method, "imported-v1");
    }

    #[test]
    fn wrong_magic_and_future_version_rejected() {
        let mut bytes = encode(&meta2(), &linear2());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(RegistryError::BadMagic)));

        let mut bytes = encode(&meta2(), &linear2());
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        match decode(&bytes) {
            Err(RegistryError::UnsupportedVersion { found: 2 }) => {}
            Err(e) => panic!("expected UnsupportedVersion, got {e}"),
            Ok(_) => panic!("expected UnsupportedVersion, got Ok"),
        }
        // Short files with the wrong magic are BadMagic, not Truncated.
        assert!(matches!(
            decode(b"NOPE"),
            Err(RegistryError::BadMagic) | Err(RegistryError::Truncated { .. })
        ));
    }

    #[test]
    fn width_column_mismatch_rejected() {
        let mut m = meta2();
        m.columns.push("extra".to_string());
        let bytes = encode(&m, &linear2());
        match decode(&bytes) {
            Err(RegistryError::Malformed(msg)) => assert!(msg.contains("width"), "{msg}"),
            Err(e) => panic!("expected Malformed, got {e}"),
            Ok(_) => panic!("expected Malformed, got Ok"),
        }
    }
}
