//! The checksummed columnar-history container (DESIGN.md §13.2).
//!
//! Persists a [`ColumnStore`](f2pm_features::ColumnStore) in the same
//! checksummed [`frame`](crate::frame) as the model
//! [`artifact`](crate::artifact) format: magic `F2PC`, format version 1,
//! byte 8 zero, both CRCs verified before any value is interpreted.
//!
//! The metadata block names the shape (`chunk_rows`, `rows`, `columns`)
//! followed by one `<f32|f64> <name>` line per column. The payload is
//! each column's raw IEEE-754 little-endian values in declaration order,
//! each column padded to an 8-byte boundary so every f64 column starts
//! aligned. Both directions convert a whole column at a time, straight
//! between the column's values and its slice of the image. The expected
//! payload size is computed *from the metadata* before any allocation,
//! so a corrupt length field cannot trigger an outsized allocation.
//! Zone maps are not persisted — they are cheap to recompute and
//! recomputing them means a loaded store's pruning behaviour can never
//! disagree with its values.

use crate::frame::{self, field, last_lines, meta_lines, parse};
use crate::{RegistryError, Result};
use f2pm_features::{Column, ColumnData, ColumnStore, ColumnType};
use std::fmt::Write as _;
use std::path::Path;

/// File magic: the first four bytes of every columnar container.
pub const COLUMNS_MAGIC: [u8; 4] = *b"F2PC";
/// Current columnar container format version.
pub const COLUMNS_FORMAT_VERSION: u32 = 1;

/// Serialize a [`ColumnStore`] into a complete container byte image.
pub fn encode_columns(store: &ColumnStore) -> Vec<u8> {
    let meta_block = encode_meta(store);
    let payload_len = payload_len(
        store.n_rows(),
        store.columns().iter().map(|c| c.data.column_type()),
    );
    frame::encode(
        COLUMNS_MAGIC,
        COLUMNS_FORMAT_VERSION,
        0,
        &meta_block,
        payload_len,
        |out| {
            let start = out.len();
            // Zero-filled, so the alignment pads are already in place.
            out.resize(start + payload_len, 0);
            let mut off = 0;
            for col in store.columns() {
                off = align8(off);
                let width = type_width(col.data.column_type());
                let dst = &mut out[start + off..start + off + store.n_rows() * width];
                match &col.data {
                    ColumnData::F32(v) => {
                        for (d, x) in dst.chunks_exact_mut(4).zip(v) {
                            d.copy_from_slice(&x.to_le_bytes());
                        }
                    }
                    ColumnData::F64(v) => {
                        for (d, x) in dst.chunks_exact_mut(8).zip(v) {
                            d.copy_from_slice(&x.to_le_bytes());
                        }
                    }
                }
                off += dst.len();
            }
        },
    )
}

/// Decode a complete container: verify both checksums, then rebuild the
/// store (zone maps are recomputed from the decoded values).
pub fn decode_columns(bytes: &[u8]) -> Result<ColumnStore> {
    let (_, shape, payload) = frame::split(
        bytes,
        COLUMNS_MAGIC,
        COLUMNS_FORMAT_VERSION,
        decode_meta_block,
    )?;

    // Sized from the verified metadata, never from attacker-controlled
    // lengths: a container claiming 2^60 rows fails here with a typed
    // error before any allocation happens.
    let expected = payload_len(shape.rows, shape.columns.iter().map(|(ty, _)| *ty));
    if payload.len() != expected {
        return Err(RegistryError::Malformed(format!(
            "payload is {} bytes, metadata implies {expected}",
            payload.len()
        )));
    }

    let mut columns = Vec::with_capacity(shape.columns.len());
    let mut off = 0usize;
    for (ty, name) in shape.columns {
        off = align8(off);
        let src = &payload[off..off + shape.rows * type_width(ty)];
        off += src.len();
        let data = match ty {
            ColumnType::F32 => ColumnData::F32(
                src.chunks_exact(4)
                    .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                    .collect(),
            ),
            ColumnType::F64 => ColumnData::F64(
                src.chunks_exact(8)
                    .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                    .collect(),
            ),
        };
        columns.push(Column { name, data });
    }

    ColumnStore::from_columns(shape.chunk_rows, columns).map_err(RegistryError::Malformed)
}

/// Write a container image to `path`.
pub fn save_columns(path: impl AsRef<Path>, store: &ColumnStore) -> Result<()> {
    std::fs::write(path, encode_columns(store))?;
    Ok(())
}

/// Read and fully decode a container file.
pub fn load_columns(path: impl AsRef<Path>) -> Result<ColumnStore> {
    let bytes = std::fs::read(path)?;
    decode_columns(&bytes)
}

/// Shape decoded from the (checksum-verified) metadata block.
struct Shape {
    chunk_rows: usize,
    rows: usize,
    columns: Vec<(ColumnType, String)>,
}

/// Exact payload size of `rows` rows of columns typed `types`,
/// including the alignment pads.
fn payload_len(rows: usize, types: impl Iterator<Item = ColumnType>) -> usize {
    types.fold(0, |off, ty| align8(off) + rows * type_width(ty))
}

fn align8(off: usize) -> usize {
    off.div_ceil(8) * 8
}

fn encode_meta(store: &ColumnStore) -> Vec<u8> {
    let mut s = String::new();
    writeln!(s, "chunk_rows {}", store.chunk_rows()).unwrap();
    writeln!(s, "rows {}", store.n_rows()).unwrap();
    writeln!(s, "columns {}", store.n_columns()).unwrap();
    for col in store.columns() {
        let ty = match col.data.column_type() {
            ColumnType::F32 => "f32",
            ColumnType::F64 => "f64",
        };
        writeln!(s, "{ty} {}", col.name).unwrap();
    }
    s.into_bytes()
}

fn decode_meta_block(bytes: &[u8]) -> Result<Shape> {
    let mut lines = meta_lines(bytes)?;
    let mut next = |label: &str| field(&mut lines, label);
    let chunk_rows: usize = parse(next("chunk_rows")?, "chunk_rows")?;
    let rows: usize = parse(next("rows")?, "rows")?;
    let n_columns: usize = parse(next("columns")?, "columns")?;
    if chunk_rows == 0 {
        return Err(RegistryError::Malformed("chunk_rows is zero".to_string()));
    }
    if n_columns == 0 {
        return Err(RegistryError::Malformed("no columns".to_string()));
    }
    let mut columns = Vec::with_capacity(n_columns);
    for line in last_lines(lines, n_columns, bytes.len())? {
        let (ty, name) = line
            .split_once(' ')
            .ok_or_else(|| RegistryError::Malformed(format!("bad column line {line:?}")))?;
        let ty = match ty {
            "f32" => ColumnType::F32,
            "f64" => ColumnType::F64,
            other => {
                return Err(RegistryError::Malformed(format!(
                    "unknown column type {other:?}"
                )))
            }
        };
        if name.is_empty() {
            return Err(RegistryError::Malformed("empty column name".to_string()));
        }
        columns.push((ty, name.to_string()));
    }
    // Row count sanity: the claimed rows must imply a payload size that
    // doesn't overflow, or Shape::payload_len would wrap.
    let per_row: usize = columns.iter().map(|(t, _)| type_width(*t)).sum();
    if rows
        .checked_mul(per_row)
        .and_then(|b| b.checked_add(8 * columns.len()))
        .is_none()
    {
        return Err(RegistryError::Malformed(format!(
            "row count {rows} overflows payload size"
        )));
    }
    Ok(Shape {
        chunk_rows,
        rows,
        columns,
    })
}

fn type_width(ty: ColumnType) -> usize {
    match ty {
        ColumnType::F32 => 4,
        ColumnType::F64 => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f2pm_features::ColumnStoreBuilder;

    fn small_store() -> ColumnStore {
        let mut b = ColumnStoreBuilder::with_chunk_rows(
            &[
                ("run_id", ColumnType::F64),
                ("mem", ColumnType::F32),
                ("swap", ColumnType::F32),
            ],
            4,
        );
        for i in 0..11 {
            b.push_row(&[
                (i / 4) as f64,
                (i as f64 * 0.37).sin() * 100.0,
                i as f64 * 3.5,
            ]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_is_bit_exact_and_rebuilds_zones() {
        let store = small_store();
        let bytes = encode_columns(&store);
        assert_eq!(&bytes[..4], b"F2PC");
        let back = decode_columns(&bytes).unwrap();
        assert_eq!(back.n_rows(), store.n_rows());
        assert_eq!(back.n_columns(), store.n_columns());
        assert_eq!(back.chunk_rows(), store.chunk_rows());
        for j in 0..store.n_columns() {
            assert_eq!(back.column(j).name, store.column(j).name);
            for i in 0..store.n_rows() {
                assert_eq!(
                    back.column(j).data.get(i).to_bits(),
                    store.column(j).data.get(i).to_bits(),
                    "col {j} row {i}"
                );
            }
        }
        for c in 0..store.n_chunks() {
            for j in 0..store.n_columns() {
                assert_eq!(back.chunk(c).zone(j), store.chunk(c).zone(j));
            }
        }
    }

    #[test]
    fn save_load_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("f2pc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.f2pc");
        let store = small_store();
        save_columns(&path, &store).unwrap();
        let back = load_columns(&path).unwrap();
        assert_eq!(back.n_rows(), store.n_rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_magic_and_future_version_rejected() {
        let mut bytes = encode_columns(&small_store());
        bytes[0] = b'X';
        assert!(matches!(
            decode_columns(&bytes),
            Err(RegistryError::BadMagic)
        ));

        let mut bytes = encode_columns(&small_store());
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            decode_columns(&bytes),
            Err(RegistryError::UnsupportedVersion { found: 9 })
        ));
    }

    /// A sealed image (valid checksums) of an arbitrary metadata block
    /// and payload.
    fn seal(meta: &str, payload: &[u8]) -> Vec<u8> {
        frame::encode(
            COLUMNS_MAGIC,
            COLUMNS_FORMAT_VERSION,
            0,
            meta.as_bytes(),
            payload.len(),
            |out| out.extend_from_slice(payload),
        )
    }

    #[test]
    fn metadata_payload_size_mismatch_rejected() {
        // Tamper with the claimed row count and re-seal both checksums:
        // the payload no longer matches what the metadata implies.
        let store = small_store();
        let image = encode_columns(&store);
        let meta = String::from_utf8(encode_meta(&store)).unwrap();
        let (_, _, payload) =
            frame::split(&image, COLUMNS_MAGIC, COLUMNS_FORMAT_VERSION, |_| Ok(())).unwrap();
        // Reuse the original payload bytes (11 rows' worth).
        let out = seal(&meta.replace("rows 11", "rows 12"), payload);
        match decode_columns(&out) {
            Err(RegistryError::Malformed(msg)) => {
                assert!(msg.contains("metadata implies"), "{msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn absurd_row_count_fails_before_allocation() {
        let meta = "chunk_rows 4096\nrows 18446744073709551615\ncolumns 1\nf64 x\n";
        assert!(matches!(
            decode_columns(&seal(meta, &[])),
            Err(RegistryError::Malformed(_))
        ));
    }
}
