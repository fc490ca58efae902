//! # f2pm-registry
//!
//! Versioned binary model artifacts and the on-disk model registry that
//! decouples training from serving (DESIGN.md §12).
//!
//! The paper's architecture implies a deployment split — train at the
//! FMS, predict near the guest — and fleet-scale serving (the DC-Prophet
//! direction) needs many serve instances to cold-start instantly from
//! *published* artifacts rather than retrain at boot. This crate provides
//! both halves:
//!
//! - **[`artifact`]** — a versioned binary container for every
//!   [`SavedModel`](f2pm_ml::SavedModel) variant: magic `F2PM`, format
//!   version, model-kind tag, a length-prefixed metadata block (train
//!   method, feature columns, aggregation config, training S-MAE,
//!   created-at) and a length-prefixed payload, with CRC32 checksums over
//!   header+metadata and payload so corruption is detected *before* any
//!   deserialization. Floats travel as IEEE bit patterns — save → load →
//!   `predict_batch` is bit-exact.
//! - **[`column_file`]** — the same checksummed frame, byte for byte
//!   (magic `F2PC`), applied to the columnar datapoint history of
//!   DESIGN.md §13, so `f2pm export-columnar` / `f2pm query` get
//!   torn-write detection for free. One private module writes and
//!   verifies that frame for both containers.
//! - **[`store`]** — a registry directory of numbered generation
//!   artifacts plus a `MANIFEST` naming the active generation. Publish
//!   writes artifact → fsync → atomic rename, then swings the manifest
//!   with the same tmp-file + rename protocol, so a reader (or a
//!   `kill -9` mid-publish) never observes a torn state. Rollback
//!   re-points the manifest at a prior retained generation; bounded
//!   retention GC keeps the directory from growing forever.
//!
//! Artifact loads record their wall time into the process-global
//! `f2pm_registry_artifact_load_us` histogram, so a serve instance's
//! metrics scrape carries cold-start and hot-reload load costs.

#![warn(missing_docs)]

pub mod artifact;
pub mod column_file;
mod frame;
pub mod store;

pub use artifact::{ArtifactMeta, FORMAT_VERSION, MAGIC};
pub use column_file::{
    decode_columns, encode_columns, load_columns, save_columns, COLUMNS_FORMAT_VERSION,
    COLUMNS_MAGIC,
};
pub use store::{GenerationInfo, ModelStore, VerifyReport};

use std::fmt;
use std::io;

/// Name of the process-global histogram timing artifact loads (µs).
pub const ARTIFACT_LOAD_METRIC: &str = "f2pm_registry_artifact_load_us";
/// Name of the process-global gauge carrying the active store generation
/// a serve instance last installed.
pub const ACTIVE_GENERATION_METRIC: &str = "f2pm_registry_active_generation";

/// Typed failures of the artifact format and the on-disk store.
///
/// Corruption is always detected *before* model deserialization (CRC32
/// over header+metadata and payload), and always surfaces as one of
/// these variants — never a panic, never a silently-wrong model.
#[derive(Debug)]
pub enum RegistryError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The file does not start with the `F2PM` magic.
    BadMagic,
    /// The artifact was written by a newer format revision.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file ends before a length-prefixed section completes.
    Truncated {
        /// Which section was cut short.
        what: &'static str,
    },
    /// A CRC32 did not match: the bytes were altered after writing.
    ChecksumMismatch {
        /// Which checksummed section failed.
        section: &'static str,
    },
    /// Structurally invalid content (bad metadata, bad payload, bad
    /// manifest) that checksums alone cannot explain away.
    Malformed(String),
    /// The store directory has no `MANIFEST` (nothing published yet).
    NoManifest,
    /// The requested generation has no artifact in the store.
    UnknownGeneration(u64),
    /// Rollback was asked for a prior generation but none is retained.
    NoPriorGeneration,
    /// A staged publish was aborted by the crash-injection test hook.
    Interrupted(&'static str),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry I/O error: {e}"),
            RegistryError::BadMagic => {
                write!(f, "not an f2pm model artifact (missing F2PM magic)")
            }
            RegistryError::UnsupportedVersion { found } => write!(
                f,
                "artifact format version {found} is newer than this build \
                 supports (max {FORMAT_VERSION}); upgrade f2pm to read it"
            ),
            RegistryError::Truncated { what } => {
                write!(f, "artifact truncated in {what}")
            }
            RegistryError::ChecksumMismatch { section } => write!(
                f,
                "artifact {section} checksum mismatch (file corrupted or \
                 partially written)"
            ),
            RegistryError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            RegistryError::NoManifest => {
                write!(f, "no MANIFEST in the model store (nothing published yet)")
            }
            RegistryError::UnknownGeneration(g) => {
                write!(f, "generation {g} is not in the model store")
            }
            RegistryError::NoPriorGeneration => {
                write!(f, "no retained prior generation to roll back to")
            }
            RegistryError::Interrupted(step) => {
                write!(f, "publish aborted by test hook after {step}")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RegistryError {
    fn from(e: io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<RegistryError> for io::Error {
    fn from(e: RegistryError) -> Self {
        match e {
            RegistryError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Result alias for registry operations.
pub type Result<T> = std::result::Result<T, RegistryError>;

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over `bytes`.
///
/// Implemented locally — the offline dependency set has no checksum
/// crate — as slicing-by-16: each step folds 16 input bytes through 16
/// tables built at compile time, and a byte-at-a-time loop over table 0
/// (the standard 256-entry table) finishes the tail. Same values as the
/// plain table loop for every input, at memory speed.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().unwrap();
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = CRC_TABLES[15][(lo & 0xff) as usize]
            ^ CRC_TABLES[14][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[13][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[12][(lo >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            c ^= CRC_TABLES[11 - k][byte as usize];
        }
    }
    for &byte in blocks.remainder() {
        c = CRC_TABLES[0][((c ^ byte as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC_TABLES[0]` is the reflected IEEE table; `CRC_TABLES[k][i]` is the
/// CRC state after byte `i` is followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    // Table-major order: table 0 is complete before table 1 reads it.
    let mut i = 0;
    while i < 16 * 256 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = if k == 0 {
            let (mut c, mut bit) = (b as u32, 0);
            while bit < 8 {
                c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
                bit += 1;
            }
            c
        } else {
            (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xff) as usize]
        };
        i += 1;
    }
    t
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time table loop: the reference the sliced kernel
    /// must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    /// A deterministic, non-periodic byte pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i * 2_654_435_761) >> 7) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        // 1 MiB reaches the 16-byte loop; value from Python's zlib.crc32.
        assert_eq!(crc32(&pattern(1 << 20)), 0x005f_a129);
    }

    #[test]
    fn crc32_matches_the_bytewise_table_at_every_length_and_offset() {
        let buf = pattern(320);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bytewise_table(
            words in proptest::collection::vec(0u16..256, 0..2048),
        ) {
            // The stub's ranges are half-open: draw u16 to reach 0xff.
            let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn error_display_names_the_problem() {
        let e = RegistryError::UnsupportedVersion { found: 9 };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains("newer"), "{msg}");
        assert!(RegistryError::BadMagic.to_string().contains("F2PM"));
        let io_err: io::Error = RegistryError::ChecksumMismatch { section: "payload" }.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }
}
