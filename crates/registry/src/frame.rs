//! The checksummed frame both registry containers share byte for byte
//! (DESIGN.md §12.1): F2PM model artifacts and F2PC column stores differ
//! only in their magic, the meaning of byte 8 and what their metadata
//! and payload hold.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic
//! 4       4     u32 format version
//! 8       1     u8 kind tag (the model kind in F2PM, 0 in F2PC)
//! 9       3     reserved, zero
//! 12      4     u32 metadata length M
//! 16      M     metadata block (UTF-8, line-oriented)
//! 16+M    4     u32 CRC32 over bytes [0, 16+M)
//! +4      8     u64 payload length P
//! +8      P     payload
//! +P      4     u32 CRC32 over the payload bytes
//! ```
//!
//! Nothing follows the payload checksum.

use crate::{crc32, RegistryError, Result};

/// Fixed header size before the metadata block.
const HEADER_LEN: usize = 16;

/// Build a complete image in one buffer: header and `meta`, then the
/// payload `write_payload` appends to the buffer it is handed. The
/// payload length is back-patched and its CRC taken over the buffer in
/// place, so the payload is never staged or copied. `payload_hint` sizes
/// the buffer; an exact hint means no reallocation.
pub(crate) fn encode(
    magic: [u8; 4],
    version: u32,
    kind: u8,
    meta: &[u8],
    payload_hint: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + meta.len() + 12 + payload_hint + 4);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[kind, 0, 0, 0]);
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(meta);
    let head_crc = crc32(&out);
    out.extend_from_slice(&head_crc.to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    write_payload(&mut out);
    let payload = &out[len_at + 8..];
    let (payload_len, payload_crc) = (payload.len() as u64, crc32(payload));
    out[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(&payload_crc.to_le_bytes());
    out
}

/// Verify an image and return `(kind, metadata, payload)`.
///
/// The checks run in file order, and each section is only interpreted
/// after its checksum has passed: the header CRC before `parse_meta`
/// sees the metadata block, the payload CRC before the caller sees the
/// payload. Every failure is a typed [`RegistryError`].
pub(crate) fn split<M>(
    bytes: &[u8],
    magic: [u8; 4],
    version: u32,
    parse_meta: impl FnOnce(&[u8]) -> Result<M>,
) -> Result<(u8, M, &[u8])> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= 4 && bytes[..4] != magic {
            return Err(RegistryError::BadMagic);
        }
        return Err(RegistryError::Truncated { what: "header" });
    }
    if bytes[..4] != magic {
        return Err(RegistryError::BadMagic);
    }
    let found = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if found != version {
        return Err(RegistryError::UnsupportedVersion { found });
    }
    let kind = bytes[8];
    let meta_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let head_end = HEADER_LEN
        .checked_add(meta_len)
        .ok_or(RegistryError::Truncated { what: "metadata" })?;
    if bytes.len() < head_end + 4 {
        return Err(RegistryError::Truncated { what: "metadata" });
    }
    if crc32(&bytes[..head_end]) != read_u32(bytes, head_end) {
        return Err(RegistryError::ChecksumMismatch {
            section: "header/metadata",
        });
    }
    let meta = parse_meta(&bytes[HEADER_LEN..head_end])?;

    let pl_off = head_end + 4;
    if bytes.len() < pl_off + 8 {
        return Err(RegistryError::Truncated {
            what: "payload length",
        });
    }
    let payload_len = u64::from_le_bytes(bytes[pl_off..pl_off + 8].try_into().unwrap());
    let payload_len = usize::try_from(payload_len)
        .ok()
        .filter(|&p| p <= bytes.len().saturating_sub(pl_off + 8 + 4))
        .ok_or(RegistryError::Truncated { what: "payload" })?;
    let payload = &bytes[pl_off + 8..pl_off + 8 + payload_len];
    let crc_off = pl_off + 8 + payload_len;
    if crc32(payload) != read_u32(bytes, crc_off) {
        return Err(RegistryError::ChecksumMismatch { section: "payload" });
    }
    if bytes.len() != crc_off + 4 {
        return Err(RegistryError::Malformed(format!(
            "{} trailing bytes after payload checksum",
            bytes.len() - crc_off - 4
        )));
    }
    Ok((kind, meta, payload))
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The lines of a metadata block, which must be UTF-8.
pub(crate) fn meta_lines(bytes: &[u8]) -> Result<std::str::Lines<'_>> {
    std::str::from_utf8(bytes)
        .map(str::lines)
        .map_err(|_| RegistryError::Malformed("metadata is not UTF-8".to_string()))
}

/// Parse one `label value` line of a metadata block.
pub(crate) fn field<'a>(lines: &mut impl Iterator<Item = &'a str>, label: &str) -> Result<&'a str> {
    let line = lines
        .next()
        .ok_or_else(|| RegistryError::Malformed(format!("metadata missing {label}")))?;
    line.strip_prefix(label)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| {
            RegistryError::Malformed(format!("metadata expected {label:?}, got {line:?}"))
        })
}

/// The last `n` lines of a metadata block of `block_len` bytes: exactly
/// `n` must remain.
pub(crate) fn last_lines<'a>(
    mut lines: impl Iterator<Item = &'a str>,
    n: usize,
    block_len: usize,
) -> Result<Vec<&'a str>> {
    if n > block_len {
        // Each line occupies at least its newline: a count larger than
        // the block itself is corrupt.
        return Err(RegistryError::Malformed(
            "column count too large".to_string(),
        ));
    }
    let out: Vec<&str> = lines.by_ref().take(n).collect();
    if out.len() != n {
        return Err(RegistryError::Malformed(format!(
            "metadata names {} of {n} columns",
            out.len()
        )));
    }
    if lines.next().is_some() {
        return Err(RegistryError::Malformed(
            "trailing metadata lines".to_string(),
        ));
    }
    Ok(out)
}

/// Parse a metadata value, naming the field on failure.
pub(crate) fn parse<T: std::str::FromStr>(v: &str, label: &str) -> Result<T> {
    v.parse()
        .map_err(|_| RegistryError::Malformed(format!("bad {label} value {v:?}")))
}
