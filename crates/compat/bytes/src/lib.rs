//! Offline stub of the `bytes` crate: the `BytesMut` / `Buf` / `BufMut`
//! subset the FMC↔serve wire format uses. All multi-byte integers are
//! big-endian, matching the real crate's `put_*`/`get_*` defaults.

use std::ops::{Deref, DerefMut};

/// Growable byte buffer (a thin wrapper over `Vec<u8>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// Empty buffer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// Freeze into an immutable `Vec<u8>` (the real crate returns `Bytes`).
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Drop the contents, keeping the allocation (scratch-buffer reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Reserve capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Shorten the buffer to `len` bytes (no-op when already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

/// Write-side buffer operations (big-endian for multi-byte values).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read-side buffer operations over an advancing cursor.
///
/// # Panics
/// Like the real crate, the `get_*` methods panic when the buffer has too
/// few bytes remaining; callers check [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Read `dst.len()` bytes, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Read a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Read a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Read a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Read a big-endian IEEE-754 `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "Buf: advance past end");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, BytesMut};

    #[test]
    fn roundtrip_big_endian() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_u16(0x0102);
        b.put_u32(0xDEAD_BEEF);
        b.put_f64(-12.5);
        assert_eq!(b[1..3], [1, 2]);

        let mut r: &[u8] = &b;
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_f64(), -12.5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn short_read_panics() {
        let mut r: &[u8] = &[1u8];
        let _ = r.get_u32();
    }
}
