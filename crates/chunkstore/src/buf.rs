//! Shared, immutable chunk bytes with explicit copy-on-write.
//!
//! A chunk's bytes are stored once and shared by every holder: the
//! benefactor's copy, a client cache entry filled from it, and replicas
//! or repair copies made on the same host. Reading is a refcount bump;
//! mutation goes through [`ChunkBuf::make_mut`], which copies only while
//! the buffer is shared. There is deliberately no `DerefMut`, so every
//! place that may copy is visible at its call site (DESIGN.md §17).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A refcounted, immutable byte buffer; cloning shares the bytes.
/// Equality compares bytes. The `Vec` (rather than `Arc<[u8]>`) lets a
/// freshly built `Vec` or `Box` become a `ChunkBuf` without a copy.
#[derive(Clone, PartialEq, Eq)]
pub struct ChunkBuf(Arc<Vec<u8>>);

impl ChunkBuf {
    /// Mutable access to the bytes, copying them first if any other
    /// holder shares this buffer — the only copy-on-write point.
    pub fn make_mut(&mut self) -> &mut [u8] {
        Arc::<Vec<u8>>::make_mut(&mut self.0)
    }

    /// Whether both handles share the same bytes (no copy between them).
    pub fn ptr_eq(a: &ChunkBuf, b: &ChunkBuf) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for ChunkBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for ChunkBuf {
    fn from(v: Vec<u8>) -> Self {
        ChunkBuf(Arc::new(v))
    }
}

impl From<Box<[u8]>> for ChunkBuf {
    fn from(b: Box<[u8]>) -> Self {
        ChunkBuf::from(b.into_vec())
    }
}

impl fmt::Debug for ChunkBuf {
    /// Length only: chunks are 256 KiB, too large to print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkBuf({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_make_mut_copies_only_when_shared() {
        let mut a = ChunkBuf::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert!(ChunkBuf::ptr_eq(&a, &b), "clone is a share");
        a.make_mut()[0] = 9;
        assert!(!ChunkBuf::ptr_eq(&a, &b), "shared write copies");
        assert_eq!(&b[..], &[1, 2, 3], "the other holder is untouched");
        assert_eq!(&a[..], &[9, 2, 3]);
        let before = a.as_ptr();
        a.make_mut()[1] = 8;
        assert_eq!(a.as_ptr(), before, "sole holder writes in place");
    }

    #[test]
    fn conversions_and_equality() {
        let z = ChunkBuf::from(vec![0u8; 4]);
        assert_eq!(z, ChunkBuf::from(vec![0u8; 4].into_boxed_slice()));
        assert_ne!(z, ChunkBuf::from(vec![0u8; 5]));
        assert_eq!(format!("{z:?}"), "ChunkBuf(4 bytes)");
    }
}
