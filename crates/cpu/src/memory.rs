//! Flat backing memory behind the cache hierarchy, with chunk-level dirty
//! tracking for delta snapshots.
//!
//! Checkpoint stores snapshot the backing memory once per checkpoint, and a
//! workload typically writes only a small fraction of its data region.  The
//! memory is therefore stored in fixed-size chunks ([`CHUNK_BYTES`] each)
//! that share their copy-on-write handles with the *pristine* program image
//! ([`Memory::seal_pristine`], called once by `Cpu::new` after the data
//! segments are loaded).  A chunk is dirty exactly when its handle is no
//! longer the image's — the first write breaks the share — and snapshots
//! capture only dirty chunks as a [`MemoryDelta`].  Restoring resolves the
//! delta against the pristine image the core already holds: clean chunks
//! revert to the program image, dirty chunks adopt the delta's handles —
//! byte-exact, with no dense copy anywhere.

use crate::cow::CowBytes;
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::{MemSize, DATA_BASE};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Granularity of dirty tracking and of [`MemoryDelta`] chunks.
///
/// Small enough that one written word does not drag in a whole page, large
/// enough that the per-chunk bookkeeping (4-byte index + handle) stays
/// negligible against the chunk payload.
pub const CHUNK_BYTES: usize = 256;

/// Memory access faults detected by the memory system.
///
/// Out-of-bounds accesses correspond to the paper's *Crash* outcomes
/// (the simulated process dies); stores into the read-only code region
/// correspond to *Assert* outcomes (the simulator refuses to continue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemError {
    /// Access outside the program's data region.
    OutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access size in bytes.
        size: u64,
    },
    /// A store targeted the code region below [`DATA_BASE`].
    StoreToCode {
        /// Faulting address.
        addr: u64,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr, size } => {
                write!(
                    f,
                    "memory access of {size} bytes at {addr:#x} out of bounds"
                )
            }
            MemError::StoreToCode { addr } => {
                write!(f, "store to code region at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Byte-addressable backing memory covering `[DATA_BASE, DATA_BASE + len)`.
///
/// The live bytes are a [`CowBytes`] store chunked at the delta-snapshot
/// granularity, so a chunk can share its `Arc` handle with the pristine
/// image (clean chunks), with a checkpoint's delta chunks (restores are
/// handle swaps), and with a fork parent's live chunks ([`Memory::fork_from`]
/// copies nothing).  Equality compares the live bytes only; which chunks
/// share the image's handles encodes *how* the bytes diverge from the
/// image, not the architectural state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Memory {
    bytes: CowBytes,
    /// The sealed program image.  A live chunk is dirty — written since the
    /// seal, or laid from a delta — iff its handle is not this image's.
    pristine: CowBytes,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates a zero-initialised memory of `len` bytes starting at
    /// [`DATA_BASE`], sealed: the zero image is its pristine image until
    /// [`Memory::seal_pristine`] seals another.
    pub fn new(len: u64) -> Self {
        let bytes = CowBytes::new(len as usize, CHUNK_BYTES);
        Memory {
            pristine: bytes.clone(),
            bytes,
        }
    }

    /// Number of chunks the memory is divided into for dirty tracking.
    fn chunk_count(&self) -> usize {
        self.bytes.chunk_count()
    }

    /// Whether chunk `c` may differ from the pristine image.  Every write
    /// breaks a chunk's share with the image (the image holds the handle
    /// too, so it is never unique), and only a restore re-adopts it.
    fn is_dirty(&self, c: usize) -> bool {
        !self.bytes.chunk_ptr_eq(c, &self.pristine)
    }

    /// Seals the current contents as the pristine image: subsequent
    /// [`Memory::delta_snapshot`]s encode only chunks written after this
    /// point.  `Cpu::new` calls this once, after loading the program's data
    /// segments; cores running the same program share byte-identical images,
    /// so a delta taken on one core restores exactly on another.
    pub fn seal_pristine(&mut self) {
        // Freezing moves the written chunks behind handles, and the clone of
        // a frozen store is a handle clone per chunk: sealing copies no
        // bytes, and every live chunk starts out sharing with the image.
        // Loading the image broke shares with the zero image `new` sealed;
        // those are construction, not copy-on-write work, so they are not
        // counted.
        self.bytes.freeze();
        self.pristine = self.bytes.clone();
        self.bytes.take_cow_breaks();
    }

    /// Total size in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// `true` when the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Checks that `[addr, addr+size)` lies inside the data region.
    pub fn check_range(&self, addr: u64, size: u64, is_store: bool) -> Result<(), MemError> {
        if is_store && addr < DATA_BASE {
            return Err(MemError::StoreToCode { addr });
        }
        if addr < DATA_BASE
            || addr.checked_add(size).is_none()
            || addr + size > DATA_BASE + self.len()
        {
            return Err(MemError::OutOfBounds { addr, size });
        }
        Ok(())
    }

    /// Reads `size` bytes at `addr`, zero-extended into a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range is not mapped.
    pub fn read(&self, addr: u64, size: MemSize) -> Result<u64, MemError> {
        self.check_range(addr, size.bytes(), false)?;
        let off = (addr - DATA_BASE) as usize;
        let n = size.bytes() as usize;
        let mut v: u64 = 0;
        for i in 0..n {
            v |= (self.bytes.byte(off + i) as u64) << (8 * i);
        }
        Ok(v)
    }

    /// Writes the low `size` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is not mapped or lies in the code
    /// region.
    pub fn write(&mut self, addr: u64, value: u64, size: MemSize) -> Result<(), MemError> {
        self.check_range(addr, size.bytes(), true)?;
        let off = (addr - DATA_BASE) as usize;
        let n = size.bytes() as usize;
        for i in 0..n {
            let o = off + i;
            let c = self.bytes.chunk_of(o);
            self.bytes.chunk_mut(c)[o % CHUNK_BYTES] = ((value >> (8 * i)) & 0xFF) as u8;
        }
        Ok(())
    }

    /// Copies a byte slice into memory (used to load program data segments).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the segment does not fit.
    pub fn load_segment(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.check_range(addr, data.len() as u64, false)?;
        let off = (addr - DATA_BASE) as usize;
        let mut pos = 0;
        while pos < data.len() {
            let o = off + pos;
            let c = self.bytes.chunk_of(o);
            let co = o % CHUNK_BYTES;
            let n = (CHUNK_BYTES - co).min(data.len() - pos);
            self.bytes.chunk_mut(c)[co..co + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
        Ok(())
    }

    /// Reads an entire cache line (`len` bytes, `addr` assumed line-aligned).
    ///
    /// Bytes outside the mapped region read as zero so that cache refills
    /// near the end of memory do not fault (only architectural accesses
    /// fault).
    pub fn read_line(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        for (i, b) in out.iter_mut().enumerate() {
            let a = addr + i as u64;
            if a >= DATA_BASE && a < DATA_BASE + self.len() {
                *b = self.bytes.byte((a - DATA_BASE) as usize);
            }
        }
        out
    }

    /// Writes an entire cache line back; bytes outside the mapped region are
    /// silently dropped (mirrors `read_line`).
    pub fn write_line(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            if a >= DATA_BASE && a < DATA_BASE + self.len() {
                let off = (a - DATA_BASE) as usize;
                let c = self.bytes.chunk_of(off);
                self.bytes.chunk_mut(c)[off % CHUNK_BYTES] = b;
            }
        }
    }

    // ----- delta snapshots -------------------------------------------------

    /// Captures the memory as a delta against the pristine image: every
    /// dirty chunk, with its live bytes.  Footprint is
    /// proportional to the data the workload has written, not to the memory
    /// size.  Each captured chunk shares the live chunk's handle, frozen
    /// first if the chunk is owned — no bytes move; the live chunk
    /// un-shares lazily if written afterwards.
    pub fn delta_snapshot(&mut self) -> MemoryDelta {
        let mut chunks = Vec::new();
        for c in 0..self.chunk_count() {
            if self.is_dirty(c) {
                chunks.push(DeltaChunk {
                    index: c as u32,
                    data: self.bytes.chunk_handle(c),
                });
            }
        }
        MemoryDelta {
            len: self.len(),
            chunks,
        }
    }

    /// Restores the memory to the state `delta` captured: chunks absent from
    /// the delta revert to the pristine image, chunks present adopt the
    /// delta's handles — so a restored memory is indistinguishable (bytes
    /// and future snapshots) from the one the delta was taken on.
    ///
    /// Only chunks in (currently dirty ∪ delta) are rewritten — O(touched
    /// data), never O(memory size).  Both steps are handle swaps.
    ///
    /// The delta must come from a memory with the same length and pristine
    /// image (same program, same configuration); the length is checked.
    ///
    /// # Panics
    ///
    /// Panics if `delta` was captured from a memory of a different size.
    pub fn restore_delta(&mut self, delta: &MemoryDelta) {
        assert_eq!(
            delta.len,
            self.len(),
            "delta snapshot from a different memory size"
        );
        for c in 0..self.chunk_count() {
            if self.is_dirty(c) {
                self.bytes.share_chunk_from(c, &self.pristine);
            }
        }
        for chunk in &delta.chunks {
            let c = chunk.index as usize;
            self.bytes.set_chunk_handle(c, &chunk.data);
        }
    }

    /// Makes `self` an exact structural replica of `src`: every live chunk
    /// and every pristine-image chunk shares `src`'s handle, so clean and
    /// dirty chunks stay apart exactly as in `src`.  No bytes move: `src`'s
    /// owned chunks are frozen first, and a written chunk un-shares lazily
    /// on either side's first subsequent write.
    pub fn fork_from(&mut self, src: &mut Self) {
        debug_assert_eq!(self.len(), src.len());
        src.bytes.freeze();
        self.bytes.share_from(&src.bytes);
        // Byte-identical by construction (same program image); sharing the
        // handles deduplicates the image across the pool.
        self.pristine.share_from(&src.pristine);
    }

    /// Chunk un-share events since the last call (see
    /// [`CowBytes::take_cow_breaks`]).
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.bytes.take_cow_breaks()
    }

    /// Materialises private copies of every live chunk not backed by this
    /// memory's own pristine image — quarantine hygiene for a poisoned core.
    /// Chunks sharing with the pristine image stay shared: the image is
    /// immutable after sealing, so that sharing cannot leak state.
    pub(crate) fn unshare_all(&mut self) {
        for c in 0..self.chunk_count() {
            if self.is_dirty(c) {
                self.bytes.unshare_chunk(c);
            }
        }
    }

    /// Whether every live chunk is privately owned or shares only with this
    /// memory's own pristine image (immutable, shared by design).
    pub(crate) fn fully_private(&self) -> bool {
        (0..self.chunk_count()).all(|c| !self.is_dirty(c) || self.bytes.chunk_private(c))
    }

    /// Whether the live bytes are identical to the state `delta` captured.
    ///
    /// Chunks that are clean on both sides equal the shared pristine image by
    /// construction, so only the union of the two dirty sets is compared —
    /// the check costs O(touched data), not O(memory size).
    pub fn matches_delta(&self, delta: &MemoryDelta) -> bool {
        if delta.len != self.len() {
            return false;
        }
        let mut in_delta = delta.chunks.iter().peekable();
        for c in 0..self.chunk_count() {
            let chunk = match in_delta.peek() {
                Some(d) if d.index as usize == c => in_delta.next(),
                _ => None,
            };
            match chunk {
                Some(d) => {
                    // Handle equality (the common case after a handle-swap
                    // restore) proves byte equality without reading.
                    if !self.bytes.chunk_is(c, &d.data) && self.bytes.chunk(c) != &d.data[..] {
                        return false;
                    }
                }
                None => {
                    if self.is_dirty(c) && self.bytes.chunk(c) != self.pristine.chunk(c) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// One dirty chunk captured by [`Memory::delta_snapshot`]: its index and its
/// live bytes (`CHUNK_BYTES` long except for a short final chunk).  The
/// bytes sit behind an `Arc` so capture and restore are handle swaps against
/// the memory's [`CowBytes`] store; the sharing never reaches the wire — the
/// binary encoding is the raw bytes, unchanged from the owned layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct DeltaChunk {
    index: u32,
    data: Arc<Vec<u8>>,
}

/// A chunk-level delta of the backing memory against the pristine program
/// image, produced by [`Memory::delta_snapshot`] and resolved against a
/// core's own pristine image by [`Memory::restore_delta`].
///
/// Chunk indices are strictly ascending and every chunk carries exactly the
/// bytes of its range; both invariants are validated on decode so a corrupt
/// `.golden` file surfaces as a [`DecodeError`], not a bogus restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryDelta {
    len: u64,
    chunks: Vec<DeltaChunk>,
}

impl MemoryDelta {
    /// Total size of the memory the delta was captured from, in bytes (the
    /// size a dense snapshot of the same memory would occupy).
    pub fn dense_len(&self) -> usize {
        self.len as usize
    }

    /// Number of dirty chunks captured.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Approximate heap footprint of the delta in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.data.len() + std::mem::size_of::<DeltaChunk>())
            .sum()
    }
}

impl BinCode for MemoryDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len.encode(out);
        self.chunks.len().encode(out);
        for c in &self.chunks {
            c.index.encode(out);
            out.extend_from_slice(&c.data);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let len = u64::decode(r)?;
        let n = usize::decode(r)?;
        let chunk_total = (len as usize).div_ceil(CHUNK_BYTES);
        if n > chunk_total {
            return Err(DecodeError::Invalid("more delta chunks than memory has"));
        }
        // Every chunk consumes at least its 4-byte index, so `remaining`
        // bounds the plausible count and a corrupt prefix (huge `len` and
        // `n`) cannot trigger a huge up-front allocation.
        if n > r.remaining() {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut chunks = Vec::with_capacity(n);
        let mut prev: Option<u32> = None;
        for _ in 0..n {
            let index = u32::decode(r)?;
            if (index as usize) >= chunk_total {
                return Err(DecodeError::Invalid("delta chunk index out of range"));
            }
            if prev.is_some_and(|p| index <= p) {
                return Err(DecodeError::Invalid("delta chunk indices not ascending"));
            }
            prev = Some(index);
            let start = index as usize * CHUNK_BYTES;
            let size = (len as usize - start).min(CHUNK_BYTES);
            chunks.push(DeltaChunk {
                index,
                data: Arc::new(r.take(size)?.to_vec()),
            });
        }
        Ok(MemoryDelta { len, chunks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_all_sizes() {
        let mut m = Memory::new(4096);
        for (i, &size) in MemSize::all().iter().enumerate() {
            let addr = DATA_BASE + 64 * i as u64;
            let value = 0x1122_3344_5566_7788u64;
            m.write(addr, value, size).unwrap();
            assert_eq!(m.read(addr, size).unwrap(), value & size.mask());
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(64);
        m.write(DATA_BASE, 0x0102_0304, MemSize::B4).unwrap();
        assert_eq!(m.read(DATA_BASE, MemSize::B1).unwrap(), 0x04);
        assert_eq!(m.read(DATA_BASE + 1, MemSize::B1).unwrap(), 0x03);
    }

    #[test]
    fn out_of_bounds_detected() {
        let m = Memory::new(64);
        assert!(matches!(
            m.read(DATA_BASE + 60, MemSize::B8),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.read(DATA_BASE - 8, MemSize::B8),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            m.read(u64::MAX - 2, MemSize::B8),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn store_to_code_detected() {
        let mut m = Memory::new(64);
        assert!(matches!(
            m.write(0x100, 1, MemSize::B8),
            Err(MemError::StoreToCode { .. })
        ));
    }

    #[test]
    fn segments_and_lines() {
        let mut m = Memory::new(256);
        m.load_segment(DATA_BASE + 8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read(DATA_BASE + 8, MemSize::B4).unwrap(), 0x0403_0201);
        let line = m.read_line(DATA_BASE, 64);
        assert_eq!(line[8], 1);
        let mut line2 = line.clone();
        line2[0] = 0xFF;
        m.write_line(DATA_BASE, &line2);
        assert_eq!(m.read(DATA_BASE, MemSize::B1).unwrap(), 0xFF);
    }

    #[test]
    fn line_access_beyond_bounds_is_zero_and_dropped() {
        let mut m = Memory::new(32);
        let line = m.read_line(DATA_BASE + 16, 64);
        assert_eq!(line.len(), 64);
        assert!(line.iter().all(|&b| b == 0));
        m.write_line(DATA_BASE + 16, &[0xAA; 64]);
        assert_eq!(m.read(DATA_BASE + 31, MemSize::B1).unwrap(), 0xAA);
    }

    #[test]
    fn delta_tracks_only_written_chunks() {
        let mut m = Memory::new(16 * CHUNK_BYTES as u64);
        m.load_segment(DATA_BASE, &[1, 2, 3, 4]).unwrap();
        m.seal_pristine();
        // Nothing written since seal: the delta is empty.
        let d = m.delta_snapshot();
        assert_eq!(d.chunk_count(), 0);
        assert_eq!(d.dense_len(), 16 * CHUNK_BYTES);
        assert_eq!(d.footprint_bytes(), 0);
        // One store dirties exactly one chunk; a line write two more.
        m.write(DATA_BASE + 3 * CHUNK_BYTES as u64, 0xAB, MemSize::B8)
            .unwrap();
        m.write_line(DATA_BASE + 8 * CHUNK_BYTES as u64 - 32, &[0xCD; 64]);
        let d = m.delta_snapshot();
        assert_eq!(d.chunk_count(), 3);
        assert!(d.footprint_bytes() < 16 * CHUNK_BYTES);
    }

    #[test]
    fn delta_restore_is_exact() {
        let mut m = Memory::new(4 * CHUNK_BYTES as u64 + 100); // short last chunk
        m.load_segment(DATA_BASE + 10, &[9; 40]).unwrap();
        m.seal_pristine();
        m.write(DATA_BASE, 0x1111, MemSize::B8).unwrap();
        m.write(DATA_BASE + 4 * CHUNK_BYTES as u64 + 90, 0x22, MemSize::B1)
            .unwrap();
        let snap_bytes = m.clone();
        let d = m.delta_snapshot();
        assert!(m.matches_delta(&d));
        // Diverge (including a chunk the delta does not carry), then restore.
        m.write(DATA_BASE + 2 * CHUNK_BYTES as u64, 0x3333, MemSize::B4)
            .unwrap();
        m.write(DATA_BASE, 0x4444, MemSize::B8).unwrap();
        assert!(!m.matches_delta(&d));
        m.restore_delta(&d);
        assert_eq!(m, snap_bytes);
        assert!(m.matches_delta(&d));
        // The restored memory's own delta equals the original.
        assert_eq!(m.delta_snapshot(), d);
        // A fresh memory with the same pristine image restores identically.
        let mut other = Memory::new(4 * CHUNK_BYTES as u64 + 100);
        other.load_segment(DATA_BASE + 10, &[9; 40]).unwrap();
        other.seal_pristine();
        other.restore_delta(&d);
        assert_eq!(other, snap_bytes);
    }

    #[test]
    fn delta_binary_roundtrip_and_validation() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        let mut m = Memory::new(3 * CHUNK_BYTES as u64 + 17);
        m.seal_pristine();
        m.write(DATA_BASE + 5, 0xDEAD, MemSize::B8).unwrap();
        m.write(DATA_BASE + 3 * CHUNK_BYTES as u64 + 9, 0xBE, MemSize::B1)
            .unwrap();
        let d = m.delta_snapshot();
        let bytes = encode_to_vec(&d);
        let back: MemoryDelta = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, d);
        // Truncated input is an error, not a bogus delta.
        assert!(decode_from_slice::<MemoryDelta>(&bytes[..bytes.len() - 1]).is_err());
        // A corrupt prefix claiming a huge memory and chunk count errors out
        // before any allocation proportional to the claimed count.
        let mut bad = Vec::new();
        u64::MAX.encode(&mut bad);
        (1u64 << 50).encode(&mut bad);
        assert!(decode_from_slice::<MemoryDelta>(&bad).is_err());
        // Chunk index out of range is rejected.
        let mut bad = Vec::new();
        (CHUNK_BYTES as u64).encode(&mut bad); // one-chunk memory
        1usize.encode(&mut bad);
        7u32.encode(&mut bad); // index 7 of 1
        bad.extend_from_slice(&[0; CHUNK_BYTES]);
        assert!(decode_from_slice::<MemoryDelta>(&bad).is_err());
        // Non-ascending indices are rejected.
        let mut bad = Vec::new();
        (4 * CHUNK_BYTES as u64).encode(&mut bad);
        2usize.encode(&mut bad);
        for _ in 0..2 {
            1u32.encode(&mut bad);
            bad.extend_from_slice(&[0; CHUNK_BYTES]);
        }
        assert!(decode_from_slice::<MemoryDelta>(&bad).is_err());
    }

    #[test]
    fn error_display() {
        assert!(!MemError::OutOfBounds { addr: 1, size: 8 }
            .to_string()
            .is_empty());
        assert!(!MemError::StoreToCode { addr: 1 }.to_string().is_empty());
    }
}
