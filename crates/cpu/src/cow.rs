//! Copy-on-write storage substrate for the pipeline structures, and the
//! only record of how a core has diverged from a checkpoint.
//!
//! Heavy storage is split into fixed-size pages behind [`Arc`] handles.  A
//! restore or a fork clones the *handles* (O(pages) pointer copies), and
//! the first write to a shared page breaks sharing for that page alone via
//! [`Arc::make_mut`].  A page whose handle is still `Arc::ptr_eq` to the
//! checkpoint's page is therefore untouched by definition: comparisons
//! skip it without reading it, and the backing memory tells its dirty
//! chunks from its clean ones the same way.  Everything a faulty suffix
//! never writes stays shared across the golden core, its snapshots and
//! every fork.
//!
//! Three shapes of storage need three wrappers:
//!
//! * [`CowTable<T>`] — array-shaped structures with stable entry indices
//!   (register file, LSQ slots, predictor counter tables, BTB, cache
//!   lines).  Entries live in power-of-two-sized pages; reads index through
//!   one extra pointer, writes go through [`CowTable::get_mut`].
//! * [`CowSeq<T>`] — queue-shaped structures (ROB, fetch buffer, free
//!   list).  The whole queue sits behind one handle; any mutation breaks it
//!   via [`CowSeq::make_mut`].
//! * [`CowBytes`] — the backing memory's byte store, paged at the
//!   delta-snapshot chunk granularity so a chunk can also share its handle
//!   with a pristine-image chunk or a checkpoint's delta chunk.
//!
//! Sharing is **bookkeeping, not state**: it is never serialised (the
//! `binio` wire formats below re-encode plain `len + elements`,
//! byte-identical to the pre-CoW layouts), and equality compares contents —
//! with an `Arc::ptr_eq` fast path per page.  Each wrapper counts how many
//! pages it un-shared (`cow_breaks`), feeding the `fork_bytes_copied` /
//! `fork_bytes_shared` / `cow_breaks` telemetry in the campaign scheduler.

use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

/// An array of `T` split into power-of-two-sized pages behind [`Arc`]
/// handles.  Cloning (and [`CowTable::share_from`]) copies handles only;
/// writes break sharing per page.
#[derive(Debug, Clone)]
pub struct CowTable<T> {
    pages: Vec<Arc<Vec<T>>>,
    len: usize,
    /// log2 of the page size in entries.
    shift: u32,
    /// Pages un-shared by writes since construction or the last
    /// [`CowTable::take_cow_breaks`]; bookkeeping, not state.
    breaks: u64,
}

impl<T: Clone> CowTable<T> {
    /// A table of `len` copies of `init`, paged in `page_len` entries
    /// (rounded up to a power of two).
    pub fn new(len: usize, init: T, page_len: usize) -> Self {
        Self::from_fn(len, page_len, |_| init.clone())
    }

    /// A table of `len` entries produced by `f(index)`.
    pub fn from_fn(len: usize, page_len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let page_len = page_len.max(1).next_power_of_two();
        let shift = page_len.trailing_zeros();
        let mut pages = Vec::with_capacity(len.div_ceil(page_len));
        let mut i = 0;
        while i < len {
            let n = page_len.min(len - i);
            pages.push(Arc::new((i..i + n).map(&mut f).collect()));
            i += n;
        }
        CowTable {
            pages,
            len,
            shift,
            breaks: 0,
        }
    }

    /// A table owning the entries of `v`, paged in `page_len` entries
    /// (rounded up to a power of two).  Used by `binio` decode.
    pub fn from_vec(v: Vec<T>, page_len: usize) -> Self {
        let len = v.len();
        let mut it = v.into_iter();
        Self::from_fn(len, page_len, |_| it.next().expect("length just measured"))
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared read access to entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len);
        &self.pages[i >> self.shift][i & ((1 << self.shift) - 1)]
    }

    /// Mutable access to entry `i`, breaking the containing page's sharing
    /// if it is currently shared.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let page = &mut self.pages[i >> self.shift];
        if Arc::strong_count(page) != 1 {
            self.breaks += 1;
        }
        &mut Arc::make_mut(page)[i & ((1 << self.shift) - 1)]
    }

    /// Iterates the entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.iter())
    }

    /// Replaces this table's contents with `src`'s by cloning page handles —
    /// O(pages), no entry is copied.  Both tables must have the same
    /// geometry (same length, built with the same page size).
    pub fn share_from(&mut self, src: &Self) {
        debug_assert_eq!(self.len, src.len);
        debug_assert_eq!(self.shift, src.shift);
        self.pages.clone_from(&src.pages);
    }

    /// Pages un-shared by writes since the last
    /// [`CowTable::take_cow_breaks`].
    pub fn cow_breaks(&self) -> u64 {
        self.breaks
    }

    /// Returns and resets the un-share counter.
    pub fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.breaks)
    }

    /// Materialises a private copy of every shared page, so no storage is
    /// shared with any other table (the quarantine reuse guarantee).
    pub fn unshare_all(&mut self) {
        for page in &mut self.pages {
            if Arc::strong_count(page) != 1 {
                self.breaks += 1;
                Arc::make_mut(page);
            }
        }
    }

    /// Whether every page is privately owned (no sharing with snapshots,
    /// parents or forks).
    pub fn fully_private(&self) -> bool {
        self.pages.iter().all(|p| Arc::strong_count(p) == 1)
    }
}

/// Contents-only equality with a per-page `Arc::ptr_eq` fast path; the
/// un-share counter is bookkeeping and invisible.
impl<T: PartialEq> PartialEq for CowTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}
impl<T: Eq> Eq for CowTable<T> {}

impl<T: BinCode + Clone> CowTable<T> {
    /// Encodes as a plain `len + elements` sequence — byte-identical to the
    /// `Vec<T>` the structure held before the CoW substrate.  Page
    /// boundaries and sharing are never serialised.
    pub fn encode_seq(&self, out: &mut Vec<u8>) {
        self.len.encode(out);
        for v in self.iter() {
            v.encode(out);
        }
    }

    /// Decodes a `len + elements` sequence into a freshly paged, fully
    /// private table.
    pub fn decode_seq(r: &mut ByteReader<'_>, page_len: usize) -> Result<Self, DecodeError> {
        Ok(Self::from_vec(Vec::<T>::decode(r)?, page_len))
    }
}

/// Byte accounting one structure reports when it is made equal to another
/// (summed into [`crate::RestoredBytes`] by `Cpu::restore_from` and into
/// [`crate::ForkStats`] by `Cpu::fork_from`).
///
/// * `copied` — bytes physically copied up front.
/// * `shared` — bytes now referenced structurally through shared page
///   handles instead of being copied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkBytes {
    /// Bytes physically copied.
    pub copied: u64,
    /// Bytes shared structurally instead of copied.
    pub shared: u64,
}

impl ForkBytes {
    /// `bytes` adopted by handle sharing, none copied.
    pub fn sharing(bytes: u64) -> Self {
        ForkBytes {
            copied: 0,
            shared: bytes,
        }
    }

    /// Bytes made equal to the source, copied or shared.
    pub fn total(&self) -> u64 {
        self.copied + self.shared
    }
}

impl std::ops::Add for ForkBytes {
    type Output = ForkBytes;
    fn add(self, rhs: ForkBytes) -> ForkBytes {
        ForkBytes {
            copied: self.copied + rhs.copied,
            shared: self.shared + rhs.shared,
        }
    }
}

/// A single value behind an [`Arc`] handle with copy-on-write mutation —
/// for irregular structures (the dynamic-instance counter map, the output
/// stream) that are cheaper to share wholesale than to page.
#[derive(Debug, Clone)]
pub struct CowBox<T> {
    inner: Arc<T>,
    /// Un-share count; bookkeeping, not state.
    breaks: u64,
}

impl<T: Default> Default for CowBox<T> {
    fn default() -> Self {
        CowBox {
            inner: Arc::new(T::default()),
            breaks: 0,
        }
    }
}

impl<T> Deref for CowBox<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: Clone> CowBox<T> {
    /// A box owning `value`.
    pub fn new(value: T) -> Self {
        CowBox {
            inner: Arc::new(value),
            breaks: 0,
        }
    }

    /// Mutable access, breaking sharing if the handle is shared.
    #[inline]
    pub fn make_mut(&mut self) -> &mut T {
        if Arc::strong_count(&self.inner) != 1 {
            self.breaks += 1;
        }
        Arc::make_mut(&mut self.inner)
    }

    /// Replaces this value with `src`'s by cloning the handle.
    pub fn share_from(&mut self, src: &Self) {
        self.inner.clone_from(&src.inner);
    }

    /// Un-shares since the last [`CowBox::take_cow_breaks`].
    pub fn cow_breaks(&self) -> u64 {
        self.breaks
    }

    /// Returns and resets the un-share counter.
    pub fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.breaks)
    }

    /// Materialises a private copy if the handle is shared.
    pub fn unshare_all(&mut self) {
        if Arc::strong_count(&self.inner) != 1 {
            self.breaks += 1;
            Arc::make_mut(&mut self.inner);
        }
    }

    /// Whether the value is privately owned.
    pub fn fully_private(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }
}

/// Contents-only equality with an `Arc::ptr_eq` fast path.
impl<T: PartialEq> PartialEq for CowBox<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}
impl<T: Eq> Eq for CowBox<T> {}

impl<T: BinCode + Clone> BinCode for CowBox<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inner.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Self::new(T::decode(r)?))
    }
}

/// A queue behind a single [`Arc`] handle: reads deref straight to the
/// [`VecDeque`], mutation goes through [`CowSeq::make_mut`], and a fork or
/// restore is one handle clone.
#[derive(Debug, Clone)]
pub struct CowSeq<T> {
    inner: Arc<VecDeque<T>>,
    /// Un-share count; bookkeeping, not state.
    breaks: u64,
}

impl<T> Default for CowSeq<T> {
    fn default() -> Self {
        CowSeq {
            inner: Arc::new(VecDeque::new()),
            breaks: 0,
        }
    }
}

impl<T> Deref for CowSeq<T> {
    type Target = VecDeque<T>;
    #[inline]
    fn deref(&self) -> &VecDeque<T> {
        &self.inner
    }
}

impl<T: Clone> CowSeq<T> {
    /// A queue owning `inner`.
    pub fn from_deque(inner: VecDeque<T>) -> Self {
        CowSeq {
            inner: Arc::new(inner),
            breaks: 0,
        }
    }

    /// Mutable access to the queue, breaking sharing if the handle is
    /// currently shared.
    #[inline]
    pub fn make_mut(&mut self) -> &mut VecDeque<T> {
        if Arc::strong_count(&self.inner) != 1 {
            self.breaks += 1;
        }
        Arc::make_mut(&mut self.inner)
    }

    /// Replaces this queue's contents with `src`'s by cloning the handle;
    /// the whole queue counts as shared.
    pub fn share_from(&mut self, src: &Self) -> ForkBytes {
        self.inner.clone_from(&src.inner);
        ForkBytes::sharing((src.len() * std::mem::size_of::<T>()) as u64)
    }

    /// Queue un-shares since the last [`CowSeq::take_cow_breaks`].
    pub fn cow_breaks(&self) -> u64 {
        self.breaks
    }

    /// Returns and resets the un-share counter.
    pub fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.breaks)
    }

    /// Materialises a private copy if the handle is shared.
    pub fn unshare_all(&mut self) {
        if Arc::strong_count(&self.inner) != 1 {
            self.breaks += 1;
            Arc::make_mut(&mut self.inner);
        }
    }

    /// Whether the queue is privately owned.
    pub fn fully_private(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }
}

/// Contents-only equality with an `Arc::ptr_eq` fast path.
impl<T: PartialEq> PartialEq for CowSeq<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}
impl<T: Eq> Eq for CowSeq<T> {}

impl<T: BinCode + Clone> BinCode for CowSeq<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inner.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Self::from_deque(VecDeque::decode(r)?))
    }
}

/// A flat byte store split into fixed-size chunk pages behind [`Arc`]
/// handles — the backing memory's storage.  The chunk size is the delta
/// snapshot granularity, so a chunk can share its handle three ways: with
/// the sealed pristine image (clean chunks cost nothing to revert), with a
/// checkpoint's delta chunks (captured and restored by handle), and with a
/// fork parent's live chunks.
#[derive(Debug, Clone)]
pub struct CowBytes {
    chunks: Vec<Arc<Vec<u8>>>,
    len: usize,
    /// log2 of the chunk size in bytes.
    shift: u32,
    /// Un-share count; bookkeeping, not state.
    breaks: u64,
}

impl CowBytes {
    /// A zeroed store of `len` bytes in chunks of `chunk_len` (must be a
    /// power of two); the last chunk may be short.
    pub fn new(len: usize, chunk_len: usize) -> Self {
        assert!(chunk_len.is_power_of_two());
        let shift = chunk_len.trailing_zeros();
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_len));
        let mut i = 0;
        while i < len {
            let n = chunk_len.min(len - i);
            chunks.push(Arc::new(vec![0u8; n]));
            i += n;
        }
        CowBytes {
            chunks,
            len,
            shift,
            breaks: 0,
        }
    }

    /// Total length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk index containing byte offset `off`.
    #[inline]
    pub fn chunk_of(&self, off: usize) -> usize {
        off >> self.shift
    }

    /// Shared read access to chunk `c`'s bytes.
    #[inline]
    pub fn chunk(&self, c: usize) -> &[u8] {
        &self.chunks[c]
    }

    /// Mutable access to chunk `c`'s bytes, breaking its sharing if shared.
    #[inline]
    pub fn chunk_mut(&mut self, c: usize) -> &mut [u8] {
        let chunk = &mut self.chunks[c];
        if Arc::strong_count(chunk) != 1 {
            self.breaks += 1;
        }
        Arc::make_mut(chunk).as_mut_slice()
    }

    /// Reads the byte at offset `off`.
    #[inline]
    pub fn byte(&self, off: usize) -> u8 {
        let mask = (1usize << self.shift) - 1;
        self.chunks[off >> self.shift][off & mask]
    }

    /// The handle of chunk `c`, for capturing a zero-copy delta snapshot.
    pub fn chunk_handle(&self, c: usize) -> Arc<Vec<u8>> {
        Arc::clone(&self.chunks[c])
    }

    /// Replaces chunk `c`'s contents with the bytes behind `handle` by
    /// cloning the handle — the zero-copy restore of a delta chunk.
    ///
    /// # Panics
    ///
    /// Panics if `handle`'s length differs from the chunk's physical size
    /// (a corrupt delta would otherwise silently change the memory length).
    pub fn set_chunk_handle(&mut self, c: usize, handle: &Arc<Vec<u8>>) {
        assert_eq!(
            handle.len(),
            self.chunks[c].len(),
            "delta chunk length does not match the memory's chunk size"
        );
        self.chunks[c].clone_from(handle);
    }

    /// Replaces chunk `c`'s contents with `src`'s chunk `c` by cloning the
    /// handle — the zero-copy revert to a pristine-image chunk.
    pub fn share_chunk_from(&mut self, c: usize, src: &Self) {
        debug_assert_eq!(self.len, src.len);
        self.chunks[c].clone_from(&src.chunks[c]);
    }

    /// Replaces the whole store's contents with `src`'s by cloning every
    /// chunk handle — O(chunks), no byte is copied.
    pub fn share_from(&mut self, src: &Self) {
        debug_assert_eq!(self.len, src.len);
        debug_assert_eq!(self.shift, src.shift);
        self.chunks.clone_from(&src.chunks);
    }

    /// Whether chunk `c` shares its handle with `other`'s chunk `c` — lets
    /// comparisons skip shared chunks without reading them.
    #[inline]
    pub fn chunk_ptr_eq(&self, c: usize, other: &Self) -> bool {
        Arc::ptr_eq(&self.chunks[c], &other.chunks[c])
    }

    /// Whether chunk `c` is privately owned.
    #[inline]
    pub fn chunk_private(&self, c: usize) -> bool {
        Arc::strong_count(&self.chunks[c]) == 1
    }

    /// Materialises a private copy of chunk `c` if it is shared.
    pub fn unshare_chunk(&mut self, c: usize) {
        let chunk = &mut self.chunks[c];
        if Arc::strong_count(chunk) != 1 {
            self.breaks += 1;
            Arc::make_mut(chunk);
        }
    }

    /// Chunk un-shares since the last [`CowBytes::take_cow_breaks`].
    pub fn cow_breaks(&self) -> u64 {
        self.breaks
    }

    /// Returns and resets the un-share counter.
    pub fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.breaks)
    }

    /// Materialises a private copy of every shared chunk.
    pub fn unshare_all(&mut self) {
        for chunk in &mut self.chunks {
            if Arc::strong_count(chunk) != 1 {
                self.breaks += 1;
                Arc::make_mut(chunk);
            }
        }
    }

    /// Whether every chunk is privately owned.
    pub fn fully_private(&self) -> bool {
        self.chunks.iter().all(|c| Arc::strong_count(c) == 1)
    }
}

/// Contents-only equality with a per-chunk `Arc::ptr_eq` fast path.
impl PartialEq for CowBytes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .chunks
                .iter()
                .zip(&other.chunks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}
impl Eq for CowBytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_pages_share_until_written() {
        let mut a = CowTable::new(100, 0u64, 16);
        for i in 0..100 {
            *a.get_mut(i) = i as u64;
        }
        a.take_cow_breaks();
        let mut b = a.clone();
        assert_eq!(a, b);
        assert!(!b.fully_private());
        // A write to one entry breaks exactly one page.
        *b.get_mut(17) = 999;
        assert_eq!(b.cow_breaks(), 1);
        assert_eq!(*b.get(17), 999);
        assert_eq!(*a.get(17), 17, "parent unaffected by the fork's write");
        assert_ne!(a, b);
        // Rewriting another entry of the same (now private) page is free.
        *b.get_mut(18) = 1000;
        assert_eq!(b.cow_breaks(), 1);
    }

    #[test]
    fn table_share_from_and_unshare() {
        let a = CowTable::from_fn(50, 8, |i| i as u32);
        let mut b = CowTable::new(50, 0u32, 8);
        b.share_from(&a);
        assert_eq!(a, b);
        assert!(!b.fully_private());
        b.unshare_all();
        assert!(b.fully_private());
        assert_eq!(a, b);
        assert!(b.cow_breaks() > 0);
    }

    #[test]
    fn table_encode_matches_vec_layout() {
        let v: Vec<u64> = (0..37).collect();
        let t = CowTable::from_vec(v.clone(), 8);
        let mut from_vec = Vec::new();
        v.encode(&mut from_vec);
        let mut from_table = Vec::new();
        t.encode_seq(&mut from_table);
        assert_eq!(from_vec, from_table, "CoW paging must be wire-invisible");
        let mut r = ByteReader::new(&from_table);
        let back = CowTable::<u64>::decode_seq(&mut r, 8).unwrap();
        assert_eq!(back, t);
        assert!(back.fully_private());
    }

    #[test]
    fn seq_breaks_on_first_write_only() {
        let mut a = CowSeq::from_deque((0..5u32).collect());
        let mut b = a.clone();
        assert_eq!(a, b);
        b.make_mut().push_back(9);
        assert_eq!(b.cow_breaks(), 1);
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 6);
        assert_ne!(a, b);
        b.make_mut().push_back(10);
        assert_eq!(b.cow_breaks(), 1);
        a.make_mut().clear();
        assert_eq!(a.cow_breaks(), 0, "unique handles mutate in place");
    }

    #[test]
    fn bytes_chunks_share_with_pristine_and_break_on_write() {
        let mut m = CowBytes::new(1024 + 100, 256);
        assert_eq!(m.chunk_count(), 5);
        m.chunk_mut(1)[3] = 7;
        let pristine = m.clone();
        m.take_cow_breaks();
        m.chunk_mut(1)[3] = 9;
        assert_eq!(m.cow_breaks(), 1);
        assert_eq!(pristine.chunk(1)[3], 7);
        assert_eq!(m.byte(256 + 3), 9);
        assert!(!m.chunk_ptr_eq(1, &pristine));
        assert!(m.chunk_ptr_eq(0, &pristine));
        // Handle-revert makes the chunk pristine again without a copy.
        m.share_chunk_from(1, &pristine);
        assert_eq!(m, pristine);
        assert!(m.chunk_ptr_eq(1, &pristine));
        // Short last chunk keeps its physical size across handle swaps.
        assert_eq!(m.chunk(4).len(), 100);
    }

    #[test]
    #[should_panic(expected = "delta chunk length")]
    fn bytes_rejects_mis_sized_chunk_handles() {
        let mut m = CowBytes::new(1024, 256);
        let wrong = Arc::new(vec![0u8; 17]);
        m.set_chunk_handle(0, &wrong);
    }
}
