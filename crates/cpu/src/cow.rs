//! Copy-on-write storage substrate for the pipeline structures, and the
//! only record of how a core has diverged from a checkpoint.
//!
//! Heavy storage is split into fixed-size pages.  Each page is either
//! **owned** outright by one structure or **shared** behind an [`Arc`]
//! handle with snapshots, fork parents and forks.  A write to an owned page
//! is a plain `&mut` borrow: no atomic operation, no allocation.  The first
//! write to a shared page un-shares it once — it takes the page out of its
//! [`Arc`] when no one else holds it, and otherwise copies it and counts a
//! `cow_break` — and from then on the page is owned again.
//!
//! Sharing starts only where a handle is handed out, and each of those
//! calls first *freezes* the source's owned pages into shared ones, so it
//! takes the source by `&mut`: `Cpu::snapshot`, `Cpu::fork_from`,
//! [`Memory::delta_snapshot`](crate::Memory::delta_snapshot),
//! [`Memory::seal_pristine`](crate::Memory::seal_pristine) and the
//! `fork_from` of [`Cache`](crate::Cache), [`MemSystem`](crate::MemSystem)
//! and [`Memory`](crate::Memory).  Pages built by `new`, `from_fn` and
//! `binio` decode start out shared, so a `CpuState` holds only shared pages
//! and `Cpu::restore_from` adopts its handles without copying.  `clone()`
//! shares shared pages and deep-copies owned ones.
//!
//! A page whose handle is still `Arc::ptr_eq` to the checkpoint's page is
//! untouched by definition: comparisons skip it without reading it, and
//! the backing memory tells its dirty chunks from its clean ones the same
//! way.  An owned page is never `ptr_eq` to any other page, which is
//! correct: it was written after the last share.  Everything a faulty
//! suffix never writes stays shared across the golden core, its snapshots
//! and every fork.
//!
//! Three shapes of storage need three wrappers:
//!
//! * [`CowTable<T>`] — array-shaped structures with stable entry indices
//!   (register file, LSQ slots, predictor counter tables, BTB, cache
//!   lines).  Entries live in power-of-two-sized pages; reads index through
//!   one extra pointer, writes go through [`CowTable::get_mut`].
//! * [`CowBox<T>`] — one value on a single page: the queue-shaped
//!   structures (ROB, fetch buffer, free list) as a `CowBox<VecDeque<_>>`,
//!   and the irregular ones (the output stream, the dynamic instance
//!   counters).  Mutation goes through [`CowBox::make_mut`].
//! * [`CowBytes`] — the backing memory's byte store, paged at the
//!   delta-snapshot chunk granularity so a chunk can also share its handle
//!   with a pristine-image chunk or a checkpoint's delta chunk.
//!
//! Sharing is **bookkeeping, not state**: it is never serialised (the
//! `binio` wire formats below re-encode plain `len + elements`,
//! byte-identical to the pre-CoW layouts), and equality compares contents —
//! with an `Arc::ptr_eq` fast path per page.  Each wrapper counts how many
//! pages it copied to un-share (`cow_breaks`), feeding the campaign
//! scheduler's `cow_breaks` telemetry.  The substrate is safe Rust
//! throughout.

use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use std::ops::Deref;
use std::sync::Arc;

/// One unit of copy-on-write storage: owned outright, or shared behind an
/// [`Arc`] handle.
#[derive(Debug)]
enum Page<P> {
    /// Written since the last share; no other structure can see it.
    Owned(P),
    /// Handed out by a freeze, or built by construction or decode.
    Shared(Arc<P>),
}

impl<P> Page<P> {
    fn shared(value: P) -> Self {
        Page::Shared(Arc::new(value))
    }

    #[inline]
    fn get(&self) -> &P {
        match self {
            Page::Owned(p) => p,
            Page::Shared(a) => a,
        }
    }

    /// Whether both pages are the same shared handle.  An owned page is
    /// never `ptr_eq`: it was written after the last share.
    #[inline]
    fn ptr_eq(&self, other: &Self) -> bool {
        matches!((self, other), (Page::Shared(a), Page::Shared(b)) if Arc::ptr_eq(a, b))
    }
}

impl<P: Clone + Default> Page<P> {
    /// Mutable access: a plain borrow of an owned page; a shared page is
    /// un-shared first (see [`Page::unshare`]).
    #[inline]
    fn get_mut(&mut self, breaks: &mut u64) -> &mut P {
        if let Page::Shared(_) = self {
            self.unshare(breaks);
        }
        match self {
            Page::Owned(p) => p,
            Page::Shared(_) => unreachable!("page was just un-shared"),
        }
    }

    /// Turns a shared page into an owned one: moved out of its handle when
    /// no one else holds it, otherwise copied, which counts one break.
    #[cold]
    #[inline(never)]
    fn unshare(&mut self, breaks: &mut u64) {
        if let Page::Shared(a) = self {
            let owned = match Arc::get_mut(a) {
                Some(p) => std::mem::take(p),
                None => {
                    *breaks += 1;
                    P::clone(a)
                }
            };
            *self = Page::Owned(owned);
        }
    }

    /// Moves an owned page behind a handle so it can be shared.
    fn freeze(&mut self) {
        if let Page::Owned(p) = self {
            *self = Page::shared(std::mem::take(p));
        }
    }

    /// The page's handle, freezing it first if it is owned.
    fn handle(&mut self) -> &Arc<P> {
        self.freeze();
        match self {
            Page::Shared(a) => a,
            Page::Owned(_) => unreachable!("page was just frozen"),
        }
    }
}

/// Shared pages clone their handle; owned pages are deep-copied, since
/// handing out an owned page's storage would require `&mut` to freeze it.
impl<P: Clone> Clone for Page<P> {
    fn clone(&self) -> Self {
        match self {
            Page::Owned(p) => Page::Owned(p.clone()),
            Page::Shared(a) => Page::Shared(Arc::clone(a)),
        }
    }
}

/// Contents equality with a handle fast path.
impl<P: PartialEq> PartialEq for Page<P> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.get() == other.get()
    }
}

/// An array of `T` split into power-of-two-sized pages.  Writes go through
/// [`CowTable::get_mut`]; [`CowTable::share_from`] adopts another table's
/// handles.
#[derive(Debug, Clone)]
pub struct CowTable<T> {
    pages: Vec<Page<Vec<T>>>,
    len: usize,
    /// log2 of the page size in entries.
    shift: u32,
    /// Pages copied to un-share since construction or the last
    /// [`CowTable::take_cow_breaks`]; bookkeeping, not state.
    breaks: u64,
}

impl<T: Clone> CowTable<T> {
    /// A table of `len` copies of `init`, paged in `page_len` entries
    /// (rounded up to a power of two).
    pub fn new(len: usize, init: T, page_len: usize) -> Self {
        Self::from_fn(len, page_len, |_| init.clone())
    }

    /// A table of `len` entries produced by `f(index)`, on shared pages.
    pub fn from_fn(len: usize, page_len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let page_len = page_len.max(1).next_power_of_two();
        let shift = page_len.trailing_zeros();
        let mut pages = Vec::with_capacity(len.div_ceil(page_len));
        let mut i = 0;
        while i < len {
            let n = page_len.min(len - i);
            pages.push(Page::shared((i..i + n).map(&mut f).collect()));
            i += n;
        }
        CowTable {
            pages,
            len,
            shift,
            breaks: 0,
        }
    }

    /// A table holding the entries of `v`, paged in `page_len` entries
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
        &self.pages[i >> self.shift].get()[i & ((1 << self.shift) - 1)]
    }

    /// Iterates the entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|p| p.get().iter())
    }

    /// Replaces this table's contents with `src`'s by cloning page handles —
    /// O(pages), no entry is copied when `src` is frozen.  Both tables must
    /// have the same geometry (same length, built with the same page size).
    pub fn share_from(&mut self, src: &Self) {
        debug_assert_eq!(self.len, src.len);
        debug_assert_eq!(self.shift, src.shift);
        self.pages.clone_from(&src.pages);
    }

    /// Pages copied to un-share since the last
    /// [`CowTable::take_cow_breaks`].
    pub fn cow_breaks(&self) -> u64 {
        self.breaks
    }

    /// Returns and resets the un-share counter.
    pub fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.breaks)
    }

    /// Mutable access to entry `i`, un-sharing the containing page if it
    /// is shared.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        let mask = (1 << self.shift) - 1;
        &mut self.pages[i >> self.shift].get_mut(&mut self.breaks)[i & mask]
    }

    /// Moves every owned page behind a handle, so clones and
    /// [`CowTable::share_from`] share it instead of copying.
    pub fn freeze(&mut self) {
        self.pages.iter_mut().for_each(Page::freeze);
    }
}

/// Contents-only equality with a per-page `Arc::ptr_eq` fast path; the
/// un-share counter is bookkeeping and invisible.
impl<T: PartialEq> PartialEq for CowTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.pages == other.pages
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

    /// Decodes a `len + elements` sequence into a freshly paged table on
    /// shared pages no one else holds.
    pub fn decode_seq(r: &mut ByteReader<'_>, page_len: usize) -> Result<Self, DecodeError> {
        Ok(Self::from_vec(Vec::<T>::decode(r)?, page_len))
    }
}

/// A single value on one copy-on-write page — for queues (the ROB, fetch
/// buffer and free list, each a
/// [`VecDeque`](std::collections::VecDeque)) and irregular structures
/// (the dynamic-instance counters, the output stream) that are cheaper to
/// share wholesale than to page.  Reads deref straight to the value, and a
/// fork or restore is one handle clone.
#[derive(Debug, Clone)]
pub struct CowBox<T> {
    inner: Page<T>,
    /// Un-share count; bookkeeping, not state.
    breaks: u64,
}

impl<T: Default> Default for CowBox<T> {
    fn default() -> Self {
        CowBox {
            inner: Page::shared(T::default()),
            breaks: 0,
        }
    }
}

impl<T> Deref for CowBox<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        self.inner.get()
    }
}

impl<T: Clone + Default> CowBox<T> {
    /// A box holding `value` on a shared page.
    pub fn new(value: T) -> Self {
        CowBox {
            inner: Page::shared(value),
            breaks: 0,
        }
    }

    /// Mutable access, un-sharing the value if it is shared.
    #[inline]
    pub fn make_mut(&mut self) -> &mut T {
        self.inner.get_mut(&mut self.breaks)
    }

    /// Replaces this value with `src`'s by cloning the handle (a copy when
    /// `src` is owned; freeze it first to share).
    pub fn share_from(&mut self, src: &Self) {
        self.inner.clone_from(&src.inner);
    }

    /// Moves an owned value behind a handle so it can be shared.
    pub fn freeze(&mut self) {
        self.inner.freeze();
    }

    /// Copies taken to un-share since the last [`CowBox::take_cow_breaks`].
    pub fn cow_breaks(&self) -> u64 {
        self.breaks
    }

    /// Returns and resets the un-share counter.
    pub fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.breaks)
    }
}

/// Contents-only equality with an `Arc::ptr_eq` fast path.
impl<T: PartialEq> PartialEq for CowBox<T> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}
impl<T: Eq> Eq for CowBox<T> {}

impl<T: BinCode + Clone + Default> BinCode for CowBox<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inner.get().encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Self::new(T::decode(r)?))
    }
}

/// A flat byte store split into fixed-size chunk pages — the backing
/// memory's storage.  The chunk size is the delta snapshot granularity, so
/// a chunk can share its handle three ways: with the sealed pristine image
/// (clean chunks cost nothing to revert), with a checkpoint's delta chunks
/// (captured and restored by handle), and with a fork parent's live chunks.
#[derive(Debug, Clone)]
pub struct CowBytes {
    chunks: Vec<Page<Vec<u8>>>,
    len: usize,
    /// log2 of the chunk size in bytes.
    shift: u32,
    /// Un-share count; bookkeeping, not state.
    breaks: u64,
}

impl CowBytes {
    /// A zeroed store of `len` bytes in shared chunks of `chunk_len` (must
    /// be a power of two); the last chunk may be short.
    pub fn new(len: usize, chunk_len: usize) -> Self {
        assert!(chunk_len.is_power_of_two());
        let shift = chunk_len.trailing_zeros();
        let mut chunks = Vec::with_capacity(len.div_ceil(chunk_len));
        let mut i = 0;
        while i < len {
            let n = chunk_len.min(len - i);
            chunks.push(Page::shared(vec![0u8; n]));
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
        self.chunks[c].get()
    }

    /// Mutable access to chunk `c`'s bytes, un-sharing it if shared.
    #[inline]
    pub fn chunk_mut(&mut self, c: usize) -> &mut [u8] {
        self.chunks[c].get_mut(&mut self.breaks)
    }

    /// Reads the byte at offset `off`.
    #[inline]
    pub fn byte(&self, off: usize) -> u8 {
        let mask = (1usize << self.shift) - 1;
        self.chunks[off >> self.shift].get()[off & mask]
    }

    /// The handle of chunk `c`, for capturing a zero-copy delta snapshot.
    /// Freezes the chunk first if it is owned.
    pub fn chunk_handle(&mut self, c: usize) -> Arc<Vec<u8>> {
        Arc::clone(self.chunks[c].handle())
    }

    /// Whether chunk `c` currently is `handle` — lets a comparison against
    /// a delta chunk skip reading it.
    #[inline]
    pub fn chunk_is(&self, c: usize, handle: &Arc<Vec<u8>>) -> bool {
        matches!(&self.chunks[c], Page::Shared(a) if Arc::ptr_eq(a, handle))
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
            self.chunks[c].get().len(),
            "delta chunk length does not match the memory's chunk size"
        );
        self.chunks[c] = Page::Shared(Arc::clone(handle));
    }

    /// Replaces chunk `c`'s contents with `src`'s chunk `c` by cloning the
    /// handle — the zero-copy revert to a pristine-image chunk.
    pub fn share_chunk_from(&mut self, c: usize, src: &Self) {
        debug_assert_eq!(self.len, src.len);
        self.chunks[c].clone_from(&src.chunks[c]);
    }

    /// Moves every owned chunk behind a handle, so clones and
    /// [`CowBytes::share_from`] share it instead of copying.
    pub fn freeze(&mut self) {
        self.chunks.iter_mut().for_each(Page::freeze);
    }

    /// Replaces the whole store's contents with `src`'s by cloning every
    /// chunk handle — O(chunks), no byte is copied when `src` is frozen.
    pub fn share_from(&mut self, src: &Self) {
        debug_assert_eq!(self.len, src.len);
        debug_assert_eq!(self.shift, src.shift);
        self.chunks.clone_from(&src.chunks);
    }

    /// Whether chunk `c` shares its handle with `other`'s chunk `c` — lets
    /// comparisons skip shared chunks without reading them.
    #[inline]
    pub fn chunk_ptr_eq(&self, c: usize, other: &Self) -> bool {
        self.chunks[c].ptr_eq(&other.chunks[c])
    }

    /// Copies taken to un-share since the last
    /// [`CowBytes::take_cow_breaks`].
    pub fn cow_breaks(&self) -> u64 {
        self.breaks
    }

    /// Returns and resets the un-share counter.
    pub fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.breaks)
    }
}

/// Contents-only equality with a per-chunk `Arc::ptr_eq` fast path.
impl PartialEq for CowBytes {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.chunks == other.chunks
    }
}
impl Eq for CowBytes {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Whether no page of `t` is visible to any other structure.
    fn fully_private<T>(t: &CowTable<T>) -> bool {
        t.pages.iter().all(|p| match p {
            Page::Owned(_) => true,
            Page::Shared(a) => Arc::strong_count(a) == 1,
        })
    }

    #[test]
    fn table_pages_share_until_written() {
        let mut a = CowTable::new(100, 0u64, 16);
        for i in 0..100 {
            *a.get_mut(i) = i as u64;
        }
        a.take_cow_breaks();
        let mut b = CowTable::new(100, 0u64, 16);
        a.freeze();
        b.share_from(&a);
        assert_eq!(a, b);
        assert!(!fully_private(&b));
        // A write to one entry breaks exactly one page.
        *b.get_mut(17) = 999;
        assert_eq!(b.cow_breaks(), 1);
        assert_eq!(*b.get(17), 999);
        assert_eq!(*a.get(17), 17, "parent unaffected by the fork's write");
        assert_ne!(a, b);
        // Rewriting another entry of the same (now owned) page is free.
        *b.get_mut(18) = 1000;
        assert_eq!(b.cow_breaks(), 1);
    }

    #[test]
    fn writes_to_owned_pages_count_no_break() {
        let mut a = CowTable::new(64, 0u32, 16);
        let mut b = CowTable::new(64, 0u32, 16);
        // Construction shares with no one: the first write moves the page
        // out of its handle, and every later write is a plain borrow.
        for round in 0..3 {
            for i in 0..64 {
                *a.get_mut(i) = round;
            }
        }
        assert_eq!(a.cow_breaks(), 0);
        assert!(fully_private(&a));
        // An unfrozen share copies owned pages instead of sharing them.
        b.share_from(&a);
        *a.get_mut(0) = 7;
        *b.get_mut(0) = 9;
        assert_eq!((a.cow_breaks(), b.cow_breaks()), (0, 0));
        assert_eq!((*a.get(0), *b.get(0)), (7, 9));
    }

    #[test]
    fn first_write_after_freeze_breaks_once_with_a_live_sharer() {
        let mut a = CowBox::new((0..4u32).collect::<VecDeque<_>>());
        a.make_mut().push_back(4);
        a.freeze();
        let mut sharer: CowBox<VecDeque<u32>> = CowBox::default();
        sharer.share_from(&a);
        a.make_mut().push_back(5);
        a.make_mut().push_back(6);
        assert_eq!(a.cow_breaks(), 1);
        assert_eq!(sharer.len(), 5, "the sharer keeps the frozen contents");
        // A second freeze-and-write round breaks once more.
        a.freeze();
        sharer.share_from(&a);
        a.make_mut().pop_front();
        assert_eq!(a.take_cow_breaks(), 2);
        assert_eq!(sharer.len(), 7);
    }

    #[test]
    fn shared_page_without_other_holder_unshares_without_a_copy() {
        let mut a = CowTable::new(32, 1u64, 32);
        *a.get_mut(0) = 2;
        let before: *const u64 = a.get(0);
        a.freeze();
        {
            let mut sharer = CowTable::new(32, 0u64, 32);
            sharer.share_from(&a);
            assert!(!fully_private(&a));
        }
        // The sharer is gone: the write takes the page back by move.
        *a.get_mut(1) = 3;
        assert_eq!(a.cow_breaks(), 0);
        assert!(std::ptr::eq(before, a.get(0)), "entries were not copied");
        assert_eq!((*a.get(0), *a.get(1), *a.get(2)), (2, 3, 1));
    }

    #[test]
    fn owned_pages_are_never_ptr_eq() {
        let mut m = CowBytes::new(512, 256);
        assert!(m.chunk_ptr_eq(0, &m), "a shared chunk is its own handle");
        m.chunk_mut(0)[0] = 1;
        assert!(!m.chunk_ptr_eq(0, &m), "an owned chunk matches nothing");
        let copy = m.clone();
        assert!(!m.chunk_ptr_eq(0, &copy));
        assert!(m.chunk_ptr_eq(1, &copy));
        assert_eq!(m, copy, "contents equality does not need the handle");
        let handle = m.chunk_handle(0);
        assert!(
            m.chunk_is(0, &handle),
            "capturing a handle freezes the chunk"
        );
    }

    #[test]
    fn table_share_from_then_writes_unshare_every_page() {
        let a = CowTable::from_fn(50, 8, |i| i as u32);
        let mut b = CowTable::new(50, 0u32, 8);
        b.share_from(&a);
        assert_eq!(a, b);
        assert!(!fully_private(&b));
        // Rewriting one entry per page copies each of the 7 pages once.
        for i in (0..50).step_by(8) {
            let v = *b.get(i);
            *b.get_mut(i) = v;
        }
        assert!(fully_private(&b));
        assert_eq!(a, b);
        assert_eq!(b.cow_breaks(), 7);
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
        assert!(fully_private(&back));
    }

    #[test]
    fn seq_breaks_on_first_write_only() {
        let mut a = CowBox::new((0..5u32).collect::<VecDeque<_>>());
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
        m.freeze();
        let mut pristine = CowBytes::new(1024 + 100, 256);
        pristine.share_from(&m);
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
