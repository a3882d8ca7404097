//! Copy-on-write storage substrate for the structures a faulty suffix
//! mostly leaves unwritten, and the record of how they have diverged from
//! a checkpoint.
//!
//! **CoW only where a suffix leaves pages unwritten.**  Sharing pays when a
//! fork or restore would otherwise copy pages that neither side writes
//! again: the backing memory's bytes, the L1D's tag and byte pages and the
//! L2's tag pages (one set per page), the branch predictor's counters and
//! the BTB.  The structures the core writes nearly every cycle — the
//! physical register file and its ready bits, the free list, the ROB, the
//! fetch buffer, the load and store queues and the dynamic-instance
//! counters — are plain owned arrays: both the fork and the core it came
//! from write them in their first cycle, so sharing them would never save
//! a copy, only add a match and a pointer hop to every access.  So is the
//! output stream, which holds a few words.
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
//! shares shared pages, deep-copies owned ones and starts the copy's own
//! un-share count at 0: the count belongs to the instance that broke the
//! pages, so a restore or fork never counts the source's breaks again.
//!
//! A page whose handle is still `Arc::ptr_eq` to the checkpoint's page is
//! untouched by definition: comparisons skip it without reading it, and
//! the backing memory tells its dirty chunks from its clean ones the same
//! way.  An owned page is never `ptr_eq` to any other page, which is
//! correct: it was written after the last share.  Everything a faulty
//! suffix never writes stays shared across the golden core, its snapshots
//! and every fork.
//!
//! One wrapper, [`CowTable<T>`], holds every such structure: array-shaped,
//! with stable entry indices (predictor counter tables, BTB, cache tags and
//! L1D bytes, and the backing memory's bytes).  Entries live in
//! power-of-two-sized pages; reads index through one extra pointer, writes
//! go through [`CowTable::get_mut`] or [`CowTable::page_mut`].  The
//! page-level accessors let the memory, paged at the delta-snapshot chunk
//! granularity, share a page's handle with a pristine-image chunk or a
//! checkpoint's delta chunk.
//!
//! Sharing is **bookkeeping, not state**: it is never serialised (the
//! `binio` wire formats below re-encode plain `len + elements`,
//! byte-identical to the pre-CoW layouts), and equality compares contents —
//! with an `Arc::ptr_eq` fast path per page.  Each wrapper counts how many
//! pages it copied to un-share (`cow_breaks`), feeding the campaign
//! scheduler's `cow_breaks` telemetry.  The substrate is safe Rust
//! throughout.

use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
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
/// handles, and the page-level accessors let the backing memory share a
/// page with its pristine image or a checkpoint's delta.
#[derive(Debug)]
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
    fn from_fn(len: usize, page_len: usize, mut f: impl FnMut(usize) -> T) -> Self {
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

    /// Number of pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Shared read access to page `c`'s entries.
    #[inline]
    pub fn page(&self, c: usize) -> &[T] {
        self.pages[c].get()
    }

    /// Mutable access to page `c`'s entries, un-sharing it if it is shared.
    #[inline]
    pub fn page_mut(&mut self, c: usize) -> &mut [T] {
        self.pages[c].get_mut(&mut self.breaks)
    }

    /// The handle of page `c`, for capturing it without a copy.  Freezes
    /// the page first if it is owned.
    pub fn page_handle(&mut self, c: usize) -> Arc<Vec<T>> {
        Arc::clone(self.pages[c].handle())
    }

    /// Whether page `c` currently is `handle` — lets a comparison against
    /// a captured page skip reading it.
    #[inline]
    pub fn page_is(&self, c: usize, handle: &Arc<Vec<T>>) -> bool {
        matches!(&self.pages[c], Page::Shared(a) if Arc::ptr_eq(a, handle))
    }

    /// Whether page `c` shares its handle with `other`'s page `c` — lets
    /// comparisons skip shared pages without reading them.
    #[inline]
    pub fn page_ptr_eq(&self, c: usize, other: &Self) -> bool {
        self.pages[c].ptr_eq(&other.pages[c])
    }

    /// Replaces page `c`'s contents with the entries behind `handle` by
    /// cloning the handle — the zero-copy restore of a captured page.
    ///
    /// # Panics
    ///
    /// Panics if `handle`'s length differs from the page's (a corrupt
    /// memory delta would otherwise silently change the table's length).
    pub fn set_page_handle(&mut self, c: usize, handle: &Arc<Vec<T>>) {
        assert_eq!(
            handle.len(),
            self.pages[c].get().len(),
            "page handle length does not match the page's length"
        );
        self.pages[c] = Page::Shared(Arc::clone(handle));
    }

    /// Replaces page `c`'s contents with `src`'s page `c` by cloning the
    /// handle — the zero-copy revert to a pristine-image page.
    pub fn share_page_from(&mut self, c: usize, src: &Self) {
        debug_assert_eq!(self.len, src.len);
        debug_assert_eq!(self.shift, src.shift);
        self.pages[c].clone_from(&src.pages[c]);
    }
}

/// Shares shared pages and deep-copies owned ones; the copy starts its own
/// un-share count at 0, so a restore or fork does not count the source's
/// pending breaks a second time.
impl<T: Clone> Clone for CowTable<T> {
    fn clone(&self) -> Self {
        CowTable {
            pages: self.pages.clone(),
            len: self.len,
            shift: self.shift,
            breaks: 0,
        }
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
        let v = Vec::<T>::decode(r)?;
        let len = v.len();
        let mut it = v.into_iter();
        Ok(Self::from_fn(len, page_len, |_| {
            it.next().expect("length just measured")
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut m = CowTable::new(512, 0u8, 256);
        assert!(m.page_ptr_eq(0, &m), "a shared page is its own handle");
        *m.get_mut(0) = 1;
        assert!(!m.page_ptr_eq(0, &m), "an owned page matches nothing");
        let copy = m.clone();
        assert!(!m.page_ptr_eq(0, &copy));
        assert!(m.page_ptr_eq(1, &copy));
        assert_eq!(m, copy, "contents equality does not need the handle");
        let handle = m.page_handle(0);
        assert!(m.page_is(0, &handle), "capturing a handle freezes the page");
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
        let t = CowTable::from_fn(v.len(), 8, |i| v[i]);
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
    fn bytes_chunks_share_with_pristine_and_break_on_write() {
        let mut m = CowTable::new(1024 + 100, 0u8, 256);
        assert_eq!(m.page_count(), 5);
        *m.get_mut(256 + 3) = 7;
        m.freeze();
        let mut pristine = CowTable::new(1024 + 100, 0u8, 256);
        pristine.share_from(&m);
        m.take_cow_breaks();
        *m.get_mut(256 + 3) = 9;
        assert_eq!(m.cow_breaks(), 1);
        assert_eq!(pristine.page(1)[3], 7);
        assert_eq!(*m.get(256 + 3), 9);
        assert!(!m.page_ptr_eq(1, &pristine));
        assert!(m.page_ptr_eq(0, &pristine));
        // Handle-revert makes the page pristine again without a copy.
        m.share_page_from(1, &pristine);
        assert_eq!(m, pristine);
        assert!(m.page_ptr_eq(1, &pristine));
        // Short last page keeps its physical size across handle swaps.
        assert_eq!(m.page(4).len(), 100);
    }

    #[test]
    #[should_panic(expected = "page handle length")]
    fn bytes_rejects_mis_sized_chunk_handles() {
        let mut m = CowTable::new(1024, 0u8, 256);
        let wrong = Arc::new(vec![0u8; 17]);
        m.set_page_handle(0, &wrong);
    }

    #[test]
    fn a_clone_starts_its_own_unshare_count() {
        let mut t = CowTable::new(64, 0u32, 16);
        let _sharer = t.clone();
        *t.get_mut(0) = 1;
        *t.get_mut(16) = 1;
        assert_eq!(t.cow_breaks(), 2);
        let copy = t.clone();
        assert_eq!(copy.cow_breaks(), 0, "the table's count stays with it");
        assert_eq!(t.cow_breaks(), 2);
        assert_eq!(copy, t);
    }
}
