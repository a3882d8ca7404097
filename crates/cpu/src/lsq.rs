//! Load queue and store queue.
//!
//! The store queue's *data field* is one of the paper's fault-injection
//! targets: store-data micro-ops physically deposit the value to be stored
//! in the slot, loads may forward from it, and the value is read out again
//! when the store drains to the cache at commit.  Slots are allocated
//! circularly so a fault specification's entry index denotes a physical slot.

use crate::cow::CowTable;
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::{MemSize, Rip, Upc};

/// Copy-on-write page size for the queue slot arrays, in slots.
const LSQ_PAGE: usize = 16;

/// One store-queue slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqSlot {
    /// Whether the slot currently holds an in-flight store.
    pub valid: bool,
    /// Sequence number of the owning store's STA micro-op.
    pub seq: u64,
    /// Effective address once the STA micro-op has executed.
    pub addr: Option<u64>,
    /// Access width.
    pub size: MemSize,
    /// The data field (fault-injection target).
    pub data: u64,
    /// Whether the STD micro-op has deposited the data.
    pub data_ready: bool,
    /// RIP of the owning store.
    pub rip: Rip,
    /// uPC of the store-data micro-op (the reader attributed when the store
    /// drains or forwards).
    pub upc_std: Upc,
}

impl SqSlot {
    fn empty() -> Self {
        SqSlot {
            valid: false,
            seq: 0,
            addr: None,
            size: MemSize::B8,
            data: 0,
            data_ready: false,
            rip: 0,
            upc_std: 0,
        }
    }
}

impl BinCode for SqSlot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.valid.encode(out);
        self.seq.encode(out);
        self.addr.encode(out);
        self.size.encode(out);
        self.data.encode(out);
        self.data_ready.encode(out);
        self.rip.encode(out);
        self.upc_std.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(SqSlot {
            valid: BinCode::decode(r)?,
            seq: BinCode::decode(r)?,
            addr: BinCode::decode(r)?,
            size: BinCode::decode(r)?,
            data: BinCode::decode(r)?,
            data_ready: BinCode::decode(r)?,
            rip: BinCode::decode(r)?,
            upc_std: BinCode::decode(r)?,
        })
    }
}

/// Circular store queue.  Slots live on copy-on-write pages, so restores
/// and forks share them structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreQueue {
    slots: CowTable<SqSlot>,
    head: usize,
    tail: usize,
    count: usize,
}

impl StoreQueue {
    /// Creates a store queue with `n` slots.
    pub fn new(n: usize) -> Self {
        StoreQueue {
            slots: CowTable::from_fn(n, LSQ_PAGE, |_| SqSlot::empty()),
            head: 0,
            tail: 0,
            count: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no stores are in flight.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `true` when no more stores can be dispatched.
    pub fn is_full(&self) -> bool {
        self.count == self.capacity()
    }

    /// Allocates the next slot (at the tail) for a store with the given
    /// sequence number; returns the physical slot index.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full (the dispatcher must check first).
    pub fn allocate(&mut self, seq: u64, rip: Rip) -> usize {
        assert!(!self.is_full(), "store queue overflow");
        let slot = self.tail;
        *self.slots.get_mut(slot) = SqSlot {
            valid: true,
            seq,
            addr: None,
            size: MemSize::B8,
            data: 0,
            data_ready: false,
            rip,
            upc_std: 1,
        };
        self.tail = (self.tail + 1) % self.capacity();
        self.count += 1;
        slot
    }

    /// Frees the oldest store (commit-time drain).
    ///
    /// # Panics
    ///
    /// Panics if the freed slot is not the oldest valid slot.
    pub fn release_head(&mut self, slot: usize) {
        assert_eq!(slot, self.head, "stores must drain in order");
        assert!(self.slots.get(slot).valid);
        self.slots.get_mut(slot).valid = false;
        self.head = (self.head + 1) % self.capacity();
        self.count -= 1;
    }

    /// Frees the youngest store (squash recovery).
    ///
    /// # Panics
    ///
    /// Panics if the freed slot is not the youngest valid slot.
    pub fn release_tail(&mut self, slot: usize) {
        let youngest = (self.tail + self.capacity() - 1) % self.capacity();
        assert_eq!(slot, youngest, "squash must free stores youngest-first");
        assert!(self.slots.get(slot).valid);
        self.slots.get_mut(slot).valid = false;
        self.tail = youngest;
        self.count -= 1;
    }

    /// Immutable access to a slot.
    pub fn slot(&self, idx: usize) -> &SqSlot {
        self.slots.get(idx)
    }

    /// Mutable access to a slot (breaks its page's sharing — callers take
    /// this only to write).
    pub fn slot_mut(&mut self, idx: usize) -> &mut SqSlot {
        self.slots.get_mut(idx)
    }

    /// Iterates over the valid slots (any order).
    pub fn valid_slots(&self) -> impl Iterator<Item = (usize, &SqSlot)> {
        self.slots.iter().enumerate().filter(|(_, s)| s.valid)
    }

    /// Checks whether every older (by sequence number) valid store has a
    /// known address — the conservative memory-disambiguation condition a
    /// load must satisfy before issuing.
    pub fn older_addresses_known(&self, load_seq: u64) -> bool {
        self.valid_slots()
            .filter(|(_, s)| s.seq < load_seq)
            .all(|(_, s)| s.addr.is_some())
    }

    /// Finds the youngest older store that overlaps `[addr, addr+len)`.
    /// Returns `(slot index, fully_covers)`.
    pub fn forwarding_candidate(
        &self,
        load_seq: u64,
        addr: u64,
        len: u64,
    ) -> Option<(usize, bool)> {
        let mut best: Option<(usize, u64, bool)> = None;
        for (i, s) in self.valid_slots() {
            if s.seq >= load_seq {
                continue;
            }
            let Some(saddr) = s.addr else { continue };
            let slen = s.size.bytes();
            let overlap = saddr < addr + len && addr < saddr + slen;
            if !overlap {
                continue;
            }
            let covers = saddr <= addr && saddr + slen >= addr + len;
            if best.is_none_or(|(_, bseq, _)| s.seq > bseq) {
                best = Some((i, s.seq, covers));
            }
        }
        best.map(|(i, _, covers)| (i, covers))
    }

    /// Flips one bit of a slot's data field — the store-queue fault-injection
    /// hook.  Applies regardless of slot validity; a flip in an invalid slot
    /// or one whose data has not arrived is overwritten before any read
    /// (see [`Cpu::fault_site_dead`](crate::Cpu::fault_site_dead)).
    pub fn flip_bit(&mut self, slot: usize, bit: u8) {
        self.slots.get_mut(slot).data ^= 1u64 << bit;
    }

    /// Makes `self` equal to `src` by sharing its page handles.
    pub(crate) fn share_from(&mut self, src: &Self) {
        self.head = src.head;
        self.tail = src.tail;
        self.count = src.count;
        self.slots.share_from(&src.slots);
    }

    /// Moves every owned page behind a handle, so it can be shared.
    pub(crate) fn freeze(&mut self) {
        self.slots.freeze();
    }

    /// Un-share counter of the slot array, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.slots.take_cow_breaks()
    }

    /// Materialises private copies of all shared pages.
    pub(crate) fn unshare_all(&mut self) {
        self.slots.unshare_all();
    }

    /// Whether no page is shared with any other queue.
    pub(crate) fn fully_private(&self) -> bool {
        self.slots.fully_private()
    }
}

impl BinCode for StoreQueue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slots.encode_seq(out);
        self.head.encode(out);
        self.tail.encode(out);
        self.count.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let slots = CowTable::<SqSlot>::decode_seq(r, LSQ_PAGE)?;
        let head = usize::decode(r)?;
        let tail = usize::decode(r)?;
        let count = usize::decode(r)?;
        if slots.is_empty()
            || head >= slots.len()
            || tail >= slots.len()
            || count > slots.len()
            || count != slots.iter().filter(|s| s.valid).count()
        {
            return Err(DecodeError::Invalid("store queue shape"));
        }
        Ok(StoreQueue {
            slots,
            head,
            tail,
            count,
        })
    }
}

/// Load queue: only tracks occupancy (Gem5 models no data field in the load
/// queue, and neither does the paper).  Slots live on copy-on-write pages
/// like the store queue's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadQueue {
    seqs: CowTable<Option<u64>>,
    count: usize,
}

impl LoadQueue {
    /// Creates a load queue with `n` slots.
    pub fn new(n: usize) -> Self {
        LoadQueue {
            seqs: CowTable::new(n, None, LSQ_PAGE),
            count: 0,
        }
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no loads are in flight.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// `true` when no more loads can be dispatched.
    pub fn is_full(&self) -> bool {
        self.count == self.seqs.len()
    }

    /// Allocates a slot for the load with sequence number `seq`.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full.
    pub fn allocate(&mut self, seq: u64) -> usize {
        assert!(!self.is_full(), "load queue overflow");
        let slot = self
            .seqs
            .iter()
            .position(|s| s.is_none())
            .expect("free load-queue slot");
        *self.seqs.get_mut(slot) = Some(seq);
        self.count += 1;
        slot
    }

    /// Releases the slot of the load with sequence number `seq` (commit or
    /// squash).
    pub fn release(&mut self, slot: usize) {
        if self.seqs.get(slot).is_some() {
            *self.seqs.get_mut(slot) = None;
            self.count -= 1;
        }
    }

    /// Makes `self` equal to `src` by sharing its page handles.
    pub(crate) fn share_from(&mut self, src: &Self) {
        self.count = src.count;
        self.seqs.share_from(&src.seqs);
    }

    /// Moves every owned page behind a handle, so it can be shared.
    pub(crate) fn freeze(&mut self) {
        self.seqs.freeze();
    }

    /// Un-share counter of the slot array, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.seqs.take_cow_breaks()
    }

    /// Materialises private copies of all shared pages.
    pub(crate) fn unshare_all(&mut self) {
        self.seqs.unshare_all();
    }

    /// Whether no page is shared with any other queue.
    pub(crate) fn fully_private(&self) -> bool {
        self.seqs.fully_private()
    }
}

impl BinCode for LoadQueue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seqs.encode_seq(out);
        self.count.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let seqs = CowTable::<Option<u64>>::decode_seq(r, LSQ_PAGE)?;
        let count = usize::decode(r)?;
        if count != seqs.iter().filter(|s| s.is_some()).count() {
            return Err(DecodeError::Invalid("load queue count"));
        }
        Ok(LoadQueue { seqs, count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_allocation_and_ordered_release() {
        let mut sq = StoreQueue::new(4);
        let a = sq.allocate(10, 1);
        let b = sq.allocate(11, 2);
        let c = sq.allocate(12, 3);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(sq.len(), 3);
        sq.release_head(a);
        sq.release_head(b);
        let d = sq.allocate(13, 4);
        let e = sq.allocate(14, 5);
        assert_eq!(d, 3);
        assert_eq!(e, 0, "allocation wraps around");
        assert!(!sq.is_full());
        sq.allocate(15, 6);
        assert!(sq.is_full());
    }

    #[test]
    fn squash_releases_youngest_first() {
        let mut sq = StoreQueue::new(4);
        let a = sq.allocate(1, 0);
        let b = sq.allocate(2, 0);
        sq.release_tail(b);
        sq.release_tail(a);
        assert!(sq.is_empty());
        // Queue is usable again.
        assert_eq!(sq.allocate(3, 0), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_head_release_panics() {
        let mut sq = StoreQueue::new(4);
        let _a = sq.allocate(1, 0);
        let b = sq.allocate(2, 0);
        sq.release_head(b);
    }

    #[test]
    fn forwarding_picks_youngest_covering_store() {
        let mut sq = StoreQueue::new(8);
        let s0 = sq.allocate(10, 0);
        sq.slot_mut(s0).addr = Some(0x1000);
        sq.slot_mut(s0).size = MemSize::B8;
        sq.slot_mut(s0).data = 0xAAAA;
        sq.slot_mut(s0).data_ready = true;
        let s1 = sq.allocate(20, 0);
        sq.slot_mut(s1).addr = Some(0x1000);
        sq.slot_mut(s1).size = MemSize::B8;
        sq.slot_mut(s1).data = 0xBBBB;
        sq.slot_mut(s1).data_ready = true;
        // A load younger than both forwards from the youngest older store.
        let (slot, covers) = sq.forwarding_candidate(30, 0x1000, 8).unwrap();
        assert_eq!(slot, s1);
        assert!(covers);
        // A load between the two stores only sees the older one.
        let (slot, _) = sq.forwarding_candidate(15, 0x1000, 8).unwrap();
        assert_eq!(slot, s0);
        // Partial overlap is flagged as not covering.
        let (_, covers) = sq.forwarding_candidate(30, 0x1004, 8).unwrap();
        assert!(!covers);
        // No overlap at all.
        assert!(sq.forwarding_candidate(30, 0x2000, 8).is_none());
    }

    #[test]
    fn older_address_disambiguation() {
        let mut sq = StoreQueue::new(4);
        let s0 = sq.allocate(5, 0);
        assert!(!sq.older_addresses_known(10));
        sq.slot_mut(s0).addr = Some(0x1000);
        assert!(sq.older_addresses_known(10));
        // Stores younger than the load do not matter.
        let _s1 = sq.allocate(20, 0);
        assert!(sq.older_addresses_known(10));
    }

    #[test]
    fn flip_bit_touches_only_data_field() {
        let mut sq = StoreQueue::new(2);
        let s = sq.allocate(1, 0);
        sq.slot_mut(s).data = 0;
        sq.flip_bit(s, 7);
        assert_eq!(sq.slot(s).data, 1 << 7);
        assert_eq!(sq.slot(s).addr, None);
    }

    #[test]
    fn load_queue_capacity() {
        let mut lq = LoadQueue::new(2);
        assert!(lq.is_empty());
        let a = lq.allocate(1);
        let b = lq.allocate(2);
        assert!(lq.is_full());
        lq.release(a);
        assert_eq!(lq.len(), 1);
        lq.release(b);
        assert!(lq.is_empty());
    }
}
