//! The store queue.  The load queue has no data field (neither gem5's nor
//! the paper's), so the core models it only as a dispatch limit on the
//! loads in the ROB.
//!
//! The store queue's *data field* is one of the paper's fault-injection
//! targets: store-data micro-ops physically deposit the value to be stored
//! in the slot, loads may forward from it, and the value is read out again
//! when the store drains to the cache at commit.  Slots are allocated
//! circularly so a fault specification's entry index denotes a physical slot.

use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::MemSize;

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
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(SqSlot {
            valid: BinCode::decode(r)?,
            seq: BinCode::decode(r)?,
            addr: BinCode::decode(r)?,
            size: BinCode::decode(r)?,
            data: BinCode::decode(r)?,
            data_ready: BinCode::decode(r)?,
        })
    }
}

/// Circular store queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreQueue {
    slots: Vec<SqSlot>,
    head: usize,
    tail: usize,
    count: usize,
}

impl StoreQueue {
    /// Creates a store queue with `n` slots.
    pub fn new(n: usize) -> Self {
        StoreQueue {
            slots: vec![SqSlot::empty(); n],
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
    pub fn allocate(&mut self, seq: u64) -> usize {
        assert!(!self.is_full(), "store queue overflow");
        let slot = self.tail;
        self.slots[slot] = SqSlot {
            valid: true,
            seq,
            addr: None,
            size: MemSize::B8,
            data: 0,
            data_ready: false,
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
        assert!(self.slots[slot].valid);
        self.slots[slot].valid = false;
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
        assert!(self.slots[slot].valid);
        self.slots[slot].valid = false;
        self.tail = youngest;
        self.count -= 1;
    }

    /// Immutable access to a slot.
    pub fn slot(&self, idx: usize) -> &SqSlot {
        &self.slots[idx]
    }

    /// Mutable access to a slot.
    pub fn slot_mut(&mut self, idx: usize) -> &mut SqSlot {
        &mut self.slots[idx]
    }

    /// Iterates over the valid slots (any order).
    pub fn valid_slots(&self) -> impl Iterator<Item = (usize, &SqSlot)> {
        self.slots.iter().enumerate().filter(|(_, s)| s.valid)
    }

    /// The valid slots oldest-first: the `count` slots from `head`, which
    /// hold their stores in increasing sequence-number order, since
    /// [`Self::allocate`] appends at the tail and stores leave only from the
    /// head (commit) or the tail (squash).
    fn ring(&self) -> impl DoubleEndedIterator<Item = (usize, &SqSlot)> {
        let cap = self.capacity();
        (self.head..self.head + self.count).map(move |i| {
            let i = if i >= cap { i - cap } else { i };
            (i, &self.slots[i])
        })
    }

    /// Checks whether every older (by sequence number) valid store has a
    /// known address — the conservative memory-disambiguation condition a
    /// load must satisfy before issuing.  Walks the ring from the oldest
    /// store and stops at the first one that is not older than the load.
    pub fn older_addresses_known(&self, load_seq: u64) -> bool {
        self.ring()
            .take_while(|(_, s)| s.seq < load_seq)
            .all(|(_, s)| s.addr.is_some())
    }

    /// Finds the youngest older store that overlaps `[addr, addr+len)`.
    /// Returns `(slot index, fully_covers)`.  Walks the ring backwards from
    /// the youngest store older than the load and returns the first overlap.
    pub fn forwarding_candidate(
        &self,
        load_seq: u64,
        addr: u64,
        len: u64,
    ) -> Option<(usize, bool)> {
        self.ring()
            .rev()
            .skip_while(|(_, s)| s.seq >= load_seq)
            .find_map(|(i, s)| {
                let saddr = s.addr?;
                let slen = s.size.bytes();
                let overlap = saddr < addr + len && addr < saddr + slen;
                let covers = saddr <= addr && saddr + slen >= addr + len;
                overlap.then_some((i, covers))
            })
    }

    /// Flips one bit of a slot's data field — the store-queue fault-injection
    /// hook.  Applies regardless of slot validity; a flip in an invalid slot
    /// or one whose data has not arrived is overwritten before any read
    /// (see [`Cpu::fault_site_dead`](crate::Cpu::fault_site_dead)).
    pub fn flip_bit(&mut self, slot: usize, bit: u8) {
        self.slots[slot].data ^= 1u64 << bit;
    }
}

impl BinCode for StoreQueue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slots.encode(out);
        self.head.encode(out);
        self.tail.encode(out);
        self.count.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let slots = Vec::<SqSlot>::decode(r)?;
        let head = usize::decode(r)?;
        let tail = usize::decode(r)?;
        let count = usize::decode(r)?;
        if slots.is_empty()
            || head >= slots.len()
            || tail >= slots.len()
            || count > slots.len()
            || tail != (head + count) % slots.len()
        {
            return Err(DecodeError::Invalid("store queue shape"));
        }
        let sq = StoreQueue {
            slots,
            head,
            tail,
            count,
        };
        // The ring walks of `older_addresses_known` and
        // `forwarding_candidate` visit only the `count` slots from `head`,
        // and rely on their sequence numbers ascending.
        let in_ring = sq.ring().all(|(_, s)| s.valid);
        let ascending = sq
            .ring()
            .zip(sq.ring().skip(1))
            .all(|((_, a), (_, b))| a.seq < b.seq);
        if !in_ring || !ascending || sq.count != sq.valid_slots().count() {
            return Err(DecodeError::Invalid("store queue ring"));
        }
        Ok(sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circular_allocation_and_ordered_release() {
        let mut sq = StoreQueue::new(4);
        let a = sq.allocate(10);
        let b = sq.allocate(11);
        let c = sq.allocate(12);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(sq.len(), 3);
        sq.release_head(a);
        sq.release_head(b);
        let d = sq.allocate(13);
        let e = sq.allocate(14);
        assert_eq!(d, 3);
        assert_eq!(e, 0, "allocation wraps around");
        assert!(!sq.is_full());
        sq.allocate(15);
        assert!(sq.is_full());
    }

    #[test]
    fn squash_releases_youngest_first() {
        let mut sq = StoreQueue::new(4);
        let a = sq.allocate(1);
        let b = sq.allocate(2);
        sq.release_tail(b);
        sq.release_tail(a);
        assert!(sq.is_empty());
        // Queue is usable again.
        assert_eq!(sq.allocate(3), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_head_release_panics() {
        let mut sq = StoreQueue::new(4);
        let _a = sq.allocate(1);
        let b = sq.allocate(2);
        sq.release_head(b);
    }

    #[test]
    fn forwarding_picks_youngest_covering_store() {
        let mut sq = StoreQueue::new(8);
        let s0 = sq.allocate(10);
        sq.slot_mut(s0).addr = Some(0x1000);
        sq.slot_mut(s0).size = MemSize::B8;
        sq.slot_mut(s0).data = 0xAAAA;
        sq.slot_mut(s0).data_ready = true;
        let s1 = sq.allocate(20);
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
        let s0 = sq.allocate(5);
        assert!(!sq.older_addresses_known(10));
        sq.slot_mut(s0).addr = Some(0x1000);
        assert!(sq.older_addresses_known(10));
        // Stores younger than the load do not matter.
        let _s1 = sq.allocate(20);
        assert!(sq.older_addresses_known(10));
    }

    #[test]
    fn flip_bit_touches_only_data_field() {
        let mut sq = StoreQueue::new(2);
        let s = sq.allocate(1);
        sq.slot_mut(s).data = 0;
        sq.flip_bit(s, 7);
        assert_eq!(sq.slot(s).data, 1 << 7);
        assert_eq!(sq.slot(s).addr, None);
    }

    #[test]
    fn decode_rejects_a_store_queue_that_is_not_a_ring() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        // Capacity 4; `slots` lists `(slot, seq, valid)` for the slots that
        // are not blank.
        let encode = |slots: &[(usize, u64, bool)], head: usize, tail: usize, count: usize| {
            let mut table = vec![SqSlot::empty(); 4];
            for &(i, seq, valid) in slots {
                table[i].seq = seq;
                table[i].valid = valid;
            }
            let mut bytes = encode_to_vec(&table);
            head.encode(&mut bytes);
            tail.encode(&mut bytes);
            count.encode(&mut bytes);
            bytes
        };
        let decode = |bytes: Vec<u8>| decode_from_slice::<StoreQueue>(&bytes);
        // A wrapped queue: slots 2, 3 and 0 from head 2.
        let mut sq = StoreQueue::new(4);
        for seq in [1, 2, 3] {
            sq.allocate(seq);
        }
        sq.release_head(0);
        sq.release_head(1);
        sq.allocate(5);
        sq.allocate(8);
        assert_eq!(decode(encode_to_vec(&sq)).unwrap(), sq);
        let ring = decode(encode(&[(2, 3, true), (3, 5, true), (0, 8, true)], 2, 1, 3)).unwrap();
        assert_eq!(ring.len(), 3);
        assert!(decode(encode(&[], 1, 1, 0)).is_ok());
        // Each encoding breaks one rule only.
        for (what, bytes) in [
            (
                "a released slot inside the ring, a valid one outside",
                encode(&[(0, 1, true), (1, 2, false), (2, 3, true)], 0, 2, 2),
            ),
            (
                "tail not head + count",
                encode(&[(0, 1, true), (1, 2, true)], 0, 3, 2),
            ),
            ("tail not head + count", encode(&[], 2, 3, 0)),
            (
                "count not the valid slots",
                encode(&[(0, 1, true)], 0, 0, 0),
            ),
            (
                "sequence numbers not ascending",
                encode(&[(3, 7, true), (0, 6, true)], 3, 1, 2),
            ),
        ] {
            assert!(
                matches!(decode(bytes), Err(DecodeError::Invalid(_))),
                "{what} must be rejected"
            );
        }
    }
}
