//! The store queue's ring walks against whole-table scans.
//!
//! `StoreQueue::older_addresses_known` and `forwarding_candidate` visit only
//! the valid slots, oldest-first from the head or youngest-first from the
//! tail, and stop early.  The oracle below is the scan they replaced: every
//! slot, valid or not, filtered by sequence number.  Random sequences of
//! allocations (with sequence-number gaps, as squashes leave them), address
//! writes and head/tail releases drive both, and after every operation a
//! few random loads must get the same answers from each.

use merlin_cpu::StoreQueue;
use merlin_isa::MemSize;
use proptest::prelude::*;

/// The disambiguation check as a scan over every valid slot.
fn oracle_older_addresses_known(sq: &StoreQueue, load_seq: u64) -> bool {
    sq.valid_slots()
        .filter(|(_, s)| s.seq < load_seq)
        .all(|(_, s)| s.addr.is_some())
}

/// The youngest older overlapping store, as a scan over every valid slot.
fn oracle_forwarding_candidate(
    sq: &StoreQueue,
    load_seq: u64,
    addr: u64,
    len: u64,
) -> Option<(usize, bool)> {
    let mut best: Option<(usize, u64, bool)> = None;
    for (i, s) in sq.valid_slots() {
        if s.seq >= load_seq {
            continue;
        }
        let Some(saddr) = s.addr else { continue };
        let slen = s.size.bytes();
        if !(saddr < addr + len && addr < saddr + slen) {
            continue;
        }
        let covers = saddr <= addr && saddr + slen >= addr + len;
        if best.is_none_or(|(_, bseq, _)| s.seq > bseq) {
            best = Some((i, s.seq, covers));
        }
    }
    best.map(|(i, _, covers)| (i, covers))
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a store `gap` sequence numbers after the last one.
    Allocate {
        gap: u64,
    },
    /// Give the `k`-th valid store (oldest-first, modulo the count) an
    /// address and a size.
    SetAddress {
        k: usize,
        addr: u64,
        size: MemSize,
    },
    ReleaseHead,
    ReleaseTail,
}

fn arb_size() -> impl Strategy<Value = MemSize> {
    prop::sample::select(vec![MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..4).prop_map(|gap| Op::Allocate { gap }),
        (1u64..4).prop_map(|gap| Op::Allocate { gap }),
        (0usize..16, 0u64..48, arb_size()).prop_map(|(k, addr, size)| Op::SetAddress {
            k,
            addr,
            size
        }),
        (0usize..16, 0u64..48, arb_size()).prop_map(|(k, addr, size)| Op::SetAddress {
            k,
            addr,
            size
        }),
        Just(Op::ReleaseHead),
        Just(Op::ReleaseTail),
    ]
}

/// A load: where its sequence number falls, in sevenths of the span from
/// before the oldest store to after the youngest, its address and size.
fn arb_load() -> impl Strategy<Value = (u64, u64, MemSize)> {
    (0u64..8, 0u64..48, arb_size())
}

/// The valid slots oldest-first, from the oracle's view: by sequence number.
fn valid_by_age(sq: &StoreQueue) -> Vec<usize> {
    let mut slots: Vec<(u64, usize)> = sq.valid_slots().map(|(i, s)| (s.seq, i)).collect();
    slots.sort_unstable();
    slots.into_iter().map(|(_, i)| i).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_walks_match_whole_table_scans(
        capacity in 1usize..10,
        ops in prop::collection::vec((arb_op(), arb_load(), arb_load()), 1..80),
    ) {
        let mut sq = StoreQueue::new(capacity);
        let mut next_seq = 10;
        for (op, load_a, load_b) in &ops {
            let by_age = valid_by_age(&sq);
            match *op {
                Op::Allocate { gap } if !sq.is_full() => {
                    next_seq += gap;
                    sq.allocate(next_seq, 0);
                }
                Op::SetAddress { k, addr, size } if !by_age.is_empty() => {
                    let slot = sq.slot_mut(by_age[k % by_age.len()]);
                    slot.addr = Some(addr);
                    slot.size = size;
                }
                Op::ReleaseHead if !by_age.is_empty() => sq.release_head(by_age[0]),
                Op::ReleaseTail if !by_age.is_empty() => {
                    sq.release_tail(by_age[by_age.len() - 1]);
                }
                _ => {}
            }
            let by_age = valid_by_age(&sq);
            // Loads from before the oldest store to after the youngest.
            let oldest = by_age.first().map_or(next_seq, |&i| sq.slot(i).seq);
            for &(offset, addr, size) in [load_a, load_b] {
                let load_seq = oldest - 1 + offset * (next_seq + 2 - oldest) / 7;
                prop_assert_eq!(
                    sq.older_addresses_known(load_seq),
                    oracle_older_addresses_known(&sq, load_seq)
                );
                prop_assert_eq!(
                    sq.forwarding_candidate(load_seq, addr, size.bytes()),
                    oracle_forwarding_candidate(&sq, load_seq, addr, size.bytes())
                );
            }
        }
    }
}
