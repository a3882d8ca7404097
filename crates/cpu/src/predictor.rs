//! Branch direction predictor and branch target buffer.
//!
//! Prediction exists so that the core executes *wrong-path* micro-ops that
//! later get squashed — the paper's ACE-like interval definition explicitly
//! excludes reads performed by squashed instructions, so a reproduction
//! without wrong-path execution would have nothing to exclude.

use crate::cow::CowTable;
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::Rip;
use std::collections::HashSet;

/// Copy-on-write page size for the direction counter tables, in counters.
const COUNTER_PAGE: usize = 512;

/// Copy-on-write page size for the BTB entry array, in entries.
const BTB_PAGE: usize = 128;

/// Branch outcomes the gshare table's global history holds.
const HISTORY_BITS: u32 = 12;

/// Slots of a table configured with `entries`: rounded up to a power of
/// two, at least 16.
fn table_len(entries: usize) -> usize {
    entries.next_power_of_two().max(16)
}

/// A 2-bit saturating counter direction predictor (bimodal) combined with a
/// global-history gshare table; the stronger of the two provides the
/// prediction, loosely mirroring the tournament predictor of Table 1.
///
/// Both counter tables live on copy-on-write pages, so restores and forks
/// share them structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    bimodal: CowTable<u8>,
    gshare: CowTable<u8>,
    history: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters per table (rounded up to a
    /// power of two).
    pub fn new(entries: usize) -> Self {
        let n = table_len(entries);
        BranchPredictor {
            bimodal: CowTable::new(n, 2, COUNTER_PAGE),
            gshare: CowTable::new(n, 2, COUNTER_PAGE),
            history: 0,
        }
    }

    fn bimodal_index(&self, rip: Rip) -> usize {
        (rip as usize) & (self.bimodal.len() - 1)
    }

    fn gshare_index(&self, rip: Rip) -> usize {
        ((rip as u64 ^ self.history) as usize) & (self.gshare.len() - 1)
    }

    /// Predicts the direction of the conditional branch at `rip`.
    pub fn predict(&self, rip: Rip) -> bool {
        let b = *self.bimodal.get(self.bimodal_index(rip));
        let g = *self.gshare.get(self.gshare_index(rip));
        // "Tournament": trust whichever table is more confident; ties go to
        // the global-history table.
        let (bc, gc) = (confidence(b), confidence(g));
        if bc > gc {
            b >= 2
        } else {
            g >= 2
        }
    }

    /// Updates the predictor with the resolved direction of the branch at
    /// `rip`.
    pub fn update(&mut self, rip: Rip, taken: bool) {
        let bi = self.bimodal_index(rip);
        let gi = self.gshare_index(rip);
        *self.bimodal.get_mut(bi) = bump(*self.bimodal.get(bi), taken);
        *self.gshare.get_mut(gi) = bump(*self.gshare.get(gi), taken);
        self.history = ((self.history << 1) | taken as u64) & ((1 << HISTORY_BITS) - 1);
    }

    /// Whether the tables are the size [`Self::new`] builds for `entries`.
    pub(crate) fn fits(&self, entries: usize) -> bool {
        self.bimodal.len() == table_len(entries)
    }

    /// Moves every owned page behind a handle, so it can be shared.
    pub(crate) fn freeze(&mut self) {
        self.bimodal.freeze();
        self.gshare.freeze();
    }

    /// Un-share counters of both tables, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.bimodal.take_cow_breaks() + self.gshare.take_cow_breaks()
    }

    /// Takes `prev`'s handle for every counter page equal to this one's.
    pub(crate) fn share_equal_pages(&mut self, prev: &Self) {
        self.bimodal.share_equal_pages(&prev.bimodal);
        self.gshare.share_equal_pages(&prev.gshare);
    }

    /// Bytes of the counter pages `seen` does not hold yet (see
    /// [`CowTable::unseen_page_bytes`]).
    pub(crate) fn unseen_page_bytes(&self, seen: &mut HashSet<*const ()>) -> usize {
        self.bimodal.unseen_page_bytes(seen) + self.gshare.unseen_page_bytes(seen)
    }
}

impl BinCode for BranchPredictor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bimodal.encode_seq(out);
        self.gshare.encode_seq(out);
        self.history.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let bimodal = CowTable::<u8>::decode_seq(r, COUNTER_PAGE)?;
        let gshare = CowTable::<u8>::decode_seq(r, COUNTER_PAGE)?;
        if bimodal.is_empty() || !bimodal.len().is_power_of_two() || gshare.len() != bimodal.len() {
            return Err(DecodeError::Invalid("predictor table shape"));
        }
        Ok(BranchPredictor {
            bimodal,
            gshare,
            history: BinCode::decode(r)?,
        })
    }
}

fn bump(counter: u8, taken: bool) -> u8 {
    if taken {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

fn confidence(counter: u8) -> u8 {
    // Distance from the weakly-taken/weakly-not-taken boundary.
    if counter >= 2 {
        counter - 1
    } else {
        2 - counter
    }
}

/// Direct-mapped branch target buffer for indirect jumps, on copy-on-write
/// pages like the direction predictor's tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    entries: CowTable<Option<(Rip, Rip)>>,
}

impl Btb {
    /// Creates a BTB with `entries` slots (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        let n = table_len(entries);
        Btb {
            entries: CowTable::new(n, None, BTB_PAGE),
        }
    }

    fn index(&self, rip: Rip) -> usize {
        (rip as usize) & (self.entries.len() - 1)
    }

    /// The last observed target of the indirect branch at `rip`, if any.
    pub fn predict(&self, rip: Rip) -> Option<Rip> {
        match *self.entries.get(self.index(rip)) {
            Some((tag, target)) if tag == rip => Some(target),
            _ => None,
        }
    }

    /// Records the resolved target of the indirect branch at `rip`.
    pub fn update(&mut self, rip: Rip, target: Rip) {
        let idx = self.index(rip);
        *self.entries.get_mut(idx) = Some((rip, target));
    }

    /// Whether the table is the size [`Self::new`] builds for `entries`.
    pub(crate) fn fits(&self, entries: usize) -> bool {
        self.entries.len() == table_len(entries)
    }

    /// Moves every owned page behind a handle, so it can be shared.
    pub(crate) fn freeze(&mut self) {
        self.entries.freeze();
    }

    /// Un-share counter of the entry array, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.entries.take_cow_breaks()
    }

    /// Takes `prev`'s handle for every entry page equal to this one's.
    pub(crate) fn share_equal_pages(&mut self, prev: &Self) {
        self.entries.share_equal_pages(&prev.entries);
    }

    /// Bytes of the entry pages `seen` does not hold yet (see
    /// [`CowTable::unseen_page_bytes`]).
    pub(crate) fn unseen_page_bytes(&self, seen: &mut HashSet<*const ()>) -> usize {
        self.entries.unseen_page_bytes(seen)
    }
}

impl BinCode for Btb {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode_seq(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let entries = CowTable::<Option<(Rip, Rip)>>::decode_seq(r, BTB_PAGE)?;
        if entries.is_empty() || !entries.len().is_power_of_two() {
            return Err(DecodeError::Invalid("BTB shape"));
        }
        Ok(Btb { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictor_learns_a_biased_branch() {
        let mut p = BranchPredictor::new(64);
        for _ in 0..16 {
            p.update(5, true);
        }
        assert!(p.predict(5));
        for _ in 0..16 {
            p.update(5, false);
        }
        assert!(!p.predict(5));
    }

    #[test]
    fn predictor_learns_loop_pattern_reasonably() {
        let mut p = BranchPredictor::new(256);
        // A loop branch taken 9 times then not taken once, repeatedly; the
        // predictor should be right most of the time.
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..50 {
            for i in 0..10 {
                let taken = i != 9;
                if p.predict(7) == taken {
                    correct += 1;
                }
                total += 1;
                p.update(7, taken);
            }
        }
        assert!(correct * 100 / total > 70, "accuracy {correct}/{total}");
    }

    #[test]
    fn btb_remembers_last_target() {
        let mut btb = Btb::new(32);
        assert_eq!(btb.predict(9), None);
        btb.update(9, 123);
        assert_eq!(btb.predict(9), Some(123));
        btb.update(9, 456);
        assert_eq!(btb.predict(9), Some(456));
        // Aliasing entry with a different tag does not hit.
        btb.update(9 + 32, 7);
        assert_eq!(btb.predict(9), None);
    }

    #[test]
    fn counters_saturate() {
        assert_eq!(bump(3, true), 3);
        assert_eq!(bump(0, false), 0);
        assert_eq!(bump(1, true), 2);
    }
}
