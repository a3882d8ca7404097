//! Vulnerable-interval repository.
//!
//! A *vulnerable interval* of a structure entry (paper §3.1.1) either starts
//! with a write and ends with a committed read of the same entry, or starts
//! with a committed read and ends with the next committed read.  Spans that
//! end with an overwrite or a deallocation (and entries that are never read)
//! are not vulnerable.  Each interval records the RIP and uPC of the reading
//! micro-op — the key of MeRLiN's grouping — plus the reader's dynamic
//! instance index and control-flow-path signature (used for representative
//! selection and for the Relyzer baseline, respectively).
//!
//! Every stored interval covers at least one cycle (`start < end`).  A read
//! in the cycle its interval opened — two consumers of one value issuing
//! together, or in the producer's writeback cycle — closes an empty one: no
//! fault lands in it and it adds nothing to the AVF, so it is not stored.
//! [`VulnerableIntervals::lookup`] answers as if it were: it returns the
//! last interval starting before the fault's cycle, and an empty `[s, s]`
//! before that cycle would not cover it either.

use merlin_cpu::Structure;
use merlin_isa::{Rip, Upc};

/// One vulnerable interval of one entry.  A stored interval covers at
/// least one cycle: `start < end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Cycle of the write or read that opens the interval.
    pub start: u64,
    /// Cycle of the committed read that closes the interval.
    pub end: u64,
    /// RIP of the reading static instruction.
    pub rip: Rip,
    /// uPC of the reading micro-op.
    pub upc: Upc,
    /// Dynamic instance index of the reading instruction.
    pub dyn_instance: u64,
    /// Depth-5 control-flow-path signature at the reading instruction.
    pub path_sig: u64,
}

impl Interval {
    /// Number of cycles at which an injected fault would be consumed by this
    /// interval's closing read (a fault applied at the start of cycle `c`
    /// is consumed when `start < c <= end`).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// `true` when the interval covers no injectable cycle.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a fault applied at the start of `cycle` lands in this
    /// interval.
    pub fn covers(&self, cycle: u64) -> bool {
        self.start < cycle && cycle <= self.end
    }
}

/// All vulnerable intervals of one structure for one program execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VulnerableIntervals {
    /// Per-entry interval lists, indexed by entry (`total_entries` of
    /// them), each sorted by start cycle.
    per_entry: Vec<Vec<Interval>>,
    /// Number of entries the structure has (including never-touched ones).
    pub total_entries: usize,
    /// Bits per entry.
    pub bits_per_entry: u32,
    /// Total cycles of the profiled execution.
    pub total_cycles: u64,
}

impl VulnerableIntervals {
    /// Creates an empty repository for a structure with `total_entries`
    /// entries over an execution of `total_cycles` cycles.
    pub fn new(structure: Structure, total_entries: usize, total_cycles: u64) -> Self {
        VulnerableIntervals {
            per_entry: vec![Vec::new(); total_entries],
            total_entries,
            bits_per_entry: structure.bits_per_entry(),
            total_cycles,
        }
    }

    /// A repository over the given per-entry interval lists, one per entry
    /// of the structure, each sorted by start cycle.
    pub(crate) fn from_entries(
        structure: Structure,
        per_entry: Vec<Vec<Interval>>,
        total_cycles: u64,
    ) -> Self {
        VulnerableIntervals {
            total_entries: per_entry.len(),
            per_entry,
            bits_per_entry: structure.bits_per_entry(),
            total_cycles,
        }
    }

    /// Adds an interval for `entry` (intervals must be pushed in
    /// non-decreasing start order per entry, which the profiler guarantees).
    /// The interval must cover at least one cycle: an empty one can hold no
    /// fault, so the repository never stores it.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not below `total_entries`, or if the interval
    /// is empty (`start >= end`).
    pub fn push(&mut self, entry: usize, interval: Interval) {
        let entries = self.per_entry.len();
        assert!(entry < entries, "entry {entry} out of range (0..{entries})");
        assert!(
            interval.start < interval.end,
            "empty interval [{}, {}] on entry {entry}",
            interval.start,
            interval.end
        );
        let v = &mut self.per_entry[entry];
        debug_assert!(v.last().is_none_or(|last| last.start <= interval.start));
        v.push(interval);
    }

    /// The intervals of one entry (empty slice if the entry was never read
    /// or does not exist).
    pub fn entry_intervals(&self, entry: usize) -> &[Interval] {
        self.per_entry.get(entry).map_or(&[], Vec::as_slice)
    }

    /// Releases the spare capacity of every entry's list.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.per_entry.iter_mut().for_each(Vec::shrink_to_fit);
    }

    /// Finds the interval (if any) that a fault at `(entry, cycle)` lands in.
    pub fn lookup(&self, entry: usize, cycle: u64) -> Option<&Interval> {
        let intervals = self.per_entry.get(entry)?;
        // Binary search on start, then check the candidate (intervals of one
        // entry never overlap: each starts where the previous one ended or
        // later).
        let idx = intervals.partition_point(|iv| iv.start < cycle);
        // The covering interval, if any, is the last one with start < cycle.
        if idx == 0 {
            return None;
        }
        let candidate = &intervals[idx - 1];
        candidate.covers(cycle).then_some(candidate)
    }

    /// Total number of vulnerable intervals.
    pub fn interval_count(&self) -> usize {
        self.per_entry.iter().map(Vec::len).sum()
    }

    /// Number of entries with at least one vulnerable interval.
    pub fn touched_entries(&self) -> usize {
        self.per_entry.iter().filter(|v| !v.is_empty()).count()
    }

    /// Total vulnerable bit-cycles (interval length × bits per entry summed
    /// over all intervals) — the numerator of the ACE-like AVF.
    pub fn vulnerable_bit_cycles(&self) -> u64 {
        let cycles: u64 = self.per_entry.iter().flatten().map(Interval::len).sum();
        cycles * self.bits_per_entry as u64
    }

    /// The ACE-like AVF: vulnerable bit-cycles over total bit-cycles.  This
    /// is the conservative estimate the paper compares against (Figure 16's
    /// "ACE-like" bars).
    pub fn ace_avf(&self) -> f64 {
        let total_bits = self.total_entries as u64 * self.bits_per_entry as u64;
        let total_bit_cycles = total_bits.saturating_mul(self.total_cycles);
        if total_bit_cycles == 0 {
            0.0
        } else {
            self.vulnerable_bit_cycles() as f64 / total_bit_cycles as f64
        }
    }

    /// Iterates over `(entry, interval)` pairs, in ascending entry order and
    /// each entry's intervals by start cycle.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Interval)> {
        self.per_entry
            .iter()
            .enumerate()
            .flat_map(|(e, v)| v.iter().map(move |iv| (e, iv)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64, rip: Rip) -> Interval {
        Interval {
            start,
            end,
            rip,
            upc: 0,
            dyn_instance: 0,
            path_sig: 0,
        }
    }

    #[test]
    fn lookup_respects_half_open_semantics() {
        let mut r = VulnerableIntervals::new(Structure::RegisterFile, 8, 1000);
        r.push(3, iv(10, 20, 1));
        r.push(3, iv(20, 35, 2));
        r.push(3, iv(50, 60, 3));
        // A fault at the opening cycle is overwritten by the opening write.
        assert!(r.lookup(3, 10).is_none());
        assert_eq!(r.lookup(3, 11).unwrap().rip, 1);
        assert_eq!(r.lookup(3, 20).unwrap().rip, 1);
        assert_eq!(r.lookup(3, 21).unwrap().rip, 2);
        assert_eq!(r.lookup(3, 35).unwrap().rip, 2);
        assert!(r.lookup(3, 36).is_none());
        assert_eq!(r.lookup(3, 55).unwrap().rip, 3);
        assert!(r.lookup(3, 61).is_none());
        assert!(r.lookup(4, 15).is_none());
        // An entry past the structure holds nothing.
        assert!(r.lookup(8, 15).is_none());
        assert!(r.entry_intervals(8).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_an_entry_past_the_structure() {
        VulnerableIntervals::new(Structure::RegisterFile, 8, 1000).push(8, iv(1, 2, 0));
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn push_rejects_an_empty_interval() {
        VulnerableIntervals::new(Structure::RegisterFile, 8, 1000).push(3, iv(5, 5, 0));
    }

    #[test]
    fn iter_yields_entries_in_ascending_order() {
        let mut r = VulnerableIntervals::new(Structure::RegisterFile, 8, 1000);
        for entry in [6, 1, 4, 1] {
            let start = r.entry_intervals(entry).len() as u64 * 10;
            r.push(entry, iv(start, start + 5, entry as Rip));
        }
        let order: Vec<(usize, u64)> = r.iter().map(|(e, iv)| (e, iv.start)).collect();
        assert_eq!(order, [(1, 0), (1, 10), (4, 0), (6, 0)]);
    }

    #[test]
    fn bit_cycle_accounting() {
        let mut r = VulnerableIntervals::new(Structure::StoreQueue, 4, 100);
        r.push(0, iv(0, 10, 1));
        r.push(1, iv(5, 15, 2));
        assert_eq!(r.interval_count(), 2);
        assert_eq!(r.touched_entries(), 2);
        assert_eq!(r.vulnerable_bit_cycles(), (10 + 10) * 64);
        let expected = (20 * 64) as f64 / (4.0 * 64.0 * 100.0);
        assert!((r.ace_avf() - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_repository_is_well_behaved() {
        let r = VulnerableIntervals::new(Structure::L1DCache, 1024, 0);
        assert_eq!(r.interval_count(), 0);
        assert_eq!(r.ace_avf(), 0.0);
        assert!(r.lookup(0, 5).is_none());
        assert!(r.entry_intervals(3).is_empty());
    }

    #[test]
    fn interval_len_and_covers() {
        let i = iv(7, 7, 0);
        assert!(i.is_empty());
        assert!(!i.covers(7));
        let i = iv(7, 9, 0);
        assert_eq!(i.len(), 2);
        assert!(i.covers(8));
        assert!(i.covers(9));
        assert!(!i.covers(7));
        assert!(!i.covers(10));
    }
}
