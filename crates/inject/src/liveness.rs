//! Golden-future liveness of the L1D data words.
//!
//! A bit flip in an L1D word is Masked when the golden run, from the flip's
//! cycle on, never reads the word before overwriting or evicting it: the
//! faulty run then differs from the golden run only in bits nobody reads,
//! so it *is* the golden run.  [`L1dLiveness`] records, per word, exactly
//! the cycles at which a flip would be read, so the scheduler classifies
//! every other L1D fault Masked before any restore, replay or fork.
//!
//! The log is built by [`L1dLogger`] during the golden pass that also
//! builds the checkpoint store.  It sees every physical event on an L1D
//! word, in the order the core emits them (see
//! [`Probe`](merlin_cpu::Probe)):
//!
//! * **reads** — loads at issue, committed or squashed
//!   ([`Probe::physical_read`]), and dirty-line writebacks
//!   ([`Probe::committed_read`], with
//!   [`WRITEBACK_RIP`](merlin_cpu::WRITEBACK_RIP));
//! * **kills** — full-word overwrites by refills and stores
//!   ([`Probe::write`]), and evictions ([`Probe::invalidate`]).
//!
//! A flip applies at the start of its cycle, so a flip at cycle `c` is
//! live iff the word's first event at or after `c`, in emission order, is a
//! read.  A read at cycle `r` whose previous event on the word happened at
//! cycle `p` is therefore the first event for every flip cycle in
//! `p+1..=r` (`0..=r` without a previous event), and the log stores the
//! union of those ranges as sorted, merged spans.  A kill followed by a
//! read in the same cycle makes that cycle dead; a word never read again
//! is dead up to the end of the run.

use merlin_cpu::{Probe, ReadInfo, Structure};
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};

/// Per-word spans of the flip cycles at which the golden run reads an L1D
/// data word before overwriting or evicting it (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L1dLiveness {
    /// Word `w`'s spans are `spans[offsets[w]..offsets[w + 1]]`; one entry
    /// per word plus a final one.
    offsets: Vec<u32>,
    /// Inclusive `(lo, hi)` flip-cycle spans, sorted and disjoint per word.
    spans: Vec<(u64, u64)>,
}

impl L1dLiveness {
    /// Number of L1D words the log covers.
    pub fn words(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of spans over all words.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Whether a flip in word `entry` at the start of `cycle` is read by the
    /// golden run before the word is overwritten or evicted.  Words outside
    /// the log count as live ("not proven dead").
    pub fn is_live(&self, entry: usize, cycle: u64) -> bool {
        let Some(&[lo, hi]) = self.offsets.get(entry..entry + 2) else {
            return true;
        };
        let spans = &self.spans[lo as usize..hi as usize];
        let i = spans.partition_point(|&(_, end)| end < cycle);
        spans.get(i).is_some_and(|&(start, _)| start <= cycle)
    }

    /// Heap footprint of the log in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.spans.len() * std::mem::size_of::<(u64, u64)>()
    }

    /// Appends the log's wire form: the offsets, then the spans.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.offsets.encode(out);
        self.spans.encode(out);
    }

    /// Decodes a log written by [`L1dLiveness::encode`] and validates it
    /// against a configuration with `words` L1D words: one offset per word
    /// plus one, starting at 0, monotone and ending at the span count, and
    /// per word spans with `lo <= hi`, sorted and disjoint.
    pub(crate) fn decode(r: &mut ByteReader<'_>, words: usize) -> Result<Self, DecodeError> {
        let offsets = Vec::<u32>::decode(r)?;
        let spans = Vec::<(u64, u64)>::decode(r)?;
        if offsets.len() != words + 1 {
            return Err(DecodeError::Invalid("L1D log word count"));
        }
        let monotone = offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last().map(|&n| n as usize) == Some(spans.len());
        if !monotone {
            return Err(DecodeError::Invalid("L1D log offsets"));
        }
        let well_formed = offsets.windows(2).all(|w| {
            let word = &spans[w[0] as usize..w[1] as usize];
            word.iter().all(|&(lo, hi)| lo <= hi) && word.windows(2).all(|p| p[0].1 < p[1].0)
        });
        if !well_formed {
            return Err(DecodeError::Invalid("L1D log spans"));
        }
        Ok(L1dLiveness { offsets, spans })
    }
}

/// The probe that builds an [`L1dLiveness`] during the golden pass.
pub(crate) struct L1dLogger {
    /// Per word, the first flip cycle a read now would be the first event
    /// for: one past the cycle of the word's previous event.
    next_lo: Vec<u64>,
    /// Per word, the index in `spans` of its latest span (`u32::MAX`: none
    /// yet).
    latest: Vec<u32>,
    /// Every word's spans as `(word, lo, hi)`, in the order they opened.
    spans: Vec<(u32, u64, u64)>,
}

impl L1dLogger {
    pub(crate) fn new(words: usize) -> Self {
        L1dLogger {
            next_lo: vec![0; words],
            latest: vec![u32::MAX; words],
            spans: Vec::new(),
        }
    }

    fn read(&mut self, entry: usize, cycle: u64) {
        let lo = std::mem::replace(&mut self.next_lo[entry], cycle + 1);
        if lo > cycle {
            return;
        }
        match self.spans.get_mut(self.latest[entry] as usize) {
            Some(latest) if latest.2 + 1 == lo => latest.2 = cycle,
            _ => {
                self.latest[entry] =
                    u32::try_from(self.spans.len()).expect("L1D log spans fit in u32");
                self.spans.push((entry as u32, lo, cycle));
            }
        }
    }

    fn kill(&mut self, entry: usize, cycle: u64) {
        self.next_lo[entry] = cycle + 1;
    }

    /// Groups the spans by word into the log.
    pub(crate) fn finish(mut self) -> L1dLiveness {
        // Stable: each word's spans stay in cycle order.
        self.spans.sort_by_key(|&(word, _, _)| word);
        let mut offsets = vec![0u32; self.next_lo.len() + 1];
        for &(word, _, _) in &self.spans {
            offsets[word as usize + 1] += 1;
        }
        for w in 1..offsets.len() {
            offsets[w] += offsets[w - 1];
        }
        let spans = self.spans.into_iter().map(|(_, lo, hi)| (lo, hi)).collect();
        L1dLiveness { offsets, spans }
    }
}

impl Probe for L1dLogger {
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        if structure == Structure::L1DCache {
            self.kill(entry, cycle);
        }
    }

    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        // Every L1D read that is not a load's is a writeback.
        if structure == Structure::L1DCache {
            self.read(info.entry, info.cycle);
        }
    }

    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        if structure == Structure::L1DCache {
            self.kill(entry, cycle);
        }
    }

    fn physical_read(&mut self, structure: Structure, entry: usize, cycle: u64, _seq: u64) {
        if structure == Structure::L1DCache {
            self.read(entry, cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_cpu::WRITEBACK_RIP;

    const L1D: Structure = Structure::L1DCache;

    /// Word 0: refill @10, read @12, read @15, store @20, read @20 (same
    /// cycle, after the kill), read @25, evict @30.  Word 1: refill @10,
    /// never read.  Word 2: read @4 with no earlier event.
    fn sample() -> L1dLiveness {
        let mut log = L1dLogger::new(3);
        log.write(L1D, 0, 10);
        log.write(L1D, 1, 10);
        log.physical_read(L1D, 0, 12, 0);
        log.physical_read(L1D, 0, 15, 0);
        log.write(L1D, 0, 20);
        log.physical_read(L1D, 0, 20, 0);
        log.physical_read(L1D, 0, 25, 0);
        log.invalidate(L1D, 0, 30);
        log.physical_read(L1D, 2, 4, 0);
        // Other structures are ignored.
        log.physical_read(Structure::RegisterFile, 1, 40, 0);
        log.finish()
    }

    #[test]
    fn a_flip_is_live_iff_its_first_event_is_a_read() {
        let log = sample();
        assert_eq!(log.words(), 3);
        assert_eq!(log.span_count(), 3);
        let live: Vec<u64> = (0..40).filter(|&c| log.is_live(0, c)).collect();
        let expected: Vec<u64> = (11..=15).chain(21..=25).collect();
        assert_eq!(live, expected);
        assert!((0..40).all(|c| !log.is_live(1, c)));
        assert!((0..=4).all(|c| log.is_live(2, c)));
        assert!(!log.is_live(2, 5));
        // Outside the log: not proven dead.
        assert!(log.is_live(3, 0));
    }

    #[test]
    fn a_writeback_read_keeps_a_flip_live_until_the_eviction() {
        let mut log = L1dLogger::new(1);
        log.write(L1D, 0, 3);
        // Eviction of a dirty line, as the core emits it: writeback read,
        // invalidation, refill write.
        let wb = ReadInfo {
            entry: 0,
            cycle: 9,
            rip: WRITEBACK_RIP,
            upc: 0,
        };
        log.committed_read(L1D, &wb);
        log.invalidate(L1D, 0, 9);
        log.write(L1D, 0, 9);
        let log = log.finish();
        assert!((4..=9).all(|c| log.is_live(0, c)));
        assert!(!log.is_live(0, 3) && !log.is_live(0, 10));
    }

    #[test]
    fn the_decoder_round_trips_and_rejects_malformed_logs() {
        let log = sample();
        let mut buf = Vec::new();
        log.encode(&mut buf);
        let decode = |buf: &[u8], words| L1dLiveness::decode(&mut ByteReader::new(buf), words);
        assert_eq!(decode(&buf, 3), Ok(log.clone()));
        assert!(decode(&buf, 4).is_err(), "word count");
        let tampered = |f: &dyn Fn(&mut L1dLiveness)| {
            let mut bad = log.clone();
            f(&mut bad);
            let mut buf = Vec::new();
            bad.encode(&mut buf);
            decode(&buf, 3)
        };
        assert!(tampered(&|l| l.offsets[1] = 3).is_err(), "offsets");
        assert!(tampered(&|l| l.spans.swap(0, 1)).is_err(), "unsorted");
        assert!(tampered(&|l| l.spans[1].0 = 15).is_err(), "overlap");
        assert!(tampered(&|l| l.spans[0] = (16, 15)).is_err(), "lo > hi");
    }
}
