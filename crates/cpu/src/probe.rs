//! Observation interface used by the ACE-like analysis and the L1D
//! liveness log.
//!
//! The core reports five kinds of events, each as it happens:
//!
//! * **Write** — the entry's storage was physically written (register
//!   writeback, store-data deposit into the store queue, cache-line refill or
//!   store drain).  Writes are reported even for wrong-path micro-ops,
//!   because the bits really change.
//! * **PhysicalRead** — micro-op `seq` read the entry at issue: a register
//!   source, the store-queue slot a load forwards from, or an L1D word a
//!   load reads.  Reported whether or not the micro-op later commits.
//! * **Retired** — micro-op `seq` committed.  Its issue-time reads are the
//!   committed reads of the paper's ACE-like interval definition; the reads
//!   of squashed (wrong-path) micro-ops never end a vulnerable interval.  A
//!   probe that wants only committed reads keeps each micro-op's reads until
//!   it retires or a younger one does.
//! * **CommittedRead** — a read no squash can undo, made outside issue: a
//!   committed store's drain reads its store-queue slot, and a dirty-line
//!   writeback reads L1D words (with [`WRITEBACK_RIP`]).  A drain's reads
//!   precede the retirement of its store-data micro-op.
//! * **Invalidate** — the entry stopped holding live data (physical register
//!   returned to the free list, store-queue slot deallocated, cache line
//!   evicted).
//!
//! The physical reads of L1D words, the writeback reads, the writes and the
//! invalidations are every physical event on an L1D word.
//! [`MemSystem`](crate::MemSystem) reports them as each access makes them:
//! the victim's writeback reads, the victim's invalidations, the refill and
//! store writes, then the load's word reads, and for an access that crosses
//! a line, all of its low line's events before its high line's.

use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::{Rip, Upc};
use std::fmt;

/// The microarchitectural structures whose data bits can be profiled and
/// fault-injected — the three structures evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Structure {
    /// Physical integer register file (entry = physical register index,
    /// 64 bits per entry).
    RegisterFile,
    /// Store-queue data field (entry = store-queue slot index, 64 bits per
    /// entry).
    StoreQueue,
    /// L1 data cache data array (entry = 8-byte word index, flattened as
    /// `((set * ways) + way) * words_per_line + word`).
    L1DCache,
}

impl Structure {
    /// Bits per entry (all three structures are tracked at 64-bit/8-byte
    /// granularity).
    pub fn bits_per_entry(self) -> u32 {
        64
    }

    /// Bytes per entry.
    pub fn bytes_per_entry(self) -> u32 {
        8
    }

    /// All structures, for exhaustive sweeps.
    pub fn all() -> &'static [Structure] {
        &[
            Structure::RegisterFile,
            Structure::StoreQueue,
            Structure::L1DCache,
        ]
    }

    /// Short name used in reports ("RF", "SQ", "L1D").
    pub fn short_name(self) -> &'static str {
        match self {
            Structure::RegisterFile => "RF",
            Structure::StoreQueue => "SQ",
            Structure::L1DCache => "L1D",
        }
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

impl BinCode for Structure {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Structure::RegisterFile => 0,
            Structure::StoreQueue => 1,
            Structure::L1DCache => 2,
        });
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => Structure::RegisterFile,
            1 => Structure::StoreQueue,
            2 => Structure::L1DCache,
            _ => return Err(DecodeError::Invalid("Structure")),
        })
    }
}

/// The pseudo instruction pointer attributed to dirty-line writebacks that
/// consume cache data without an associated program instruction.
pub const WRITEBACK_RIP: Rip = u32::MAX;

/// A read made outside issue: the store-queue slot a committed store
/// drains, or an L1D word a dirty-line writeback consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadInfo {
    /// Entry index within the structure.
    pub entry: usize,
    /// Cycle at which the read happened.
    pub cycle: u64,
    /// Instruction pointer of the reading static instruction
    /// ([`WRITEBACK_RIP`] for cache writebacks).
    pub rip: Rip,
    /// Micro program counter of the reading micro-op.
    pub upc: Upc,
}

/// Observer of structure lifetime events.
///
/// All methods have empty default implementations so probes only override
/// what they need.
pub trait Probe {
    /// The entry's storage was physically written at `cycle`.
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        let _ = (structure, entry, cycle);
    }

    /// The entry was read by a committed store's drain, or by a dirty-line
    /// writeback.
    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        let _ = (structure, info);
    }

    /// The entry stopped holding live data at `cycle`.
    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        let _ = (structure, entry, cycle);
    }

    /// The entry was physically read at `cycle` by micro-op `seq` at issue,
    /// committed or squashed later: a register source, the store-queue slot
    /// a load forwards from, or an L1D word a load reads.
    fn physical_read(&mut self, structure: Structure, entry: usize, cycle: u64, seq: u64) {
        let _ = (structure, entry, cycle, seq);
    }

    /// Micro-op `seq` of instruction `rip` committed, after its reads at
    /// commit.  `last_in_inst` marks the instruction's last micro-op;
    /// `taken` is a conditional branch's direction, `Some(true)` for an
    /// indirect jump and `None` for every other micro-op.
    fn retired(&mut self, seq: u64, rip: Rip, upc: Upc, last_in_inst: bool, taken: Option<bool>) {
        let _ = (seq, rip, upc, last_in_inst, taken);
    }
}

/// A probe that ignores every event (used for plain simulation and fault
/// injection runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// One [`Probe::retired`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Sequence number of the committed micro-op.
    pub seq: u64,
    /// Its instruction pointer.
    pub rip: Rip,
    /// Its micro program counter.
    pub upc: Upc,
    /// Whether it is its instruction's last micro-op.
    pub last_in_inst: bool,
    /// The control transfer it made, if any (see [`Probe::retired`]).
    pub taken: Option<bool>,
}

/// One event a [`RecordingProbe`] recorded, with the arguments it came with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// [`Probe::write`]: `(structure, entry, cycle)`.
    Write(Structure, usize, u64),
    /// [`Probe::committed_read`].
    CommittedRead(Structure, ReadInfo),
    /// [`Probe::invalidate`]: `(structure, entry, cycle)`.
    Invalidate(Structure, usize, u64),
    /// [`Probe::physical_read`]: `(structure, entry, cycle, seq)`.
    PhysicalRead(Structure, usize, u64, u64),
    /// [`Probe::retired`].
    Retired(Retired),
}

/// A probe that records every event verbatim, in one ordered stream;
/// convenient in tests.  The per-kind views filter that stream.
#[derive(Debug, Default, Clone)]
pub struct RecordingProbe {
    /// Every event, in the order it was reported.
    pub events: Vec<Event>,
}

impl RecordingProbe {
    /// The values `pick` takes from the events, in order.
    fn view<T>(&self, pick: impl Fn(Event) -> Option<T>) -> Vec<T> {
        self.events.iter().filter_map(|&e| pick(e)).collect()
    }

    /// All write events as (structure, entry, cycle).
    pub fn writes(&self) -> Vec<(Structure, usize, u64)> {
        self.view(|e| match e {
            Event::Write(s, entry, cycle) => Some((s, entry, cycle)),
            _ => None,
        })
    }

    /// All committed-read events (drains and writebacks).
    pub fn reads(&self) -> Vec<(Structure, ReadInfo)> {
        self.view(|e| match e {
            Event::CommittedRead(s, info) => Some((s, info)),
            _ => None,
        })
    }

    /// All invalidate events as (structure, entry, cycle).
    pub fn invalidates(&self) -> Vec<(Structure, usize, u64)> {
        self.view(|e| match e {
            Event::Invalidate(s, entry, cycle) => Some((s, entry, cycle)),
            _ => None,
        })
    }

    /// All physical-read events as (structure, entry, cycle, seq).
    pub fn physical_reads(&self) -> Vec<(Structure, usize, u64, u64)> {
        self.view(|e| match e {
            Event::PhysicalRead(s, entry, cycle, seq) => Some((s, entry, cycle, seq)),
            _ => None,
        })
    }

    /// All retirements, in commit order.
    pub fn retired(&self) -> Vec<Retired> {
        self.view(|e| match e {
            Event::Retired(r) => Some(r),
            _ => None,
        })
    }

    /// Every read of a committed micro-op: the reads made at issue by
    /// micro-ops that later retired, each attributed to its micro-op's RIP
    /// and uPC, in commit order, then the drain and writeback reads.
    pub fn committed_reads(&self) -> Vec<(Structure, ReadInfo)> {
        let retired = self.retired();
        let mut issued: Vec<_> = (self.physical_reads().into_iter())
            .filter_map(|(s, entry, cycle, seq)| {
                let r = retired.binary_search_by_key(&seq, |r| r.seq).ok()?;
                let (rip, upc) = (retired[r].rip, retired[r].upc);
                Some((
                    seq,
                    s,
                    ReadInfo {
                        entry,
                        cycle,
                        rip,
                        upc,
                    },
                ))
            })
            .collect();
        // Stable: each micro-op's reads stay in the order it made them.
        issued.sort_by_key(|&(seq, _, _)| seq);
        let issued = issued.into_iter().map(|(_, s, info)| (s, info));
        issued.chain(self.reads()).collect()
    }
}

impl Probe for RecordingProbe {
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.events.push(Event::Write(structure, entry, cycle));
    }

    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        self.events.push(Event::CommittedRead(structure, *info));
    }

    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.events.push(Event::Invalidate(structure, entry, cycle));
    }

    fn physical_read(&mut self, structure: Structure, entry: usize, cycle: u64, seq: u64) {
        self.events
            .push(Event::PhysicalRead(structure, entry, cycle, seq));
    }

    fn retired(&mut self, seq: u64, rip: Rip, upc: Upc, last_in_inst: bool, taken: Option<bool>) {
        self.events.push(Event::Retired(Retired {
            seq,
            rip,
            upc,
            last_in_inst,
            taken,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_metadata() {
        for &s in Structure::all() {
            assert_eq!(s.bits_per_entry(), 64);
            assert_eq!(s.bytes_per_entry(), 8);
            assert!(!s.short_name().is_empty());
            assert_eq!(s.to_string(), s.short_name());
        }
        assert_eq!(Structure::all().len(), 3);
    }

    #[test]
    fn recording_probe_collects_events() {
        let mut p = RecordingProbe::default();
        p.write(Structure::RegisterFile, 3, 10);
        p.invalidate(Structure::StoreQueue, 1, 20);
        p.physical_read(Structure::L1DCache, 7, 12, 5);
        p.physical_read(Structure::RegisterFile, 2, 12, 5);
        p.physical_read(Structure::RegisterFile, 9, 13, 6);
        p.committed_read(
            Structure::StoreQueue,
            &ReadInfo {
                entry: 1,
                cycle: 15,
                rip: 4,
                upc: 1,
            },
        );
        Probe::retired(&mut p, 5, 2, 0, true, None);
        assert_eq!(p.writes().len(), 1);
        assert_eq!(p.invalidates().len(), 1);
        assert_eq!(p.reads().len(), 1);
        assert_eq!(p.physical_reads().len(), 3);
        assert_eq!(p.retired()[0].seq, 5);
        assert_eq!(p.events.len(), 7);
        assert_eq!(p.events[0], Event::Write(Structure::RegisterFile, 3, 10));
        assert_eq!(
            p.events[2],
            Event::PhysicalRead(Structure::L1DCache, 7, 12, 5)
        );
        assert_eq!(p.events[6], Event::Retired(p.retired()[0]));
        // Micro-op 6 never retired: its read is not a committed one.
        let read = |entry, cycle, rip, upc| ReadInfo {
            entry,
            cycle,
            rip,
            upc,
        };
        assert_eq!(
            p.committed_reads(),
            vec![
                (Structure::L1DCache, read(7, 12, 2, 0)),
                (Structure::RegisterFile, read(2, 12, 2, 0)),
                (Structure::StoreQueue, read(1, 15, 4, 1)),
            ]
        );
    }

    #[test]
    fn null_probe_is_a_no_op() {
        let mut p = NullProbe;
        p.write(Structure::RegisterFile, 0, 0);
        p.invalidate(Structure::RegisterFile, 0, 0);
        p.physical_read(Structure::RegisterFile, 0, 0, 0);
        p.retired(0, 0, 0, true, Some(true));
        p.committed_read(
            Structure::RegisterFile,
            &ReadInfo {
                entry: 0,
                cycle: 0,
                rip: 0,
                upc: 0,
            },
        );
    }
}
