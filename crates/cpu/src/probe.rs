//! Observation interface used by the ACE-like analysis.
//!
//! The core reports four kinds of events per microarchitectural structure
//! entry:
//!
//! * **Write** — the entry's storage was physically written (register
//!   writeback, store-data deposit into the store queue, cache-line refill or
//!   store drain).  Writes are reported even for wrong-path micro-ops,
//!   because the bits really change.
//! * **CommittedRead** — the entry was read by a micro-op that later
//!   committed, or consumed by a dirty-line writeback.  Reads performed by
//!   squashed (wrong-path) micro-ops are never reported; this is exactly the
//!   paper's ACE-like interval definition, where squashed reads do not end a
//!   vulnerable interval.  The event carries the cycle at which the physical
//!   read happened (not the commit cycle), plus the reading micro-op's RIP,
//!   uPC, dynamic-instance index and a depth-5 control-flow-path signature.
//! * **Invalidate** — the entry stopped holding live data (physical register
//!   returned to the free list, store-queue slot deallocated, cache line
//!   evicted).
//! * **PhysicalRead** — an L1D data word was read by a load at issue,
//!   whether or not the load later commits.  Together with the writeback
//!   reads (committed reads with [`WRITEBACK_RIP`], reported at once),
//!   writes and invalidations, these are every physical event on an L1D
//!   word, and the core reports each access's events in the order they
//!   happen: the victim's writeback reads, the victim's invalidations, the
//!   refill and store writes, then the load's word reads.

use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::{Rip, Upc};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The microarchitectural structures whose data bits can be profiled and
/// fault-injected — the three structures evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

/// Details of a committed read of a structure entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadInfo {
    /// Entry index within the structure.
    pub entry: usize,
    /// Cycle at which the physical read happened.
    pub cycle: u64,
    /// Instruction pointer of the reading static instruction
    /// ([`WRITEBACK_RIP`] for cache writebacks).
    pub rip: Rip,
    /// Micro program counter of the reading micro-op.
    pub upc: Upc,
    /// Dynamic instance index of the reading static instruction (how many
    /// times that RIP had committed before this instance).
    pub dyn_instance: u64,
    /// Signature of the depth-5 control-flow path that led to the reading
    /// instruction (used by the Relyzer control-equivalence baseline).
    pub path_sig: u64,
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

    /// The entry was read by a micro-op that committed (or by a writeback).
    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        let _ = (structure, info);
    }

    /// The entry stopped holding live data at `cycle`.
    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        let _ = (structure, entry, cycle);
    }

    /// The entry was physically read at `cycle` by a micro-op at issue,
    /// committed or squashed later.  Fired for L1D data words only.
    fn physical_read(&mut self, structure: Structure, entry: usize, cycle: u64) {
        let _ = (structure, entry, cycle);
    }
}

/// A probe that ignores every event (used for plain simulation and fault
/// injection runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// A probe that records every event verbatim; convenient in tests.
#[derive(Debug, Default, Clone)]
pub struct RecordingProbe {
    /// All write events as (structure, entry, cycle).
    pub writes: Vec<(Structure, usize, u64)>,
    /// All committed-read events.
    pub reads: Vec<(Structure, ReadInfo)>,
    /// All invalidate events as (structure, entry, cycle).
    pub invalidates: Vec<(Structure, usize, u64)>,
    /// All physical-read events as (structure, entry, cycle).
    pub physical_reads: Vec<(Structure, usize, u64)>,
}

impl Probe for RecordingProbe {
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.writes.push((structure, entry, cycle));
    }

    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        self.reads.push((structure, *info));
    }

    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.invalidates.push((structure, entry, cycle));
    }

    fn physical_read(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.physical_reads.push((structure, entry, cycle));
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
        p.physical_read(Structure::L1DCache, 7, 12);
        p.committed_read(
            Structure::L1DCache,
            &ReadInfo {
                entry: 7,
                cycle: 15,
                rip: 2,
                upc: 0,
                dyn_instance: 4,
                path_sig: 0xabc,
            },
        );
        assert_eq!(p.writes.len(), 1);
        assert_eq!(p.invalidates.len(), 1);
        assert_eq!(p.reads.len(), 1);
        assert_eq!(p.reads[0].1.entry, 7);
        assert_eq!(p.physical_reads, vec![(Structure::L1DCache, 7, 12)]);
    }

    #[test]
    fn null_probe_is_a_no_op() {
        let mut p = NullProbe;
        p.write(Structure::RegisterFile, 0, 0);
        p.invalidate(Structure::RegisterFile, 0, 0);
        p.committed_read(
            Structure::RegisterFile,
            &ReadInfo {
                entry: 0,
                cycle: 0,
                rip: 0,
                upc: 0,
                dyn_instance: 0,
                path_sig: 0,
            },
        );
    }
}
