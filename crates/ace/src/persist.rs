//! The `.ace` file: an [`AceAnalysis`] persisted beside the session's
//! `.golden` file, so a later process loads its vulnerable intervals
//! instead of profiling the program again.
//!
//! The file is framed by [`merlin_inject::artifact`]: magic `MRLNACE\0`,
//! [`ACE_VERSION`], the session fingerprint and the checksum of the
//! `.golden` file the profile was built beside, then the payload and a
//! word-wise FNV-1a trailer.  A rebuilt `.golden` has another checksum, so
//! it turns the `.ace` file into a silent miss.
//!
//! The payload is the profiled [`RunResult`], then the register file, store
//! queue and L1D repositories, in that order.  Each repository is its entry
//! count (`u64`), bits per entry (`u32`) and total cycles (`u64`), then per
//! entry an interval count (`u64`) and that many fixed 37-byte records:
//! start, end (`u64`), RIP (`u32`), uPC (`u8`), dynamic instance and path
//! signature (`u64`), all little-endian.
//!
//! Version 2 stores only intervals that cover a cycle: every record has
//! `start < end`, and a record with `end <= start` is corruption.  Version 1
//! also stored the empty intervals of same-cycle reads; its files are
//! misses, and the session profiles again.

use crate::intervals::{Interval, VulnerableIntervals};
use crate::profiler::AceAnalysis;
use merlin_cpu::{RunResult, Structure};
use merlin_inject::artifact::{fnv1a_words, ArtifactFormat};
use merlin_inject::Session;
use merlin_isa::binio::{BinCode, ByteReader};
use std::collections::HashMap;

/// Version 2.  Bump it whenever [`AceProfiler`](crate::AceProfiler)'s
/// interval rules change: the binding to the `.golden` checksum sees a
/// change to the core's behaviour, but not one to the profiler, so an old
/// file would otherwise load.
const ACE_VERSION: u32 = 2;

/// The `.ace` file format: header `MRLNACE\0`, the format version
/// (`ACE_VERSION`), the fingerprint and the `.golden` checksum, checksummed
/// word by word.
pub const ACE: ArtifactFormat = ArtifactFormat {
    magic: b"MRLNACE\0",
    version: ACE_VERSION,
    extension: "ace",
    checksum: fnv1a_words,
};

/// Bytes of one encoded interval.
const RECORD_LEN: usize = 8 + 8 + 4 + 1 + 8 + 8;

/// Appends the payload of `ace`.
pub(crate) fn encode(ace: &AceAnalysis, buf: &mut Vec<u8>) {
    ace.golden.encode(buf);
    for &structure in Structure::all() {
        let repo = ace.structure(structure);
        repo.total_entries.encode(buf);
        repo.bits_per_entry.encode(buf);
        repo.total_cycles.encode(buf);
        for entry in 0..repo.total_entries {
            let intervals = repo.entry_intervals(entry);
            intervals.len().encode(buf);
            buf.reserve(intervals.len() * RECORD_LEN);
            for iv in intervals {
                buf.extend_from_slice(&iv.start.to_le_bytes());
                buf.extend_from_slice(&iv.end.to_le_bytes());
                buf.extend_from_slice(&iv.rip.to_le_bytes());
                buf.push(iv.upc);
                buf.extend_from_slice(&iv.dyn_instance.to_le_bytes());
                buf.extend_from_slice(&iv.path_sig.to_le_bytes());
            }
        }
    }
}

/// Decodes a checksum-verified payload for `session`, whose golden run
/// ended with `golden`.  `None` rejects it: a decode failure, an entry
/// count other than the session's, bits per entry other than 64, a run
/// result or cycle count other than the golden run's, or an entry whose
/// intervals are not non-empty, ascending and disjoint within the run.
pub(crate) fn decode(payload: &[u8], session: &Session, golden: &RunResult) -> Option<AceAnalysis> {
    let mut r = ByteReader::new(payload);
    let result = RunResult::decode(&mut r).ok()?;
    if &result != golden {
        return None;
    }
    let mut intervals = HashMap::new();
    for &structure in Structure::all() {
        let entries = usize::decode(&mut r).ok()?;
        let bits = u32::decode(&mut r).ok()?;
        let total_cycles = u64::decode(&mut r).ok()?;
        if entries != session.structure_entries(structure)
            || bits != structure.bits_per_entry()
            || total_cycles != result.cycles
        {
            return None;
        }
        let mut per_entry = Vec::with_capacity(entries);
        for _ in 0..entries {
            let len = usize::decode(&mut r).ok()?;
            let records = r.take(len.checked_mul(RECORD_LEN)?).ok()?;
            per_entry.push(decode_records(records, total_cycles)?);
        }
        intervals.insert(
            structure,
            VulnerableIntervals::from_entries(structure, per_entry, total_cycles),
        );
    }
    r.is_at_end().then_some(AceAnalysis {
        golden: result,
        intervals,
    })
}

/// One entry's intervals from its records, if they are ascending and
/// disjoint with `start < end <= total_cycles`.
fn decode_records(records: &[u8], total_cycles: u64) -> Option<Vec<Interval>> {
    let u64_at = |rec: &[u8], at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().unwrap());
    let mut intervals = Vec::with_capacity(records.len() / RECORD_LEN);
    let mut floor = 0;
    for rec in records.chunks_exact(RECORD_LEN) {
        let iv = Interval {
            start: u64_at(rec, 0),
            end: u64_at(rec, 8),
            rip: u32::from_le_bytes(rec[16..20].try_into().unwrap()),
            upc: rec[20],
            dyn_instance: u64_at(rec, 21),
            path_sig: u64_at(rec, 29),
        };
        if iv.start < floor || iv.end <= iv.start || iv.end > total_cycles {
            return None;
        }
        floor = iv.end;
        intervals.push(iv);
    }
    Some(intervals)
}
