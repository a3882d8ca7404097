//! The ACE-like profiling run: a [`Probe`] implementation that turns the
//! core's lifetime events into [`VulnerableIntervals`] for the three target
//! structures in a single fault-free execution (the paper's "preprocessing"
//! phase, §3.1.1).
//!
//! # Committed reads
//!
//! The core reports each read at issue, with the reader's sequence number,
//! and each commit.  The profiler holds a micro-op's reads until it
//! retires, and drops them once a younger one retires first (it was
//! squashed).  It stamps each read with the reader's RIP and uPC, its
//! dynamic instance (the earlier commits of its instruction) and the
//! signature of the last five committed control transfers, the key of the
//! Relyzer baseline; a store's drain read is stamped the same way, a
//! writeback read with zeros.  These facts of one fault-free run live
//! here, so the core's forks, snapshots and `.golden` files never carry
//! them.
//!
//! # Streaming
//!
//! An entry's intervals follow from its events taken in cycle order, stably:
//! a write opens an interval, a committed read closes it and opens the next,
//! and an invalidation drops the open one.  A read in the cycle the open
//! interval started (a second consumer issuing with the first, or in the
//! producer's writeback cycle) closes an interval that covers no cycle: it
//! is not stored, and the read still opens the next one.  The events do not
//! arrive in that order, because an issue-time read enters at retirement
//! but carries the cycle it happened at.  So [`AceProfiler`] keeps one
//! *lane* per (structure, entry), holding the events it has not consumed
//! yet and the start of the open interval.  [`AceProfiler::flush`]
//! stable-sorts each lane that received events by cycle and turns those
//! below a floor into intervals; the rest wait for a later flush.
//!
//! [`AceAnalysis::run`] flushes every 256 cycles at the core's cycle.  The
//! floor is that cycle, or the oldest read still waiting for its micro-op
//! to retire if that is lower: the core reports nothing below its current
//! cycle later, so no event below the floor can still enter a lane, every
//! later event sorts after the ones a flush consumes, and each lane is
//! consumed in the order a stable sort of its whole event stream gives.
//! The intervals therefore do not depend on when, or how often, the
//! profiler flushes: flushing only in [`AceProfiler::finish`], as a plain
//! [`Probe`] under [`Cpu::run`] does, gives the same result.  Buffering
//! stays bounded by the events of a few hundred cycles instead of the whole
//! run.
//!
//! # Order within a cycle
//!
//! The core emits every write, invalidation and writeback read at once, in
//! the order it happens (an evicted line's writeback read and invalidation
//! before the refill's writes), so within a cycle the stable sort keeps that
//! order; an issue-time read enters at retirement, cycles later, so it
//! sorts after every event emitted during its cycle, the write that
//! produced its value included.  Reads of one cycle enter in commit order.
//!
//! One order a stable sort cannot recover: a load reads a word, and a later
//! load of the same issue pass evicts the word's line.  The read would sort
//! after the eviction and the refill, close an empty interval (not stored)
//! on the new line, and leave the victim's interval to end at its writeback
//! read (or, for a clean line, to be dropped).  It needs as many further
//! accesses to the line's set in the same issue pass as the set has ways,
//! since the read made the line the most recently used, and an issue pass
//! makes at most `mem_ports` accesses (2 against 4 ways by default; 0
//! occurrences over the 20 built-in workloads with a 16 KB L1D).  Streaming
//! leaves this tie as it was: until the load retires, its pending read
//! holds the floor at or below the eviction's cycle, so the eviction is
//! still pending when the read arrives, and the read sorts after it exactly
//! as in a sort of the whole stream.

use crate::intervals::{Interval, VulnerableIntervals};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{Cpu, CpuConfig, Probe, ReadInfo, RunResult, Structure, WRITEBACK_RIP};
use merlin_isa::{Program, Rip, Upc};
use std::collections::{HashMap, VecDeque};

/// Cycles between two flushes of [`AceAnalysis::run`].  Any cadence gives
/// the same intervals; this one keeps each lane to a few pending events
/// while the flush's walk over the pending reads stays rare.
const FLUSH_CYCLES: u64 = 256;

/// A raw lifetime event collected during profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Write,
    Read {
        rip: u32,
        upc: u8,
        dyn_instance: u64,
        path_sig: u64,
    },
    Invalidate,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    cycle: u64,
    kind: EventKind,
}

/// One (structure, entry) lane of the streaming builder.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Events not consumed yet: those a flush left (all at or above its
    /// floor, already in order), then those that arrived since.
    pending: Vec<Event>,
    /// Start of the interval the next committed read closes; `None` before
    /// the first write and after an invalidation.
    open_start: Option<u64>,
}

/// The lanes of one structure and the intervals consumed from them.
#[derive(Debug)]
struct LaneSet {
    lanes: Vec<Lane>,
    /// The entries whose lane has pending events, each listed once.
    dirty: Vec<usize>,
    intervals: VulnerableIntervals,
}

impl LaneSet {
    fn flush(&mut self, floor: u64) {
        let LaneSet {
            lanes,
            dirty,
            intervals,
        } = self;
        dirty.retain(|&entry| {
            let lane = &mut lanes[entry];
            lane.pending.sort_by_key(|e| e.cycle);
            let ready = lane.pending.partition_point(|e| e.cycle < floor);
            for e in lane.pending.drain(..ready) {
                match e.kind {
                    EventKind::Write => lane.open_start = Some(e.cycle),
                    EventKind::Invalidate => lane.open_start = None,
                    EventKind::Read {
                        rip,
                        upc,
                        dyn_instance,
                        path_sig,
                    } => {
                        // Architectural initial state (registers holding
                        // zero at cycle 0, untouched-but-resident cache
                        // words) counts as written at cycle 0.
                        let start = lane.open_start.unwrap_or(0);
                        // A read in the cycle the interval opened closes an
                        // empty one, which no fault can land in.
                        if start < e.cycle {
                            intervals.push(
                                entry,
                                Interval {
                                    start,
                                    end: e.cycle,
                                    rip,
                                    upc,
                                    dyn_instance,
                                    path_sig,
                                },
                            );
                        }
                        lane.open_start = Some(e.cycle);
                    }
                }
            }
            !lane.pending.is_empty()
        });
    }
}

/// The reads one micro-op made at issue, waiting for it to retire: all in
/// its issue cycle, at most three register sources plus two L1D words or
/// one store-queue slot.
#[derive(Debug, Clone, Copy)]
struct PendingReads {
    cycle: u64,
    len: u8,
    reads: [(Structure, u32); 5],
}

/// The record of a micro-op that has not read.
const NO_READS: PendingReads = PendingReads {
    cycle: 0,
    len: 0,
    reads: [(Structure::RegisterFile, 0); 5],
};

/// Probe that builds the vulnerable intervals of the three target
/// structures as the core reports their lifetime events (see the module
/// docs for why flushing early gives the same intervals).
#[derive(Debug)]
pub struct AceProfiler {
    /// One lane set per structure, indexed by `structure as usize`.
    sets: Vec<LaneSet>,
    /// The issue-time reads of micro-ops `pending_base..`, indexed by
    /// sequence number; a micro-op that has not read has an empty record.
    pending: VecDeque<PendingReads>,
    pending_base: u64,
    /// Committed instances per RIP, grown on demand.
    instances: Vec<u64>,
    /// The last five committed control transfers, and their signature.
    path: VecDeque<(Rip, bool)>,
    path_sig: u64,
}

impl AceProfiler {
    /// Creates an empty profiler for a core configured by `cfg`.
    pub fn new(cfg: &CpuConfig) -> Self {
        let sets = Structure::all()
            .iter()
            .map(|&s| {
                let entries = cfg.structure_entries(s);
                LaneSet {
                    lanes: vec![Lane::default(); entries],
                    dirty: Vec::new(),
                    intervals: VulnerableIntervals::new(s, entries, 0),
                }
            })
            .collect();
        AceProfiler {
            sets,
            pending: VecDeque::new(),
            pending_base: 0,
            instances: Vec::new(),
            path: VecDeque::new(),
            path_sig: 0,
        }
    }

    /// Turns every event below `cycle`, or below the oldest read still
    /// waiting for its micro-op to retire, into intervals.  The caller
    /// promises that the core reports no event below `cycle` later: the
    /// core's current cycle keeps that promise.
    pub fn flush(&mut self, cycle: u64) {
        let floor = self.floor(cycle);
        for set in &mut self.sets {
            set.flush(floor);
        }
    }

    /// Consumes every remaining event and returns the per-structure
    /// vulnerable intervals of a run of `total_cycles` cycles, each entry's
    /// list sized to its intervals.
    pub fn finish(mut self, total_cycles: u64) -> HashMap<Structure, VulnerableIntervals> {
        self.flush(u64::MAX);
        Structure::all()
            .iter()
            .zip(self.sets)
            .map(|(&s, set)| {
                let mut intervals = set.intervals;
                intervals.total_cycles = total_cycles;
                intervals.shrink_to_fit();
                (s, intervals)
            })
            .collect()
    }

    /// The lowest cycle an event can still enter a lane at, if the core
    /// reports none below `cycle` from now on: `cycle`, or the oldest read
    /// waiting for its micro-op to retire if that is lower.
    fn floor(&self, cycle: u64) -> u64 {
        self.pending
            .iter()
            .filter(|p| p.len > 0)
            .map(|p| p.cycle)
            .fold(cycle, u64::min)
    }

    fn push(&mut self, structure: Structure, entry: usize, cycle: u64, kind: EventKind) {
        let set = &mut self.sets[structure as usize];
        let lane = &mut set.lanes[entry];
        if lane.pending.is_empty() {
            set.dirty.push(entry);
        }
        lane.pending.push(Event { cycle, kind });
    }

    fn push_read(&mut self, structure: Structure, entry: usize, cycle: u64, rip: Rip, upc: Upc) {
        // A read's instance counts its instruction's earlier commits.
        let (dyn_instance, path_sig) = if rip == WRITEBACK_RIP {
            (0, 0)
        } else {
            let instance = self.instances.get(rip as usize).copied();
            (instance.unwrap_or(0), self.path_sig)
        };
        let kind = EventKind::Read {
            rip,
            upc,
            dyn_instance,
            path_sig,
        };
        self.push(structure, entry, cycle, kind);
    }
}

impl Probe for AceProfiler {
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.push(structure, entry, cycle, EventKind::Write);
    }

    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        self.push_read(structure, info.entry, info.cycle, info.rip, info.upc);
    }

    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.push(structure, entry, cycle, EventKind::Invalidate);
    }

    fn physical_read(&mut self, structure: Structure, entry: usize, cycle: u64, seq: u64) {
        if self.pending.is_empty() {
            self.pending_base = seq;
        }
        // An older micro-op may issue after a younger one.
        while seq < self.pending_base {
            self.pending.push_front(NO_READS);
            self.pending_base -= 1;
        }
        let i = (seq - self.pending_base) as usize;
        if i >= self.pending.len() {
            self.pending.resize(i + 1, NO_READS);
        }
        let p = &mut self.pending[i];
        p.reads[p.len as usize] = (structure, entry as u32);
        p.len += 1;
        p.cycle = cycle;
    }

    fn retired(&mut self, seq: u64, rip: Rip, upc: Upc, last_in_inst: bool, taken: Option<bool>) {
        // Every older micro-op has retired or was squashed: drop the reads
        // of the squashed ones, then take this one's.
        while self.pending_base <= seq {
            let Some(p) = self.pending.pop_front() else {
                break;
            };
            self.pending_base += 1;
            if self.pending_base > seq {
                for &(structure, entry) in &p.reads[..p.len as usize] {
                    self.push_read(structure, entry as usize, p.cycle, rip, upc);
                }
            }
        }
        if let Some(taken) = taken {
            self.path.push_back((rip, taken));
            if self.path.len() > 5 {
                self.path.pop_front();
            }
            let fnv = |sig: u64, &(r, t): &(Rip, bool)| {
                (sig ^ (u64::from(r) << 1 | u64::from(t))).wrapping_mul(0x1000_0000_01b3)
            };
            self.path_sig = self.path.iter().fold(0xcbf2_9ce4_8422_2325, fnv);
        }
        if last_in_inst {
            let i = rip as usize;
            if i >= self.instances.len() {
                self.instances.resize(i + 1, 0);
            }
            self.instances[i] += 1;
        }
    }
}

/// Result of the ACE-like preprocessing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AceAnalysis {
    /// The fault-free run the profile was collected on.
    pub golden: RunResult,
    /// Per-structure vulnerable intervals.
    pub intervals: HashMap<Structure, VulnerableIntervals>,
}

/// Errors from the ACE-like analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AceError {
    /// The profiled run did not halt.
    RunFailed(String),
    /// The processor configuration is invalid.
    BadConfig(String),
}

impl std::fmt::Display for AceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AceError::RunFailed(e) => write!(f, "ACE-like profiling run failed: {e}"),
            AceError::BadConfig(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for AceError {}

/// Why a dynamic vulnerable interval contradicts the static analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticViolationKind {
    /// The interval lies on an identity physical entry of an architectural
    /// register the program text never mentions.  Such an entry keeps its
    /// reset value forever and can never be the target of a committed read,
    /// so no vulnerable interval may exist on it.
    StaticallyDeadEntry,
    /// The interval's closing read claims a RIP that is statically
    /// unreachable from the program entry (or outside the text) — a dynamic
    /// execution can only commit instructions the CFG can reach.
    UnreachableReader,
}

/// One inconsistency between a dynamic vulnerable interval and the static
/// analysis, reported by [`AceAnalysis::validate_static`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticViolation {
    /// The structure whose interval repository contains the contradiction.
    pub structure: Structure,
    /// The entry the interval lies on.
    pub entry: usize,
    /// The contradicting interval.
    pub interval: Interval,
    /// What the interval contradicts.
    pub kind: StaticViolationKind,
}

impl std::fmt::Display for StaticViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            StaticViolationKind::StaticallyDeadEntry => "lies on a statically dead entry",
            StaticViolationKind::UnreachableReader => "is closed by a statically unreachable read",
        };
        write!(
            f,
            "{} entry {} interval [{}, {}] read at rip {}.{} {what}",
            self.structure,
            self.entry,
            self.interval.start,
            self.interval.end,
            self.interval.rip,
            self.interval.upc,
        )
    }
}

impl AceAnalysis {
    /// Runs `program` once under `cfg` with the profiler attached, flushing
    /// it every 256 cycles at the core's cycle, and builds the
    /// vulnerable-interval repositories for all three structures.
    ///
    /// # Errors
    ///
    /// Returns [`AceError`] if the configuration is invalid or the program
    /// does not halt within `max_cycles`.
    pub fn run(program: &Program, cfg: &CpuConfig, max_cycles: u64) -> Result<Self, AceError> {
        let mut cpu = Cpu::new(program.clone(), cfg.clone())
            .map_err(|e| AceError::BadConfig(e.to_string()))?;
        let mut profiler = AceProfiler::new(cfg);
        while !cpu.is_finished() && cpu.cycle() < max_cycles {
            cpu.step(&mut profiler);
            if cpu.cycle() % FLUSH_CYCLES == 0 {
                profiler.flush(cpu.cycle());
            }
        }
        // The loop ran the core to its end, so `run` only reports.
        let golden = cpu.run(max_cycles, &mut profiler);
        if !golden.exit.is_halted() {
            return Err(AceError::RunFailed(format!(
                "exit {:?} after {} cycles",
                golden.exit, golden.cycles
            )));
        }
        let intervals = profiler.finish(golden.cycles);
        Ok(AceAnalysis { golden, intervals })
    }

    /// The vulnerable intervals of one structure.
    pub fn structure(&self, structure: Structure) -> &VulnerableIntervals {
        &self.intervals[&structure]
    }

    /// Cross-validates the dynamic vulnerable intervals against the static
    /// `analysis` of the same program.
    ///
    /// Two properties must hold for the profile to be consistent with the
    /// program text:
    ///
    /// * no register-file interval lies on a statically dead identity entry
    ///   (the static prune and the ACE-like prune must never disagree on
    ///   whether an entry can carry live data);
    /// * every interval, on every structure, is closed by a committed read
    ///   whose RIP a static control-flow path reaches from the entry point.
    ///
    /// # Errors
    ///
    /// Returns every contradicting interval; an empty result would be
    /// `Ok(())` instead.
    pub fn validate_static(&self, analysis: &ProgramAnalysis) -> Result<(), Vec<StaticViolation>> {
        let mut violations = Vec::new();
        for &structure in Structure::all() {
            for (entry, interval) in self.structure(structure).iter() {
                if structure == Structure::RegisterFile && analysis.rf_entry_statically_dead(entry)
                {
                    violations.push(StaticViolation {
                        structure,
                        entry,
                        interval: *interval,
                        kind: StaticViolationKind::StaticallyDeadEntry,
                    });
                }
                if !analysis.is_reachable(interval.rip) {
                    violations.push(StaticViolation {
                        structure,
                        entry,
                        interval: *interval,
                        kind: StaticViolationKind::UnreachableReader,
                    });
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_construction_from_events() {
        let mut p = AceProfiler::new(&CpuConfig::default());
        let s = Structure::RegisterFile;
        // Entry 5: write@10, read@20 (rip 1), read@30 (rip 2), write@40,
        // invalidate@50, write@60, read@70 (rip 3).
        p.write(s, 5, 10);
        p.committed_read(s, &read_info(5, 20, 1));
        p.committed_read(s, &read_info(5, 30, 2));
        p.write(s, 5, 40);
        p.invalidate(s, 5, 50);
        p.write(s, 5, 60);
        p.committed_read(s, &read_info(5, 70, 3));
        let repos = p.finish(100);
        let rf = &repos[&s];
        assert_eq!(rf.total_cycles, 100);
        let ivs = rf.entry_intervals(5);
        assert_eq!(ivs.len(), 3);
        assert_eq!((ivs[0].start, ivs[0].end, ivs[0].rip), (10, 20, 1));
        assert_eq!((ivs[1].start, ivs[1].end, ivs[1].rip), (20, 30, 2));
        assert_eq!((ivs[2].start, ivs[2].end, ivs[2].rip), (60, 70, 3));
        // The write at 40 followed by the invalidate at 50 produced no
        // vulnerable interval.
        assert!(rf.lookup(5, 45).is_none());
        assert!(rf.lookup(5, 25).is_some());
    }

    #[test]
    fn out_of_order_event_arrival_is_sorted() {
        let mut p = AceProfiler::new(&CpuConfig::default());
        let s = Structure::StoreQueue;
        // The read is reported (at commit) before the write event of a
        // younger store to the same slot, but with an older cycle.
        p.write(s, 0, 10);
        p.committed_read(s, &read_info(0, 15, 9));
        // A flush at floor 12 consumes the write at 10 and keeps the read
        // at 15 pending; the write at 12 arrives after the read but is
        // older.
        p.flush(12);
        p.write(s, 0, 12);
        // An event at the floor may still arrive after a flush at it.
        p.flush(20);
        p.write(s, 0, 20);
        p.committed_read(s, &read_info(0, 26, 3));
        let repos = p.finish(50);
        let ivs = repos[&s].entry_intervals(0);
        assert_eq!(ivs.len(), 2);
        assert_eq!((ivs[0].start, ivs[0].end, ivs[0].rip), (12, 15, 9));
        assert_eq!((ivs[1].start, ivs[1].end, ivs[1].rip), (20, 26, 3));
    }

    #[test]
    fn read_of_initial_state_starts_at_cycle_zero() {
        let mut p = AceProfiler::new(&CpuConfig::default());
        let s = Structure::RegisterFile;
        p.committed_read(s, &read_info(2, 8, 4));
        let repos = p.finish(50);
        let ivs = repos[&s].entry_intervals(2);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].start, 0);
    }

    #[test]
    fn validate_static_flags_contradictory_intervals() {
        use merlin_isa::{reg, DecodedProgram, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.movi(reg(1), 5); // 0
        b.jump(end); // 1
        b.movi(reg(1), 6); // 2: in the text, unreachable
        b.bind(end);
        b.out(reg(1)); // 3
        b.halt(); // 4
        let program = b.build().unwrap();
        let decoded = DecodedProgram::new(&program);
        let analysis = ProgramAnalysis::of(&program, &decoded);
        let mut ace = AceAnalysis::run(&program, &CpuConfig::default(), 100_000).unwrap();
        ace.validate_static(&analysis).unwrap();

        // Tamper with the repository: an interval on the identity entry of
        // a register the text never mentions, an interval closed by a read
        // outside the text, and one closed by an unreachable read.
        let iv = |rip| Interval {
            start: 1,
            end: 2,
            rip,
            upc: 0,
            dyn_instance: 0,
            path_sig: 0,
        };
        let rf = ace.intervals.get_mut(&Structure::RegisterFile).unwrap();
        rf.push(9, iv(0));
        rf.push(1, iv(40));
        rf.push(1, iv(2));
        let violations = ace.validate_static(&analysis).unwrap_err();
        assert_eq!(violations.len(), 3);
        assert!(violations
            .iter()
            .any(|v| v.kind == StaticViolationKind::StaticallyDeadEntry && v.entry == 9));
        assert!(violations
            .iter()
            .any(|v| v.kind == StaticViolationKind::UnreachableReader && v.interval.rip == 40));
        assert!(violations
            .iter()
            .any(|v| v.kind == StaticViolationKind::UnreachableReader && v.interval.rip == 2));
        for v in &violations {
            assert!(!v.to_string().is_empty());
        }
    }

    fn read_info(entry: usize, cycle: u64, rip: u32) -> ReadInfo {
        ReadInfo {
            entry,
            cycle,
            rip,
            upc: 0,
        }
    }

    #[test]
    fn issue_reads_enter_at_retirement_stamped_with_the_commits_before_them() {
        let mut p = AceProfiler::new(&CpuConfig::default());
        let rf = Structure::RegisterFile;
        // Micro-op 3 reads entry 1 at cycle 5; micro-op 4, younger, issues
        // first; micro-op 2 is squashed after reading entry 1 at cycle 4.
        p.physical_read(rf, 1, 6, 4);
        p.physical_read(rf, 1, 5, 3);
        p.physical_read(rf, 1, 4, 2);
        assert_eq!(p.floor(10), 4);
        // Before micro-op 3, instruction 7 commits once and a taken branch
        // at 9 once; micro-ops 3 and 4 are the next instance of 7.
        p.retired(0, 7, 0, true, None);
        p.retired(1, 9, 0, true, Some(true));
        p.retired(3, 7, 1, false, None);
        // The squashed read is dropped, the pending one holds the floor.
        assert_eq!(p.floor(10), 6);
        p.retired(4, 7, 2, true, None);
        assert_eq!(p.floor(10), 10);
        let repos = p.finish(20);
        let ivs = repos[&rf].entry_intervals(1);
        assert_eq!(ivs.len(), 2);
        // FNV-1a of the one transfer `(9 << 1) | taken`.
        let sig = (0xcbf2_9ce4_8422_2325 ^ 19u64).wrapping_mul(0x1000_0000_01b3);
        assert_eq!(
            (ivs[0].start, ivs[0].end, ivs[0].upc, ivs[0].dyn_instance),
            (0, 5, 1, 1)
        );
        assert_eq!(ivs[0].path_sig, sig);
        // The second micro-op of the same instance reads with the same
        // stamp: the count moves only at the instruction's last micro-op.
        assert_eq!(
            (ivs[1].start, ivs[1].end, ivs[1].upc, ivs[1].dyn_instance),
            (5, 6, 2, 1)
        );
    }

    #[test]
    fn the_flush_floor_bounds_every_event_still_to_come() {
        /// Feeds the profiler and keeps, per micro-op, the cycle of its
        /// issue-time reads, and the events of the current step.
        struct Tee {
            profiler: AceProfiler,
            issued: HashMap<u64, u64>,
            step_events: Vec<u64>,
        }
        impl Probe for Tee {
            fn write(&mut self, s: Structure, entry: usize, cycle: u64) {
                self.profiler.write(s, entry, cycle);
                self.step_events.push(cycle);
            }
            fn committed_read(&mut self, s: Structure, info: &ReadInfo) {
                self.profiler.committed_read(s, info);
                self.step_events.push(info.cycle);
            }
            fn invalidate(&mut self, s: Structure, entry: usize, cycle: u64) {
                self.profiler.invalidate(s, entry, cycle);
                self.step_events.push(cycle);
            }
            fn physical_read(&mut self, s: Structure, entry: usize, cycle: u64, seq: u64) {
                self.profiler.physical_read(s, entry, cycle, seq);
                self.issued.insert(seq, cycle);
            }
            fn retired(&mut self, seq: u64, rip: Rip, upc: Upc, last: bool, taken: Option<bool>) {
                self.profiler.retired(seq, rip, upc, last, taken);
                // The retiring micro-op's reads enter the lanes now.
                self.step_events.extend(self.issued.remove(&seq));
            }
        }
        let program = merlin_workloads::workload_by_name("sha").unwrap().program;
        let cfg = CpuConfig::default();
        let mut cpu = Cpu::new(program, cfg.clone()).unwrap();
        let mut tee = Tee {
            profiler: AceProfiler::new(&cfg),
            issued: HashMap::new(),
            step_events: Vec::new(),
        };
        let (mut last_floor, mut held_below) = (0, 0);
        while !cpu.is_finished() {
            let floor = tee.profiler.floor(cpu.cycle());
            assert!(floor <= cpu.cycle());
            assert!(floor >= last_floor, "the floor never falls");
            // A micro-op that has read and waits to retire holds the floor
            // at its read cycle, which is in the past.
            held_below += usize::from(floor < cpu.cycle());
            // Since the floor never falls, bounding the next cycle's events
            // bounds every later one.
            tee.step_events.clear();
            cpu.step(&mut tee);
            for &c in &tee.step_events {
                assert!(c >= floor, "event at {c} below the floor {floor}");
            }
            last_floor = floor;
        }
        assert!(held_below > 0);
    }
}
