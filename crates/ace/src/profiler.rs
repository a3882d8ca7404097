//! The ACE-like profiling run: a [`Probe`] implementation that turns the
//! core's lifetime events into [`VulnerableIntervals`] for the three target
//! structures in a single fault-free execution (the paper's "preprocessing"
//! phase, §3.1.1).
//!
//! # Streaming
//!
//! An entry's intervals follow from its events taken in cycle order,
//! stably: a write opens an interval, a committed read closes it and opens
//! the next, and an invalidation drops the open one.  The events do not
//! arrive in that order, because a read is reported at commit but carries
//! the cycle it happened at.  So [`AceProfiler`] keeps one *lane* per
//! (structure, entry), holding the events it has not consumed yet and the
//! start of the open interval.  [`AceProfiler::flush`] stable-sorts each
//! lane that received events by cycle and turns those below a given floor
//! into intervals; the rest wait for a later flush.
//!
//! [`AceAnalysis::run`] flushes every 256 cycles at [`Cpu::event_floor`],
//! the lowest cycle an event the core has yet to report can carry.  No
//! event below the floor can still arrive, so every later event sorts after
//! the ones a flush consumes, and each lane is consumed in the order a
//! stable sort of its whole event stream gives.  The intervals therefore do
//! not depend on when, or how often, the profiler flushes: flushing only
//! in [`AceProfiler::finish`], as a plain [`Probe`] under [`Cpu::run`] does,
//! gives the same result.  Buffering stays bounded by the events of a few
//! hundred cycles instead of the whole run.
//!
//! # Order within a cycle
//!
//! The core emits every write, invalidation and writeback read at once, in
//! the order it happens (an evicted line's writeback read and invalidation
//! before the refill's writes), so within a cycle the stable sort keeps that
//! order; a read reported at commit sorts after every event emitted during
//! its cycle, the write that produced its value included.
//!
//! One order a stable sort cannot recover: a load reads a word, and a later
//! load of the same issue pass evicts the word's line.  The read would sort
//! after the eviction and the refill, close an empty interval on the new
//! line, and leave the victim's interval to end at its writeback read (or,
//! for a clean line, to be dropped).  It needs as many further accesses to
//! the line's set in the same issue pass as the set has ways, since the
//! read made the line the most recently used, and an issue pass makes at
//! most `mem_ports` accesses (2 against 4 ways by default; 0 occurrences
//! over the 20 built-in workloads with a 16 KB L1D).  Streaming leaves this
//! tie as it was: until the load commits, its logged read holds the floor
//! at or below the eviction's cycle, so the eviction is still pending when
//! the read arrives, and the read sorts after it exactly as in a sort of
//! the whole stream.

use crate::intervals::{Interval, VulnerableIntervals};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{Cpu, CpuConfig, Probe, ReadInfo, RunResult, Structure};
use merlin_isa::Program;
use std::collections::HashMap;

/// Cycles between two flushes of [`AceAnalysis::run`].  Any cadence gives
/// the same intervals; this one keeps each lane to a few pending events
/// while the flush's walk over the ROB stays rare.
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
                        lane.open_start = Some(e.cycle);
                    }
                }
            }
            !lane.pending.is_empty()
        });
    }
}

/// Probe that builds the vulnerable intervals of the three target
/// structures as the core reports their lifetime events (see the module
/// docs for why flushing early gives the same intervals).
#[derive(Debug)]
pub struct AceProfiler {
    /// One lane set per structure, indexed by `structure as usize`.
    sets: Vec<LaneSet>,
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
        AceProfiler { sets }
    }

    /// Turns every event below `floor` into intervals.  The caller promises
    /// that no event below `floor` arrives later: [`Cpu::event_floor`]
    /// keeps that promise.
    pub fn flush(&mut self, floor: u64) {
        for set in &mut self.sets {
            set.flush(floor);
        }
    }

    /// Consumes every remaining event and returns the per-structure
    /// vulnerable intervals of a run of `total_cycles` cycles.
    pub fn finish(mut self, total_cycles: u64) -> HashMap<Structure, VulnerableIntervals> {
        self.flush(u64::MAX);
        Structure::all()
            .iter()
            .zip(self.sets)
            .map(|(&s, set)| {
                let mut intervals = set.intervals;
                intervals.total_cycles = total_cycles;
                (s, intervals)
            })
            .collect()
    }

    fn push(&mut self, structure: Structure, entry: usize, event: Event) {
        let set = &mut self.sets[structure as usize];
        let lane = &mut set.lanes[entry];
        if lane.pending.is_empty() {
            set.dirty.push(entry);
        }
        lane.pending.push(event);
    }
}

impl Probe for AceProfiler {
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.push(
            structure,
            entry,
            Event {
                cycle,
                kind: EventKind::Write,
            },
        );
    }

    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        self.push(
            structure,
            info.entry,
            Event {
                cycle: info.cycle,
                kind: EventKind::Read {
                    rip: info.rip,
                    upc: info.upc,
                    dyn_instance: info.dyn_instance,
                    path_sig: info.path_sig,
                },
            },
        );
    }

    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.push(
            structure,
            entry,
            Event {
                cycle,
                kind: EventKind::Invalidate,
            },
        );
    }
}

/// Result of the ACE-like preprocessing run.
#[derive(Debug, Clone)]
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
    /// it every 256 cycles at the core's event floor, and builds the
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
                profiler.flush(cpu.event_floor());
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
            dyn_instance: 0,
            path_sig: 0,
        }
    }
}
