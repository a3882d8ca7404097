//! Integration tests: the ACE-like analysis against real workloads, and the
//! consistency property MeRLiN depends on — faults pruned by the ACE-like
//! step really are masked when injected.

use merlin_ace::{AceAnalysis, AceProfiler, Interval, SessionAce, VulnerableIntervals};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{Cpu, CpuConfig, NullProbe, Probe, ReadInfo, RunResult, Structure, WRITEBACK_RIP};
use merlin_inject::{FaultEffect, Session};
use merlin_isa::{DecodedProgram, Program, Rip, Upc};
use merlin_workloads::{all_workloads, workload_by_name};
use std::collections::{BTreeMap, HashMap};

const MAX_CYCLES: u64 = 50_000_000;

#[derive(Debug, Clone, Copy)]
enum Logged {
    Write,
    Read {
        rip: Rip,
        upc: Upc,
        dyn_instance: u64,
        path_sig: u64,
    },
    Invalidate,
}

/// Every lifetime event the core reports, in the order the paper's
/// committed reads become known: writes, invalidations, drain and
/// writeback reads as they happen, and a micro-op's issue-time reads when
/// it retires.  A read carries the committed instances of its RIP before
/// its own commit and the signature of the last five committed control
/// transfers (conditional branches and indirect jumps) before it; a
/// writeback read carries zeros.
#[derive(Default)]
struct EventLog {
    events: Vec<(Structure, usize, u64, Logged)>,
    issued: BTreeMap<u64, Vec<(Structure, usize, u64)>>,
    instances: HashMap<Rip, u64>,
    path: Vec<(Rip, bool)>,
}

impl EventLog {
    fn read(&mut self, structure: Structure, entry: usize, cycle: u64, rip: Rip, upc: Upc) {
        let (dyn_instance, path_sig) = if rip == WRITEBACK_RIP {
            (0, 0)
        } else {
            let mut sig: u64 = 0xcbf2_9ce4_8422_2325;
            for &(r, t) in &self.path[self.path.len().saturating_sub(5)..] {
                sig ^= u64::from(r) << 1 | u64::from(t);
                sig = sig.wrapping_mul(0x1000_0000_01b3);
            }
            let sig = if self.path.is_empty() { 0 } else { sig };
            (self.instances.get(&rip).copied().unwrap_or(0), sig)
        };
        let read = Logged::Read {
            rip,
            upc,
            dyn_instance,
            path_sig,
        };
        self.events.push((structure, entry, cycle, read));
    }
}

impl Probe for EventLog {
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.events.push((structure, entry, cycle, Logged::Write));
    }

    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        self.read(structure, info.entry, info.cycle, info.rip, info.upc);
    }

    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.events
            .push((structure, entry, cycle, Logged::Invalidate));
    }

    fn physical_read(&mut self, structure: Structure, entry: usize, cycle: u64, seq: u64) {
        self.issued
            .entry(seq)
            .or_default()
            .push((structure, entry, cycle));
    }

    fn retired(&mut self, seq: u64, rip: Rip, upc: Upc, last_in_inst: bool, taken: Option<bool>) {
        // Older micro-ops still listed were squashed.
        while let Some(first) = self.issued.first_entry() {
            if *first.key() > seq {
                break;
            }
            let mine = *first.key() == seq;
            let reads = first.remove();
            if mine {
                for (structure, entry, cycle) in reads {
                    self.read(structure, entry, cycle, rip, upc);
                }
            }
        }
        if let Some(taken) = taken {
            self.path.push((rip, taken));
        }
        if last_in_inst {
            *self.instances.entry(rip).or_default() += 1;
        }
    }
}

/// One structure's intervals as the paper defines them: per entry, every
/// span a committed read closes, the empty ones of same-cycle reads
/// included.
type EntryLists = Vec<Vec<Interval>>;

/// The profile built the buffered way: record the whole run, then stable-sort
/// each entry's events by cycle and walk them into intervals, keeping every
/// interval a read closes.
fn buffered_profile(
    program: &Program,
    cfg: &CpuConfig,
) -> (RunResult, HashMap<Structure, EntryLists>) {
    let mut cpu = Cpu::new(program.clone(), cfg.clone()).unwrap();
    let mut log = EventLog::default();
    let golden = cpu.run(MAX_CYCLES, &mut log);
    let mut per_entry: BTreeMap<(Structure, usize), Vec<(u64, Logged)>> = BTreeMap::new();
    for (structure, entry, cycle, event) in log.events {
        per_entry
            .entry((structure, entry))
            .or_default()
            .push((cycle, event));
    }
    let mut lists: HashMap<Structure, EntryLists> = Structure::all()
        .iter()
        .map(|&s| (s, vec![Vec::new(); cfg.structure_entries(s)]))
        .collect();
    for ((structure, entry), mut events) in per_entry {
        events.sort_by_key(|&(cycle, _)| cycle);
        let list = &mut lists.get_mut(&structure).unwrap()[entry];
        let mut open_start: Option<u64> = None;
        for (cycle, event) in events {
            match event {
                Logged::Write => open_start = Some(cycle),
                Logged::Invalidate => open_start = None,
                Logged::Read {
                    rip,
                    upc,
                    dyn_instance,
                    path_sig,
                } => {
                    list.push(Interval {
                        start: open_start.unwrap_or(0),
                        end: cycle,
                        rip,
                        upc,
                        dyn_instance,
                        path_sig,
                    });
                    open_start = Some(cycle);
                }
            }
        }
    }
    (golden, lists)
}

/// The oracle's intervals that cover a cycle, as repositories.
fn non_empty(
    lists: &HashMap<Structure, EntryLists>,
    total_cycles: u64,
) -> HashMap<Structure, VulnerableIntervals> {
    lists
        .iter()
        .map(|(&s, entries)| {
            let mut repo = VulnerableIntervals::new(s, entries.len(), total_cycles);
            for (entry, list) in entries.iter().enumerate() {
                for iv in list.iter().filter(|iv| !iv.is_empty()) {
                    repo.push(entry, *iv);
                }
            }
            (s, repo)
        })
        .collect()
}

/// The interval of `list` a fault at `cycle` lands in: the first one that
/// ends at or after `cycle`, if it starts before it.
fn oracle_lookup(list: &[Interval], cycle: u64) -> Option<&Interval> {
    let first = list.partition_point(|iv| iv.end < cycle);
    list.get(first).filter(|iv| iv.start < cycle)
}

/// The ACE-like AVF of one structure's oracle lists, by the definition:
/// vulnerable bit-cycles over total bit-cycles.
fn oracle_avf(structure: Structure, lists: &EntryLists, total_cycles: u64) -> f64 {
    let bits = u64::from(structure.bits_per_entry());
    let cycles: u64 = lists.iter().flatten().map(Interval::len).sum();
    let total_bit_cycles = (lists.len() as u64 * bits).saturating_mul(total_cycles);
    if total_bit_cycles == 0 {
        0.0
    } else {
        (cycles * bits) as f64 / total_bit_cycles as f64
    }
}

/// Asserts two profiles equal, naming the first entry that differs.
fn assert_same_profile(
    what: &str,
    got: &HashMap<Structure, VulnerableIntervals>,
    want: &HashMap<Structure, VulnerableIntervals>,
) {
    for &s in Structure::all() {
        let (got, want) = (&got[&s], &want[&s]);
        for entry in 0..want.total_entries {
            assert_eq!(
                got.entry_intervals(entry),
                want.entry_intervals(entry),
                "{what}: {s} entry {entry}"
            );
        }
        assert!(got == want, "{what}: {s} repositories differ");
    }
}

/// The configurations the oracle comparisons sweep.  The 16 KB L1D evicts
/// lines, so same-cycle event order matters there.
fn oracle_configs() -> [(&'static str, CpuConfig); 2] {
    [
        ("default", CpuConfig::default()),
        ("16 KB L1D", CpuConfig::default().with_l1d_kb(16)),
    ]
}

#[test]
fn streamed_profile_matches_buffered_oracle() {
    // The profile stores the oracle's intervals that cover a cycle.
    for w in all_workloads() {
        for (label, cfg) in &oracle_configs() {
            let what = format!("{} at {label}", w.name);
            let ace = AceAnalysis::run(&w.program, cfg, MAX_CYCLES).unwrap();
            let (golden, lists) = buffered_profile(&w.program, cfg);
            assert_eq!(ace.golden, golden, "{what}");
            assert_same_profile(&what, &ace.intervals, &non_empty(&lists, golden.cycles));
        }
    }
}

#[test]
fn dropping_zero_length_intervals_changes_no_lookup() {
    // A fault at either edge of every oracle interval, the empty ones
    // included, lands in the profile where it lands in the unfiltered
    // oracle, and the AVF is the same to the bit.
    let mut empty = 0;
    for w in all_workloads() {
        for (label, cfg) in &oracle_configs() {
            let ace = AceAnalysis::run(&w.program, cfg, MAX_CYCLES).unwrap();
            let (golden, lists) = buffered_profile(&w.program, cfg);
            for &s in Structure::all() {
                let what = format!("{} at {label}: {s}", w.name);
                let (repo, lists) = (ace.structure(s), &lists[&s]);
                for (entry, list) in lists.iter().enumerate() {
                    for iv in list {
                        empty += usize::from(iv.is_empty());
                        for c in [iv.start, iv.start + 1, iv.end, iv.end + 1] {
                            assert_eq!(
                                repo.lookup(entry, c),
                                oracle_lookup(list, c),
                                "{what} entry {entry} cycle {c}"
                            );
                        }
                    }
                }
                assert_eq!(
                    repo.ace_avf().to_bits(),
                    oracle_avf(s, lists, golden.cycles).to_bits(),
                    "{what}"
                );
            }
        }
    }
    assert!(empty > 0, "the oracle holds no zero-length interval");
}

#[test]
fn flush_cadence_does_not_change_the_profile() {
    let cfg = CpuConfig::default();
    for w in all_workloads() {
        let mut cpu = Cpu::new(w.program.clone(), cfg.clone()).unwrap();
        let mut every_cycle = AceProfiler::new(&cfg);
        while !cpu.is_finished() {
            assert!(cpu.cycle() < MAX_CYCLES, "{} did not halt", w.name);
            cpu.step(&mut every_cycle);
            every_cycle.flush(cpu.cycle());
        }
        let mut at_finish = AceProfiler::new(&cfg);
        let golden = Cpu::new(w.program.clone(), cfg.clone())
            .unwrap()
            .run(MAX_CYCLES, &mut at_finish);
        assert_eq!(cpu.cycle(), golden.cycles, "{}", w.name);
        assert_same_profile(
            w.name,
            &every_cycle.finish(golden.cycles),
            &at_finish.finish(golden.cycles),
        );
    }
}

#[test]
fn profiled_dynamic_instances_are_monotonic_per_rip() {
    // A read made at issue carries the number of commits of its
    // instruction before the reading micro-op's own, so per static
    // micro-op, in commit order, the instances never decrease.
    let cfg = CpuConfig::default();
    for name in ["sha", "qsort"] {
        let program = workload_by_name(name).unwrap().program;
        let mut probe = merlin_cpu::RecordingProbe::default();
        Cpu::new(program.clone(), cfg.clone())
            .unwrap()
            .run(MAX_CYCLES, &mut probe);
        let mut commits: HashMap<Rip, u64> = HashMap::new();
        let mut last: HashMap<(Rip, Upc), u64> = HashMap::new();
        let mut instance = HashMap::new();
        for r in &probe.retired() {
            let count = commits.entry(r.rip).or_default();
            let prev = last.insert((r.rip, r.upc), *count);
            assert!(prev.is_none_or(|p| p <= *count), "{name}: {r:?}");
            instance.insert(r.seq, (r.rip, r.upc, *count));
            *count += u64::from(r.last_in_inst);
        }
        // The instances each issue-time read may carry (one static micro-op
        // can read one entry twice in a cycle, in two instances).
        let mut stamps: HashMap<(Structure, usize, u64, Rip, Upc), Vec<u64>> = HashMap::new();
        for &(s, entry, cycle, seq) in &probe.physical_reads() {
            if let Some(&(rip, upc, i)) = instance.get(&seq) {
                stamps
                    .entry((s, entry, cycle, rip, upc))
                    .or_default()
                    .push(i);
            }
        }
        let ace = AceAnalysis::run(&program, &cfg, MAX_CYCLES).unwrap();
        let mut checked = 0;
        for &s in Structure::all() {
            for (entry, iv) in ace.structure(s).iter() {
                let key = (s, entry, iv.end, iv.rip, iv.upc);
                if let Some(instances) = stamps.get(&key) {
                    assert!(instances.contains(&iv.dyn_instance), "{name}: {iv:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 1_000, "{name}: {checked} intervals checked");
    }
}

#[test]
fn ace_avf_decreases_with_register_file_size() {
    // The paper's motivating observation (§1): larger register files have
    // more dead entries, so the AVF drops as the file grows.
    let w = workload_by_name("qsort").unwrap();
    let mut avfs = Vec::new();
    for regs in [64usize, 128, 256] {
        let cfg = CpuConfig::default().with_phys_regs(regs);
        let ace = AceAnalysis::run(&w.program, &cfg, 50_000_000).unwrap();
        avfs.push(ace.structure(Structure::RegisterFile).ace_avf());
    }
    assert!(
        avfs[0] > avfs[1] && avfs[1] > avfs[2],
        "ACE AVF must shrink as the register file grows: {avfs:?}"
    );
}

#[test]
fn intervals_exist_for_all_three_structures() {
    let w = workload_by_name("fft").unwrap();
    let ace = AceAnalysis::run(&w.program, &CpuConfig::default(), 50_000_000).unwrap();
    for &s in Structure::all() {
        let iv = ace.structure(s);
        assert!(iv.interval_count() > 0, "{s} has no vulnerable intervals");
        assert!(iv.ace_avf() > 0.0, "{s} ACE AVF is zero");
        assert!(iv.ace_avf() <= 1.0, "{s} ACE AVF above 1");
        // Intervals lie within the execution and each covers a cycle.
        for (_, interval) in iv.iter() {
            assert!(interval.end > interval.start);
            assert!(interval.end <= ace.golden.cycles);
        }
    }
}

#[test]
fn intervals_per_entry_do_not_overlap() {
    // gcc with a 16 KB L1D evicts lines, so the order of an eviction's
    // writeback read, invalidation and refill write matters there.
    let cases = [
        ("susan_e", CpuConfig::default().with_phys_regs(64)),
        ("gcc", CpuConfig::default().with_l1d_kb(16)),
    ];
    for (name, cfg) in cases {
        let w = workload_by_name(name).unwrap();
        let ace = AceAnalysis::run(&w.program, &cfg, 50_000_000).unwrap();
        for &s in Structure::all() {
            let repo = ace.structure(s);
            for entry in 0..repo.total_entries {
                let ivs = repo.entry_intervals(entry);
                for pair in ivs.windows(2) {
                    assert!(
                        pair[1].start >= pair[0].end,
                        "{name} {s} entry {entry}: overlapping intervals {:?} {:?}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }
}

#[test]
fn dynamic_intervals_are_consistent_with_static_liveness() {
    // The ACE-like profile and the static analysis are two
    // independent views of the same program; they must never contradict:
    // no vulnerable interval on a statically dead register-file entry, no
    // interval closed by a statically unreachable read.
    for name in ["qsort", "sha", "fft"] {
        let w = workload_by_name(name).unwrap();
        let decoded = DecodedProgram::new(&w.program);
        let analysis = ProgramAnalysis::of(&w.program, &decoded);
        for regs in [64usize, 256] {
            let cfg = CpuConfig::default().with_phys_regs(regs);
            let ace = AceAnalysis::run(&w.program, &cfg, 50_000_000).unwrap();
            if let Err(violations) = ace.validate_static(&analysis) {
                panic!(
                    "{name} x{regs} regs: {} static violations, first: {}",
                    violations.len(),
                    violations[0]
                );
            }
        }
    }
}

#[test]
fn ace_pruned_faults_are_masked_when_injected() {
    // The soundness property behind MeRLiN's first phase: a statistically
    // sampled fault that lands outside every vulnerable interval must be
    // Masked in real injection.
    let w = workload_by_name("stringsearch").unwrap();
    let cfg = CpuConfig::default()
        .with_phys_regs(128)
        .with_store_queue(16);
    let session = Session::builder(&w.program, &cfg)
        .max_cycles(50_000_000)
        .build()
        .unwrap();
    let ace = session.ace_profile().unwrap();
    for &structure in Structure::all() {
        let faults = session.fault_list(structure, 120, 5).unwrap();
        let repo = ace.structure(structure);
        // Keep the test fast: 25 samples per structure, each simulated in
        // full from cycle 0.
        let pruned: Vec<_> = faults
            .into_iter()
            .filter(|f| repo.lookup(f.entry, f.cycle).is_none())
            .take(25)
            .collect();
        assert!(
            !pruned.is_empty(),
            "{structure}: no pruned faults sampled at all"
        );
        for o in session.campaign_from_scratch(&pruned).unwrap().outcomes {
            assert_eq!(
                o.effect,
                FaultEffect::Masked,
                "{structure} fault {} was pruned by ACE-like but not masked",
                o.fault
            );
        }
    }
}

#[test]
fn dead_sites_never_lie_inside_a_vulnerable_interval() {
    // `Cpu::fault_site_dead`, the golden run's L1D liveness log and the
    // ACE-like profile are views of the same lifetimes: an entry
    // overwritten (or evicted) before any read cannot be inside an interval
    // that a committed read closes.  This is why the MeRLiN flow, whose
    // representatives all sit inside intervals, never takes a dead-site
    // resolution.
    const SAMPLES: u64 = 48;
    for w in all_workloads() {
        let cfg = CpuConfig::default();
        let ace = AceAnalysis::run(&w.program, &cfg, 50_000_000).unwrap();
        let session = Session::builder(&w.program, &cfg)
            .max_cycles(50_000_000)
            .build()
            .unwrap();
        session.golden().unwrap();
        let log = session.golden_checkpoints().unwrap();
        let mut cpu = Cpu::new(w.program.clone(), cfg).unwrap();
        let mut checked = 0usize;
        for k in 1..SAMPLES {
            let cycle = ace.golden.cycles * k / SAMPLES;
            while cpu.cycle() < cycle {
                cpu.step(&mut NullProbe);
            }
            for &s in Structure::all() {
                let repo = ace.structure(s);
                for entry in 0..cpu.structure_entries(s) {
                    let dead = match s {
                        Structure::L1DCache => !log.l1d.is_live(entry, cycle),
                        _ => cpu.fault_site_dead(s, entry),
                    };
                    if dead {
                        checked += 1;
                        assert!(
                            repo.lookup(entry, cycle).is_none(),
                            "{}: {s} entry {entry} is dead at cycle {cycle} but inside {:?}",
                            w.name,
                            repo.lookup(entry, cycle)
                        );
                    }
                }
            }
        }
        assert!(checked > 0, "{}: no dead site sampled", w.name);
    }
}
