//! Integration tests: the ACE-like analysis against real workloads, and the
//! consistency property MeRLiN depends on — faults pruned by the ACE-like
//! step really are masked when injected.

use merlin_ace::{AceAnalysis, AceProfiler, Interval, SessionAce, VulnerableIntervals};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{Cpu, CpuConfig, NullProbe, Probe, ReadInfo, RunResult, Structure};
use merlin_inject::{FaultEffect, Session};
use merlin_isa::{DecodedProgram, Program};
use merlin_workloads::{all_workloads, workload_by_name};
use std::collections::{BTreeMap, HashMap};

const MAX_CYCLES: u64 = 50_000_000;

#[derive(Debug, Clone, Copy)]
enum Logged {
    Write,
    Read(ReadInfo),
    Invalidate,
}

/// Every lifetime event the core reports, in emission order.
#[derive(Default)]
struct EventLog(Vec<(Structure, usize, u64, Logged)>);

impl Probe for EventLog {
    fn write(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.0.push((structure, entry, cycle, Logged::Write));
    }

    fn committed_read(&mut self, structure: Structure, info: &ReadInfo) {
        self.0
            .push((structure, info.entry, info.cycle, Logged::Read(*info)));
    }

    fn invalidate(&mut self, structure: Structure, entry: usize, cycle: u64) {
        self.0.push((structure, entry, cycle, Logged::Invalidate));
    }
}

/// The profile built the buffered way: record the whole run, then stable-sort
/// each entry's events by cycle and walk them into intervals.
fn buffered_profile(
    program: &Program,
    cfg: &CpuConfig,
) -> (RunResult, HashMap<Structure, VulnerableIntervals>) {
    let mut cpu = Cpu::new(program.clone(), cfg.clone()).unwrap();
    let mut log = EventLog::default();
    let golden = cpu.run(MAX_CYCLES, &mut log);
    let mut per_entry: BTreeMap<(Structure, usize), Vec<(u64, Logged)>> = BTreeMap::new();
    for (structure, entry, cycle, event) in log.0 {
        per_entry
            .entry((structure, entry))
            .or_default()
            .push((cycle, event));
    }
    let mut repos: HashMap<Structure, VulnerableIntervals> = Structure::all()
        .iter()
        .map(|&s| {
            let entries = cfg.structure_entries(s);
            (s, VulnerableIntervals::new(s, entries, golden.cycles))
        })
        .collect();
    for ((structure, entry), mut events) in per_entry {
        events.sort_by_key(|&(cycle, _)| cycle);
        let repo = repos.get_mut(&structure).unwrap();
        let mut open_start: Option<u64> = None;
        for (cycle, event) in events {
            match event {
                Logged::Write => open_start = Some(cycle),
                Logged::Invalidate => open_start = None,
                Logged::Read(info) => {
                    repo.push(
                        entry,
                        Interval {
                            start: open_start.unwrap_or(0),
                            end: cycle,
                            rip: info.rip,
                            upc: info.upc,
                            dyn_instance: info.dyn_instance,
                            path_sig: info.path_sig,
                        },
                    );
                    open_start = Some(cycle);
                }
            }
        }
    }
    (golden, repos)
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

#[test]
fn streamed_profile_matches_buffered_oracle() {
    // The 16 KB L1D evicts lines, so same-cycle event order matters there.
    let configs = [
        ("default", CpuConfig::default()),
        ("16 KB L1D", CpuConfig::default().with_l1d_kb(16)),
    ];
    for w in all_workloads() {
        for (label, cfg) in &configs {
            let what = format!("{} at {label}", w.name);
            let ace = AceAnalysis::run(&w.program, cfg, MAX_CYCLES).unwrap();
            let (golden, intervals) = buffered_profile(&w.program, cfg);
            assert_eq!(ace.golden, golden, "{what}");
            assert_same_profile(&what, &ace.intervals, &intervals);
        }
    }
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
            every_cycle.flush(cpu.event_floor());
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
        // Intervals lie within the execution and are well formed.
        for (_, interval) in iv.iter() {
            assert!(interval.end >= interval.start);
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
        let mut injector = session.injector().unwrap();
        let mut pruned_checked = 0;
        for f in faults {
            if repo.lookup(f.entry, f.cycle).is_none() {
                pruned_checked += 1;
                if pruned_checked > 25 {
                    break; // keep the test fast; 25 samples per structure
                }
                let effect = injector.run(f);
                assert_eq!(
                    effect,
                    FaultEffect::Masked,
                    "{structure} fault {f} was pruned by ACE-like but not masked"
                );
            }
        }
        assert!(
            pruned_checked > 0,
            "{structure}: no pruned faults sampled at all"
        );
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
