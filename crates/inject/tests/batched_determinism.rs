//! Property: the batched campaign engine is *outcome-invisible*.
//!
//! The batched driver replays each checkpoint range's golden prefix once,
//! resolves faults on dead sites at their injection cycle and forks faulty
//! cores from the live golden state for the rest, so it must prove it
//! changed only the work, never the answer:
//!
//! * a campaign is byte-identical to full from-scratch simulation at
//!   1/2/4/8 worker threads, for random register-file fault lists
//!   (proptest), for a pinned list, for store-queue and L1D lists (a
//!   store-free program included) and for every built-in workload ×
//!   RF/SQ/L1D;
//! * every probe-retired fork (counted by `forks_retired`, classified
//!   Masked without finishing its run) and every dead-site fault (counted
//!   by `dead_sites`, classified Masked without a fork) really is Masked
//!   under full simulation — the byte-identity against the from-scratch
//!   campaign, which fully simulates every fault with no convergence
//!   probes and no dead-site query, pins exactly that;
//! * the telemetry is exact: a reference scan predicts `dead_sites`, by
//!   stepping its own golden core and querying `Cpu::fault_site_dead` at
//!   each register-file and store-queue fault's injection cycle, and by
//!   scanning its own recording of the golden run's L1D events for each
//!   L1D fault (independent of the engine's liveness log); stepping a
//!   fresh core per live fault from reset and comparing its full state
//!   with the golden store at each boundary predicts `forks_retired` and
//!   `early_exits`; and the remaining faults account for `forks_spawned`
//!   one for one;
//! * with a 2 KB L1D, where lines are evicted, written back dirty and
//!   refilled, every built-in workload's L1D faults in valid lines classify
//!   as from-scratch simulation does.

use merlin_cpu::{CheckpointPolicy, Cpu, CpuConfig, NullProbe, Probe, ReadInfo, WRITEBACK_RIP};
use merlin_inject::{CampaignResult, FaultSpec, Session, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, Program, ProgramBuilder};
use merlin_workloads::workload_by_name;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn tiny_program() -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(&[2, 7, 1, 8, 2, 8, 1, 8]);
    b.movi(reg(10), data as i64);
    b.movi(reg(1), 0);
    b.movi(reg(2), 0);
    let top = b.bind_label();
    b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.store(reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
    b.branch_ri(Cond::Lt, reg(1), 8, top);
    b.out(reg(2));
    b.halt();
    b.build().unwrap()
}

/// `tiny_program` without its store: no store-queue slot is ever
/// allocated, so every store-queue fault lands on a dead site.
fn store_free_program() -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(&[2, 7, 1, 8, 2, 8, 1, 8]);
    b.movi(reg(10), data as i64);
    b.movi(reg(1), 0);
    b.movi(reg(2), 0);
    let top = b.bind_label();
    b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
    b.branch_ri(Cond::Lt, reg(1), 8, top);
    b.out(reg(2));
    b.halt();
    b.build().unwrap()
}

fn session(program: &Program, threads: usize) -> Session {
    Session::builder(program, &CpuConfig::default().with_phys_regs(64))
        .checkpoints(CheckpointPolicy {
            target_checkpoints: 8,
            min_interval: 8,
        })
        .max_cycles(1_000_000)
        .threads(threads)
        .build()
        .unwrap()
}

/// One program's sessions at several thread counts; the first is
/// single-threaded and serves the from-scratch oracle (its outcomes are
/// thread-count invariant anyway, and the suite pins that separately).
struct Sessions(Vec<Session>);

impl Sessions {
    fn new(program: &Program, threads: &[usize]) -> Self {
        Sessions(threads.iter().map(|&t| session(program, t)).collect())
    }

    fn oracle(&self) -> &Session {
        &self.0[0]
    }
}

struct Shared {
    /// `tiny_program` at 1, 2, 4 and 8 worker threads.
    tiny: Sessions,
    /// `store_free_program` at 1 and 4 worker threads.
    store_free: Sessions,
    /// The built-in `sha` workload at 1 and 4 worker threads: long enough
    /// for forks to re-converge (the tiny programs halt before any does).
    sha: Sessions,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        tiny: Sessions::new(&tiny_program(), &[1, 2, 4, 8]),
        store_free: Sessions::new(&store_free_program(), &[1, 4]),
        sha: Sessions::new(&workload_by_name("sha").unwrap().program, &[1, 4]),
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum L1dEvent {
    Read,
    Write,
    Invalidate,
}

/// Every physical event on each L1D word of one golden run, per word in
/// the order the core emits them: load reads at issue, writeback reads,
/// writes and invalidations.
struct L1dTape(Vec<Vec<(u64, L1dEvent)>>);

impl Probe for L1dTape {
    fn write(&mut self, s: Structure, entry: usize, cycle: u64) {
        if s == Structure::L1DCache {
            self.0[entry].push((cycle, L1dEvent::Write));
        }
    }

    fn committed_read(&mut self, s: Structure, info: &ReadInfo) {
        if s == Structure::L1DCache && info.rip == WRITEBACK_RIP {
            self.0[info.entry].push((info.cycle, L1dEvent::Read));
        }
    }

    fn invalidate(&mut self, s: Structure, entry: usize, cycle: u64) {
        if s == Structure::L1DCache {
            self.0[entry].push((cycle, L1dEvent::Invalidate));
        }
    }

    fn physical_read(&mut self, s: Structure, entry: usize, cycle: u64, _seq: u64) {
        if s == Structure::L1DCache {
            self.0[entry].push((cycle, L1dEvent::Read));
        }
    }
}

impl L1dTape {
    /// Records the session's golden run on a fresh core.
    fn record(s: &Session) -> Self {
        let mut tape = L1dTape(vec![Vec::new(); s.structure_entries(Structure::L1DCache)]);
        let mut cpu = Cpu::with_predecoded(
            Arc::clone(s.program()),
            Arc::clone(s.decoded()),
            s.config().clone(),
        )
        .unwrap();
        cpu.run(s.max_cycles(), &mut tape);
        tape
    }

    /// Whether a flip in `word` at the start of `cycle` is overwritten or
    /// evicted before anything reads it: the word's first event at or
    /// after `cycle` is not a read.
    fn dead(&self, word: usize, cycle: u64) -> bool {
        self.0[word]
            .iter()
            .find(|&&(c, _)| c >= cycle)
            .is_none_or(|&(_, e)| e != L1dEvent::Read)
    }

    /// Whether `word`'s line is valid at the start of `cycle`: its last
    /// write or invalidation before `cycle` was a write.
    fn valid(&self, word: usize, cycle: u64) -> bool {
        self.0[word]
            .iter()
            .take_while(|&&(c, _)| c < cycle)
            .filter(|&&(_, e)| e != L1dEvent::Read)
            .last()
            .is_some_and(|&(_, e)| e == L1dEvent::Write)
    }
}

/// Reference partition of a fault list, computed without the scheduler:
/// statically pruned faults, dead faults (register-file and store-queue
/// sites a golden core stepped to their injection cycle reports dead, and
/// L1D flips the recorded golden run never reads), and the live rest (in
/// list order), with how many of the live faults re-converge with the
/// golden store.
struct Partition {
    static_prunes: u64,
    dead: u64,
    live: Vec<FaultSpec>,
    retired: u64,
}

fn partition(s: &Session, faults: &[FaultSpec]) -> Partition {
    let mut golden = Cpu::with_predecoded(
        Arc::clone(s.program()),
        Arc::clone(s.decoded()),
        s.config().clone(),
    )
    .unwrap();
    let tape = L1dTape::record(s);
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| (faults[i].cycle, i));
    let mut live_idx = Vec::new();
    let (mut static_prunes, mut dead) = (0u64, 0u64);
    for i in order {
        let f = faults[i];
        assert!(f.entry < s.structure_entries(f.structure));
        if f.structure == Structure::RegisterFile && s.analysis().rf_entry_statically_dead(f.entry)
        {
            static_prunes += 1;
            continue;
        }
        if f.structure == Structure::L1DCache {
            if tape.dead(f.entry, f.cycle) {
                dead += 1;
            } else {
                live_idx.push(i);
            }
            continue;
        }
        while !golden.is_finished() && golden.cycle() < f.cycle {
            golden.step(&mut NullProbe);
        }
        if !golden.is_finished()
            && golden.cycle() == f.cycle
            && golden.fault_site_dead(f.structure, f.entry)
        {
            dead += 1;
        } else {
            live_idx.push(i);
        }
    }
    live_idx.sort_unstable();
    let live: Vec<FaultSpec> = live_idx.into_iter().map(|i| faults[i]).collect();
    let retired = live.iter().filter(|&&f| reconverges(s, f)).count() as u64;
    Partition {
        static_prunes,
        dead,
        live,
        retired,
    }
}

/// Whether `fault`, simulated on a fresh core from reset, reaches a state
/// equal in full to the golden store's snapshot at some store boundary
/// after its injection cycle, before the run halts or times out.  This is
/// the engine's early-exit condition, checked without restores or forks.
fn reconverges(s: &Session, fault: FaultSpec) -> bool {
    let golden = s.golden().unwrap();
    let store = &golden.checkpoints.store;
    let mut cpu = Cpu::with_predecoded(
        Arc::clone(s.program()),
        Arc::clone(s.decoded()),
        s.config().clone(),
    )
    .unwrap();
    cpu.inject_fault(fault).unwrap();
    while !cpu.is_finished() && cpu.cycle() < golden.timeout_cycles {
        if cpu.cycle() > fault.cycle {
            if let Some(g) = store.at_cycle(cpu.cycle()) {
                if cpu.matches_state(g) {
                    return true;
                }
            }
        }
        cpu.step(&mut NullProbe);
    }
    false
}

/// Exact telemetry of a campaign against the reference partition:
/// dead-site, static-prune and re-convergence counts match it, and every
/// fault is accounted for by exactly one resolution path.
fn assert_exact_telemetry(
    part: &Partition,
    faults: &[FaultSpec],
    result: &CampaignResult,
    label: &str,
) {
    let sched = &result.schedule;
    assert_eq!(sched.dead_sites, part.dead, "{label}");
    assert_eq!(sched.static_prunes, part.static_prunes, "{label}");
    assert_eq!(result.early_exits, part.retired, "{label}");
    assert_eq!(sched.forks_retired, part.retired, "{label}");
    assert_eq!(
        sched.static_prunes + sched.skipped_sites + sched.dead_sites + sched.forks_spawned,
        faults.len() as u64,
        "{label}"
    );
    // The engine actually ran: every live fault reached a core, and the
    // golden prefix was replayed.
    assert_eq!(sched.forks_spawned, part.live.len() as u64, "{label}");
    assert!(sched.forks_spawned >= sched.forks_retired, "{label}");
    assert!(sched.golden_replay_cycles > 0, "{label}");
}

#[test]
fn campaigns_match_from_scratch_with_exact_telemetry() {
    let sh = shared();
    let cases = [
        ("tiny RF", &sh.tiny, Structure::RegisterFile),
        ("sha RF", &sh.sha, Structure::RegisterFile),
        ("tiny SQ", &sh.tiny, Structure::StoreQueue),
        ("store-free SQ", &sh.store_free, Structure::StoreQueue),
        ("sha SQ", &sh.sha, Structure::StoreQueue),
        ("tiny L1D", &sh.tiny, Structure::L1DCache),
        ("sha L1D", &sh.sha, Structure::L1DCache),
    ];
    let mut retired = 0;
    for (name, s, structure) in cases {
        // Store-queue and L1D sites of these short programs are nearly all
        // dead (empty slots, invalid lines), so their lists are long enough
        // to draw live faults too.
        let (count, seed) = match structure {
            Structure::RegisterFile => (80, 42),
            _ => (600, 11),
        };
        let mut faults = s.oracle().fault_list(structure, count, seed).unwrap();
        if structure == Structure::L1DCache {
            // Uniform L1D flips are nearly all dead (invalid lines, words
            // not read again), so add flips at the edges of the recorded
            // reads, where an off-by-one in the liveness log would show: at
            // a read's cycle (live unless a write or eviction precedes the
            // read in that cycle) and one cycle after it.
            let tape = L1dTape::record(s.oracle());
            let edges: Vec<(usize, u64)> = tape
                .0
                .iter()
                .enumerate()
                .flat_map(|(w, events)| {
                    events
                        .iter()
                        .filter(|&&(_, e)| e == L1dEvent::Read)
                        .flat_map(move |&(c, _)| [(w, c), (w, c + 1)])
                })
                .collect();
            let stride = (edges.len() / 60).max(1);
            faults.extend(
                edges
                    .into_iter()
                    .step_by(stride)
                    .take(60)
                    .map(|(w, c)| FaultSpec::new(structure, w, (c % 64) as u8, c)),
            );
        }
        let scratch = s.oracle().campaign_from_scratch(&faults).unwrap();
        // From-scratch simulation never forks, replays, probes, restores
        // or queries dead sites.
        assert_eq!(scratch.schedule.forks_spawned, 0, "{name}");
        assert_eq!(scratch.early_exits, 0, "{name}");
        assert_eq!(scratch.schedule.dead_sites, 0, "{name}");
        assert_eq!(scratch.schedule.golden_replay_cycles, 0, "{name}");
        assert_eq!(scratch.schedule.restores, 0, "{name}");
        let part = partition(s.oracle(), &faults);
        assert!(part.dead > 0, "{name}: no dead sites drawn");
        assert!(!part.live.is_empty(), "{name}: no live sites drawn");
        retired += part.retired;
        for session in &s.0 {
            let label = format!("{name} x{}", session.threads());
            let result = session.campaign(&faults).unwrap();
            assert_eq!(result.outcomes, scratch.outcomes, "{label}");
            assert_exact_telemetry(&part, &faults, &result, &label);
            // The golden prefix is replayed once per range, and the faulty
            // cores simulate strictly fewer cycles than from-scratch
            // simulation paid in total.
            assert!(
                result.schedule.suffix_cycles + result.schedule.golden_replay_cycles
                    < scratch.schedule.suffix_cycles,
                "{label}: checkpoints must reduce simulated cycles \
                 (suffix {} + golden replay {} vs from-scratch {})",
                result.schedule.suffix_cycles,
                result.schedule.golden_replay_cycles,
                scratch.schedule.suffix_cycles
            );
        }
        if std::ptr::eq(s, &sh.store_free) {
            // No slot is ever allocated: every fault due while the program
            // runs is dead; only faults past its halt can reach a fork.
            let halt = s.oracle().golden().unwrap().result.cycles;
            assert!(part.live.iter().all(|f| f.cycle >= halt), "{name}");
        }
    }
    // Without re-converging forks the early-exit counts would be checked
    // only against zero.
    assert!(retired > 0, "no fork re-converged in any case");
}

#[test]
fn duplicated_faults_classify_like_the_oracle() {
    let s = &shared().tiny;
    let base = s
        .oracle()
        .fault_list(Structure::RegisterFile, 40, 7)
        .unwrap();
    // Every fault twice: each twin is resolved (or forked and simulated)
    // on its own and must classify exactly as the oracle does.
    let doubled: Vec<FaultSpec> = base.iter().flat_map(|&f| [f, f]).collect();
    let oracle = s.oracle().campaign_from_scratch(&doubled).unwrap();
    for session in &s.0 {
        let t = session.threads();
        let result = session.campaign(&doubled).unwrap();
        assert_eq!(result.outcomes, oracle.outcomes, "x{t} threads");
    }
}

/// The oracle sweep: every built-in workload × register file, store queue
/// and L1D, a few faults per cell, at 1 and 4 worker threads, under the
/// default configuration and checkpoint policy.
#[test]
fn every_workload_and_structure_matches_from_scratch() {
    for w in merlin_workloads::all_workloads() {
        let sessions: Vec<Session> = [1, 4]
            .into_iter()
            .map(|t| {
                Session::builder(&w.program, &CpuConfig::default())
                    .threads(t)
                    .build()
                    .unwrap()
            })
            .collect();
        for (i, &structure) in Structure::all().iter().enumerate() {
            let faults = sessions[0]
                .fault_list(structure, 4, 2017 + i as u64)
                .unwrap();
            let scratch = sessions[0].campaign_from_scratch(&faults).unwrap();
            for session in &sessions {
                let result = session.campaign(&faults).unwrap();
                assert_eq!(
                    result.outcomes,
                    scratch.outcomes,
                    "{} {structure} x{}",
                    w.name,
                    session.threads()
                );
            }
        }
    }
}

/// The oracle sweep with evictions: every built-in workload's L1D under a
/// 2 KB L1D, where lines are evicted, written back dirty and refilled, so
/// the liveness log's event order is exercised.  Faults are drawn in lines
/// that are valid at the injection cycle (an invalid line's flip is dead
/// whatever the order), and classify as from-scratch simulation does at 1
/// and 4 worker threads, with `dead_sites` as the recorded golden run
/// predicts.
#[test]
fn every_workload_matches_from_scratch_with_a_small_l1d() {
    const PER_CELL: usize = 5;
    let cfg = CpuConfig::default().with_l1d_kb(2);
    let (mut dead, mut live) = (0usize, 0usize);
    for w in merlin_workloads::all_workloads() {
        let sessions: Vec<Session> = [1, 4]
            .into_iter()
            .map(|t| {
                Session::builder(&w.program, &cfg)
                    .threads(t)
                    .build()
                    .unwrap()
            })
            .collect();
        let tape = L1dTape::record(&sessions[0]);
        let faults: Vec<FaultSpec> = sessions[0]
            .fault_list(Structure::L1DCache, 400, 2017)
            .unwrap()
            .into_iter()
            .filter(|f| tape.valid(f.entry, f.cycle))
            .take(PER_CELL)
            .collect();
        assert_eq!(faults.len(), PER_CELL, "{}: valid-line faults", w.name);
        let cell_dead = faults
            .iter()
            .filter(|f| tape.dead(f.entry, f.cycle))
            .count();
        dead += cell_dead;
        live += PER_CELL - cell_dead;
        let scratch = sessions[0].campaign_from_scratch(&faults).unwrap();
        for session in &sessions {
            let label = format!("{} L1D 2 KB x{}", w.name, session.threads());
            let result = session.campaign(&faults).unwrap();
            assert_eq!(result.outcomes, scratch.outcomes, "{label}");
            assert_eq!(result.schedule.dead_sites, cell_dead as u64, "{label}");
        }
    }
    // Both resolution paths ran: faults the log resolved and faults the
    // engine forked.
    assert!(dead > 0 && live > 0, "dead {dead}, live {live}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault lists: campaign == full simulation, at every thread
    /// count.  The from-scratch leg fully simulates every fault with no
    /// convergence probes and no dead-site query, so this simultaneously
    /// proves that each probe-retired fork (`forks_retired`) and each
    /// dead-site fault (`dead_sites`) really classifies Masked under full
    /// simulation.
    #[test]
    fn campaign_equals_full_simulation(
        seed in 0u64..1_000_000,
        count in 40usize..80,
    ) {
        let s = &shared().tiny;
        let faults = s
            .oracle()
            .fault_list(Structure::RegisterFile, count, seed)
            .unwrap();
        let scratch = s.oracle().campaign_from_scratch(&faults).unwrap();
        for session in &s.0 {
            let result = session.campaign(&faults).unwrap();
            prop_assert_eq!(
                &result.outcomes,
                &scratch.outcomes,
                "the engine changed an outcome at x{} threads",
                session.threads()
            );
        }
    }
}
