//! Property: fork-on-divergence batching is *outcome-invisible*.
//!
//! The batched driver replays each checkpoint range's golden prefix once,
//! resolves faults on dead sites at their injection cycle and forks faulty
//! cores from the live golden state for the rest, so it must prove it
//! changed only the work, never the answer:
//!
//! * a batched campaign is byte-identical to the per-fault oracle AND to a
//!   full from-scratch simulation at 1/2/4/8 worker threads, for random
//!   register-file fault lists (proptest), for a pinned list, and for
//!   store-queue and L1D lists (a store-free program included);
//! * every probe-retired fork (counted by `forks_retired`, classified
//!   Masked without finishing its run) and every dead-site fault (counted
//!   by `dead_sites`, classified Masked without a fork) really is Masked
//!   under full simulation — the byte-identity against the from-scratch
//!   campaign, which fully simulates every fault with no convergence
//!   probes and no dead-site query, pins exactly that;
//! * the telemetry is exact: a reference scan, stepping its own golden core
//!   and querying `Cpu::fault_site_dead` at each injection cycle, predicts
//!   `dead_sites`, and the remaining faults account for `early_exits` and
//!   `forks_spawned` one for one.

use merlin_cpu::{CheckpointPolicy, Cpu, CpuConfig, NullProbe};
use merlin_inject::{BatchingPolicy, CampaignResult, FaultSpec, Session, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, Program, ProgramBuilder};
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

fn session(program: &Program, threads: usize, batching: BatchingPolicy) -> Session {
    Session::builder(program, &CpuConfig::default().with_phys_regs(64))
        .checkpoints(CheckpointPolicy {
            enabled: true,
            target_checkpoints: 8,
            min_interval: 8,
            early_exit: true,
            ..CheckpointPolicy::default()
        })
        .max_cycles(1_000_000)
        .threads(threads)
        .batching(batching)
        .build()
        .unwrap()
}

/// One program's sessions: batched at several thread counts, plus the
/// per-fault oracle (single-threaded; outcomes are thread-count invariant
/// anyway, and the suite pins that separately).
struct Sessions {
    batched: Vec<Session>,
    per_fault: Session,
}

impl Sessions {
    fn new(program: &Program, threads: &[usize]) -> Self {
        Sessions {
            batched: threads
                .iter()
                .map(|&t| session(program, t, BatchingPolicy::Batched))
                .collect(),
            per_fault: session(program, 1, BatchingPolicy::PerFault),
        }
    }
}

struct Shared {
    /// `tiny_program` batched at 1, 2, 4 and 8 worker threads.
    tiny: Sessions,
    /// `store_free_program` batched at 1 and 4 worker threads.
    store_free: Sessions,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        tiny: Sessions::new(&tiny_program(), &[1, 2, 4, 8]),
        store_free: Sessions::new(&store_free_program(), &[1, 4]),
    })
}

/// Reference partition of a fault list, computed without the scheduler:
/// statically pruned faults, faults on sites a golden core stepped to
/// their injection cycle reports dead, and the live rest (in list order).
struct Partition {
    static_prunes: u64,
    dead: u64,
    live: Vec<FaultSpec>,
}

fn partition(s: &Session, faults: &[FaultSpec]) -> Partition {
    let mut golden = Cpu::with_predecoded(
        Arc::clone(s.program()),
        Arc::clone(s.decoded()),
        s.config().clone(),
    )
    .unwrap();
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
    Partition {
        static_prunes,
        dead,
        live: live_idx.into_iter().map(|i| faults[i]).collect(),
    }
}

/// Exact telemetry of a batched campaign against the reference partition:
/// dead-site and static-prune counts match it, the live faults' early
/// exits match the per-fault oracle's on the live sublist, and every fault
/// is accounted for by exactly one resolution path.
fn assert_exact_telemetry(
    part: &Partition,
    live_oracle: &CampaignResult,
    faults: &[FaultSpec],
    batched: &CampaignResult,
    label: &str,
) {
    let sched = &batched.schedule;
    assert_eq!(sched.dead_sites, part.dead, "{label}");
    assert_eq!(sched.static_prunes, part.static_prunes, "{label}");
    assert_eq!(batched.early_exits, live_oracle.early_exits, "{label}");
    assert_eq!(
        sched.static_prunes + sched.skipped_sites + sched.dead_sites + sched.forks_spawned,
        faults.len() as u64,
        "{label}"
    );
}

#[test]
fn batched_campaign_matches_the_per_fault_oracle_with_live_telemetry() {
    let s = &shared().tiny;
    let faults = s
        .per_fault
        .fault_list(Structure::RegisterFile, 80, 42)
        .unwrap();
    let oracle = s.per_fault.campaign(&faults).unwrap();
    // The per-fault engine never batches, forks, replays or queries dead
    // sites.
    assert_eq!(oracle.schedule.batched_ranges, 0);
    assert_eq!(oracle.schedule.forks_spawned, 0);
    assert_eq!(oracle.schedule.forks_retired, 0);
    assert_eq!(oracle.schedule.dead_sites, 0);
    assert_eq!(oracle.schedule.golden_replay_cycles, 0);
    let scratch = s.per_fault.campaign_from_scratch(&faults).unwrap();
    assert_eq!(oracle.outcomes, scratch.outcomes);
    let part = partition(&s.per_fault, &faults);
    assert!(part.dead > 0, "free registers must show up as dead sites");
    let live_oracle = s.per_fault.campaign(&part.live).unwrap();

    for session in &s.batched {
        let t = session.threads();
        let batched = session.campaign(&faults).unwrap();
        assert_eq!(batched.outcomes, oracle.outcomes, "x{t} threads");
        assert_exact_telemetry(&part, &live_oracle, &faults, &batched, &format!("x{t}"));
        // The batched engine actually ran: every range went through the
        // driver and every live fault lived as a fork.
        assert!(batched.schedule.batched_ranges > 0, "x{t} threads");
        assert!(batched.schedule.forks_spawned > 0, "x{t} threads");
        assert!(
            batched.schedule.forks_spawned >= batched.schedule.forks_retired,
            "x{t} threads"
        );
        // Every probe retirement is an early-exit outcome.
        assert_eq!(
            batched.schedule.forks_retired, batched.early_exits,
            "x{t} threads"
        );
        // The whole point of the inversion: the golden prefix is replayed
        // once per range, and the faulty cores simulate strictly fewer
        // cycles than the per-fault engine paid in total.
        assert!(batched.schedule.golden_replay_cycles > 0, "x{t} threads");
        assert!(
            batched.schedule.suffix_cycles + batched.schedule.golden_replay_cycles
                < oracle.schedule.suffix_cycles,
            "x{t} threads: batching must reduce simulated cycles \
             (batched {} + golden replay {} vs per-fault {})",
            batched.schedule.suffix_cycles,
            batched.schedule.golden_replay_cycles,
            oracle.schedule.suffix_cycles
        );
    }
}

#[test]
fn store_queue_and_l1d_campaigns_match_both_oracles_with_exact_telemetry() {
    let sh = shared();
    let cases = [
        ("store queue", &sh.tiny, Structure::StoreQueue, false),
        (
            "store queue, store-free",
            &sh.store_free,
            Structure::StoreQueue,
            true,
        ),
        ("L1D", &sh.tiny, Structure::L1DCache, false),
    ];
    for (name, s, structure, store_free) in cases {
        let faults = s.per_fault.fault_list(structure, 60, 11).unwrap();
        let oracle = s.per_fault.campaign(&faults).unwrap();
        let scratch = s.per_fault.campaign_from_scratch(&faults).unwrap();
        assert_eq!(oracle.outcomes, scratch.outcomes, "{name}");
        let part = partition(&s.per_fault, &faults);
        assert!(part.dead > 0, "{name}: no dead sites drawn");
        let live_oracle = s.per_fault.campaign(&part.live).unwrap();
        for session in s.batched.iter().filter(|b| [1, 4].contains(&b.threads())) {
            let label = format!("{name} x{}", session.threads());
            let batched = session.campaign(&faults).unwrap();
            assert_eq!(batched.outcomes, scratch.outcomes, "{label}");
            assert_exact_telemetry(&part, &live_oracle, &faults, &batched, &label);
        }
        if store_free {
            // No slot is ever allocated: every fault due while the program
            // runs is dead; only faults past its halt can reach a fork.
            let halt = s.per_fault.golden().unwrap().result.cycles;
            assert!(part.live.iter().all(|f| f.cycle >= halt), "{name}");
        }
    }
}

#[test]
fn duplicated_faults_classify_like_the_oracle() {
    let s = &shared().tiny;
    let base = s
        .per_fault
        .fault_list(Structure::RegisterFile, 40, 7)
        .unwrap();
    // Every fault twice: each twin is resolved (or forked and simulated)
    // on its own and must classify exactly as the oracle does.
    let doubled: Vec<FaultSpec> = base.iter().flat_map(|&f| [f, f]).collect();
    let oracle = s.per_fault.campaign(&doubled).unwrap();
    for session in &s.batched {
        let t = session.threads();
        let result = session.campaign(&doubled).unwrap();
        assert_eq!(result.outcomes, oracle.outcomes, "x{t} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fault lists: batched == per-fault == full simulation, at
    /// every thread count.  The from-scratch leg fully simulates every
    /// fault with no convergence probes and no dead-site query, so this
    /// simultaneously proves that each probe-retired fork (`forks_retired`)
    /// and each dead-site fault (`dead_sites`) really classifies Masked
    /// under full simulation.
    #[test]
    fn batched_equals_per_fault_and_full_simulation(
        seed in 0u64..1_000_000,
        count in 40usize..80,
    ) {
        let s = &shared().tiny;
        let faults = s
            .per_fault
            .fault_list(Structure::RegisterFile, count, seed)
            .unwrap();
        let oracle = s.per_fault.campaign(&faults).unwrap();
        let scratch = s.per_fault.campaign_from_scratch(&faults).unwrap();
        prop_assert_eq!(&oracle.outcomes, &scratch.outcomes);
        for session in &s.batched {
            let batched = session.campaign(&faults).unwrap();
            prop_assert_eq!(
                &batched.outcomes,
                &scratch.outcomes,
                "batching changed an outcome at x{} threads",
                session.threads()
            );
        }
    }
}
