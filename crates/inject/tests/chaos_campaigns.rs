//! End-to-end failure containment under engine-level faults, driven by the
//! [`merlin_inject::chaos`] probe: a fault whose simulation panics on every
//! attempt is classified `Assert`, and every other fault's classification
//! stays byte-identical to a clean campaign at any thread count, on the
//! checkpointed and the from-scratch path alike.  The cores the panic ran
//! on are dropped, so the cores that run later faults are unaffected.
//!
//! Chaos state is process-global, so every test here serialises on one lock.

use merlin_cpu::{CheckpointPolicy, CpuConfig};
use merlin_inject::chaos::{self, ChaosPlan};
use merlin_inject::{FaultEffect, FaultSpec, Session, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, Program, ProgramBuilder};
use std::sync::{Mutex, MutexGuard};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    match CHAOS_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn tiny_program() -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(&[11, 22, 33, 44, 55, 66, 77, 88]);
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

fn session(threads: usize) -> Session {
    Session::builder(&tiny_program(), &CpuConfig::default())
        .checkpoints(CheckpointPolicy {
            target_checkpoints: 8,
            min_interval: 8,
        })
        .max_cycles(1_000_000)
        .threads(threads)
        .build()
        .unwrap()
}

fn fault_list(s: &Session) -> Vec<FaultSpec> {
    s.fault_list(Structure::RegisterFile, 80, 42).unwrap()
}

/// A fault cycle that appears exactly once in the list, is not the latest,
/// and targets a statically-live register-file entry.  Statically-pruned
/// faults are classified without ever reaching the per-fault probe, so a
/// chaos target must be a fault the engine really reaches; uniqueness
/// means arming it targets exactly one fault, and "not the latest" means at
/// least one later fault exercises the post-panic restore on the same
/// worker.
fn unique_mid_cycle(s: &Session, faults: &[FaultSpec]) -> u64 {
    let analysis = s.analysis();
    let mut cycles: Vec<u64> = faults.iter().map(|f| f.cycle).collect();
    cycles.sort_unstable();
    let max = *cycles.last().unwrap();
    let mut live: Vec<u64> = faults
        .iter()
        .filter(|f| !analysis.rf_entry_statically_dead(f.entry))
        .map(|f| f.cycle)
        .collect();
    live.sort_unstable();
    live.into_iter()
        .find(|&c| c < max && cycles.iter().filter(|&&x| x == c).count() == 1)
        .expect("80 sampled faults contain a unique non-final cycle into a live entry")
}

#[test]
fn fault_panic_becomes_assert_and_reruns_the_range_per_fault() {
    let _serial = serial();
    let clean = session(1);
    let faults = fault_list(&clean);
    let clean_result = clean.campaign(&faults).unwrap();
    assert_eq!(clean_result.schedule.asserts, 0);
    assert_eq!(clean_result.schedule.range_retries, 0);
    let target = unique_mid_cycle(&clean, &faults);

    // An unbudgeted chaos fault panics at the dead-site query of the
    // batched driver, on the range's golden core.  The panic drops the
    // range's cores and the worker re-runs the range's faults one per
    // range: the target panics again and is classified Assert.
    let _guard = chaos::arm(ChaosPlan {
        fault_panic_cycles: vec![target],
    });
    let mut reference: Option<Vec<_>> = None;
    for threads in [1usize, 2, 4, 8] {
        let result = session(threads).campaign(&faults).unwrap();
        // The chaos fault is Assert; every other fault is byte-identical to
        // the clean campaign.
        for (out, clean_out) in result.outcomes.iter().zip(&clean_result.outcomes) {
            if out.fault.cycle == target {
                assert_eq!(out.effect, FaultEffect::Assert, "x{threads}");
            } else {
                assert_eq!(out, clean_out, "x{threads}");
            }
        }
        assert_eq!(result.schedule.asserts, 1, "x{threads}");
        // The panicked attempt is counted as a range retry.
        assert!(result.schedule.range_retries >= 1, "x{threads}");
        // And byte-identical across thread counts, panics included.
        match &reference {
            None => reference = Some(result.outcomes),
            Some(r) => assert_eq!(r, &result.outcomes, "x{threads}"),
        }
    }
    assert!(
        chaos::fault_panics_fired() >= 8,
        "per campaign: once in the range, once in its one-fault re-run"
    );
}

#[test]
fn from_scratch_fault_panic_becomes_assert_at_any_thread_count() {
    let _serial = serial();
    let clean = session(1);
    let faults = fault_list(&clean);
    let clean_result = clean.campaign_from_scratch(&faults).unwrap();
    assert_eq!(clean_result.schedule.asserts, 0);
    let target = unique_mid_cycle(&clean, &faults);

    // The probe fires before the target's from-scratch run, in its chunk
    // and again in its one-fault re-run.
    let _guard = chaos::arm(ChaosPlan {
        fault_panic_cycles: vec![target],
    });
    let mut reference: Option<Vec<_>> = None;
    for threads in [1usize, 2, 4] {
        let result = session(threads).campaign_from_scratch(&faults).unwrap();
        for (out, clean_out) in result.outcomes.iter().zip(&clean_result.outcomes) {
            if out.fault.cycle == target {
                assert_eq!(out.effect, FaultEffect::Assert, "x{threads}");
            } else {
                assert_eq!(out, clean_out, "x{threads}");
            }
        }
        assert_eq!(result.schedule.asserts, 1, "x{threads}");
        assert_eq!(result.schedule.range_retries, 1, "x{threads}");
        match &reference {
            None => reference = Some(result.outcomes),
            Some(r) => assert_eq!(r, &result.outcomes, "x{threads}"),
        }
    }
    assert_eq!(
        chaos::fault_panics_fired(),
        6,
        "per campaign: once in the chunk, once in its one-fault re-run"
    );
}
