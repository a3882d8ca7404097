//! End-to-end failure containment under engine-level faults, driven by the
//! [`merlin_inject::chaos`] probes:
//!
//! * a fault whose simulation panics on every attempt is classified
//!   `Assert`, quarantines the panicking core (its next restore lifts the
//!   quarantine and is counted as poisoned), and leaves every other fault's classification
//!   byte-identical to a clean campaign at any thread count;
//! * a worker panic at range level returns the range to the pool and is
//!   retried once on a fresh core; a persistently panicking range is
//!   classified `Assert` wholesale, deterministically.
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
fn fault_panic_becomes_assert_quarantines_one_core_and_reruns_the_range_per_fault() {
    let _serial = serial();
    let clean = session(1);
    let faults = fault_list(&clean);
    let clean_result = clean.campaign(&faults).unwrap();
    assert_eq!(clean_result.schedule.asserts, 0);
    assert_eq!(clean_result.schedule.poisoned_restores, 0);
    let target = unique_mid_cycle(&clean, &faults);

    // An unbudgeted chaos fault panics inside the dead-site query of the
    // batched driver.  That query runs on the range's golden core, so the
    // golden core is quarantined and the range aborts.  The range's faults
    // are then re-run one per range on the same pool: the target panics
    // again and is classified Assert, and the quarantined core surfaces as
    // a poisoned restore when a re-run takes it from the pool.
    let _guard = chaos::arm(ChaosPlan {
        fault_panic_cycles: vec![target],
        ..ChaosPlan::default()
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
        // The aborted attempt is accounted like a range retry.
        assert!(result.schedule.range_retries >= 1, "x{threads}");
        // Containment is per-core: the quarantined core surfaces as a
        // poisoned restore, not as a poisoned pool.
        assert!(
            result.schedule.poisoned_restores >= 1,
            "x{threads}: the post-panic restore must be counted as poisoned"
        );
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
fn transient_range_panic_is_retried_to_a_clean_result() {
    let _serial = serial();
    let clean = session(1);
    let faults = fault_list(&clean);
    let clean_result = clean.campaign(&faults).unwrap();
    let target = unique_mid_cycle(&clean, &faults);

    for threads in [1usize, 2, 4, 8] {
        let guard = chaos::arm(ChaosPlan {
            range_panic_cycle: Some(target),
            range_panic_times: 1,
            ..ChaosPlan::default()
        });
        let result = session(threads).campaign(&faults).unwrap();
        assert_eq!(chaos::range_panics_fired(), 1, "x{threads}");
        drop(guard);
        // A transient worker crash is invisible in the outcomes: the retry
        // on a fresh core reproduces the clean campaign byte-for-byte.
        assert_eq!(result.outcomes, clean_result.outcomes, "x{threads}");
        assert_eq!(result.schedule.range_retries, 1, "x{threads}");
        assert_eq!(result.schedule.asserts, 0, "x{threads}");
    }
}

#[test]
fn persistent_range_panic_classifies_the_range_assert_deterministically() {
    let _serial = serial();
    let clean = session(1);
    let faults = fault_list(&clean);
    let clean_result = clean.campaign(&faults).unwrap();
    let target = unique_mid_cycle(&clean, &faults);

    let mut reference: Option<Vec<_>> = None;
    for threads in [1usize, 2, 4] {
        let guard = chaos::arm(ChaosPlan {
            range_panic_cycle: Some(target),
            range_panic_times: 1_000,
            ..ChaosPlan::default()
        });
        let result = session(threads).campaign(&faults).unwrap();
        assert_eq!(
            chaos::range_panics_fired(),
            2,
            "first attempt plus its one retry, x{threads}"
        );
        drop(guard);
        assert_eq!(result.schedule.range_retries, 1, "x{threads}");
        // The poisoned range is classified Assert wholesale; every fault
        // outside it matches the clean campaign.
        let mut asserts = 0u64;
        let mut target_effect = None;
        for (out, clean_out) in result.outcomes.iter().zip(&clean_result.outcomes) {
            if out.fault.cycle == target {
                target_effect = Some(out.effect);
            }
            if out == clean_out {
                continue;
            }
            assert_eq!(out.effect, FaultEffect::Assert, "x{threads}");
            asserts += 1;
        }
        assert_eq!(target_effect, Some(FaultEffect::Assert), "x{threads}");
        assert!(asserts >= 1, "x{threads}");
        assert_eq!(result.schedule.asserts, asserts, "x{threads}");
        // Deterministic: the same range fails the same way at any count.
        match &reference {
            None => reference = Some(result.outcomes),
            Some(r) => assert_eq!(r, &result.outcomes, "x{threads}"),
        }
    }
}

#[test]
fn injector_core_recovers_from_a_panic_bit_for_bit() {
    let _serial = serial();
    let s = session(1);
    let faults = fault_list(&s);
    let target = unique_mid_cycle(&s, &faults);
    let panicking = *faults.iter().find(|f| f.cycle == target).unwrap();
    let later = *faults
        .iter()
        .max_by_key(|f| (f.cycle, f.entry, f.bit))
        .unwrap();

    let mut injector = s.injector().unwrap();
    let clean_later = injector.run_with_cycles(later);

    {
        let _guard = chaos::arm(ChaosPlan {
            fault_panic_cycles: vec![target],
            ..ChaosPlan::default()
        });
        assert_eq!(injector.run(panicking), FaultEffect::Assert);
        assert_eq!(chaos::fault_panics_fired(), 1);
    }

    // The panic left the injector's reused core quarantined; the next run
    // must match both its own pre-panic result and a fresh injector
    // bit-for-bit.
    let post_panic = injector.run_with_cycles(later);
    let fresh = s.injector().unwrap().run_with_cycles(later);
    assert_eq!(post_panic, clean_later);
    assert_eq!(post_panic, fresh);
}
