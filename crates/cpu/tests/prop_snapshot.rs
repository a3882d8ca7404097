//! Property-based validation of the checkpoint/restore machinery: for random
//! programs and random checkpoint cycles, `snapshot → restore → run` must be
//! cycle-for-cycle identical to an uninterrupted run — with and without an
//! injected fault in the suffix.

use merlin_cpu::{Cpu, CpuConfig, FaultSpec, NullProbe, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};
use proptest::prelude::*;

/// A step of a random (but always-terminating) test program; a trimmed-down
/// version of the generator in `prop_pipeline.rs` biased toward memory
/// traffic so snapshots carry non-trivial cache and store-queue state.
#[derive(Debug, Clone)]
enum Step {
    Alu(AluOp, usize, usize, usize),
    Mov(usize, i64),
    Store(usize, i64),
    Load(usize, i64),
    Out(usize),
    Loop(usize, u8),
}

fn arb_alu() -> impl Strategy<Value = AluOp> {
    prop::sample::select(vec![
        AluOp::Add,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Shl,
    ])
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (arb_alu(), 1usize..10, 1usize..10, 1usize..10)
            .prop_map(|(op, a, b, c)| Step::Alu(op, a, b, c)),
        (1usize..10, -1000i64..1000).prop_map(|(r, v)| Step::Mov(r, v)),
        (1usize..10, 0i64..32).prop_map(|(r, o)| Step::Store(r, o * 8)),
        (1usize..10, 0i64..32).prop_map(|(r, o)| Step::Load(r, o * 8)),
        (1usize..10).prop_map(Step::Out),
        (1usize..10, 2u8..10).prop_map(|(r, n)| Step::Loop(r, n)),
    ]
}

fn build_program(steps: &[Step]) -> merlin_isa::Program {
    let mut b = ProgramBuilder::new();
    let buf = b.reserve(64 * 8);
    b.movi(reg(10), buf as i64);
    for r in 1..10 {
        b.movi(reg(r), (r as i64) * 23 + 5);
    }
    for step in steps {
        match step {
            Step::Alu(op, a, s1, s2) => {
                b.alu_rr(*op, reg(*a), reg(*s1), reg(*s2));
            }
            Step::Mov(r, v) => {
                b.movi(reg(*r), *v);
            }
            Step::Store(r, off) => {
                b.store(reg(*r), MemRef::base(reg(10)).disp(*off));
            }
            Step::Load(r, off) => {
                b.load(reg(*r), MemRef::base(reg(10)).disp(*off));
            }
            Step::Out(r) => {
                b.out(reg(*r));
            }
            Step::Loop(r, n) => {
                b.movi(reg(11), *n as i64);
                let top = b.bind_label();
                b.alu_rr(AluOp::Add, reg(*r), reg(*r), reg(11));
                b.alu_ri(AluOp::Sub, reg(11), reg(11), 1);
                b.branch_ri(Cond::Gt, reg(11), 0, top);
            }
        }
    }
    for r in 1..10 {
        b.out(reg(r));
    }
    b.halt();
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// snapshot → restore → run is identical to an uninterrupted run, both
    /// on the core the snapshot came from and on a freshly built core.
    #[test]
    fn restore_replays_the_run_exactly(
        steps in prop::collection::vec(arb_step(), 1..30),
        ckpt_frac in 0u64..20,
    ) {
        let program = build_program(&steps);
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let expected = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(expected.exit.is_halted(), "exit: {:?}", expected.exit);

        let ckpt_cycle = expected.cycles * ckpt_frac / 20;
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        while cpu.cycle() < ckpt_cycle && !cpu.is_finished() {
            cpu.step(&mut NullProbe);
        }
        let state = cpu.snapshot();

        // Continuing the original core to completion matches.
        let cont = cpu.run(2_000_000, &mut NullProbe);
        prop_assert_eq!(&cont, &expected);

        // Restoring the same core rewinds it exactly.
        cpu.restore_from(&state);
        prop_assert!(cpu.matches_state(&state));
        let replay = cpu.run(2_000_000, &mut NullProbe);
        prop_assert_eq!(&replay, &expected);

        // A fresh core restored from the snapshot also matches.
        let mut fresh = Cpu::new(program, CpuConfig::default()).unwrap();
        fresh.restore_from(&state);
        let fresh_replay = fresh.run(2_000_000, &mut NullProbe);
        prop_assert_eq!(&fresh_replay, &expected);
    }

    /// The delta-encoded snapshot (memory as dirty chunks against the
    /// pristine image, including a trip through the binary codec that
    /// persists `.golden` files) restores to exactly the state a dense
    /// snapshot would have: the restored core is bit-identical to the
    /// snapshotted one and its continuation replays the run exactly.
    #[test]
    fn delta_encoded_restore_is_state_identical(
        steps in prop::collection::vec(arb_step(), 1..30),
        ckpt_frac in 0u64..20,
    ) {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        let program = build_program(&steps);
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let expected = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(expected.exit.is_halted());

        let ckpt_cycle = expected.cycles * ckpt_frac / 20;
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        while cpu.cycle() < ckpt_cycle && !cpu.is_finished() {
            cpu.step(&mut NullProbe);
        }
        let state = cpu.snapshot();

        // The delta snapshot costs no more than a dense memory image, and
        // strictly less once the run is long enough to leave memory mostly
        // untouched.
        prop_assert!(state.memory_delta_bytes() <= state.memory_dense_bytes());

        // Through the binary codec (the on-disk representation) and onto a
        // fresh core: bit-identical state, identical continuation.
        let decoded: merlin_cpu::CpuState =
            decode_from_slice(&encode_to_vec(&state)).unwrap();
        prop_assert_eq!(&decoded, &state);
        let mut fresh = Cpu::new(program, CpuConfig::default()).unwrap();
        fresh.restore_from(&decoded);
        prop_assert!(fresh.matches_state(&state));
        let replay = fresh.run(2_000_000, &mut NullProbe);
        prop_assert_eq!(&replay, &expected);
    }

    /// A quarantined core (as campaign workers demote theirs after a caught
    /// per-fault panic) is trusted again by its next restore, which is
    /// reports lifting the quarantine and reproduces the state of a fresh-core
    /// restore bit for bit.
    #[test]
    fn quarantine_forces_a_full_restore_identical_to_a_fresh_core(
        steps in prop::collection::vec(arb_step(), 1..25),
        ckpt_frac in 0u64..10,
        run_frac in 0u64..10,
        entry in 0usize..64,
        bit in 0u8..64,
    ) {
        let program = build_program(&steps);
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let golden = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(golden.exit.is_halted());
        let budget = golden.cycles * 3 + 1000;

        let ckpt_cycle = golden.cycles * ckpt_frac / 10;
        let mut golden_cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        while golden_cpu.cycle() < ckpt_cycle && !golden_cpu.is_finished() {
            golden_cpu.step(&mut NullProbe);
        }
        let state = golden_cpu.snapshot();

        let mut worker = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let lifted_quarantine = worker.restore_from(&state);
        prop_assert!(!lifted_quarantine);
        prop_assert!(!worker.is_quarantined());

        // Dirty the core with a faulty partial suffix, then quarantine it —
        // the worker pattern after a caught panic.
        let fault_cycle = (ckpt_cycle + 1).max(1);
        worker
            .inject_fault(FaultSpec::new(Structure::RegisterFile, entry, bit, fault_cycle))
            .unwrap();
        let stop = ckpt_cycle + (golden.cycles - ckpt_cycle) * run_frac / 10 + 2;
        while worker.cycle() < stop && !worker.is_finished() {
            worker.step(&mut NullProbe);
        }
        worker.quarantine();
        prop_assert!(worker.is_quarantined());

        let lifted_quarantine = worker.restore_from(&state);
        prop_assert!(lifted_quarantine);
        prop_assert!(!worker.is_quarantined(), "quarantine clears on restore");
        prop_assert!(worker.matches_state(&state));
        prop_assert_eq!(&worker.snapshot(), &state);

        // Bit-for-bit parity with a fresh core restoring the same snapshot.
        let mut fresh = Cpu::new(program, CpuConfig::default()).unwrap();
        fresh.restore_from(&state);
        prop_assert_eq!(&fresh.snapshot(), &worker.snapshot());
        let replay = worker.run(budget, &mut NullProbe);
        let fresh_replay = fresh.run(budget, &mut NullProbe);
        prop_assert_eq!(&replay, &fresh_replay);
        prop_assert_eq!(&replay, &golden);

        // The flag reports the quarantine once.
        prop_assert!(!worker.restore_from(&state));
    }

    /// A fault injected into a restored suffix behaves exactly as the same
    /// fault injected into a from-scratch run — the core property behind the
    /// checkpointed campaign engine's byte-identical guarantee.
    #[test]
    fn faulted_suffix_matches_faulted_full_run(
        steps in prop::collection::vec(arb_step(), 1..25),
        entry in 0usize..64,
        bit in 0u8..64,
        ckpt_frac in 0u64..10,
        fault_gap in 0u64..10,
    ) {
        let program = build_program(&steps);
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let golden = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(golden.exit.is_halted());

        let ckpt_cycle = golden.cycles * ckpt_frac / 10;
        let fault_cycle =
            (ckpt_cycle + (golden.cycles - ckpt_cycle) * fault_gap / 10).max(ckpt_cycle);
        let fault = FaultSpec::new(Structure::RegisterFile, entry, bit, fault_cycle.max(1));
        let budget = golden.cycles * 3 + 1000;

        // From-scratch faulty run.
        let mut scratch = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        scratch.inject_fault(fault).unwrap();
        let scratch_result = scratch.run(budget, &mut NullProbe);

        // Checkpointed faulty run: snapshot the golden run at ckpt_cycle,
        // restore on a fresh core, inject the same fault, run the suffix.
        let mut golden_cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        while golden_cpu.cycle() < ckpt_cycle && !golden_cpu.is_finished() {
            golden_cpu.step(&mut NullProbe);
        }
        let state = golden_cpu.snapshot();
        let mut suffix = Cpu::new(program, CpuConfig::default()).unwrap();
        suffix.restore_from(&state);
        suffix.inject_fault(fault).unwrap();
        let suffix_result = suffix.run(budget, &mut NullProbe);

        prop_assert_eq!(&suffix_result, &scratch_result);
    }
}
