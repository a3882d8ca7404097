//! Property-based validation of the one sharing substrate: restores and
//! forks adopt copy-on-write page handles, and a core that does so must be
//! indistinguishable — in snapshot, in continuation, under arbitrary
//! faults, and to the convergence probe — from a core that holds a private
//! copy of the same state.  Writes on either side of a share must never
//! leak across it.

use merlin_cpu::{CheckpointStore, Cpu, CpuConfig, FaultSpec, NullProbe, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};
use proptest::prelude::*;

/// Random always-terminating test program biased toward memory traffic, so
/// forks carry non-trivial cache, store-queue and memory state (same shape
/// as the generator in `prop_snapshot.rs`).
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

/// Steps `cpu` until it reaches `cycle` or finishes.
fn step_to(cpu: &mut Cpu, cycle: u64) {
    while cpu.cycle() < cycle && !cpu.is_finished() {
        cpu.step(&mut NullProbe);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The batched driver's fork — [`Cpu::fork_from`] the live golden core
    /// onto a pool core in whatever state it was left — must produce a core
    /// bit-identical to an eager full copy of the golden state (a fresh core
    /// restoring the golden core's own snapshot), and both must classify an
    /// arbitrary fault identically.  Writes on the fork must never reach the
    /// golden parent through the shared structures: the parent's
    /// continuation stays bit-identical to an unshared reference run.
    #[test]
    fn cow_fork_is_bit_identical_to_an_eager_copy(
        steps in prop::collection::vec(arb_step(), 1..25),
        range_frac in 0u64..10,
        fork_gap in 0u64..10,
        entry in 0usize..64,
        bit in 0u8..64,
        structure in prop::sample::select(
            vec![Structure::RegisterFile, Structure::StoreQueue, Structure::L1DCache]),
    ) {
        let program = build_program(&steps);
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let golden = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(golden.exit.is_halted());
        let budget = golden.cycles * 3 + 1000;

        // The golden replay core advances to the injection cycle — exactly
        // the batched driver's prefix.
        let range_cycle = golden.cycles * range_frac / 10;
        let mut golden_cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        step_to(&mut golden_cpu, range_cycle);
        let fork_cycle = range_cycle + (golden.cycles - range_cycle) * fork_gap / 10;
        step_to(&mut golden_cpu, fork_cycle);
        let at_fork = golden_cpu.snapshot();
        let fault_entry = entry % golden_cpu.structure_entries(structure).max(1);

        // A pool core left behind by an earlier faulty run: stale state.
        let mut fork = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        fork.inject_fault(FaultSpec::new(structure, fault_entry, bit, 1)).unwrap();
        step_to(&mut fork, golden.cycles / 2 + 1);

        // CoW fork, exactly as the batched driver spawns one.
        fork.fork_from(&mut golden_cpu);
        prop_assert!(fork.matches_state(&at_fork));
        prop_assert_eq!(&fork.snapshot(), &at_fork);

        // Eager baseline: a fresh core restoring a snapshot of the same
        // state.
        let mut eager = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        eager.restore_from(&at_fork);
        prop_assert_eq!(&eager.snapshot(), &at_fork);

        // Same fault into both; identical classification-relevant results.
        let fault = FaultSpec::new(structure, fault_entry, bit, fork_cycle.max(1));
        fork.inject_fault(fault).unwrap();
        eager.inject_fault(fault).unwrap();
        let fork_result = fork.run(budget, &mut NullProbe);
        let eager_result = eager.run(budget, &mut NullProbe);
        prop_assert_eq!(&fork_result, &eager_result);

        // The faulty fork's writes never reach its parent: the golden core
        // continues bit-identically to the uninterrupted reference run.
        let cont = golden_cpu.run(budget, &mut NullProbe);
        prop_assert_eq!(&cont, &golden);
    }

    /// A core restored from checkpoint `k` after an arbitrary faulty suffix
    /// equals a fresh core restored from `k` — in snapshot, in the probe and
    /// in continuation — for a suffix that dirties every structure
    /// (registers, rename state, ROB, load/store queues, predictor, caches
    /// and memory), and also after a restore of a foreign snapshot in
    /// between.
    #[test]
    fn restore_after_an_arbitrary_suffix_equals_a_fresh_restore(
        steps in prop::collection::vec(arb_step(), 1..25),
        ckpt_frac in 0u64..10,
        run_frac in 0u64..10,
        entry in 0usize..64,
        bit in 0u8..64,
        structure in prop::sample::select(
            vec![Structure::RegisterFile, Structure::StoreQueue, Structure::L1DCache]),
    ) {
        let program = build_program(&steps);
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let golden = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(golden.exit.is_halted());
        let budget = golden.cycles * 3 + 1000;

        let ckpt_cycle = golden.cycles * ckpt_frac / 10;
        let mut golden_cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        step_to(&mut golden_cpu, ckpt_cycle);
        let k = golden_cpu.snapshot();

        // A fresh core restores `k`.
        let mut fresh = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        fresh.restore_from(&k);
        let fresh_state = fresh.snapshot();
        prop_assert_eq!(&fresh_state, &k);
        let fresh_result = fresh.run(budget, &mut NullProbe);
        prop_assert_eq!(&fresh_result, &golden);

        // Worker pattern: restore, dirty the state with a faulty partial
        // suffix, then restore `k` again.
        let mut worker = Cpu::new(program, CpuConfig::default()).unwrap();
        worker.restore_from(&k);
        let fault_entry = entry % worker.structure_entries(structure).max(1);
        worker
            .inject_fault(FaultSpec::new(structure, fault_entry, bit, (ckpt_cycle + 1).max(1)))
            .unwrap();
        step_to(&mut worker, ckpt_cycle + (golden.cycles - ckpt_cycle) * run_frac / 10 + 2);
        worker.restore_from(&k);
        prop_assert!(worker.matches_state(&k));
        prop_assert_eq!(&worker.snapshot(), &fresh_state);
        let replay = worker.run(budget, &mut NullProbe);
        prop_assert_eq!(&replay, &fresh_result);

        // A foreign restore in between changes nothing.
        step_to(&mut golden_cpu, ckpt_cycle + 3);
        let other = golden_cpu.snapshot();
        worker.restore_from(&other);
        prop_assert!(worker.matches_state(&other));
        worker.restore_from(&k);
        prop_assert!(worker.matches_state(&k));
        prop_assert_eq!(&worker.snapshot(), &fresh_state);
    }

    /// The convergence probe is exact without sharing: at every checkpoint
    /// boundary a fork crosses, faulted or not, `matches_state` on the fork
    /// — which shares pages with the golden core, and through it with the
    /// store — answers exactly as on a core simulated from reset with the
    /// same fault, which shares no page with anything, so its comparison
    /// never skips a page.  Checked on the in-process store and on an
    /// encode/decode round-trip of it, whose snapshots share no pages.
    #[test]
    fn probe_on_a_fork_equals_probe_on_a_core_from_reset(
        steps in prop::collection::vec(arb_step(), 1..25),
        fork_frac in 0u64..10,
        entry in 0usize..64,
        bit in 0u8..64,
        structure in prop::sample::select(
            vec![Structure::RegisterFile, Structure::StoreQueue, Structure::L1DCache]),
    ) {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        let program = build_program(&steps);
        let cfg = CpuConfig::default();
        let mut reference = Cpu::new(program.clone(), cfg.clone()).unwrap();
        let golden = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(golden.exit.is_halted());
        // Six ranges: the body grid never outgrows twice the target, so
        // the store holds every multiple of the interval.
        let interval = (golden.cycles / 6).max(1);
        let (result, store) = Cpu::new(program.clone(), cfg.clone())
            .unwrap()
            .run_with_adaptive_checkpoints(2_000_000, &mut NullProbe, interval, 6);
        prop_assert_eq!(&result, &golden);
        let decoded: CheckpointStore = decode_from_slice(&encode_to_vec(&store)).unwrap();
        prop_assert_eq!(&decoded, &store);
        let fork_cycle = golden.cycles * fork_frac / 10;

        for store in [&store, &decoded] {
            let mut golden_core = Cpu::new(program.clone(), cfg.clone()).unwrap();
            golden_core.restore_from(store.latest_at_or_before(fork_cycle).unwrap());
            step_to(&mut golden_core, fork_cycle);
            for faulted in [false, true] {
                let mut fork = Cpu::new(program.clone(), cfg.clone()).unwrap();
                fork.fork_from(&mut golden_core);
                let mut scratch = Cpu::new(program.clone(), cfg.clone()).unwrap();
                if faulted {
                    let fault_entry = entry % fork.structure_entries(structure).max(1);
                    let fault = FaultSpec::new(structure, fault_entry, bit, fork_cycle.max(1));
                    fork.inject_fault(fault).unwrap();
                    scratch.inject_fault(fault).unwrap();
                }
                step_to(&mut scratch, fork_cycle);
                let mut probes = 0;
                for boundary in store.cycles().filter(|&c| c > fork_cycle) {
                    step_to(&mut fork, boundary);
                    step_to(&mut scratch, boundary);
                    prop_assert_eq!(fork.cycle(), scratch.cycle());
                    if fork.cycle() != boundary {
                        break;
                    }
                    let g = store.at_cycle(boundary).unwrap();
                    let on_fork = fork.matches_state(g);
                    prop_assert_eq!(on_fork, scratch.matches_state(g), "boundary {}", boundary);
                    if !faulted {
                        prop_assert!(on_fork, "a fault-free fork stays on the golden stream");
                    }
                    probes += 1;
                }
                if !faulted {
                    prop_assert_eq!(probes, store.cycles().filter(|&c| c > fork_cycle).count());
                }
            }
        }
    }

    /// A restore over a forked core must rebuild the restored state
    /// exactly, and so must a foreign restore after a fork — sharing is
    /// invisible to restore semantics.
    #[test]
    fn fork_survives_a_range_restore_and_a_foreign_restore(
        steps in prop::collection::vec(arb_step(), 1..25),
        range_frac in 0u64..10,
        fork_gap in 0u64..10,
    ) {
        let program = build_program(&steps);
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let golden = reference.run(2_000_000, &mut NullProbe);
        prop_assert!(golden.exit.is_halted());
        let budget = golden.cycles * 3 + 1000;

        let range_cycle = golden.cycles * range_frac / 10;
        let mut golden_cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        while golden_cpu.cycle() < range_cycle && !golden_cpu.is_finished() {
            golden_cpu.step(&mut NullProbe);
        }
        let range_state = golden_cpu.snapshot();
        let fork_cycle = range_cycle + (golden.cycles - range_cycle) * fork_gap / 10;
        while golden_cpu.cycle() < fork_cycle && !golden_cpu.is_finished() {
            golden_cpu.step(&mut NullProbe);
        }

        let mut fork = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        fork.fork_from(&mut golden_cpu);

        // A restore over the fork rebuilds the range state bit for bit and
        // the replay matches the reference run.
        fork.restore_from(&range_state);
        prop_assert_eq!(&fork.snapshot(), &range_state);
        let replay = fork.run(budget, &mut NullProbe);
        prop_assert_eq!(&replay, &golden);

        // Foreign restore after a fresh fork: advance the parent, snapshot,
        // and restore the forked core from that unrelated state — the fork's
        // shares from the earlier parent state must not bleed through.
        let mut fork2 = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        fork2.fork_from(&mut golden_cpu);
        for _ in 0..3 {
            if !golden_cpu.is_finished() {
                golden_cpu.step(&mut NullProbe);
            }
        }
        let foreign = golden_cpu.snapshot();
        fork2.restore_from(&foreign);
        prop_assert!(fork2.matches_state(&foreign));
        prop_assert_eq!(&fork2.snapshot(), &foreign);
        let replay2 = fork2.run(budget, &mut NullProbe);
        prop_assert_eq!(&replay2, &golden);

        // Writes after a fork surface as sharing breaks, and the tally
        // drains: bookkeeping, never state.  The fork's first cycle flips
        // an L1D bit, a write into a page it shares with its parent, so the
        // fork writes shared state even where the rest of the program
        // touches only plain arrays and the output stream.
        let mut fork3 = Cpu::new(program, CpuConfig::default()).unwrap();
        fork3.fork_from(&mut golden_cpu);
        fork3.take_cow_breaks();
        let before = fork3.snapshot();
        fork3
            .inject_fault(FaultSpec::new(Structure::L1DCache, 0, 0, fork3.cycle()))
            .unwrap();
        let mut breaks = 0u64;
        let mut stepped = false;
        for _ in 0..500 {
            if fork3.is_finished() || breaks > 0 {
                break;
            }
            fork3.step(&mut NullProbe);
            stepped = true;
            breaks += fork3.take_cow_breaks();
        }
        if stepped {
            prop_assert!(breaks > 0, "running a fork must break at least one share");
        }
        prop_assert_eq!(fork3.take_cow_breaks(), 0, "the break tally drains on take");
        // Draining the tally is invisible to state equality.
        fork3.restore_from(&before);
        prop_assert_eq!(&fork3.snapshot(), &before);
    }
}
