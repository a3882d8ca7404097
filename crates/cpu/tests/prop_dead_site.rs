//! Soundness of `Cpu::fault_site_dead`: a flip on a site the query reports
//! dead must leave the run bit-identical to the golden run, because the
//! batched campaign driver classifies such faults Masked without
//! simulating them.  The property draws a built-in workload, a structure
//! (register file or store queue), an entry, a bit and a cycle; the unit
//! cases pin each dead-site rule (and that live data is not reported dead)
//! on hand-built programs.  L1D words are never reported dead here: their
//! deadness comes from the golden run's liveness log, whose soundness
//! `merlin-inject`'s `prop_l1d_liveness` checks.

use merlin_cpu::{Cpu, CpuConfig, FaultSpec, NullProbe, RecordingProbe, RunResult, Structure};
use merlin_isa::{reg, AluOp, MemRef, Program, ProgramBuilder, NUM_ARCH_REGS};
use merlin_workloads::{all_workloads, workload_by_name};
use proptest::prelude::*;
use std::sync::OnceLock;

/// How many cycles past the injection cycle the property looks for
/// committed reads of dead entries.
const WINDOW: u64 = 64;

/// Every built-in workload with its fault-free result.
fn goldens() -> &'static [(Program, RunResult)] {
    static GOLDENS: OnceLock<Vec<(Program, RunResult)>> = OnceLock::new();
    GOLDENS.get_or_init(|| {
        all_workloads()
            .into_iter()
            .map(|w| {
                let mut cpu = Cpu::new(w.program.clone(), CpuConfig::default()).unwrap();
                let result = cpu.run(50_000_000, &mut NullProbe);
                assert!(result.exit.is_halted(), "{} must halt", w.name);
                (w.program, result)
            })
            .collect()
    })
}

fn core(program: &Program) -> Cpu {
    Cpu::new(program.clone(), CpuConfig::default()).unwrap()
}

fn step_to(cpu: &mut Cpu, cycle: u64) {
    while !cpu.is_finished() && cpu.cycle() < cycle {
        cpu.step(&mut NullProbe);
    }
}

/// Runs `program` to the end with one flip at `cycle`.
fn run_with(program: &Program, fault: FaultSpec, max_cycles: u64) -> RunResult {
    let mut cpu = core(program);
    cpu.inject_fault(fault).unwrap();
    cpu.run(max_cycles, &mut NullProbe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whenever the query holds, the faulty run is the golden run: same
    /// exit, output, cycle count and committed counts.  From the drawn
    /// entry on (cyclically), the case checks the first dead entry that a
    /// committed read uses within `WINDOW` cycles — where an unsound rule
    /// would show — or else the first dead entry.
    #[test]
    fn a_flip_on_a_dead_site_leaves_the_run_unchanged(
        w in 0usize..20,
        s in 0usize..2,
        entry in 0usize..1_000_000,
        bit in 0u8..64,
        permille in 0u64..1000,
    ) {
        let (program, golden) = &goldens()[w % goldens().len()];
        let structure = Structure::all()[s];
        let cycle = golden.cycles * permille / 1000;
        let mut cpu = core(program);
        step_to(&mut cpu, cycle);
        prop_assert_eq!(cpu.cycle(), cycle);
        let n = cpu.structure_entries(structure);
        let dead: Vec<bool> = (0..n).map(|e| cpu.fault_site_dead(structure, e)).collect();
        let mut probe = RecordingProbe::default();
        while !cpu.is_finished() && cpu.cycle() < cycle + WINDOW {
            cpu.step(&mut probe);
        }
        let mut read_soon = vec![false; n];
        for (_, info) in probe.reads.iter().filter(|(s, _)| *s == structure) {
            read_soon[info.entry] = true;
        }
        let order = || (0..n).map(|k| (entry + k) % n);
        let pick = order()
            .find(|&e| dead[e] && read_soon[e])
            .or_else(|| order().find(|&e| dead[e]));
        if let Some(e) = pick {
            let fault = FaultSpec::new(structure, e, bit, cycle);
            let faulty = run_with(program, fault, golden.cycles * 3);
            prop_assert_eq!(&faulty, golden, "{:?} reported dead", fault);
        }
    }
}

#[test]
fn a_store_free_kernel_reports_every_store_queue_slot_dead() {
    let w = workload_by_name("stringsearch").unwrap();
    let mut cpu = core(&w.program);
    let slots = cpu.structure_entries(Structure::StoreQueue);
    while !cpu.is_finished() {
        for slot in 0..slots {
            assert!(
                cpu.fault_site_dead(Structure::StoreQueue, slot),
                "slot {slot} live at cycle {}",
                cpu.cycle()
            );
        }
        cpu.step(&mut NullProbe);
    }
}

/// One store whose data comes from a chain of divides (so its store-data
/// micro-op waits long after the slot is allocated), then a load of the
/// stored word, whose value is the program's output.  The load's address
/// comes from a longer divide chain, so it reads the word only after the
/// store data has arrived.
fn late_store_program() -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_words(&[0]);
    b.movi(reg(10), buf as i64);
    b.movi(reg(11), buf as i64 * 3i64.pow(8));
    b.movi(reg(2), 1 << 40);
    b.movi(reg(3), 3);
    for _ in 0..6 {
        b.alu_rr(AluOp::Div, reg(2), reg(2), reg(3));
    }
    b.store(reg(2), MemRef::base(reg(10)));
    for _ in 0..8 {
        b.alu_rr(AluOp::Div, reg(11), reg(11), reg(3));
    }
    b.load(reg(4), MemRef::base(reg(11)));
    b.out(reg(4));
    b.halt();
    b.build().unwrap()
}

#[test]
fn a_store_queue_slot_is_dead_until_its_data_arrives_and_live_after() {
    let program = late_store_program();
    let mut probe = RecordingProbe::default();
    let golden = core(&program).run(100_000, &mut probe);
    // The store-data micro-op writes its slot at cycle `w`; its slot was
    // allocated at dispatch, cycles earlier.
    let &(_, slot, w) = probe
        .writes
        .iter()
        .find(|(s, _, _)| *s == Structure::StoreQueue)
        .expect("the store deposits its data");
    assert!(w > 10, "the divide chain must delay the store data");
    let mut cpu = core(&program);
    while cpu.cycle() <= w {
        assert!(cpu.fault_site_dead(Structure::StoreQueue, slot));
        cpu.step(&mut NullProbe);
    }
    // Start of cycle w + 1: the slot holds data the load will forward or
    // the drain will write, so a flip there is live — and observable.
    assert!(!cpu.fault_site_dead(Structure::StoreQueue, slot));
    let before = run_with(
        &program,
        FaultSpec::new(Structure::StoreQueue, slot, 0, w),
        100_000,
    );
    assert_eq!(before, golden);
    let after = run_with(
        &program,
        FaultSpec::new(Structure::StoreQueue, slot, 0, w + 1),
        100_000,
    );
    assert_ne!(after.output, golden.output);
}

/// A chain of six divides into r2, then four more from r2 into r5, then
/// `r4 = r2 + r5` as the output.  The sixth divide's destination register
/// is allocated long before its value arrives, and the add reads it again
/// long after.
fn late_register_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.movi(reg(2), 1 << 40);
    b.movi(reg(3), 3);
    for _ in 0..6 {
        b.alu_rr(AluOp::Div, reg(2), reg(2), reg(3));
    }
    b.alu_rr(AluOp::Div, reg(5), reg(2), reg(3));
    for _ in 0..3 {
        b.alu_rr(AluOp::Div, reg(5), reg(5), reg(3));
    }
    b.alu_rr(AluOp::Add, reg(4), reg(2), reg(5));
    b.out(reg(4));
    b.halt();
    b.build().unwrap()
}

#[test]
fn a_register_is_dead_until_its_value_arrives_and_live_after() {
    let program = late_register_program();
    let mut probe = RecordingProbe::default();
    let golden = core(&program).run(100_000, &mut probe);
    // Register writebacks in dependence order: the two moves, the six
    // divides into r2, the four into r5 and the add.  The sixth divide
    // writes its destination register at cycle `w`; the register was free,
    // then allocated and waiting.
    let rf: Vec<(usize, u64)> = probe
        .writes
        .iter()
        .filter(|(s, _, _)| *s == Structure::RegisterFile)
        .map(|&(_, p, c)| (p, c))
        .collect();
    assert_eq!(rf.len(), 2 + 6 + 4 + 1);
    let (p, w) = rf[2 + 5];
    assert!(w > 10, "the divide chain must delay the last result");
    let mut cpu = core(&program);
    while cpu.cycle() <= w {
        assert!(
            cpu.fault_site_dead(Structure::RegisterFile, p),
            "register {p} live at cycle {}",
            cpu.cycle()
        );
        cpu.step(&mut NullProbe);
    }
    // Start of cycle w + 1: the register holds the value the add reads, so
    // a flip there is live — and observable.
    assert!(!cpu.fault_site_dead(Structure::RegisterFile, p));
    let before = run_with(
        &program,
        FaultSpec::new(Structure::RegisterFile, p, 0, w),
        100_000,
    );
    assert_eq!(before, golden);
    let after = run_with(
        &program,
        FaultSpec::new(Structure::RegisterFile, p, 0, w + 1),
        100_000,
    );
    assert_ne!(after.output, golden.output);
}

#[test]
fn a_free_register_is_dead_and_a_mapped_one_is_live() {
    let cpu = core(&late_store_program());
    let regs = cpu.structure_entries(Structure::RegisterFile);
    assert!(regs > NUM_ARCH_REGS);
    // At reset the architectural registers are mapped and ready, the rest
    // sit on the free list.
    for p in 0..regs {
        assert_eq!(
            cpu.fault_site_dead(Structure::RegisterFile, p),
            p >= NUM_ARCH_REGS,
            "physical register {p}"
        );
    }
}
