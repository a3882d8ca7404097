//! Integration tests of the fault-injection hooks and the probe interface —
//! the properties MeRLiN's methodology relies on.

use merlin_cpu::{Cpu, CpuConfig, FaultSpec, NullProbe, RecordingProbe, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, Program, ProgramBuilder};

/// A small loop-heavy program with memory traffic used by most tests here.
fn sample_program() -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(&(0..32).map(|i| 3 * i + 1).collect::<Vec<u64>>());
    let out_buf = b.reserve(32 * 8);
    b.movi(reg(1), data as i64);
    b.movi(reg(10), out_buf as i64);
    b.movi(reg(2), 0);
    b.movi(reg(3), 0);
    let top = b.bind_label();
    b.load(reg(4), MemRef::base(reg(1)).indexed(reg(2), 8));
    b.alu_rr(AluOp::Add, reg(3), reg(3), reg(4));
    b.alu_ri(AluOp::Mul, reg(5), reg(4), 7);
    b.store(reg(5), MemRef::base(reg(10)).indexed(reg(2), 8));
    b.alu_ri(AluOp::Add, reg(2), reg(2), 1);
    b.branch_ri(Cond::Lt, reg(2), 32, top);
    // Emit the checksum and a few transformed values.
    b.out(reg(3));
    b.movi(reg(2), 0);
    let top2 = b.bind_label();
    b.load(reg(6), MemRef::base(reg(10)).indexed(reg(2), 8));
    b.out(reg(6));
    b.alu_ri(AluOp::Add, reg(2), reg(2), 4);
    b.branch_ri(Cond::Lt, reg(2), 32, top2);
    b.halt();
    b.build().unwrap()
}

fn golden() -> merlin_cpu::RunResult {
    let mut cpu = Cpu::new(sample_program(), CpuConfig::default()).unwrap();
    cpu.run(1_000_000, &mut NullProbe)
}

#[test]
fn golden_run_is_clean() {
    let g = golden();
    assert!(g.exit.is_halted());
    assert_eq!(g.output.len(), 1 + 8);
    assert_eq!(g.output[0], (0..32u64).map(|i| 3 * i + 1).sum::<u64>());
}

#[test]
fn fault_in_free_register_is_masked() {
    let g = golden();
    // The default configuration has 256 physical registers; a register near
    // the top of the file is never allocated by this tiny program.
    let mut cpu = Cpu::new(sample_program(), CpuConfig::default()).unwrap();
    cpu.inject_fault(FaultSpec::new(
        Structure::RegisterFile,
        250,
        13,
        g.cycles / 2,
    ))
    .unwrap();
    let r = cpu.run(1_000_000, &mut NullProbe);
    assert!(r.exit.is_halted());
    assert_eq!(
        r.output, g.output,
        "fault in a dead register must be masked"
    );
}

#[test]
fn fault_after_program_end_is_masked() {
    let g = golden();
    let mut cpu = Cpu::new(sample_program(), CpuConfig::default()).unwrap();
    cpu.inject_fault(FaultSpec::new(Structure::RegisterFile, 5, 3, g.cycles + 10))
        .unwrap();
    let r = cpu.run(1_000_000, &mut NullProbe);
    assert_eq!(r.output, g.output);
}

#[test]
fn some_register_file_fault_corrupts_output() {
    // Sweep a few fault sites until one produces an SDC: with a live
    // accumulator held in a low physical register early in the run this must
    // happen well within the sweep.
    let g = golden();
    let mut found_sdc = false;
    'outer: for entry in 0..24usize {
        for cycle in [20u64, 40, 60, 100, 200] {
            let mut cpu = Cpu::new(sample_program(), CpuConfig::default()).unwrap();
            cpu.inject_fault(FaultSpec::new(Structure::RegisterFile, entry, 60, cycle))
                .unwrap();
            let r = cpu.run(1_000_000, &mut NullProbe);
            if r.exit.is_halted() && r.output != g.output {
                found_sdc = true;
                break 'outer;
            }
        }
    }
    assert!(found_sdc, "no register-file fault produced an SDC");
}

#[test]
fn store_queue_fault_can_corrupt_memory_values() {
    let g = golden();
    let mut found = false;
    'outer: for entry in 0..4usize {
        for cycle in 10..200u64 {
            let mut cpu = Cpu::new(sample_program(), CpuConfig::default()).unwrap();
            cpu.inject_fault(FaultSpec::new(Structure::StoreQueue, entry, 62, cycle))
                .unwrap();
            let r = cpu.run(1_000_000, &mut NullProbe);
            if r.exit.is_halted() && r.output != g.output {
                found = true;
                break 'outer;
            }
        }
    }
    assert!(found, "no store-queue fault propagated to the output");
}

#[test]
fn l1d_fault_in_untouched_word_is_masked() {
    let g = golden();
    let cfg = CpuConfig::default();
    let mut cpu = Cpu::new(sample_program(), cfg.clone()).unwrap();
    // The program touches a few hundred bytes near the bottom of the address
    // space; a word in a far-away set is never accessed.
    let far_entry = cfg.l1d.total_words() - 1;
    cpu.inject_fault(FaultSpec::new(
        Structure::L1DCache,
        far_entry,
        7,
        g.cycles / 3,
    ))
    .unwrap();
    let r = cpu.run(1_000_000, &mut NullProbe);
    assert_eq!(r.output, g.output);
}

#[test]
fn injection_rejects_out_of_range_entries() {
    let cfg = CpuConfig::default();
    let mut cpu = Cpu::new(sample_program(), cfg.clone()).unwrap();
    assert!(cpu
        .inject_fault(FaultSpec::new(
            Structure::RegisterFile,
            cfg.phys_int_regs,
            0,
            0
        ))
        .is_err());
    assert!(cpu
        .inject_fault(FaultSpec::new(Structure::StoreQueue, cfg.sq_entries, 0, 0))
        .is_err());
    assert!(cpu
        .inject_fault(FaultSpec::new(
            Structure::L1DCache,
            cfg.l1d.total_words(),
            0,
            0
        ))
        .is_err());
}

#[test]
fn probe_reads_only_come_from_committed_micro_ops() {
    // Build a program with a heavily mispredicted data-dependent branch so
    // that wrong-path micro-ops execute; then check that no committed read is
    // attributed to the instruction that only executes on the wrong path.
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(
        &(0..64)
            .map(|i| (i * 2654435761u64) >> 3)
            .collect::<Vec<u64>>(),
    );
    b.movi(reg(1), data as i64);
    b.movi(reg(2), 0);
    b.movi(reg(3), 0);
    b.movi(reg(7), 0);
    let top = b.label();
    let skip = b.label();
    b.bind(top);
    b.load(reg(4), MemRef::base(reg(1)).indexed(reg(2), 8));
    b.alu_ri(AluOp::And, reg(5), reg(4), 1);
    // Pseudo-random direction — the predictor will mispredict often.
    b.branch_ri(Cond::Eq, reg(5), 0, skip);
    b.alu_rr(AluOp::Add, reg(3), reg(3), reg(4)); // taken-path work
    b.bind(skip);
    b.alu_ri(AluOp::Add, reg(2), reg(2), 1);
    b.branch_ri(Cond::Lt, reg(2), 64, top);
    b.out(reg(3));
    b.halt();
    let program = b.build().unwrap();

    let mut probe = RecordingProbe::default();
    let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
    let result = cpu.run(1_000_000, &mut probe);
    assert!(result.exit.is_halted());

    // Committed reads must reference RIPs inside the program (or the
    // writeback pseudo-RIP) and cycles no later than the end of the run.
    let reads = probe.committed_reads();
    for (_, info) in &reads {
        assert!(
            (info.rip as usize) < program.len() || info.rip == merlin_cpu::WRITEBACK_RIP,
            "read attributed to out-of-program rip {}",
            info.rip
        );
        assert!(info.cycle <= result.cycles);
    }
    // Register-file reads and writes were both observed, and the loads left
    // L1D read events (this program has no stores, so no SQ events).
    assert!(reads.iter().any(|(s, _)| *s == Structure::RegisterFile));
    assert!(probe
        .writes()
        .iter()
        .any(|(s, _, _)| *s == Structure::RegisterFile));
    assert!(reads.iter().any(|(s, _)| *s == Structure::L1DCache));
    assert!(probe
        .writes()
        .iter()
        .any(|(s, _, _)| *s == Structure::L1DCache));
}

#[test]
fn every_committed_micro_op_retires_once_in_commit_order() {
    let mut probe = RecordingProbe::default();
    let mut cpu = Cpu::new(sample_program(), CpuConfig::default()).unwrap();
    let r = cpu.run(1_000_000, &mut probe);
    assert!(r.exit.is_halted());
    assert_eq!(probe.retired().len() as u64, r.committed_uops);
    assert!(probe.retired().windows(2).all(|w| w[0].seq < w[1].seq));
    let instructions = probe.retired().iter().filter(|u| u.last_in_inst).count();
    assert_eq!(instructions as u64, r.committed_instructions);
    // The mispredicted branches' wrong paths read at issue and never
    // retired.
    let retired: std::collections::HashSet<u64> = probe.retired().iter().map(|u| u.seq).collect();
    let squashed = (probe.physical_reads().into_iter()).filter(|r| !retired.contains(&r.3));
    assert!(squashed.count() > 0);
    assert!(probe.retired().iter().any(|u| u.taken == Some(true)));
    assert!(probe.retired().iter().any(|u| u.taken == Some(false)));
}

#[test]
fn register_file_writes_precede_reads_of_live_values() {
    // For every committed read of a register-file entry there must be a write
    // to that entry at an earlier-or-equal cycle (the initial architectural
    // state counts as written at cycle 0, which only applies to entries
    // 0..NUM_ARCH_REGS).
    let mut probe = RecordingProbe::default();
    let mut cpu = Cpu::new(sample_program(), CpuConfig::default()).unwrap();
    let r = cpu.run(1_000_000, &mut probe);
    assert!(r.exit.is_halted());
    use std::collections::HashMap;
    let mut writes_by_entry: HashMap<usize, Vec<u64>> = HashMap::new();
    for (s, entry, cycle) in &probe.writes() {
        if *s == Structure::RegisterFile {
            writes_by_entry.entry(*entry).or_default().push(*cycle);
        }
    }
    for (s, info) in &probe.committed_reads() {
        if *s != Structure::RegisterFile {
            continue;
        }
        if info.entry < merlin_isa::NUM_ARCH_REGS {
            continue; // may legitimately read initial architectural zeros
        }
        let wrote_before = writes_by_entry
            .get(&info.entry)
            .map(|ws| ws.iter().any(|w| *w <= info.cycle))
            .unwrap_or(false);
        assert!(
            wrote_before,
            "entry {} read at cycle {} without a preceding write",
            info.entry, info.cycle
        );
    }
}

#[test]
fn timeout_fault_possible_on_loop_counter() {
    // Flipping a high bit of the loop induction variable while the loop is
    // running can make the loop far longer; with a tight cycle budget this
    // shows up as a timeout (the paper's Timeout class).
    let mut b = ProgramBuilder::new();
    b.movi(reg(1), 0);
    b.movi(reg(2), 0);
    let top = b.bind_label();
    b.alu_ri(AluOp::Add, reg(1), reg(1), 3);
    b.alu_ri(AluOp::Add, reg(2), reg(2), 1);
    b.branch_ri(Cond::Lt, reg(2), 2000, top);
    b.out(reg(1));
    b.halt();
    let program = b.build().unwrap();
    // A small register file keeps the sweep over physical entries cheap.
    let cfg = CpuConfig::default().with_phys_regs(24);
    let mut cpu = Cpu::new(program.clone(), cfg.clone()).unwrap();
    let g = cpu.run(1_000_000, &mut NullProbe);
    assert!(g.exit.is_halted());

    // Flipping the sign bit of the physical register holding the loop
    // counter makes it hugely negative, so the loop runs far past the 3×
    // golden-cycle budget.  Sweep entries and injection times until one run
    // times out.
    let mut timed_out = false;
    'outer: for entry in 0..cfg.phys_int_regs {
        for frac in [4u64, 3, 2] {
            let mut cpu = Cpu::new(program.clone(), cfg.clone()).unwrap();
            cpu.inject_fault(FaultSpec::new(
                Structure::RegisterFile,
                entry,
                63,
                g.cycles / frac,
            ))
            .unwrap();
            let r = cpu.run(3 * g.cycles, &mut NullProbe);
            if r.exit == merlin_cpu::ExitReason::Timeout {
                timed_out = true;
                break 'outer;
            }
        }
    }
    assert!(timed_out, "no injected fault produced a timeout");
}
