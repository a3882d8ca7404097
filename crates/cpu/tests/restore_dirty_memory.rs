//! Restore exactness when backing memory is dirty.
//!
//! Backing memory is written only when a dirty line leaves the L1D, so a
//! snapshot's memory delta holds program stores only once the L1D has
//! evicted them.  This test forces that case — caches small enough that
//! stores spill dirty lines to memory — and asserts that a restore
//! reproduces the snapshot exactly, onto a fresh core and onto a core whose
//! suffix dirtied memory further.

use merlin_cpu::{CacheConfig, Cpu, CpuConfig, NullProbe};
use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};

/// Stores across 32 distinct 64-byte lines, twice, under caches that hold
/// only a handful of lines — every pass evicts dirty lines into memory.
fn spilling_program() -> merlin_isa::Program {
    let mut b = ProgramBuilder::new();
    let buf = b.reserve(32 * 64);
    b.movi(reg(10), buf as i64);
    b.movi(reg(3), 0); // pass counter
    let pass = b.bind_label();
    b.movi(reg(1), 0); // byte offset, advances a line at a time
    b.movi(reg(2), 7);
    let top = b.bind_label();
    b.store(reg(2), MemRef::base(reg(10)).indexed(reg(1), 1));
    b.alu_ri(AluOp::Add, reg(2), reg(2), 13);
    b.alu_ri(AluOp::Add, reg(1), reg(1), 64);
    b.branch_ri(Cond::Lt, reg(1), 32 * 64, top);
    b.alu_ri(AluOp::Add, reg(3), reg(3), 1);
    b.branch_ri(Cond::Lt, reg(3), 2, pass);
    b.out(reg(2));
    b.halt();
    b.build().unwrap()
}

fn tiny_cache_config() -> CpuConfig {
    CpuConfig {
        l1d: CacheConfig {
            size_bytes: 128,
            line_bytes: 64,
            ways: 1,
            hit_latency: 1,
        },
        l2: CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 1,
            hit_latency: 4,
        },
        ..CpuConfig::default()
    }
}

#[test]
fn restore_is_exact_when_evictions_dirty_memory() {
    let program = spilling_program();
    let cfg = tiny_cache_config();
    let mut reference = Cpu::new(program.clone(), cfg.clone()).unwrap();
    let golden = reference.run(1_000_000, &mut NullProbe);
    assert!(golden.exit.is_halted());

    // Snapshot late enough that the first pass's dirty lines have been
    // evicted into backing memory.
    let ckpt_cycle = golden.cycles * 3 / 4;
    let mut golden_cpu = Cpu::new(program.clone(), cfg.clone()).unwrap();
    while golden_cpu.cycle() < ckpt_cycle && !golden_cpu.is_finished() {
        golden_cpu.step(&mut NullProbe);
    }
    let state = golden_cpu.snapshot();
    assert!(
        state.memory_delta_bytes() > 0,
        "precondition: the workload must dirty backing memory before the snapshot"
    );

    // A restore onto a fresh core lays the snapshot's memory delta.
    let mut worker = Cpu::new(program.clone(), cfg.clone()).unwrap();
    worker.restore_from(&state);
    assert_eq!(&worker.snapshot(), &state);

    // Run the suffix — it spills more dirty lines — then restore the same
    // snapshot again: the restore must revert the memory the suffix touched
    // as well as lay the snapshot's delta.
    let replay = worker.run(golden.cycles * 3 + 1000, &mut NullProbe);
    assert_eq!(&replay, &golden);
    worker.restore_from(&state);
    assert_eq!(&worker.snapshot(), &state);
    let replay = worker.run(golden.cycles * 3 + 1000, &mut NullProbe);
    assert_eq!(&replay, &golden);
}
