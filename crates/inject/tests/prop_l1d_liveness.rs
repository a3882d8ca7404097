//! Soundness of the golden run's L1D liveness log: a flip in an L1D word at
//! a cycle the log calls dead must leave the run bit-identical to the
//! golden run, because campaigns classify such faults Masked before any
//! restore.  The property runs under a 2 KB L1D, where lines are evicted,
//! written back dirty and refilled, over every built-in workload plus a
//! kernel whose misaligned accesses cross lines; the unit cases pin the
//! log's spans on a hand-built program and check that the small L1D really
//! evicts, writes back and crosses.

use merlin_cpu::{
    CheckpointPolicy, Cpu, CpuConfig, FaultSpec, NullProbe, Probe, ReadInfo, RecordingProbe,
    WRITEBACK_RIP,
};
use merlin_inject::{GoldenCheckpoints, Session, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, Program, ProgramBuilder};
use merlin_workloads::all_workloads;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// How many cycles past the injection cycle a case looks for reads of
/// dead words.
const WINDOW: u64 = 256;

fn small_l1d() -> CpuConfig {
    CpuConfig::default().with_l1d_kb(2)
}

/// Misaligned 8-byte loads and stores over an 8 KB buffer: every eighth
/// access crosses a line, and the stores dirty lines the 2 KB L1D must
/// write back; a second, aligned pass reads everything back.
fn crossing_program() -> Program {
    let mut b = ProgramBuilder::new();
    let words: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let buf = b.alloc_words(&words);
    b.movi(reg(10), buf as i64);
    b.movi(reg(1), 0);
    b.movi(reg(2), 0);
    let top = b.bind_label();
    b.load(reg(3), MemRef::base(reg(10)).indexed(reg(1), 8).disp(4));
    b.alu_rr(AluOp::Add, reg(2), reg(2), reg(3));
    b.alu_rr(AluOp::Xor, reg(3), reg(3), reg(2));
    b.store(reg(3), MemRef::base(reg(10)).indexed(reg(1), 8).disp(4));
    b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
    b.branch_ri(Cond::Lt, reg(1), 1000, top);
    b.movi(reg(1), 0);
    let back = b.bind_label();
    b.load(reg(3), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.alu_rr(AluOp::Add, reg(2), reg(2), reg(3));
    b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
    b.branch_ri(Cond::Lt, reg(1), 1000, back);
    b.out(reg(2));
    b.halt();
    b.build().unwrap()
}

/// Every built-in workload plus the line-crossing kernel, each with a
/// 2 KB-L1D session whose golden run carries the log.
fn sessions() -> &'static [(Program, Session)] {
    static SESSIONS: OnceLock<Vec<(Program, Session)>> = OnceLock::new();
    SESSIONS.get_or_init(|| {
        all_workloads()
            .into_iter()
            .map(|w| w.program)
            .chain([crossing_program()])
            .map(|program| {
                let session = Session::builder(&program, &small_l1d())
                    .checkpoints(CheckpointPolicy::with_target(2))
                    .max_cycles(50_000_000)
                    .build()
                    .unwrap();
                assert!(session.golden().unwrap().result.exit.is_halted());
                (program, session)
            })
            .collect()
    })
}

fn log(session: &Session) -> Arc<GoldenCheckpoints> {
    session.golden().unwrap();
    session
        .golden_checkpoints()
        .expect("checkpointed golden run")
}

/// Which L1D words a window of cycles reads: by loads at issue, and by
/// dirty writebacks.
struct ReadsSoon {
    any: Vec<bool>,
    writeback: Vec<bool>,
}

impl Probe for ReadsSoon {
    fn committed_read(&mut self, s: Structure, info: &ReadInfo) {
        if s == Structure::L1DCache && info.rip == WRITEBACK_RIP {
            self.any[info.entry] = true;
            self.writeback[info.entry] = true;
        }
    }

    fn physical_read(&mut self, s: Structure, entry: usize, _cycle: u64, _seq: u64) {
        if s == Structure::L1DCache {
            self.any[entry] = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whenever the log calls a flip dead, the faulty run is the golden
    /// run: same exit, output, cycle count and committed counts.  From the
    /// drawn word on (cyclically), the case checks the first dead word a
    /// writeback reads within `WINDOW` cycles and the first dead word
    /// anything reads within it — where an unsound log would show — or
    /// else the first dead word.
    #[test]
    fn a_flip_the_log_calls_dead_leaves_the_run_unchanged(
        p in 0usize..21,
        entry in 0usize..1_000_000,
        bit in 0u8..64,
        permille in 0u64..1000,
    ) {
        let (program, session) = &sessions()[p % sessions().len()];
        let golden = session.golden().unwrap();
        let ck = log(session);
        let cycle = golden.result.cycles * permille / 1000;
        let words = session.structure_entries(Structure::L1DCache);
        let mut cpu = Cpu::new(program.clone(), small_l1d()).unwrap();
        while !cpu.is_finished() && cpu.cycle() < cycle {
            cpu.step(&mut NullProbe);
        }
        let mut soon = ReadsSoon {
            any: vec![false; words],
            writeback: vec![false; words],
        };
        while !cpu.is_finished() && cpu.cycle() < cycle + WINDOW {
            cpu.step(&mut soon);
        }
        let dead = |e: usize| !ck.l1d.is_live(e, cycle);
        let order = || (0..words).map(|k| (entry + k) % words);
        let mut picks: Vec<usize> = [
            order().find(|&e| dead(e) && soon.writeback[e]),
            order().find(|&e| dead(e) && soon.any[e]),
        ]
        .into_iter()
        .flatten()
        .collect();
        picks.dedup();
        if picks.is_empty() {
            picks.extend(order().find(|&e| dead(e)));
        }
        for e in picks {
            let fault = FaultSpec::new(Structure::L1DCache, e, bit, cycle);
            let mut cpu = Cpu::new(program.clone(), small_l1d()).unwrap();
            cpu.inject_fault(fault).unwrap();
            let faulty = cpu.run(golden.timeout_cycles, &mut NullProbe);
            prop_assert_eq!(&faulty, &golden.result, "{:?} called dead", fault);
        }
    }
}

#[test]
fn the_small_l1d_evicts_writes_back_and_crosses_lines() {
    let program = crossing_program();
    let mut probe = RecordingProbe::default();
    let mut cpu = Cpu::new(program, small_l1d()).unwrap();
    let result = cpu.run(10_000_000, &mut probe);
    assert!(result.exit.is_halted());
    let l1d = |&&(s, _, _): &&(Structure, usize, u64)| s == Structure::L1DCache;
    assert!(
        probe.invalidates().iter().filter(l1d).count() > 0,
        "evictions"
    );
    let writebacks = probe
        .reads()
        .iter()
        .filter(|(s, info)| *s == Structure::L1DCache && info.rip == WRITEBACK_RIP)
        .count();
    assert!(writebacks > 0, "dirty writebacks");
    // Every first-pass access is misaligned, and since the buffer starts
    // on a line boundary, every eighth of them crosses a line.
    assert_eq!(result.misaligned_exceptions, 2000);
}

/// One load fills a line and reads its first word; a second load, whose
/// address comes from a divide chain, reads the second word much later.
fn late_load_program() -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_words(&[5, 6, 7, 8]);
    b.movi(reg(10), buf as i64);
    b.movi(reg(11), buf as i64 * 3i64.pow(8));
    b.movi(reg(3), 3);
    b.load(reg(1), MemRef::base(reg(10)));
    for _ in 0..8 {
        b.alu_rr(AluOp::Div, reg(11), reg(11), reg(3));
    }
    b.load(reg(4), MemRef::base(reg(11)).disp(8));
    b.out(reg(1));
    b.out(reg(4));
    b.halt();
    b.build().unwrap()
}

#[test]
fn a_word_is_live_from_its_fill_to_its_last_read_and_dead_elsewhere() {
    let program = late_load_program();
    let cfg = CpuConfig::default();
    let mut probe = RecordingProbe::default();
    let golden = Cpu::new(program.clone(), cfg.clone())
        .unwrap()
        .run(100_000, &mut probe);
    // The first load fills the line and reads word 0 in the same cycle;
    // the second reads word 1 at `late`.
    let loads: Vec<_> = (probe.physical_reads().into_iter())
        .filter(|r| r.0 == Structure::L1DCache)
        .collect();
    let &[(_, first, fill, _), (_, second, late, _)] = loads.as_slice() else {
        panic!("two loads: {loads:?}");
    };
    assert!(late > fill + 10, "the divide chain must delay the load");
    let session = Session::builder(&program, &cfg)
        .max_cycles(100_000)
        .build()
        .unwrap();
    let ck = log(&session);
    let l1d = &ck.l1d;
    assert_eq!(l1d.words(), cfg.structure_entries(Structure::L1DCache));
    for c in 0..golden.cycles + 2 {
        // Word 0 is refilled and read in one cycle, after the flip.
        assert!(!l1d.is_live(first, c), "word 0 at {c}");
        assert_eq!(
            l1d.is_live(second, c),
            c > fill && c <= late,
            "word 1 at {c}"
        );
        // Word 2 of the filled line is never read.
        assert!(!l1d.is_live(second + 1, c), "word 2 at {c}");
    }
    // A live flip is observable; the flip one cycle after the read is not.
    let run = |cycle| {
        let mut cpu = Cpu::new(program.clone(), cfg.clone()).unwrap();
        cpu.inject_fault(FaultSpec::new(Structure::L1DCache, second, 0, cycle))
            .unwrap();
        cpu.run(100_000, &mut NullProbe)
    };
    assert_ne!(run(fill + 1).output, golden.output);
    assert_eq!(run(late + 1), golden);
}
