//! Architectural reference interpreter.
//!
//! Executes programs at macro-instruction granularity with no
//! microarchitecture at all: a flat register file, flat memory, sequential
//! control flow.  It is the golden model the cycle-level core is validated
//! against (same output stream, same exception counts) and a convenient tool
//! for workload authors to compute expected outputs.

use crate::memory::{MemError, Memory};
use merlin_isa::{branch_compare_immediate, Inst, Program, Rip, NUM_GPRS};

/// How an architectural (reference) execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpExit {
    /// The program executed `Halt`.
    Halted,
    /// The instruction limit was reached.
    InstructionLimit,
    /// A memory access faulted.
    MemoryFault(MemError),
    /// Control flow left the program text.
    InvalidPc(Rip),
}

/// Result of a reference execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpResult {
    /// Why execution stopped.
    pub exit: InterpExit,
    /// Output stream produced by `Out` instructions.
    pub output: Vec<u64>,
    /// Macro-instructions executed.
    pub instructions: u64,
    /// Arithmetic exceptions (divide/remainder by zero).
    pub arithmetic_exceptions: u64,
    /// Misaligned data accesses.
    pub misaligned_exceptions: u64,
}

/// Executes `program` architecturally for at most `max_instructions`.
///
/// # Examples
///
/// ```
/// use merlin_cpu::interpret;
/// use merlin_isa::{reg, AluOp, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(reg(1), 6);
/// b.alu_ri(AluOp::Mul, reg(1), reg(1), 7);
/// b.out(reg(1));
/// b.halt();
/// let result = interpret(&b.build().unwrap(), 1000);
/// assert_eq!(result.output, vec![42]);
/// ```
pub fn interpret(program: &Program, max_instructions: u64) -> InterpResult {
    let mut regs = [0u64; NUM_GPRS];
    let mut mem = Memory::new(program.data_size + 64 * 1024);
    for seg in &program.data {
        mem.load_segment(seg.addr, &seg.bytes)
            .expect("program data segment must fit in memory");
    }
    let mut pc: Rip = program.entry;
    let mut output = Vec::new();
    let mut instructions = 0u64;
    let mut arithmetic_exceptions = 0u64;
    let mut misaligned_exceptions = 0u64;

    let exit = loop {
        if instructions >= max_instructions {
            break InterpExit::InstructionLimit;
        }
        let Some(&inst) = program.inst(pc) else {
            break InterpExit::InvalidPc(pc);
        };
        instructions += 1;
        let mut next = pc + 1;
        match inst {
            Inst::AluRR { op, rd, rs1, rs2 } => {
                let r = op.eval(regs[rs1.index()], regs[rs2.index()]);
                if r.arithmetic_exception {
                    arithmetic_exceptions += 1;
                }
                regs[rd.index()] = r.value;
            }
            Inst::AluRI { op, rd, rs1, imm } => {
                let r = op.eval(regs[rs1.index()], imm as u64);
                if r.arithmetic_exception {
                    arithmetic_exceptions += 1;
                }
                regs[rd.index()] = r.value;
            }
            Inst::MovImm { rd, imm } => regs[rd.index()] = imm as u64,
            Inst::Mov { rd, rs } => regs[rd.index()] = regs[rs.index()],
            Inst::Load {
                rd,
                mem: mref,
                size,
                signed,
            } => {
                let idx = mref.index.map(|r| regs[r.index()]).unwrap_or(0);
                let addr = mref.effective_address(regs[mref.base.index()], idx);
                if addr % size.bytes() != 0 {
                    misaligned_exceptions += 1;
                }
                match mem.read(addr, size) {
                    Ok(v) => {
                        regs[rd.index()] = if signed { size.sign_extend(v) } else { v };
                    }
                    Err(e) => break InterpExit::MemoryFault(e),
                }
            }
            Inst::Store {
                rs,
                mem: mref,
                size,
            } => {
                let idx = mref.index.map(|r| regs[r.index()]).unwrap_or(0);
                let addr = mref.effective_address(regs[mref.base.index()], idx);
                if addr % size.bytes() != 0 {
                    misaligned_exceptions += 1;
                }
                if let Err(e) = mem.write(addr, regs[rs.index()], size) {
                    break InterpExit::MemoryFault(e);
                }
            }
            Inst::LoadOp {
                op,
                rd,
                mem: mref,
                size,
            } => {
                let idx = mref.index.map(|r| regs[r.index()]).unwrap_or(0);
                let addr = mref.effective_address(regs[mref.base.index()], idx);
                if addr % size.bytes() != 0 {
                    misaligned_exceptions += 1;
                }
                match mem.read(addr, size) {
                    Ok(v) => {
                        let r = op.eval(regs[rd.index()], v);
                        if r.arithmetic_exception {
                            arithmetic_exceptions += 1;
                        }
                        regs[rd.index()] = r.value;
                    }
                    Err(e) => break InterpExit::MemoryFault(e),
                }
            }
            Inst::BranchRR {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(regs[rs1.index()], regs[rs2.index()]) {
                    next = target;
                }
            }
            Inst::BranchRI {
                cond, rs1, target, ..
            } => {
                let imm = branch_compare_immediate(&inst).expect("BranchRI has an immediate");
                if cond.eval(regs[rs1.index()], imm as u64) {
                    next = target;
                }
            }
            Inst::Jump { target } => next = target,
            Inst::JumpReg { rs } => {
                next = regs[rs.index()].min(u32::MAX as u64) as Rip;
            }
            Inst::Call { target, link } => {
                regs[link.index()] = pc as u64 + 1;
                next = target;
            }
            Inst::Out { rs } => output.push(regs[rs.index()]),
            Inst::Halt => break InterpExit::Halted,
            Inst::Nop => {}
        }
        pc = next;
    };

    InterpResult {
        exit,
        output,
        instructions,
        arithmetic_exceptions,
        misaligned_exceptions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};

    #[test]
    fn loop_sum() {
        let mut b = ProgramBuilder::new();
        b.movi(reg(1), 0);
        b.movi(reg(2), 1);
        let top = b.bind_label();
        b.alu_rr(AluOp::Add, reg(1), reg(1), reg(2));
        b.alu_ri(AluOp::Add, reg(2), reg(2), 1);
        b.branch_ri(Cond::Le, reg(2), 10, top);
        b.out(reg(1));
        b.halt();
        let r = interpret(&b.build().unwrap(), 10_000);
        assert_eq!(r.exit, InterpExit::Halted);
        assert_eq!(r.output, vec![55]);
    }

    #[test]
    fn memory_roundtrip_and_call() {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_words(&[7, 8, 9]);
        let func = b.label();
        b.movi(reg(1), buf as i64);
        b.call(func, ProgramBuilder::link_reg());
        b.out(reg(2));
        b.halt();
        b.bind(func);
        b.load(reg(2), MemRef::base(reg(1)).disp(8));
        b.ret(ProgramBuilder::link_reg());
        let r = interpret(&b.build().unwrap(), 10_000);
        assert_eq!(r.exit, InterpExit::Halted);
        assert_eq!(r.output, vec![8]);
    }

    #[test]
    fn division_by_zero_counts_exception() {
        let mut b = ProgramBuilder::new();
        b.movi(reg(1), 5);
        b.movi(reg(2), 0);
        b.alu_rr(AluOp::Div, reg(3), reg(1), reg(2));
        b.out(reg(3));
        b.halt();
        let r = interpret(&b.build().unwrap(), 100);
        assert_eq!(r.output, vec![0]);
        assert_eq!(r.arithmetic_exceptions, 1);
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut b = ProgramBuilder::new();
        b.movi(reg(1), 0x4000_0000);
        b.load(reg(2), MemRef::base(reg(1)));
        b.halt();
        let r = interpret(&b.build().unwrap(), 100);
        assert!(matches!(r.exit, InterpExit::MemoryFault(_)));
    }

    #[test]
    fn instruction_limit_stops_infinite_loop() {
        let mut b = ProgramBuilder::new();
        let top = b.bind_label();
        b.jump(top);
        b.halt();
        let r = interpret(&b.build().unwrap(), 50);
        assert_eq!(r.exit, InterpExit::InstructionLimit);
        assert_eq!(r.instructions, 50);
    }
}
