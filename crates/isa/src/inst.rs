//! Macro-instruction set.
//!
//! Macro-instructions are what programs are written in (via the
//! [`crate::ProgramBuilder`]); the cycle-level core never executes them
//! directly but cracks each one into 1–3 micro-ops (see [`crate::decode`]),
//! mirroring how an x86-64 front end decomposes complex instructions.
//! The *instruction pointer* (RIP in the paper's x86 terminology) of a macro
//! instruction is simply its index in the program's instruction stream.

use crate::{AluOp, ArchReg, Cond, MemRef, MemSize};
use std::fmt;

/// Instruction pointer: the index of a static macro-instruction in the
/// program text.  This is the "RIP" used by MeRLiN's grouping criterion.
pub type Rip = u32;

/// A macro-instruction.
///
/// The set is intentionally compact but covers the idioms the workload
/// kernels need: three-operand ALU forms, immediate forms, loads and stores
/// of four widths with base+index*scale+disp addressing, x86-style load-op
/// fusion (memory source operand), compare-and-branch, calls through a link
/// register, an `Out` instruction that appends a 64-bit value to the
/// program's architected output stream, and `Halt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `rd = op(rs1, rs2)`
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: ArchReg,
        /// First source register.
        rs1: ArchReg,
        /// Second source register.
        rs2: ArchReg,
    },
    /// `rd = op(rs1, imm)`
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: ArchReg,
        /// Source register.
        rs1: ArchReg,
        /// Immediate operand.
        imm: i64,
    },
    /// `rd = imm`
    MovImm {
        /// Destination register.
        rd: ArchReg,
        /// Immediate value.
        imm: i64,
    },
    /// `rd = rs`
    Mov {
        /// Destination register.
        rd: ArchReg,
        /// Source register.
        rs: ArchReg,
    },
    /// `rd = size-extended load from mem`
    Load {
        /// Destination register.
        rd: ArchReg,
        /// Address expression.
        mem: MemRef,
        /// Access width.
        size: MemSize,
        /// Sign-extend (`true`) or zero-extend (`false`) the loaded value.
        signed: bool,
    },
    /// `mem = low `size` bytes of rs` — cracked into the x86-like STA
    /// (store-address) and STD (store-data) micro-op pair.
    Store {
        /// Data source register.
        rs: ArchReg,
        /// Address expression.
        mem: MemRef,
        /// Access width.
        size: MemSize,
    },
    /// x86-style load-op: `rd = op(rd, load(mem))`, cracked into a load
    /// micro-op targeting a cracker temporary followed by an ALU micro-op.
    LoadOp {
        /// Operation combining the previous value of `rd` with the loaded
        /// value.
        op: AluOp,
        /// Destination (and first source) register.
        rd: ArchReg,
        /// Address expression.
        mem: MemRef,
        /// Access width of the memory operand (zero-extended).
        size: MemSize,
    },
    /// Conditional branch: `if cond(rs1, rs2) goto target`.
    BranchRR {
        /// Condition.
        cond: Cond,
        /// First comparison operand.
        rs1: ArchReg,
        /// Second comparison operand.
        rs2: ArchReg,
        /// Target instruction index.
        target: Rip,
    },
    /// Conditional branch against an immediate: `if cond(rs1, imm) goto target`.
    BranchRI {
        /// Condition.
        cond: Cond,
        /// Comparison register operand.
        rs1: ArchReg,
        /// Comparison immediate operand.
        imm: i64,
        /// Target instruction index.
        target: Rip,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target instruction index.
        target: Rip,
    },
    /// Indirect jump through a register (used to return from calls).
    JumpReg {
        /// Register holding the target instruction index.
        rs: ArchReg,
    },
    /// Direct call: `link = return address; goto target`.
    Call {
        /// Target instruction index.
        target: Rip,
        /// Link register receiving the return address (caller's RIP + 1).
        link: ArchReg,
    },
    /// Appends the value of `rs` to the architected output stream at commit.
    Out {
        /// Register whose value is emitted.
        rs: ArchReg,
    },
    /// Stops the program successfully.
    Halt,
    /// Does nothing.
    Nop,
}

impl Inst {
    /// Returns `true` for instructions that can redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::BranchRR { .. }
                | Inst::BranchRI { .. }
                | Inst::Jump { .. }
                | Inst::JumpReg { .. }
                | Inst::Call { .. }
        )
    }

    /// Returns `true` for conditional branches (the only instructions the
    /// direction predictor has to guess).
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self, Inst::BranchRR { .. } | Inst::BranchRI { .. })
    }

    /// Returns `true` for instructions that access data memory.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            Inst::Load { .. } | Inst::Store { .. } | Inst::LoadOp { .. }
        )
    }

    /// The statically known direct target of this instruction, if any.
    pub fn direct_target(&self) -> Option<Rip> {
        match self {
            Inst::BranchRR { target, .. }
            | Inst::BranchRI { target, .. }
            | Inst::Jump { target }
            | Inst::Call { target, .. } => Some(*target),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::AluRR { op, rd, rs1, rs2 } => write!(f, "{op} {rd}, {rs1}, {rs2}"),
            Inst::AluRI { op, rd, rs1, imm } => write!(f, "{op}i {rd}, {rs1}, {imm}"),
            Inst::MovImm { rd, imm } => write!(f, "mov {rd}, {imm}"),
            Inst::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Inst::Load {
                rd,
                mem,
                size,
                signed,
            } => write!(
                f,
                "ld{}{} {rd}, {mem}",
                size,
                if *signed { "s" } else { "" }
            ),
            Inst::Store { rs, mem, size } => write!(f, "st{} {mem}, {rs}", size),
            Inst::LoadOp { op, rd, mem, size } => write!(f, "{op}m{} {rd}, {mem}", size),
            Inst::BranchRR {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "b{cond} {rs1}, {rs2}, @{target}"),
            Inst::BranchRI {
                cond,
                rs1,
                imm,
                target,
            } => write!(f, "b{cond}i {rs1}, {imm}, @{target}"),
            Inst::Jump { target } => write!(f, "jmp @{target}"),
            Inst::JumpReg { rs } => write!(f, "jmpr {rs}"),
            Inst::Call { target, link } => write!(f, "call @{target}, link {link}"),
            Inst::Out { rs } => write!(f, "out {rs}"),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{reg, MemRef};

    #[test]
    fn classification_predicates() {
        let b = Inst::BranchRI {
            cond: Cond::Ne,
            rs1: reg(1),
            imm: 0,
            target: 7,
        };
        assert!(b.is_control());
        assert!(b.is_conditional_branch());
        assert!(!b.is_memory());
        assert_eq!(b.direct_target(), Some(7));

        let ld = Inst::Load {
            rd: reg(2),
            mem: MemRef::base(reg(3)),
            size: MemSize::B8,
            signed: false,
        };
        assert!(ld.is_memory());
        assert!(!ld.is_control());
        assert_eq!(ld.direct_target(), None);

        let call = Inst::Call {
            target: 42,
            link: reg(15),
        };
        assert!(call.is_control());
        assert!(!call.is_conditional_branch());
        assert_eq!(call.direct_target(), Some(42));

        assert!(!Inst::Halt.is_control());
        assert!(!Inst::Nop.is_memory());
    }

    #[test]
    fn display_is_nonempty_and_distinct() {
        let insts = [
            Inst::AluRR {
                op: AluOp::Add,
                rd: reg(1),
                rs1: reg(2),
                rs2: reg(3),
            },
            Inst::AluRI {
                op: AluOp::Xor,
                rd: reg(1),
                rs1: reg(2),
                imm: -5,
            },
            Inst::MovImm { rd: reg(0), imm: 9 },
            Inst::Mov {
                rd: reg(0),
                rs: reg(1),
            },
            Inst::Load {
                rd: reg(2),
                mem: MemRef::base(reg(3)).disp(8),
                size: MemSize::B4,
                signed: true,
            },
            Inst::Store {
                rs: reg(2),
                mem: MemRef::base(reg(3)),
                size: MemSize::B8,
            },
            Inst::LoadOp {
                op: AluOp::Add,
                rd: reg(4),
                mem: MemRef::base(reg(5)),
                size: MemSize::B8,
            },
            Inst::Jump { target: 3 },
            Inst::JumpReg { rs: reg(15) },
            Inst::Out { rs: reg(1) },
            Inst::Halt,
            Inst::Nop,
        ];
        let rendered: Vec<String> = insts.iter().map(|i| i.to_string()).collect();
        for r in &rendered {
            assert!(!r.is_empty());
        }
        let mut uniq = rendered.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(
            uniq.len(),
            rendered.len(),
            "display strings must be distinct"
        );
    }
}
