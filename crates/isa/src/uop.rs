//! Micro-op representation.
//!
//! Each macro-instruction cracks into 1–3 micro-ops.  The micro-op's index
//! within its macro-instruction is its *micro program counter* (uPC); MeRLiN
//! groups faults by the (RIP, uPC) pair of the micro-op that reads the faulty
//! entry at the end of a vulnerable interval, so the cracker keeps uPC
//! assignment stable and deterministic.

use crate::{AluOp, ArchReg, Cond, MemRef, MemSize, Rip};
use std::fmt;

/// Micro program counter: index of a micro-op within its macro-instruction.
pub type Upc = u8;

/// The operation class of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UopKind {
    /// Integer ALU operation on the sources, writing the destination.
    Alu(AluOp),
    /// Load from memory into the destination register.
    Load,
    /// Store-address generation (x86 STA): computes the effective address of
    /// the parent store and deposits it in the store-queue entry.
    StoreAddr,
    /// Store-data (x86 STD): reads the data source register and deposits the
    /// value in the store-queue entry's data field.
    StoreData,
    /// Conditional branch comparing the two sources.
    Branch(Cond),
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump through the first source register.
    JumpReg,
    /// Direct call, writing the return address to the destination register.
    Call,
    /// Emits the first source register's value to the output stream at commit.
    Out,
    /// Stops the program.
    Halt,
    /// No operation.
    Nop,
}

impl UopKind {
    /// Whether this micro-op can redirect control flow.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            UopKind::Branch(_) | UopKind::Jump | UopKind::JumpReg | UopKind::Call
        )
    }

    /// Whether this micro-op reads data memory.
    pub fn is_load(&self) -> bool {
        matches!(self, UopKind::Load)
    }

    /// Whether this micro-op is part of a store (address or data half).
    pub fn is_store(&self) -> bool {
        matches!(self, UopKind::StoreAddr | UopKind::StoreData)
    }
}

/// A micro-op, the unit the out-of-order core renames, issues and executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// Instruction pointer of the parent macro-instruction.
    pub rip: Rip,
    /// Micro program counter within the parent macro-instruction.
    pub upc: Upc,
    /// Operation class.
    pub kind: UopKind,
    /// Source registers (up to three: e.g. store-address with base + index).
    pub srcs: [Option<ArchReg>; 3],
    /// Destination register, if any.
    pub dst: Option<ArchReg>,
    /// Immediate operand (ALU immediate, branch/jump/call target, or the
    /// comparison immediate of an immediate branch).
    pub imm: i64,
    /// Memory reference for loads and store-address micro-ops.
    pub mem: Option<MemRef>,
    /// Access width for memory micro-ops.
    pub mem_size: Option<MemSize>,
    /// Sign-extend loaded values.
    pub mem_signed: bool,
    /// For ALU micro-ops: `true` when the second operand is `imm` rather
    /// than a register.  For branch micro-ops: `true` when the second
    /// comparison operand is `cmp_imm` rather than a register.
    pub cmp_with_imm: bool,
    /// Comparison immediate of an immediate-form branch (`imm` holds the
    /// branch target, so the comparison constant travels separately).
    pub cmp_imm: i64,
    /// `true` on the last micro-op of the macro-instruction: committing this
    /// micro-op retires the whole instruction.
    pub last_in_inst: bool,
}

impl Uop {
    /// A builder-style blank micro-op used by the cracker.
    pub(crate) fn blank(rip: Rip, upc: Upc, kind: UopKind) -> Self {
        Uop {
            rip,
            upc,
            kind,
            srcs: [None, None, None],
            dst: None,
            imm: 0,
            mem: None,
            mem_size: None,
            mem_signed: false,
            cmp_with_imm: false,
            cmp_imm: 0,
            last_in_inst: false,
        }
    }

    /// Iterates over the source registers that are present.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().filter_map(|s| *s)
    }

    /// Number of source registers.
    pub fn num_sources(&self) -> usize {
        self.srcs.iter().filter(|s| s.is_some()).count()
    }

    /// Execution latency in cycles (the core adds cache latency on top for
    /// memory operations).
    pub fn latency(&self) -> u64 {
        match self.kind {
            UopKind::Alu(op) => op.latency(),
            UopKind::Load => 1,
            UopKind::StoreAddr | UopKind::StoreData => 1,
            UopKind::Branch(_) | UopKind::Jump | UopKind::JumpReg | UopKind::Call => 1,
            UopKind::Out | UopKind::Halt | UopKind::Nop => 1,
        }
    }
}

impl fmt::Display for Uop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}.{}] ", self.rip, self.upc)?;
        match self.kind {
            UopKind::Alu(op) => write!(f, "alu.{op}")?,
            UopKind::Load => write!(f, "load")?,
            UopKind::StoreAddr => write!(f, "sta")?,
            UopKind::StoreData => write!(f, "std")?,
            UopKind::Branch(c) => write!(f, "br.{c}")?,
            UopKind::Jump => write!(f, "jmp")?,
            UopKind::JumpReg => write!(f, "jmpr")?,
            UopKind::Call => write!(f, "call")?,
            UopKind::Out => write!(f, "out")?,
            UopKind::Halt => write!(f, "halt")?,
            UopKind::Nop => write!(f, "nop")?,
        }
        if let Some(d) = self.dst {
            write!(f, " -> {d}")?;
        }
        let srcs: Vec<String> = self.sources().map(|s| s.to_string()).collect();
        if !srcs.is_empty() {
            write!(f, " src[{}]", srcs.join(","))?;
        }
        if let Some(m) = self.mem {
            write!(f, " {m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg;

    #[test]
    fn kind_predicates() {
        assert!(UopKind::Branch(Cond::Eq).is_control());
        assert!(UopKind::Call.is_control());
        assert!(!UopKind::Alu(AluOp::Add).is_control());
        assert!(UopKind::Load.is_load());
        assert!(UopKind::StoreAddr.is_store());
        assert!(UopKind::StoreData.is_store());
        assert!(!UopKind::Load.is_store());
    }

    #[test]
    fn sources_iteration() {
        let mut u = Uop::blank(3, 1, UopKind::Alu(AluOp::Add));
        u.srcs = [Some(reg(1)), None, Some(reg(2))];
        let srcs: Vec<_> = u.sources().collect();
        assert_eq!(srcs, vec![reg(1), reg(2)]);
        assert_eq!(u.num_sources(), 2);
    }

    #[test]
    fn display_contains_rip_and_upc() {
        let u = Uop::blank(17, 2, UopKind::Load);
        let s = u.to_string();
        assert!(s.contains("[17.2]"));
        assert!(s.contains("load"));
    }

    #[test]
    fn latency_positive() {
        for kind in [
            UopKind::Alu(AluOp::Div),
            UopKind::Load,
            UopKind::StoreAddr,
            UopKind::Branch(Cond::Ne),
            UopKind::Halt,
        ] {
            assert!(Uop::blank(0, 0, kind).latency() >= 1);
        }
    }
}
