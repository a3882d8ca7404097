//! Program builder: a small macro-assembler with labels, forward references
//! and data allocation, used by all workload kernels.

use crate::{
    reg, AluOp, ArchReg, Cond, DataSegment, Inst, MemRef, MemSize, Program, Rip, DATA_BASE,
};
use std::collections::HashMap;
use std::fmt;

/// A control-flow label handed out by [`ProgramBuilder::label`].
///
/// Labels may be referenced by branches before they are bound; all references
/// are patched when [`ProgramBuilder::build`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors reported by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced by a branch/jump/call but never bound.
    UnboundLabel(Label),
    /// A label was bound twice.
    RebindLabel(Label),
    /// The program has no `Halt` instruction, so it can never terminate
    /// cleanly.
    MissingHalt,
    /// A branch, jump or call targets an instruction outside the program
    /// text.  Caught at build time so a fault-injection worker never hits
    /// the equivalent fetch-time panic mid-campaign.
    TargetOutOfRange {
        /// RIP of the offending control instruction.
        rip: Rip,
        /// Its out-of-range target.
        target: Rip,
        /// Number of instructions in the program.
        len: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(l) => write!(f, "label {:?} referenced but never bound", l),
            BuildError::RebindLabel(l) => write!(f, "label {:?} bound more than once", l),
            BuildError::MissingHalt => write!(f, "program contains no halt instruction"),
            BuildError::TargetOutOfRange { rip, target, len } => write!(
                f,
                "instruction {rip} targets {target}, outside the program text (0..{len})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`Program`]s.
///
/// # Examples
///
/// A loop that sums the first 10 integers and emits the result:
///
/// ```
/// use merlin_isa::{reg, AluOp, Cond, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(reg(1), 0); // sum
/// b.movi(reg(2), 1); // i
/// let top = b.bind_label();
/// b.alu_rr(AluOp::Add, reg(1), reg(1), reg(2));
/// b.alu_ri(AluOp::Add, reg(2), reg(2), 1);
/// b.branch_ri(Cond::Le, reg(2), 10, top);
/// b.out(reg(1));
/// b.halt();
/// let program = b.build().unwrap();
/// assert!(program.len() >= 7);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instructions: Vec<Inst>,
    data: Vec<DataSegment>,
    labels: Vec<Option<Rip>>,
    /// (instruction index, label) pairs whose target needs patching.
    fixups: Vec<(usize, Label)>,
    next_data: u64,
    extra_data: u64,
}

impl ProgramBuilder {
    /// Creates an empty builder; data allocation starts at
    /// [`DATA_BASE`](crate::DATA_BASE).
    pub fn new() -> Self {
        ProgramBuilder {
            instructions: Vec::new(),
            data: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
            next_data: DATA_BASE,
            extra_data: 0,
        }
    }

    /// The RIP the next pushed instruction will occupy.
    pub fn here(&self) -> Rip {
        self.instructions.len() as Rip
    }

    /// Creates a new, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (builder misuse).
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label {label:?} bound twice"
        );
        self.labels[label.0] = Some(self.here());
    }

    /// Creates a label already bound to the current position.
    pub fn bind_label(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    // ----- data allocation ---------------------------------------------

    /// Copies `bytes` into a fresh data allocation and returns its address.
    pub fn alloc_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.next_data;
        self.data.push(DataSegment {
            addr,
            bytes: bytes.to_vec(),
        });
        self.next_data += bytes.len() as u64;
        self.align(8);
        addr
    }

    /// Allocates and initialises an array of 64-bit words; returns its address.
    pub fn alloc_words(&mut self, words: &[u64]) -> u64 {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.alloc_bytes(&bytes)
    }

    /// Reserves `len` zero-initialised bytes and returns the address.
    pub fn reserve(&mut self, len: u64) -> u64 {
        let addr = self.next_data;
        self.next_data += len;
        self.extra_data += len;
        self.align(8);
        addr
    }

    fn align(&mut self, to: u64) {
        let rem = self.next_data % to;
        if rem != 0 {
            self.next_data += to - rem;
        }
    }

    // ----- raw instruction push -----------------------------------------

    /// Pushes an arbitrary instruction and returns its RIP.
    pub fn push(&mut self, inst: Inst) -> Rip {
        let rip = self.here();
        self.instructions.push(inst);
        rip
    }

    // ----- convenience emitters ------------------------------------------

    /// `rd = op(rs1, rs2)`
    pub fn alu_rr(&mut self, op: AluOp, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> Rip {
        self.push(Inst::AluRR { op, rd, rs1, rs2 })
    }

    /// `rd = op(rs1, imm)`
    pub fn alu_ri(&mut self, op: AluOp, rd: ArchReg, rs1: ArchReg, imm: i64) -> Rip {
        self.push(Inst::AluRI { op, rd, rs1, imm })
    }

    /// `rd = imm`
    pub fn movi(&mut self, rd: ArchReg, imm: i64) -> Rip {
        self.push(Inst::MovImm { rd, imm })
    }

    /// `rd = rs`
    pub fn mov(&mut self, rd: ArchReg, rs: ArchReg) -> Rip {
        self.push(Inst::Mov { rd, rs })
    }

    /// 64-bit load `rd = [mem]`.
    pub fn load(&mut self, rd: ArchReg, mem: MemRef) -> Rip {
        self.load_sized(rd, mem, MemSize::B8, false)
    }

    /// Load with explicit width and signedness.
    pub fn load_sized(&mut self, rd: ArchReg, mem: MemRef, size: MemSize, signed: bool) -> Rip {
        self.push(Inst::Load {
            rd,
            mem,
            size,
            signed,
        })
    }

    /// 64-bit store `[mem] = rs`.
    pub fn store(&mut self, rs: ArchReg, mem: MemRef) -> Rip {
        self.store_sized(rs, mem, MemSize::B8)
    }

    /// Store with explicit width.
    pub fn store_sized(&mut self, rs: ArchReg, mem: MemRef, size: MemSize) -> Rip {
        self.push(Inst::Store { rs, mem, size })
    }

    /// x86-style load-op `rd = op(rd, [mem])` (64-bit memory operand).
    pub fn load_op(&mut self, op: AluOp, rd: ArchReg, mem: MemRef) -> Rip {
        self.push(Inst::LoadOp {
            op,
            rd,
            mem,
            size: MemSize::B8,
        })
    }

    /// Conditional branch on two registers.
    pub fn branch_rr(&mut self, cond: Cond, rs1: ArchReg, rs2: ArchReg, target: Label) -> Rip {
        let rip = self.push(Inst::BranchRR {
            cond,
            rs1,
            rs2,
            target: 0,
        });
        self.fixups.push((rip as usize, target));
        rip
    }

    /// Conditional branch comparing a register with an immediate.
    pub fn branch_ri(&mut self, cond: Cond, rs1: ArchReg, imm: i64, target: Label) -> Rip {
        let rip = self.push(Inst::BranchRI {
            cond,
            rs1,
            imm,
            target: 0,
        });
        self.fixups.push((rip as usize, target));
        rip
    }

    /// Unconditional jump to a label.
    pub fn jump(&mut self, target: Label) -> Rip {
        let rip = self.push(Inst::Jump { target: 0 });
        self.fixups.push((rip as usize, target));
        rip
    }

    /// Indirect jump through a register.
    pub fn jump_reg(&mut self, rs: ArchReg) -> Rip {
        self.push(Inst::JumpReg { rs })
    }

    /// Call a label, linking through `link` (conventionally `r15`).
    pub fn call(&mut self, target: Label, link: ArchReg) -> Rip {
        let rip = self.push(Inst::Call { target: 0, link });
        self.fixups.push((rip as usize, target));
        rip
    }

    /// Return from a call made with link register `link`.
    pub fn ret(&mut self, link: ArchReg) -> Rip {
        self.jump_reg(link)
    }

    /// Emit the value of `rs` to the output stream.
    pub fn out(&mut self, rs: ArchReg) -> Rip {
        self.push(Inst::Out { rs })
    }

    /// Stop the program.
    pub fn halt(&mut self) -> Rip {
        self.push(Inst::Halt)
    }

    /// No-op.
    pub fn nop(&mut self) -> Rip {
        self.push(Inst::Nop)
    }

    /// Default link register used by the calling convention of the workload
    /// kernels.
    pub fn link_reg() -> ArchReg {
        reg(15)
    }

    // ----- finalisation ---------------------------------------------------

    /// Resolves all label references and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnboundLabel`] if any referenced label was never
    /// bound, and [`BuildError::MissingHalt`] if the program cannot
    /// terminate.
    pub fn build(mut self) -> Result<Program, BuildError> {
        // Patch fixups.
        let mut resolved: HashMap<usize, Rip> = HashMap::new();
        for (idx, label) in &self.fixups {
            let target = self.labels[label.0].ok_or(BuildError::UnboundLabel(*label))?;
            resolved.insert(*idx, target);
        }
        for (idx, target) in resolved {
            match &mut self.instructions[idx] {
                Inst::BranchRR { target: t, .. }
                | Inst::BranchRI { target: t, .. }
                | Inst::Jump { target: t }
                | Inst::Call { target: t, .. } => *t = target,
                other => unreachable!("fixup applied to non-control instruction {other}"),
            }
        }
        if !self.instructions.iter().any(|i| matches!(i, Inst::Halt)) {
            return Err(BuildError::MissingHalt);
        }
        // With labels patched, every direct target — label-resolved or
        // pushed raw — must land inside the text.
        let len = self.instructions.len() as Rip;
        for (rip, inst) in self.instructions.iter().enumerate() {
            if let Some(target) = inst.direct_target() {
                if target >= len {
                    return Err(BuildError::TargetOutOfRange {
                        rip: rip as Rip,
                        target,
                        len,
                    });
                }
            }
        }
        let data_size = (self.next_data - DATA_BASE).max(8) + 4096;
        Ok(Program {
            instructions: self.instructions,
            data: self.data,
            data_size,
            entry: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.movi(reg(1), 5);
        b.branch_ri(Cond::Eq, reg(1), 5, skip);
        b.movi(reg(1), 99); // skipped
        b.bind(skip);
        let top = b.bind_label();
        b.alu_ri(AluOp::Sub, reg(1), reg(1), 1);
        b.branch_ri(Cond::Gt, reg(1), 0, top);
        b.halt();
        let p = b.build().unwrap();
        // Forward branch targets the bound position of `skip`.
        match p.instructions[1] {
            Inst::BranchRI { target, .. } => assert_eq!(target, 3),
            ref other => panic!("unexpected {other}"),
        }
        // Backward branch targets `top`.
        match p.instructions[4] {
            Inst::BranchRI { target, .. } => assert_eq!(target, 3),
            ref other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jump(l);
        b.halt();
        assert!(matches!(b.build(), Err(BuildError::UnboundLabel(_))));
    }

    #[test]
    fn raw_out_of_range_target_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Jump { target: 40 });
        b.halt();
        assert_eq!(
            b.build(),
            Err(BuildError::TargetOutOfRange {
                rip: 0,
                target: 40,
                len: 2
            })
        );
    }

    #[test]
    fn label_bound_past_the_text_is_an_error() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.jump(end);
        b.halt();
        b.bind(end); // bound one past the last instruction
        assert!(matches!(
            b.build(),
            Err(BuildError::TargetOutOfRange {
                target: 2,
                len: 2,
                ..
            })
        ));
    }

    #[test]
    fn missing_halt_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.movi(reg(0), 1);
        assert!(matches!(b.build(), Err(BuildError::MissingHalt)));
    }

    #[test]
    #[should_panic]
    fn binding_twice_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn data_allocation_is_disjoint_and_aligned() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc_bytes(&[1, 2, 3]);
        let c = b.alloc_words(&[10, 20]);
        let d = b.reserve(100);
        b.halt();
        assert_eq!(a, DATA_BASE);
        assert!(c >= a + 3);
        assert_eq!(c % 8, 0);
        assert!(d >= c + 16);
        assert_eq!(d % 8, 0);
        let p = b.build().unwrap();
        assert!(p.data_size >= 100 + 16 + 3);
        assert_eq!(p.data.len(), 2);
    }

    #[test]
    fn call_and_ret_emit_expected_instructions() {
        let mut b = ProgramBuilder::new();
        let func = b.label();
        b.call(func, ProgramBuilder::link_reg());
        b.halt();
        b.bind(func);
        b.ret(ProgramBuilder::link_reg());
        let p = b.build().unwrap();
        match p.instructions[0] {
            Inst::Call { target, link } => {
                assert_eq!(target, 2);
                assert_eq!(link, reg(15));
            }
            ref other => panic!("unexpected {other}"),
        }
        assert!(matches!(p.instructions[2], Inst::JumpReg { .. }));
    }
}
