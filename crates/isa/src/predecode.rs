//! Pre-decoded program images: every static instruction cracked exactly once.
//!
//! The cycle-level core fetches micro-ops for the same static instructions
//! over and over — once per dynamic instance, every cycle of every run — and
//! cracking on the fetch path means a heap-allocated `Vec<Uop>` per fetched
//! instruction per cycle.  A [`DecodedProgram`] removes that cost
//! structurally: at program load, [`decode_into`](crate::decode_into) runs
//! once per *static* instruction into a single flat arena (`Box<[Uop]>`),
//! with a per-RIP offset table mapping an instruction pointer to its
//! micro-op slice.  Fetch then copies `Copy`able [`Uop`]s straight out of
//! the shared table — no decoding, no allocation, ever, on the hot path.
//!
//! The table is immutable and derived purely from the [`Program`], so one
//! `Arc<DecodedProgram>` is shared by every core of a fault-injection
//! campaign (golden run and per-worker cores alike);
//! it is never persisted, because rebuilding it costs one linear pass over
//! the program text.  A persisted checkpoint names each in-flight micro-op
//! by its `(rip, upc)` pair alone, and decoding looks the micro-op up here
//! ([`DecodedProgram::uop`]).
//!
//! Equivalence with the per-fetch cracker is structural — both paths run
//! the same [`decode_into`](crate::decode_into) — and pinned by tests that
//! compare the arena against [`decode`](crate::decode) instruction by
//! instruction.

use crate::binio::DecodeError;
use crate::decode::{decode_into, MAX_UOPS_PER_INST};
use crate::{Program, Rip, Uop, Upc};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A program's complete micro-op stream, decoded once at load time.
///
/// Indexing is by RIP: [`DecodedProgram::uops`] returns the micro-op slice
/// of the instruction at that address, in cracking order (uPC order).  The
/// arena holds exactly the micro-ops [`decode`](crate::decode) would
/// produce for each instruction, so a core fetching from the table behaves
/// byte-identically to one cracking at fetch.
///
/// # Examples
///
/// ```
/// use merlin_isa::{decode, DecodedProgram, reg, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(reg(1), 7);
/// b.out(reg(1));
/// b.halt();
/// let program = b.build().unwrap();
///
/// let decoded = DecodedProgram::new(&program);
/// assert_eq!(decoded.num_instructions(), 3);
/// for (rip, inst) in program.instructions.iter().enumerate() {
///     assert_eq!(decoded.uops(rip as u32), decode(rip as u32, inst));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    /// All micro-ops of the program, instruction-major, uPC-minor.
    uops: Box<[Uop]>,
    /// `offsets[rip]..offsets[rip + 1]` is the arena range of instruction
    /// `rip`; `len + 1` entries, so the slice math needs no bounds special
    /// case for the last instruction.
    offsets: Box<[u32]>,
    /// Hash of the source instruction stream, so a consumer can verify a
    /// table really belongs to its program (instruction count alone cannot
    /// tell two equal-length programs apart).
    program_hash: u64,
}

/// Hash of a program's instruction stream (the part the table derives from).
fn instruction_hash(program: &Program) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    program.instructions.hash(&mut h);
    h.finish()
}

impl DecodedProgram {
    /// Decodes every static instruction of `program` exactly once.
    pub fn new(program: &Program) -> Self {
        let n = program.len();
        let mut uops = Vec::with_capacity(n * 2);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for (rip, inst) in program.instructions.iter().enumerate() {
            decode_into(rip as Rip, inst, &mut uops);
            debug_assert!(uops.len() - offsets[rip] as usize <= MAX_UOPS_PER_INST);
            offsets.push(u32::try_from(uops.len()).expect("program exceeds u32 micro-ops"));
        }
        DecodedProgram {
            uops: uops.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            program_hash: instruction_hash(program),
        }
    }

    /// Whether this table was built from `program`'s instruction stream —
    /// the check consumers run before fetching from a shared table, since a
    /// table from a *different* program of equal length would otherwise
    /// silently execute the wrong micro-ops.
    pub fn matches_program(&self, program: &Program) -> bool {
        self.num_instructions() == program.len() && self.program_hash == instruction_hash(program)
    }

    /// The micro-op sequence of the instruction at `rip`, in uPC order.
    ///
    /// # Panics
    ///
    /// Panics if `rip` is outside the program text; callers gate on
    /// [`DecodedProgram::num_instructions`] exactly as they gate fetch on
    /// `Program::len`.
    #[inline]
    pub fn uops(&self, rip: Rip) -> &[Uop] {
        let rip = rip as usize;
        &self.uops[self.offsets[rip] as usize..self.offsets[rip + 1] as usize]
    }

    /// The micro-op named `(rip, upc)`: the checked lookup behind decoding
    /// a persisted micro-op, which a file from outside the process names.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Invalid`] when `rip` is outside the program
    /// text or its instruction has no micro-op `upc`.
    pub fn uop(&self, rip: Rip, upc: Upc) -> Result<Uop, DecodeError> {
        let inst = (rip as usize) < self.num_instructions();
        inst.then(|| self.uops(rip).get(upc as usize).copied())
            .flatten()
            .ok_or(DecodeError::Invalid("micro-op (rip, upc)"))
    }

    /// Number of static instructions the table covers.
    pub fn num_instructions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total micro-ops in the arena.
    pub fn num_uops(&self) -> usize {
        self.uops.len()
    }

    /// `true` when the table covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.num_instructions() == 0
    }

    /// Heap footprint of the arena in bytes (shared once per campaign, not
    /// per core).
    pub fn footprint_bytes(&self) -> usize {
        self.uops.len() * std::mem::size_of::<Uop>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

impl fmt::Display for DecodedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decoded program: {} instructions, {} micro-ops",
            self.num_instructions(),
            self.num_uops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, reg, AluOp, Cond, MemRef, ProgramBuilder};

    fn mixed_program() -> Program {
        let mut b = ProgramBuilder::new();
        let data = b.alloc_words(&[1, 2, 3, 4]);
        b.movi(reg(10), data as i64);
        b.movi(reg(1), 0);
        let top = b.bind_label();
        b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
        b.store(reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
        b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
        b.branch_ri(Cond::Lt, reg(1), 4, top);
        b.load(reg(3), MemRef::base(reg(10)));
        b.out(reg(3));
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn arena_matches_per_instruction_decode() {
        let program = mixed_program();
        let decoded = DecodedProgram::new(&program);
        assert_eq!(decoded.num_instructions(), program.len());
        let mut total = 0;
        for (rip, inst) in program.instructions.iter().enumerate() {
            let expected = decode(rip as Rip, inst);
            assert_eq!(decoded.uops(rip as Rip), expected, "rip {rip}");
            total += expected.len();
        }
        assert_eq!(decoded.num_uops(), total);
        assert!(decoded.footprint_bytes() > 0);
        assert!(decoded.to_string().contains("micro-ops"));
    }

    #[test]
    fn empty_program_decodes_to_empty_table() {
        let program = Program {
            instructions: vec![],
            data: vec![],
            data_size: 0,
            entry: 0,
        };
        let decoded = DecodedProgram::new(&program);
        assert!(decoded.is_empty());
        assert_eq!(decoded.num_uops(), 0);
    }

    #[test]
    fn checked_lookup_names_every_micro_op_and_nothing_else() {
        let program = mixed_program();
        let decoded = DecodedProgram::new(&program);
        for rip in 0..program.len() as Rip {
            let uops = decoded.uops(rip);
            for u in uops {
                assert_eq!(decoded.uop(u.rip, u.upc), Ok(*u));
            }
            // One past the instruction's last micro-op.
            let past = uops.len() as Upc;
            assert!(decoded.uop(rip, past).is_err(), "rip {rip} upc {past}");
        }
        let end = program.len() as Rip;
        for (rip, upc) in [(end, 0), (Rip::MAX, 0), (0, Upc::MAX)] {
            assert_eq!(
                decoded.uop(rip, upc),
                Err(DecodeError::Invalid("micro-op (rip, upc)"))
            );
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_rip_panics() {
        let program = mixed_program();
        let decoded = DecodedProgram::new(&program);
        let _ = decoded.uops(program.len() as Rip);
    }
}
