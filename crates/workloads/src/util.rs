//! Shared code-generation helpers and deterministic input generation used by
//! every workload kernel.

use merlin_isa::{AluOp, ArchReg, Cond, MemRef, ProgramBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random byte stream used to build kernel inputs.
///
/// Every kernel derives its input from a fixed per-kernel seed so golden
/// outputs are stable across runs and machines.
pub fn input_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// Deterministic pseudo-random 64-bit words.
pub fn input_words(seed: u64, len: usize, max: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..max)).collect()
}

/// Emits a loop that folds `count` 64-bit words starting at the address held
/// in `addr` into `dst` with a multiply-xor rolling checksum, then emits the
/// checksum to the output stream.
///
/// Clobbers `idx` and `tmp`; `dst` holds the checksum afterwards.
pub fn emit_checksum_words(
    b: &mut ProgramBuilder,
    dst: ArchReg,
    addr: ArchReg,
    count: i64,
    idx: ArchReg,
    tmp: ArchReg,
) {
    b.movi(dst, 0x9E37);
    b.movi(idx, 0);
    let top = b.bind_label();
    b.load(tmp, MemRef::base(addr).indexed(idx, 8));
    b.alu_ri(AluOp::Mul, dst, dst, 31);
    b.alu_rr(AluOp::Xor, dst, dst, tmp);
    b.alu_ri(AluOp::Add, idx, idx, 1);
    b.branch_ri(Cond::Lt, idx, count, top);
    b.out(dst);
}

/// The same rolling checksum computed natively, for reference models.
pub fn checksum_words(words: &[u64]) -> u64 {
    let mut acc = 0x9E37u64;
    for &w in words {
        acc = acc.wrapping_mul(31) ^ w;
    }
    acc
}

/// Emits a loop storing `count` zero words at the address held in `addr`
/// (a simple `memset`).  Clobbers `idx` and `zero`.
pub fn emit_zero_words(
    b: &mut ProgramBuilder,
    addr: ArchReg,
    count: i64,
    idx: ArchReg,
    zero: ArchReg,
) {
    b.movi(zero, 0);
    b.movi(idx, 0);
    let top = b.bind_label();
    b.store(zero, MemRef::base(addr).indexed(idx, 8));
    b.alu_ri(AluOp::Add, idx, idx, 1);
    b.branch_ri(Cond::Lt, idx, count, top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_cpu::interpret;
    use merlin_isa::reg;

    #[test]
    fn inputs_are_deterministic() {
        assert_eq!(input_bytes(7, 32), input_bytes(7, 32));
        assert_ne!(input_bytes(7, 32), input_bytes(8, 32));
        assert_eq!(input_words(3, 8, 100), input_words(3, 8, 100));
        assert!(input_words(3, 64, 100).iter().all(|&w| w < 100));
    }

    #[test]
    fn emitted_checksum_matches_reference() {
        let words = input_words(42, 20, u64::MAX);
        let mut b = ProgramBuilder::new();
        let addr = b.alloc_words(&words);
        b.movi(reg(10), addr as i64);
        emit_checksum_words(&mut b, reg(1), reg(10), words.len() as i64, reg(2), reg(3));
        b.halt();
        let r = interpret(&b.build().unwrap(), 1_000_000);
        assert_eq!(r.output, vec![checksum_words(&words)]);
    }

    #[test]
    fn zero_words_clears_buffer() {
        let mut b = ProgramBuilder::new();
        let addr = b.alloc_words(&[1, 2, 3, 4]);
        b.movi(reg(10), addr as i64);
        emit_zero_words(&mut b, reg(10), 4, reg(1), reg(2));
        emit_checksum_words(&mut b, reg(3), reg(10), 4, reg(1), reg(2));
        b.halt();
        let r = interpret(&b.build().unwrap(), 1_000_000);
        assert_eq!(r.output, vec![checksum_words(&[0, 0, 0, 0])]);
    }
}
