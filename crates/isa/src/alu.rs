//! Arithmetic/logic operations and branch conditions with their evaluation
//! semantics.
//!
//! The evaluation functions live in the ISA crate (rather than in the CPU
//! model) so that the cycle-level core, the workload golden models and the
//! test-suites all share a single definition of the architecture's
//! arithmetic.

use std::fmt;

/// Integer ALU operation performed by an [`crate::UopKind::Alu`] micro-op.
///
/// All operations are defined on 64-bit two's-complement values with
/// wrap-around semantics, matching what the workload golden models compute.
///
/// # Examples
///
/// ```
/// use merlin_isa::AluOp;
/// assert_eq!(AluOp::Add.eval(2, 3).value, 5);
/// assert_eq!(AluOp::Div.eval(7, 0).value, 0);
/// assert!(AluOp::Div.eval(7, 0).arithmetic_exception);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sar,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// Unsigned division; division by zero yields 0 and raises an
    /// architectural arithmetic exception.
    Div,
    /// Unsigned remainder; remainder by zero yields the dividend and raises
    /// an architectural arithmetic exception.
    Rem,
    /// Signed set-less-than: 1 if `a < b` as signed 64-bit, else 0.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

/// Result of evaluating an [`AluOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AluResult {
    /// The 64-bit result value.
    pub value: u64,
    /// Whether the operation raised a recoverable architectural exception
    /// (division or remainder by zero).  The machine delivers the defined
    /// result above *and* bumps the architectural exception counter; a fault
    /// that introduces extra exceptions without corrupting the output is
    /// classified as DUE by the injection framework.
    pub arithmetic_exception: bool,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit operands.
    pub fn eval(self, a: u64, b: u64) -> AluResult {
        let mut exc = false;
        let value = match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => a.checked_div(b).unwrap_or_else(|| {
                exc = true;
                0
            }),
            AluOp::Rem => {
                if b == 0 {
                    exc = true;
                    a
                } else {
                    a % b
                }
            }
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Min => (a as i64).min(b as i64) as u64,
            AluOp::Max => (a as i64).max(b as i64) as u64,
        };
        AluResult {
            value,
            arithmetic_exception: exc,
        }
    }

    /// Execution latency of the operation in cycles on the modelled core
    /// (simple ALU ops 1 cycle, multiply 3, divide/remainder 12).
    pub fn latency(self) -> u64 {
        match self {
            AluOp::Mul => 3,
            AluOp::Div | AluOp::Rem => 12,
            _ => 1,
        }
    }

    /// Whether the operation needs the complex-integer functional unit
    /// (multiply/divide) rather than a simple ALU.
    pub fn is_complex(self) -> bool {
        matches!(self, AluOp::Mul | AluOp::Div | AluOp::Rem)
    }

    /// Every ALU operation, for exhaustive tests.
    pub fn all() -> &'static [AluOp] {
        &[
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Shl,
            AluOp::Shr,
            AluOp::Sar,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Min,
            AluOp::Max,
        ]
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Min => "min",
            AluOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Branch condition evaluated between two register operands (or a register
/// and an immediate).
///
/// # Examples
///
/// ```
/// use merlin_isa::Cond;
/// assert!(Cond::Lt.eval(3, 5));
/// assert!(Cond::Lt.eval((-1i64) as u64, 5)); // Lt compares as signed
/// assert!(!Cond::Ltu.eval((-1i64) as u64, 5)); // Ltu compares as unsigned
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// Evaluates the condition on two 64-bit operands.
    pub fn eval(self, a: u64, b: u64) -> bool {
        let (sa, sb) = (a as i64, b as i64);
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => sa < sb,
            Cond::Ge => sa >= sb,
            Cond::Le => sa <= sb,
            Cond::Gt => sa > sb,
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// The negated condition (`Eq` ↔ `Ne`, `Lt` ↔ `Ge`, …).
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ltu => Cond::Geu,
            Cond::Geu => Cond::Ltu,
        }
    }

    /// Every condition, for exhaustive tests.
    pub fn all() -> &'static [Cond] {
        &[
            Cond::Eq,
            Cond::Ne,
            Cond::Lt,
            Cond::Ge,
            Cond::Le,
            Cond::Gt,
            Cond::Ltu,
            Cond::Geu,
        ]
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ltu => "ltu",
            Cond::Geu => "geu",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps() {
        assert_eq!(AluOp::Add.eval(u64::MAX, 1).value, 0);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(AluOp::Sub.eval(0, 1).value, u64::MAX);
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(AluOp::Shl.eval(1, 64).value, 1);
        assert_eq!(AluOp::Shl.eval(1, 65).value, 2);
        assert_eq!(AluOp::Shr.eval(4, 66).value, 1);
    }

    #[test]
    fn sar_sign_extends() {
        assert_eq!(AluOp::Sar.eval((-8i64) as u64, 2).value, (-2i64) as u64);
    }

    #[test]
    fn div_by_zero_raises_exception_and_yields_zero() {
        let r = AluOp::Div.eval(123, 0);
        assert_eq!(r.value, 0);
        assert!(r.arithmetic_exception);
        let r = AluOp::Rem.eval(123, 0);
        assert_eq!(r.value, 123);
        assert!(r.arithmetic_exception);
    }

    #[test]
    fn div_rem_normal() {
        assert_eq!(AluOp::Div.eval(17, 5).value, 3);
        assert_eq!(AluOp::Rem.eval(17, 5).value, 2);
        assert!(!AluOp::Div.eval(17, 5).arithmetic_exception);
    }

    #[test]
    fn slt_signed_vs_unsigned() {
        let minus_one = (-1i64) as u64;
        assert_eq!(AluOp::Slt.eval(minus_one, 0).value, 1);
        assert_eq!(AluOp::Sltu.eval(minus_one, 0).value, 0);
    }

    #[test]
    fn min_max_signed() {
        let minus_two = (-2i64) as u64;
        assert_eq!(AluOp::Min.eval(minus_two, 3).value, minus_two);
        assert_eq!(AluOp::Max.eval(minus_two, 3).value, 3);
    }

    #[test]
    fn latencies_positive() {
        for op in AluOp::all() {
            assert!(op.latency() >= 1);
        }
    }

    #[test]
    fn cond_negation_is_involutive_and_complementary() {
        for &c in Cond::all() {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0u64, 0u64), (1, 2), (2, 1), ((-3i64) as u64, 4)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn cond_signed_vs_unsigned() {
        let minus_one = (-1i64) as u64;
        assert!(Cond::Lt.eval(minus_one, 1));
        assert!(!Cond::Ltu.eval(minus_one, 1));
        assert!(Cond::Geu.eval(minus_one, 1));
    }
}
