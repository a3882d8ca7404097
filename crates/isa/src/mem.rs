//! Memory access widths and addressing-mode descriptions.

use crate::ArchReg;
use std::fmt;

/// Width of a memory access in bytes.
///
/// # Examples
///
/// ```
/// use merlin_isa::MemSize;
/// assert_eq!(MemSize::B8.bytes(), 8);
/// assert_eq!(MemSize::B2.mask(), 0xFFFF);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
            MemSize::B8 => 8,
        }
    }

    /// Bit mask selecting the low `bytes()*8` bits of a value.
    pub fn mask(self) -> u64 {
        match self {
            MemSize::B1 => 0xFF,
            MemSize::B2 => 0xFFFF,
            MemSize::B4 => 0xFFFF_FFFF,
            MemSize::B8 => u64::MAX,
        }
    }

    /// Sign-extends `value` (assumed to hold `bytes()` meaningful low bytes)
    /// to 64 bits.
    pub fn sign_extend(self, value: u64) -> u64 {
        match self {
            MemSize::B1 => value as u8 as i8 as i64 as u64,
            MemSize::B2 => value as u16 as i16 as i64 as u64,
            MemSize::B4 => value as u32 as i32 as i64 as u64,
            MemSize::B8 => value,
        }
    }

    /// Every access width, for exhaustive tests.
    pub fn all() -> &'static [MemSize] {
        &[MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8]
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.bytes())
    }
}

/// A base + (optional scaled index) + displacement addressing expression,
/// patterned after the x86-64 `base + index*scale + disp` form so that
/// workload kernels can express realistic array and structure accesses.
///
/// # Examples
///
/// ```
/// use merlin_isa::{reg, MemRef};
/// // r2 + r3*8 + 16
/// let m = MemRef::base(reg(2)).indexed(reg(3), 8).disp(16);
/// assert_eq!(m.to_string(), "[r2 + r3*8 + 16]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register.
    pub base: ArchReg,
    /// Optional index register.
    pub index: Option<ArchReg>,
    /// Scale applied to the index register (1, 2, 4 or 8).
    pub scale: u8,
    /// Signed displacement added to the effective address.
    pub displacement: i64,
}

impl MemRef {
    /// A plain `[base]` reference.
    pub fn base(base: ArchReg) -> Self {
        MemRef {
            base,
            index: None,
            scale: 1,
            displacement: 0,
        }
    }

    /// Adds a scaled index register.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8.
    pub fn indexed(mut self, index: ArchReg, scale: u8) -> Self {
        assert!(
            matches!(scale, 1 | 2 | 4 | 8),
            "scale must be 1, 2, 4 or 8 (got {scale})"
        );
        self.index = Some(index);
        self.scale = scale;
        self
    }

    /// Adds a signed displacement.
    pub fn disp(mut self, displacement: i64) -> Self {
        self.displacement = displacement;
        self
    }

    /// Computes the effective address given resolved register values.
    pub fn effective_address(&self, base_value: u64, index_value: u64) -> u64 {
        let mut addr = base_value;
        if self.index.is_some() {
            addr = addr.wrapping_add(index_value.wrapping_mul(self.scale as u64));
        }
        addr.wrapping_add(self.displacement as u64)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.base)?;
        if let Some(idx) = self.index {
            write!(f, " + {}*{}", idx, self.scale)?;
        }
        if self.displacement != 0 {
            if self.displacement > 0 {
                write!(f, " + {}", self.displacement)?;
            } else {
                write!(f, " - {}", -self.displacement)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg;

    #[test]
    fn sizes_and_masks() {
        assert_eq!(MemSize::B1.bytes(), 1);
        assert_eq!(MemSize::B4.mask(), 0xFFFF_FFFF);
        assert_eq!(MemSize::B8.mask(), u64::MAX);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(MemSize::B1.sign_extend(0x80), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(MemSize::B1.sign_extend(0x7F), 0x7F);
        assert_eq!(MemSize::B2.sign_extend(0x8000), 0xFFFF_FFFF_FFFF_8000);
        assert_eq!(MemSize::B4.sign_extend(0x8000_0000), 0xFFFF_FFFF_8000_0000);
        assert_eq!(MemSize::B8.sign_extend(u64::MAX), u64::MAX);
    }

    #[test]
    fn effective_address_with_index_and_disp() {
        let m = MemRef::base(reg(1)).indexed(reg(2), 8).disp(-8);
        assert_eq!(m.effective_address(0x1000, 4), 0x1000 + 32 - 8);
    }

    #[test]
    fn effective_address_plain_base() {
        let m = MemRef::base(reg(1));
        assert_eq!(m.effective_address(0x2000, 999), 0x2000);
    }

    #[test]
    #[should_panic]
    fn invalid_scale_panics() {
        let _ = MemRef::base(reg(0)).indexed(reg(1), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(MemRef::base(reg(4)).to_string(), "[r4]");
        assert_eq!(MemRef::base(reg(4)).disp(-4).to_string(), "[r4 - 4]");
        assert_eq!(
            MemRef::base(reg(4)).indexed(reg(5), 2).disp(12).to_string(),
            "[r4 + r5*2 + 12]"
        );
    }
}
