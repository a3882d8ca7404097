//! Architectural register identifiers.
//!
//! The ISA exposes 16 general-purpose 64-bit registers (`r0`..`r15`) to
//! programs.  Two additional *temporary* registers (`t0`, `t1`) are only ever
//! produced by the macro-op → micro-op cracker for intra-instruction
//! communication (e.g. the loaded value of a load-op instruction); they are
//! renamed onto the physical register file exactly like ordinary registers
//! but are never live across macro-instruction boundaries.

use std::fmt;

/// Number of program-visible general purpose registers.
pub const NUM_GPRS: usize = 16;

/// Number of cracker-internal temporary registers.
pub const NUM_TEMPS: usize = 2;

/// Total number of architectural register names that participate in renaming.
pub const NUM_ARCH_REGS: usize = NUM_GPRS + NUM_TEMPS;

/// An architectural register name.
///
/// Values `0..16` are the program-visible GPRs; `16` and `17` are the
/// cracker temporaries.  Construct program-visible registers with
/// [`ArchReg::gpr`] and temporaries with [`ArchReg::temp`].
///
/// # Examples
///
/// ```
/// use merlin_isa::ArchReg;
/// let r3 = ArchReg::gpr(3);
/// assert!(r3.is_gpr());
/// assert_eq!(r3.index(), 3);
/// assert_eq!(r3.to_string(), "r3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg(u8);

impl ArchReg {
    /// Creates a program-visible general purpose register.
    ///
    /// # Panics
    ///
    /// Panics if `n >= NUM_GPRS`.
    pub fn gpr(n: usize) -> Self {
        assert!(n < NUM_GPRS, "GPR index {n} out of range (0..{NUM_GPRS})");
        ArchReg(n as u8)
    }

    /// Creates a cracker-internal temporary register.
    ///
    /// # Panics
    ///
    /// Panics if `n >= NUM_TEMPS`.
    pub fn temp(n: usize) -> Self {
        assert!(
            n < NUM_TEMPS,
            "temp index {n} out of range (0..{NUM_TEMPS})"
        );
        ArchReg((NUM_GPRS + n) as u8)
    }

    /// The flat index of this register in `0..NUM_ARCH_REGS`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for the program-visible registers `r0..r15`.
    pub fn is_gpr(self) -> bool {
        (self.0 as usize) < NUM_GPRS
    }

    /// Returns `true` for the cracker temporaries.
    pub fn is_temp(self) -> bool {
        !self.is_gpr()
    }

    /// Enumerates every architectural register name (GPRs then temps).
    pub fn all() -> impl Iterator<Item = ArchReg> {
        (0..NUM_ARCH_REGS as u8).map(ArchReg)
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_gpr() {
            write!(f, "r{}", self.0)
        } else {
            write!(f, "t{}", self.0 as usize - NUM_GPRS)
        }
    }
}

/// Convenience constructor used pervasively by workload kernels: `reg(3)` is
/// `ArchReg::gpr(3)`.
///
/// # Examples
///
/// ```
/// use merlin_isa::{reg, ArchReg};
/// assert_eq!(reg(5), ArchReg::gpr(5));
/// ```
pub fn reg(n: usize) -> ArchReg {
    ArchReg::gpr(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_roundtrip() {
        for n in 0..NUM_GPRS {
            let r = ArchReg::gpr(n);
            assert_eq!(r.index(), n);
            assert!(r.is_gpr());
            assert!(!r.is_temp());
        }
    }

    #[test]
    fn temp_roundtrip() {
        for n in 0..NUM_TEMPS {
            let r = ArchReg::temp(n);
            assert_eq!(r.index(), NUM_GPRS + n);
            assert!(r.is_temp());
        }
    }

    #[test]
    #[should_panic]
    fn gpr_out_of_range_panics() {
        let _ = ArchReg::gpr(NUM_GPRS);
    }

    #[test]
    #[should_panic]
    fn temp_out_of_range_panics() {
        let _ = ArchReg::temp(NUM_TEMPS);
    }

    #[test]
    fn display_names() {
        assert_eq!(ArchReg::gpr(0).to_string(), "r0");
        assert_eq!(ArchReg::gpr(15).to_string(), "r15");
        assert_eq!(ArchReg::temp(0).to_string(), "t0");
        assert_eq!(ArchReg::temp(1).to_string(), "t1");
    }

    #[test]
    fn all_enumerates_every_register_once() {
        let regs: Vec<ArchReg> = ArchReg::all().collect();
        assert_eq!(regs.len(), NUM_ARCH_REGS);
        let mut uniq = regs.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), NUM_ARCH_REGS);
    }
}
