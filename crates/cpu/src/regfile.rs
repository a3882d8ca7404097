//! Physical register file, free list and register alias table (RAT).
//!
//! The register file and free list live on copy-on-write storage (see
//! [`crate::CowTable`]), so restores and forks adopt page handles instead
//! of copying entries.

use crate::cow::{CowBox, CowTable};
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::{ArchReg, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// Index of a physical register.
pub type PhysReg = u16;

/// Copy-on-write page size for the register-file arrays, in entries.
const PRF_PAGE: usize = 64;

/// The physical integer register file: actual 64-bit storage plus per-entry
/// ready bits, both on copy-on-write pages so forks share untouched pages
/// with their parent.  The value array is a fault-injection target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysRegFile {
    values: CowTable<u64>,
    ready: CowTable<bool>,
}

impl PhysRegFile {
    /// Creates a register file of `n` physical registers, all zero and ready.
    pub fn new(n: usize) -> Self {
        PhysRegFile {
            values: CowTable::new(n, 0, PRF_PAGE),
            ready: CowTable::new(n, true, PRF_PAGE),
        }
    }

    /// Number of physical registers.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the register file has no entries (never the case in a valid
    /// configuration).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads a physical register's current value.
    pub fn read(&self, p: PhysReg) -> u64 {
        *self.values.get(p as usize)
    }

    /// Writes a physical register and marks it ready.
    pub fn write(&mut self, p: PhysReg, value: u64) {
        *self.values.get_mut(p as usize) = value;
        *self.ready.get_mut(p as usize) = true;
    }

    /// Marks a freshly allocated register as not-ready (its producer has not
    /// executed yet).
    pub fn mark_pending(&mut self, p: PhysReg) {
        *self.ready.get_mut(p as usize) = false;
    }

    /// Marks a register ready without changing its value (used when squash
    /// recovery returns a register to the free pool).
    pub fn mark_ready(&mut self, p: PhysReg) {
        *self.ready.get_mut(p as usize) = true;
    }

    /// Whether the register's value has been produced.
    pub fn is_ready(&self, p: PhysReg) -> bool {
        *self.ready.get(p as usize)
    }

    /// Flips one stored bit — the register-file fault-injection hook.  The
    /// flip applies whether or not the register is currently mapped; a flip
    /// in a free or not-yet-written register is overwritten before any read
    /// (see [`Cpu::fault_site_dead`](crate::Cpu::fault_site_dead)).
    pub fn flip_bit(&mut self, p: usize, bit: u8) {
        *self.values.get_mut(p) ^= 1u64 << bit;
    }

    /// Moves every owned page behind a handle, so it can be shared.
    pub(crate) fn freeze(&mut self) {
        self.values.freeze();
        self.ready.freeze();
    }

    /// Un-share counters of both arrays, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.values.take_cow_breaks() + self.ready.take_cow_breaks()
    }
}

impl BinCode for PhysRegFile {
    fn encode(&self, out: &mut Vec<u8>) {
        // Page boundaries are bookkeeping, never serialised — the on-disk
        // format is identical to the pre-CoW layout.
        self.values.encode_seq(out);
        self.ready.encode_seq(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let values = CowTable::<u64>::decode_seq(r, PRF_PAGE)?;
        let ready = CowTable::<bool>::decode_seq(r, PRF_PAGE)?;
        if values.len() != ready.len() {
            return Err(DecodeError::Invalid("register file array lengths"));
        }
        Ok(PhysRegFile { values, ready })
    }
}

/// FIFO free list of physical registers, behind one copy-on-write handle a
/// fork shares instead of copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    free: CowBox<VecDeque<PhysReg>>,
}

impl FreeList {
    /// Creates a free list containing registers `first..n`.
    pub fn new(first: usize, n: usize) -> Self {
        FreeList {
            free: CowBox::new((first as PhysReg..n as PhysReg).collect()),
        }
    }

    /// Takes a register from the free list.
    pub fn allocate(&mut self) -> Option<PhysReg> {
        self.free.make_mut().pop_front()
    }

    /// Returns a register to the free list.
    pub fn release(&mut self, p: PhysReg) {
        debug_assert!(
            !self.free.contains(&p),
            "physical register {p} released twice"
        );
        self.free.make_mut().push_back(p);
    }

    /// Registers currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Whether `p` is currently free.
    pub fn contains(&self, p: PhysReg) -> bool {
        self.free.contains(&p)
    }

    /// Moves an owned queue behind a handle, so it can be shared.
    pub(crate) fn freeze(&mut self) {
        self.free.freeze();
    }

    /// Un-share counter of the queue, reset.
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        self.free.take_cow_breaks()
    }
}

impl BinCode for FreeList {
    fn encode(&self, out: &mut Vec<u8>) {
        self.free.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(FreeList {
            free: CowBox::decode(r)?,
        })
    }
}

/// Register alias table: the speculative architectural → physical mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenameTable {
    map: [PhysReg; NUM_ARCH_REGS],
}

impl RenameTable {
    /// Identity-initialised table: architectural register `i` maps to
    /// physical register `i`.
    pub fn identity() -> Self {
        let mut map = [0; NUM_ARCH_REGS];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as PhysReg;
        }
        RenameTable { map }
    }

    /// Current mapping of an architectural register.
    pub fn lookup(&self, r: ArchReg) -> PhysReg {
        self.map[r.index()]
    }

    /// Remaps `r` to `p`, returning the previous mapping.
    pub fn remap(&mut self, r: ArchReg, p: PhysReg) -> PhysReg {
        std::mem::replace(&mut self.map[r.index()], p)
    }

    /// Restores a previous mapping (squash recovery).
    pub fn restore(&mut self, r: ArchReg, previous: PhysReg) {
        self.map[r.index()] = previous;
    }
}

impl BinCode for RenameTable {
    fn encode(&self, out: &mut Vec<u8>) {
        self.map.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(RenameTable {
            map: BinCode::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_isa::reg;

    #[test]
    fn read_write_and_ready_bits() {
        let mut prf = PhysRegFile::new(32);
        assert!(prf.is_ready(5));
        prf.mark_pending(5);
        assert!(!prf.is_ready(5));
        prf.write(5, 42);
        assert!(prf.is_ready(5));
        assert_eq!(prf.read(5), 42);
        assert_eq!(prf.len(), 32);
        assert!(!prf.is_empty());
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let mut prf = PhysRegFile::new(8);
        prf.write(3, 0b1010);
        prf.flip_bit(3, 1);
        assert_eq!(prf.read(3), 0b1000);
        prf.flip_bit(3, 63);
        assert_eq!(prf.read(3), 0b1000 | (1 << 63));
    }

    #[test]
    fn free_list_allocate_release_cycle() {
        let mut fl = FreeList::new(18, 22);
        assert_eq!(fl.available(), 4);
        let a = fl.allocate().unwrap();
        let b = fl.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(fl.available(), 2);
        fl.release(a);
        assert_eq!(fl.available(), 3);
        // FIFO order: the released register comes back last.
        assert_eq!(fl.allocate().unwrap(), 20);
        assert_eq!(fl.allocate().unwrap(), 21);
        assert_eq!(fl.allocate().unwrap(), a);
        assert_eq!(fl.allocate(), None);
    }

    #[test]
    fn rename_table_remap_and_restore() {
        let mut rat = RenameTable::identity();
        assert_eq!(rat.lookup(reg(3)), 3);
        let prev = rat.remap(reg(3), 40);
        assert_eq!(prev, 3);
        assert_eq!(rat.lookup(reg(3)), 40);
        rat.restore(reg(3), prev);
        assert_eq!(rat.lookup(reg(3)), 3);
    }
}
