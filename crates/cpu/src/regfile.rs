//! Physical register file, free list and register alias table (RAT).
//!
//! All three are plain owned arrays: the core writes them nearly every
//! cycle, so a fork or restore copies them whole (see [`crate::CowTable`]
//! for the structures that stay shared).

use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::{ArchReg, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// Index of a physical register.
pub type PhysReg = u16;

/// The physical integer register file: the 64-bit values, a
/// fault-injection target.  Whether a register's value has been produced
/// is derived from the ROB (see the core's ready set), not stored here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysRegFile {
    values: Vec<u64>,
}

impl PhysRegFile {
    /// Creates a register file of `n` physical registers, all zero.
    pub fn new(n: usize) -> Self {
        PhysRegFile { values: vec![0; n] }
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
    #[inline]
    pub fn read(&self, p: PhysReg) -> u64 {
        self.values[p as usize]
    }

    /// Writes a physical register.
    #[inline]
    pub fn write(&mut self, p: PhysReg, value: u64) {
        self.values[p as usize] = value;
    }

    /// Flips one stored bit — the register-file fault-injection hook.  The
    /// flip applies whether or not the register is currently mapped; a flip
    /// in a free or not-yet-written register is overwritten before any read
    /// (see [`Cpu::fault_site_dead`](crate::Cpu::fault_site_dead)).
    pub fn flip_bit(&mut self, p: usize, bit: u8) {
        self.values[p] ^= 1u64 << bit;
    }
}

/// Encoded as `len + u64s`, the values.
impl BinCode for PhysRegFile {
    fn encode(&self, out: &mut Vec<u8>) {
        self.values.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(PhysRegFile {
            values: BinCode::decode(r)?,
        })
    }
}

/// FIFO free list of physical registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    free: VecDeque<PhysReg>,
}

impl FreeList {
    /// Creates a free list containing registers `first..n`.
    pub fn new(first: usize, n: usize) -> Self {
        FreeList {
            free: (first as PhysReg..n as PhysReg).collect(),
        }
    }

    /// Takes a register from the free list.
    pub fn allocate(&mut self) -> Option<PhysReg> {
        self.free.pop_front()
    }

    /// Returns a register to the free list.
    pub fn release(&mut self, p: PhysReg) {
        debug_assert!(
            !self.free.contains(&p),
            "physical register {p} released twice"
        );
        self.free.push_back(p);
    }

    /// Registers currently free.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Whether `p` is currently free.
    pub fn contains(&self, p: PhysReg) -> bool {
        self.free.contains(&p)
    }

    /// The free registers, oldest release first.
    pub(crate) fn regs(&self) -> impl Iterator<Item = PhysReg> + '_ {
        self.free.iter().copied()
    }
}

impl BinCode for FreeList {
    fn encode(&self, out: &mut Vec<u8>) {
        self.free.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(FreeList {
            free: BinCode::decode(r)?,
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

    /// The mapped registers, by architectural register.
    pub(crate) fn regs(&self) -> impl Iterator<Item = PhysReg> + '_ {
        self.map.iter().copied()
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
    fn read_write() {
        let mut prf = PhysRegFile::new(32);
        assert_eq!(prf.read(5), 0);
        prf.write(5, 42);
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
    fn register_file_encodes_as_len_u64s() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        for n in [100, 256] {
            let mut prf = PhysRegFile::new(n);
            let mut values = vec![0u64; n];
            for p in (0..n).step_by(3) {
                values[p] = (p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                prf.write(p as PhysReg, values[p]);
            }
            prf.flip_bit(n - 1, 63);
            values[n - 1] ^= 1 << 63;

            let mut hand = (n as u64).to_le_bytes().to_vec();
            values
                .iter()
                .for_each(|v| hand.extend_from_slice(&v.to_le_bytes()));
            let bytes = encode_to_vec(&prf);
            assert_eq!(bytes, hand, "n = {n}");
            let back = decode_from_slice::<PhysRegFile>(&bytes).unwrap();
            assert_eq!(back, prf, "n = {n}");
            assert_eq!(encode_to_vec(&back), bytes, "n = {n}");
        }
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
