//! Executable program images: instruction stream plus initial data memory.

use crate::{Inst, Rip};
use std::fmt;

/// Base virtual address of the data region.  Addresses below this value are
/// reserved for the (read-only) code region; a committed store that targets
/// the code region triggers a simulator assertion (self-modifying code is
/// unsupported), which is one of the ways injected faults surface as the
/// paper's *Assert* outcome.
pub const DATA_BASE: u64 = 0x1_0000;

/// An initialised data segment copied into memory before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Start address (absolute, `>= DATA_BASE`).
    pub addr: u64,
    /// Initial bytes.
    pub bytes: Vec<u8>,
}

/// A complete program: instruction stream, initial data image and the amount
/// of data memory it needs.
///
/// Programs are produced by [`crate::ProgramBuilder`] and consumed by the
/// `merlin-cpu` core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Static instruction stream; the instruction pointer (RIP) of an
    /// instruction is its index in this vector.
    pub instructions: Vec<Inst>,
    /// Initialised data segments.
    pub data: Vec<DataSegment>,
    /// Total bytes of data memory the program may touch, starting at
    /// [`DATA_BASE`].  The core sizes its backing memory from this.
    pub data_size: u64,
    /// Entry point (instruction index), normally 0.
    pub entry: Rip,
}

impl Program {
    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction at `rip`, or `None` if the address is outside the
    /// program text (jumping there is a crash).
    pub fn inst(&self, rip: Rip) -> Option<&Inst> {
        self.instructions.get(rip as usize)
    }

    /// One past the highest data address the program's initialised segments
    /// touch.
    pub fn initialized_end(&self) -> u64 {
        self.data
            .iter()
            .map(|s| s.addr + s.bytes.len() as u64)
            .max()
            .unwrap_or(DATA_BASE)
    }

    /// Renders the full program listing (one instruction per line with its
    /// RIP), useful in failure reports.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (i, inst) in self.instructions.iter().enumerate() {
            out.push_str(&format!("{i:6}: {inst}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program: {} instructions, {} data segments, {} data bytes",
            self.instructions.len(),
            self.data.len(),
            self.data_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_program() {
        let p = Program {
            instructions: vec![],
            data: vec![],
            data_size: 0,
            entry: 0,
        };
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.inst(0), None);
        assert_eq!(p.initialized_end(), DATA_BASE);
    }

    #[test]
    fn initialized_end_covers_all_segments() {
        let p = Program {
            instructions: vec![Inst::Halt],
            data: vec![
                DataSegment {
                    addr: DATA_BASE,
                    bytes: vec![0; 16],
                },
                DataSegment {
                    addr: DATA_BASE + 0x100,
                    bytes: vec![1, 2, 3],
                },
            ],
            data_size: 0x200,
            entry: 0,
        };
        assert_eq!(p.initialized_end(), DATA_BASE + 0x103);
        assert!(p.listing().contains("halt"));
    }
}
