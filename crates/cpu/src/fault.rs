//! Transient-fault specification applied to live microarchitectural state.

use crate::Structure;
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use std::fmt;

/// Error returned by [`FaultSpec::try_new`] for specifications that violate
/// the single-bit-per-64-bit-entry fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending bit index (`>= 64`).
    pub bit: u8,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit index {} out of range (entries are 64 bits)",
            self.bit
        )
    }
}

impl std::error::Error for FaultSpecError {}

/// A single-bit transient fault: at the start of `cycle`, bit `bit` of entry
/// `entry` of `structure` is flipped in the live simulator state, exactly as
/// the paper's GeFIN injector flips a physical bit of a Gem5 structure.
///
/// # Examples
///
/// ```
/// use merlin_cpu::{FaultSpec, Structure};
/// let f = FaultSpec::new(Structure::RegisterFile, 17, 5, 1000);
/// assert_eq!(f.byte(), 0);
/// let f = FaultSpec::new(Structure::StoreQueue, 3, 63, 42);
/// assert_eq!(f.byte(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Target structure.
    pub structure: Structure,
    /// Entry index within the structure (physical register index, store
    /// queue slot, or flattened L1D word index).
    pub entry: usize,
    /// Bit position within the 64-bit entry (0 = least significant).
    pub bit: u8,
    /// Cycle at whose start the flip is applied.
    pub cycle: u64,
}

impl FaultSpec {
    /// Creates a fault specification, rejecting bit indices outside the
    /// 64-bit entry width.
    ///
    /// Fault lists handed to a campaign session are validated with
    /// [`FaultSpec::validate`] at the session boundary, so a bad
    /// specification surfaces as an error result rather than a worker panic
    /// mid-campaign.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] if `bit >= 64`.
    ///
    /// # Examples
    ///
    /// ```
    /// use merlin_cpu::{FaultSpec, Structure};
    /// assert!(FaultSpec::try_new(Structure::RegisterFile, 0, 63, 1).is_ok());
    /// assert!(FaultSpec::try_new(Structure::RegisterFile, 0, 64, 1).is_err());
    /// ```
    pub fn try_new(
        structure: Structure,
        entry: usize,
        bit: u8,
        cycle: u64,
    ) -> Result<Self, FaultSpecError> {
        if bit >= 64 {
            return Err(FaultSpecError { bit });
        }
        Ok(FaultSpec {
            structure,
            entry,
            bit,
            cycle,
        })
    }

    /// Creates a fault specification.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`; use [`FaultSpec::try_new`] to handle the error
    /// instead.
    pub fn new(structure: Structure, entry: usize, bit: u8, cycle: u64) -> Self {
        Self::try_new(structure, entry, bit, cycle)
            .unwrap_or_else(|_| panic!("bit index {bit} out of range"))
    }

    /// Checks the specification against the fault model (the fields are
    /// public, so a specification built with a struct literal may bypass
    /// [`FaultSpec::try_new`]).
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] if `bit >= 64`.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        if self.bit >= 64 {
            return Err(FaultSpecError { bit: self.bit });
        }
        Ok(())
    }

    /// The byte position (0–7) within the entry that this fault hits — the
    /// key of MeRLiN's second grouping step.
    pub fn byte(&self) -> u8 {
        self.bit / 8
    }
}

impl BinCode for FaultSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.structure.encode(out);
        self.entry.encode(out);
        self.bit.encode(out);
        self.cycle.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let spec = FaultSpec {
            structure: BinCode::decode(r)?,
            entry: BinCode::decode(r)?,
            bit: BinCode::decode(r)?,
            cycle: BinCode::decode(r)?,
        };
        spec.validate()
            .map_err(|_| DecodeError::Invalid("fault bit index"))?;
        Ok(spec)
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] bit {} @ cycle {}",
            self.structure, self.entry, self.bit, self.cycle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_positions() {
        for bit in 0u8..64 {
            let f = FaultSpec::new(Structure::L1DCache, 0, bit, 0);
            assert_eq!(f.byte(), bit / 8);
        }
    }

    #[test]
    #[should_panic]
    fn bit_out_of_range_panics() {
        let _ = FaultSpec::new(Structure::RegisterFile, 0, 64, 0);
    }

    #[test]
    fn display_mentions_structure_and_cycle() {
        let f = FaultSpec::new(Structure::StoreQueue, 2, 9, 77);
        let s = f.to_string();
        assert!(s.contains("SQ"));
        assert!(s.contains("77"));
    }

    #[test]
    fn try_new_rejects_wide_bits_and_validate_catches_literals() {
        assert!(FaultSpec::try_new(Structure::L1DCache, 0, 63, 5).is_ok());
        let err = FaultSpec::try_new(Structure::L1DCache, 0, 64, 5).unwrap_err();
        assert_eq!(err.bit, 64);
        assert!(err.to_string().contains("64"));
        let literal = FaultSpec {
            structure: Structure::RegisterFile,
            entry: 0,
            bit: 200,
            cycle: 1,
        };
        assert!(literal.validate().is_err());
        assert!(FaultSpec::new(Structure::RegisterFile, 0, 0, 1)
            .validate()
            .is_ok());
    }

    #[test]
    fn bincode_roundtrip_validates() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        let f = FaultSpec::new(Structure::StoreQueue, 3, 17, 12345);
        let bytes = encode_to_vec(&f);
        assert_eq!(decode_from_slice::<FaultSpec>(&bytes).unwrap(), f);
        // An encoding carrying an invalid bit index is rejected.
        let bad = FaultSpec { bit: 99, ..f };
        let bytes = encode_to_vec(&bad);
        assert!(decode_from_slice::<FaultSpec>(&bytes).is_err());
    }
}
