//! A small self-describing binary codec used to persist checkpoint stores
//! to disk.
//!
//! The workspace builds offline, so `serde` is a marker-trait stub and real
//! serialisation frameworks are unavailable; this module provides the
//! minimal bincode-style encoding the session cache needs: fixed-width
//! little-endian scalars, `u64` length prefixes for containers, and a one
//! byte tag per enum variant.  Every implementation round-trips exactly
//! (`decode(encode(x)) == x`) and decoding validates tags, lengths and
//! invariants so a truncated or corrupt cache file surfaces as a
//! [`DecodeError`] rather than a panic or a bogus value.
//!
//! The trait lives in `merlin-isa` — the bottom of the crate stack — so the
//! CPU crate can implement it for its snapshot types without orphan-rule
//! trouble.
//!
//! # Examples
//!
//! ```
//! use merlin_isa::binio::{BinCode, ByteReader};
//!
//! let mut buf = Vec::new();
//! (7u64, vec![true, false]).encode(&mut buf);
//! let mut r = ByteReader::new(&buf);
//! let back: (u64, Vec<bool>) = BinCode::decode(&mut r).unwrap();
//! assert_eq!(back, (7, vec![true, false]));
//! assert!(r.is_at_end());
//! ```

use crate::{AluOp, ArchReg, Cond, MemRef, MemSize, Uop, UopKind, NUM_ARCH_REGS};
use std::collections::VecDeque;
use std::fmt;

/// Errors produced while decoding a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// A tag, length or field violated the type's invariants.
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over the byte stream being decoded.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
}

/// Types with an exact binary encoding.
pub trait BinCode: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncated input or invalid content.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError>;
}

/// Upper bound on the element capacity any container decode reserves up
/// front.
///
/// A length prefix is validated against the bytes actually remaining (each
/// element consumes at least one byte), but `Vec::with_capacity(n)` would
/// still reserve `n * size_of::<T>()` bytes before a single element has been
/// proven decodable — for wide element types that is a large multiple of the
/// file size.  Capping the pre-allocation keeps the worst-case memory cost of
/// a corrupt length prefix proportional to the corrupt input itself; honest
/// longer containers simply grow as they decode.
const MAX_PREALLOC_ELEMS: usize = 1 << 16;

/// Capacity to reserve up front for a container that claims `n` elements.
fn bounded_capacity(n: usize) -> usize {
    n.min(MAX_PREALLOC_ELEMS)
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: BinCode>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a byte slice, requiring the slice to be consumed
/// exactly.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated, corrupt or over-long input.
pub fn decode_from_slice<T: BinCode>(buf: &[u8]) -> Result<T, DecodeError> {
    let mut r = ByteReader::new(buf);
    let value = T::decode(&mut r)?;
    if !r.is_at_end() {
        return Err(DecodeError::Invalid("trailing bytes after value"));
    }
    Ok(value)
}

macro_rules! impl_scalar {
    ($($ty:ty),*) => {$(
        impl BinCode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
                Ok(<$ty>::from_le_bytes(r.take_array()?))
            }
        }
    )*};
}

impl_scalar!(u8, u16, u32, u64, i64);

impl BinCode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        usize::try_from(u64::decode(r)?).map_err(|_| DecodeError::Invalid("usize overflow"))
    }
}

impl BinCode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool tag")),
        }
    }
}

impl<T: BinCode> BinCode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Invalid("Option tag")),
        }
    }
}

impl<T: BinCode> BinCode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let n = usize::decode(r)?;
        // Every element consumes at least one byte, so `remaining` bounds the
        // plausible length; the reserved capacity is additionally capped so a
        // corrupt prefix cannot trigger a huge up-front allocation even for
        // wide element types.
        if n > r.remaining() {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(bounded_capacity(n));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl BinCode for Box<[u8]> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let n = usize::decode(r)?;
        Ok(r.take(n)?.to_vec().into_boxed_slice())
    }
}

impl BinCode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let n = usize::decode(r)?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| DecodeError::Invalid("utf-8 string"))
    }
}

impl<T: BinCode> BinCode for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<A: BinCode, B: BinCode> BinCode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: BinCode, const N: usize> BinCode for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(r)?);
        }
        out.try_into()
            .map_err(|_| DecodeError::Invalid("array length"))
    }
}

// --- ISA types -----------------------------------------------------------

impl BinCode for ArchReg {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.index() as u8).encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let idx = u8::decode(r)? as usize;
        if idx >= NUM_ARCH_REGS {
            return Err(DecodeError::Invalid("architectural register index"));
        }
        Ok(crate::reg::from_index(idx))
    }
}

macro_rules! impl_fieldless_enum {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl BinCode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(match self { $($ty::$variant => $tag),* });
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
                match u8::decode(r)? {
                    $($tag => Ok($ty::$variant),)*
                    _ => Err(DecodeError::Invalid(stringify!($ty))),
                }
            }
        }
    };
}

impl_fieldless_enum!(AluOp {
    Add = 0, Sub = 1, And = 2, Or = 3, Xor = 4, Shl = 5, Shr = 6, Sar = 7,
    Mul = 8, Div = 9, Rem = 10, Slt = 11, Sltu = 12, Min = 13, Max = 14,
});

impl_fieldless_enum!(Cond {
    Eq = 0, Ne = 1, Lt = 2, Ge = 3, Le = 4, Gt = 5, Ltu = 6, Geu = 7,
});

impl_fieldless_enum!(MemSize { B1 = 0, B2 = 1, B4 = 2, B8 = 3 });

impl BinCode for MemRef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.base.encode(out);
        self.index.encode(out);
        self.scale.encode(out);
        self.displacement.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let base = ArchReg::decode(r)?;
        let index = Option::<ArchReg>::decode(r)?;
        let scale = u8::decode(r)?;
        if !matches!(scale, 1 | 2 | 4 | 8) {
            return Err(DecodeError::Invalid("memory reference scale"));
        }
        let displacement = i64::decode(r)?;
        Ok(MemRef {
            base,
            index,
            scale,
            displacement,
        })
    }
}

impl BinCode for UopKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            UopKind::Alu(op) => {
                out.push(0);
                op.encode(out);
            }
            UopKind::Load => out.push(1),
            UopKind::StoreAddr => out.push(2),
            UopKind::StoreData => out.push(3),
            UopKind::Branch(c) => {
                out.push(4);
                c.encode(out);
            }
            UopKind::Jump => out.push(5),
            UopKind::JumpReg => out.push(6),
            UopKind::Call => out.push(7),
            UopKind::Out => out.push(8),
            UopKind::Halt => out.push(9),
            UopKind::Nop => out.push(10),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => UopKind::Alu(AluOp::decode(r)?),
            1 => UopKind::Load,
            2 => UopKind::StoreAddr,
            3 => UopKind::StoreData,
            4 => UopKind::Branch(Cond::decode(r)?),
            5 => UopKind::Jump,
            6 => UopKind::JumpReg,
            7 => UopKind::Call,
            8 => UopKind::Out,
            9 => UopKind::Halt,
            10 => UopKind::Nop,
            _ => return Err(DecodeError::Invalid("UopKind")),
        })
    }
}

impl BinCode for Uop {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rip.encode(out);
        self.upc.encode(out);
        self.kind.encode(out);
        self.srcs.encode(out);
        self.dst.encode(out);
        self.imm.encode(out);
        self.mem.encode(out);
        self.mem_size.encode(out);
        self.mem_signed.encode(out);
        self.cmp_with_imm.encode(out);
        self.cmp_imm.encode(out);
        self.last_in_inst.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Uop {
            rip: BinCode::decode(r)?,
            upc: BinCode::decode(r)?,
            kind: BinCode::decode(r)?,
            srcs: BinCode::decode(r)?,
            dst: BinCode::decode(r)?,
            imm: BinCode::decode(r)?,
            mem: BinCode::decode(r)?,
            mem_size: BinCode::decode(r)?,
            mem_signed: BinCode::decode(r)?,
            cmp_with_imm: BinCode::decode(r)?,
            cmp_imm: BinCode::decode(r)?,
            last_in_inst: BinCode::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg;

    fn roundtrip<T: BinCode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn scalars_and_containers_roundtrip() {
        roundtrip(0xDEAD_BEEF_u64);
        roundtrip(-42i64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u8));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(String::from("golden"));
        roundtrip(VecDeque::from(vec![(1u32, false), (2, true)]));
        roundtrip([Some(reg(1)), None, Some(reg(5))]);
        roundtrip(vec![0u8, 255].into_boxed_slice());
    }

    #[test]
    fn isa_types_roundtrip() {
        for op in [AluOp::Add, AluOp::Max, AluOp::Div] {
            roundtrip(op);
        }
        for c in [Cond::Eq, Cond::Geu] {
            roundtrip(c);
        }
        for s in [MemSize::B1, MemSize::B8] {
            roundtrip(s);
        }
        roundtrip(reg(7));
        roundtrip(MemRef::base(reg(2)).indexed(reg(3), 8).disp(-16));
        let mut u = Uop::blank(17, 2, UopKind::Branch(Cond::Lt));
        u.srcs = [Some(reg(1)), Some(reg(2)), None];
        u.imm = 99;
        u.cmp_with_imm = true;
        u.cmp_imm = -5;
        u.last_in_inst = true;
        roundtrip(u);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicked() {
        // Truncated scalar.
        assert_eq!(
            decode_from_slice::<u64>(&[1, 2, 3]),
            Err(DecodeError::UnexpectedEof)
        );
        // Bad enum tag.
        assert_eq!(
            decode_from_slice::<AluOp>(&[200]),
            Err(DecodeError::Invalid("AluOp"))
        );
        // Bad bool.
        assert!(decode_from_slice::<bool>(&[9]).is_err());
        // Register index out of range.
        assert!(decode_from_slice::<ArchReg>(&[250]).is_err());
        // Length prefix larger than the remaining input.
        let mut buf = Vec::new();
        1_000_000usize.encode(&mut buf);
        assert_eq!(
            decode_from_slice::<Vec<u8>>(&buf),
            Err(DecodeError::UnexpectedEof)
        );
        // Trailing garbage.
        let mut buf = encode_to_vec(&5u8);
        buf.push(0);
        assert!(decode_from_slice::<u8>(&buf).is_err());
        // Invalid scale.
        let mut buf = Vec::new();
        reg(0).encode(&mut buf);
        Option::<ArchReg>::None.encode(&mut buf);
        3u8.encode(&mut buf); // scale 3 is not 1/2/4/8
        0i64.encode(&mut buf);
        assert!(decode_from_slice::<MemRef>(&buf).is_err());
    }

    #[test]
    fn huge_length_prefix_cannot_force_a_huge_preallocation() {
        // A length prefix claiming more elements than bytes remain is
        // rejected before any allocation at all.
        let mut buf = Vec::new();
        (usize::MAX / 2).encode(&mut buf);
        assert_eq!(
            decode_from_slice::<Vec<u64>>(&buf),
            Err(DecodeError::UnexpectedEof)
        );

        // A prefix that *is* covered by remaining bytes still only reserves a
        // bounded capacity up front; decode then fails element-by-element
        // without ever holding `n * size_of::<T>()` bytes.  (One-byte
        // "elements" of a wide type make the claimed count plausible.)
        let claimed = MAX_PREALLOC_ELEMS * 4;
        let mut buf = Vec::new();
        claimed.encode(&mut buf);
        buf.resize(buf.len() + claimed, 0u8);
        // [u64; 4] elements need 32 bytes each, so this must fail with EOF —
        // the point is that it fails cheaply rather than pre-reserving
        // `claimed * 32` bytes.
        assert_eq!(
            decode_from_slice::<Vec<[u64; 4]>>(&buf),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn bounded_capacity_preserves_small_and_caps_large() {
        assert_eq!(bounded_capacity(0), 0);
        assert_eq!(bounded_capacity(17), 17);
        assert_eq!(bounded_capacity(MAX_PREALLOC_ELEMS), MAX_PREALLOC_ELEMS);
        assert_eq!(bounded_capacity(usize::MAX), MAX_PREALLOC_ELEMS);
    }
}
