//! Word bitsets: `words[pos / 64]` holds bit `pos % 64`.  The core's
//! ROB-position sets, the register file's ready bits and the caches' valid
//! lines use them.

#[inline]
pub(crate) fn set_bit(words: &mut [u64], pos: usize) {
    words[pos / 64] |= 1 << (pos % 64);
}

#[inline]
pub(crate) fn clear_bit(words: &mut [u64], pos: usize) {
    words[pos / 64] &= !(1 << (pos % 64));
}

#[inline]
pub(crate) fn has_bit(words: &[u64], pos: usize) -> bool {
    words[pos / 64] >> (pos % 64) & 1 != 0
}

/// The positions of the set bits of `words`, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            let b = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (b < 64).then_some(i * 64 + b)
        })
    })
}
