//! Word bitsets: `words[pos / 64]` holds bit `pos % 64`.  The core's
//! ROB-position sets, the register file's ready bits and the load queue's
//! occupancy use them.

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
