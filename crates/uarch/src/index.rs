//! Set indexing without a hardware divide.
//!
//! Every set-associative structure in the workspace splits a key (an IP,
//! a line number, a hashed trace identity) into `(key % sets, key /
//! sets)`. Set counts are runtime values and not always powers of two
//! (a 96K-uop XBC has 3072 sets), so the split used to cost a 64-bit
//! `div` — tens of cycles — on every lookup. [`SetIndex`] replaces it
//! with a multiply by a precomputed reciprocal and one correction step,
//! exact for every `u64` key.

/// An exact `(key % d, key / d)` split for a fixed divisor `d`.
///
/// With `m = ⌊(2⁶⁴ − 1) / d⌋`, the estimate `q = ⌊key · m / 2⁶⁴⌋` is the
/// true quotient or one less: `m·d = 2⁶⁴ − 1 − s` for some `s < d`, so
/// `key · m / 2⁶⁴ = key/d − key·(1 + s)/(d·2⁶⁴)` and the subtracted term
/// is below 1 for every `key < 2⁶⁴`. One compare of the remainder against
/// `d` fixes the estimate.
///
/// # Examples
///
/// ```
/// use xbc_uarch::SetIndex;
///
/// let sets = SetIndex::new(3072);
/// assert_eq!(sets.split(1_000_003), (1_000_003 % 3072, 1_000_003 / 3072));
/// assert_eq!(sets.split(u64::MAX), ((u64::MAX % 3072) as usize, u64::MAX / 3072));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetIndex {
    d: u64,
    m: u64,
}

impl SetIndex {
    /// Precomputes the reciprocal of `sets`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: usize) -> Self {
        assert!(sets > 0, "a set index needs at least one set");
        let d = sets as u64;
        SetIndex { d, m: u64::MAX / d }
    }

    /// The divisor (number of sets).
    #[inline]
    pub fn sets(&self) -> usize {
        self.d as usize
    }

    /// `(key % sets, key / sets)`, exactly.
    #[inline(always)]
    pub fn split(&self, key: u64) -> (usize, u64) {
        let q = ((key as u128 * self.m as u128) >> 64) as u64;
        let r = key - q * self.d;
        if r >= self.d {
            ((r - self.d) as usize, q + 1)
        } else {
            (r as usize, q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_divisors_match_hardware_division_at_the_edges() {
        for d in 1..=64u64 {
            let ix = SetIndex::new(d as usize);
            for key in [0, 1, d - 1, d, d + 1, u64::MAX, u64::MAX - 1, u64::MAX / d * d] {
                assert_eq!(ix.split(key), ((key % d) as usize, key / d), "key {key} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_panics() {
        SetIndex::new(0);
    }
}
