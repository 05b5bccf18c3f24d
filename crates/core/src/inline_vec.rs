//! Fixed-capacity inline vector for allocation-free hot paths.
//!
//! The steady-state delivery path must not touch the heap (DESIGN.md §12),
//! and the build is hermetic (no external `smallvec`), so this is a minimal
//! in-tree stand-in: a `[T; N]` plus a length. It is deliberately restricted
//! to `T: Copy + Default` so it needs no `unsafe` (the crate forbids it) —
//! unused slots simply hold `T::default()`.

use std::ops::{Deref, DerefMut};

/// A vector with inline storage for at most `N` elements.
///
/// Dereferences to `&[T]`, so slice methods (`iter`, `len`, indexing,
/// `to_vec`, ...) work directly. Pushing beyond `N` panics: capacities are
/// chosen from hardware bounds (e.g. at most [`crate::MAX_BANKS`] lines per
/// assembled XB), so overflow is a logic error, not a resource condition.
///
/// # Examples
///
/// ```
/// use xbc::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// v.push(7);
/// v.push(9);
/// assert_eq!(&v[..], &[7, 9]);
/// assert_eq!(v.iter().sum::<u32>(), 16);
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    buf: [T; N],
    /// Elements in use; a byte, so small vectors stay small (`N <= 255`).
    len: u8,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "InlineVec holds at most 255 elements") };
        InlineVec { buf: [T::default(); N], len: 0 }
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds `N` elements.
    pub fn push(&mut self, value: T) {
        assert!((self.len as usize) < N, "InlineVec capacity {N} exceeded");
        self.buf[self.len as usize] = value;
        self.len += 1;
    }

    /// Removes and returns the last element, if any.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.buf[self.len as usize])
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Shortens the vector to at most `len` elements.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len as usize {
            self.len = len as u8;
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len as usize]
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self[..] == *other
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]>
    for InlineVec<T, N>
{
    fn eq(&self, other: &[T; M]) -> bool {
        self[..] == other[..]
    }
}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let mut v: InlineVec<u8, 3> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        v.push(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(&v[..], &[1, 2]);
        v.clear();
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn truncate_and_slice_compare() {
        let mut v: InlineVec<u32, 4> = (0..4).collect();
        v.truncate(2);
        assert_eq!(v, [0, 1]);
        v.truncate(10); // no-op past len
        assert_eq!(v.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 1> = InlineVec::new();
        v.push(0);
        v.push(1);
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let mut a: InlineVec<u8, 4> = InlineVec::new();
        a.push(9);
        a.push(8);
        a.pop(); // dead slot still holds 8
        let mut b: InlineVec<u8, 4> = InlineVec::new();
        b.push(9);
        assert_eq!(a, b);
    }
}
