//! Generic set-associative cache with true-LRU replacement.
//!
//! The instruction cache and the trace-cache baseline are thin wrappers
//! around [`SetAssoc`]. The XBC data array needs a more exotic
//! bank × way organization and implements its own storage on top of the
//! same LRU discipline.

use crate::SetIndex;
use std::fmt;

/// Statistics kept by a [`SetAssoc`] cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups that found the tag.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
    /// Number of valid lines evicted by insertions.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} hit_rate={:.4}",
            self.hits,
            self.misses,
            self.evictions,
            self.hit_rate()
        )
    }
}

/// One valid line: a tag plus client payload.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Line<T> {
    tag: u64,
    stamp: u64,
    data: T,
}

/// A set-associative cache mapping `(set, tag)` to a payload `T`, with
/// true-LRU replacement inside each set.
///
/// The caller owns the index/tag derivation (different structures hash IPs
/// differently), so the API works on raw `set`/`tag` integers;
/// [`SetAssoc::split`] is the plain `(key % sets, key / sets)` split most
/// callers use.
///
/// # Examples
///
/// ```
/// use xbc_uarch::SetAssoc;
///
/// let mut c: SetAssoc<&str> = SetAssoc::new(4, 2);
/// assert!(c.insert(0, 10, "a").is_none());
/// assert!(c.insert(0, 11, "b").is_none());
/// // Third insert in a 2-way set evicts the LRU line (tag 10).
/// let victim = c.insert(0, 12, "c").unwrap();
/// assert_eq!(victim, (10, "a"));
/// assert!(c.get(0, 10).is_none());
/// assert_eq!(c.get(0, 12), Some(&"c"));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssoc<T> {
    index: SetIndex,
    ways: usize,
    lines: Vec<Option<Line<T>>>,
    stamp: u64,
    stats: CacheStats,
}

impl<T> SetAssoc<T> {
    /// Creates an empty cache of `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        let mut lines = Vec::with_capacity(sets * ways);
        lines.resize_with(sets * ways, || None);
        SetAssoc { index: SetIndex::new(sets), ways, lines, stamp: 0, stats: CacheStats::default() }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.index.sets()
    }

    /// `(key % sets, key / sets)`: the set a key maps to and the tag it
    /// is stored under, without a hardware divide (see [`SetIndex`]).
    #[inline]
    pub fn split(&self, key: u64) -> (usize, u64) {
        self.index.split(key)
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (not contents); used when discarding warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn base(&self, set: usize) -> usize {
        debug_assert!(set < self.sets(), "set {set} out of range {}", self.sets());
        set * self.ways
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Looks up `(set, tag)`, updating LRU and hit/miss statistics.
    pub fn get(&mut self, set: usize, tag: u64) -> Option<&T> {
        let base = self.base(set);
        let stamp = self.bump();
        for i in base..base + self.ways {
            if let Some(line) = &mut self.lines[i] {
                if line.tag == tag {
                    line.stamp = stamp;
                    self.stats.hits += 1;
                    return self.lines[i].as_ref().map(|l| &l.data);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Mutable lookup; updates LRU and statistics like [`SetAssoc::get`].
    pub fn get_mut(&mut self, set: usize, tag: u64) -> Option<&mut T> {
        let base = self.base(set);
        let stamp = self.bump();
        for i in base..base + self.ways {
            if let Some(line) = &mut self.lines[i] {
                if line.tag == tag {
                    line.stamp = stamp;
                    self.stats.hits += 1;
                    return self.lines[i].as_mut().map(|l| &mut l.data);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Looks up `(set, tag)` like [`SetAssoc::get`] — identical LRU and
    /// hit/miss bookkeeping — but returns the line's *index* instead of a
    /// borrow, so callers can hold the handle across later `&mut self`
    /// calls and read the payload with [`SetAssoc::data_at`] without
    /// cloning it.
    pub fn get_index(&mut self, set: usize, tag: u64) -> Option<usize> {
        let base = self.base(set);
        let stamp = self.bump();
        for i in base..base + self.ways {
            if let Some(line) = &mut self.lines[i] {
                if line.tag == tag {
                    line.stamp = stamp;
                    self.stats.hits += 1;
                    return Some(i);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Borrows the payload at a line index returned by
    /// [`SetAssoc::get_index`]. No LRU or statistics effects.
    ///
    /// # Panics
    ///
    /// Panics if the index does not refer to a valid line (stale handles
    /// are a caller bug: an index is only good until the next mutation).
    pub fn data_at(&self, index: usize) -> &T {
        self.lines[index].as_ref().map(|l| &l.data).expect("stale line index")
    }

    /// Checks presence without touching LRU or statistics.
    pub fn probe(&self, set: usize, tag: u64) -> Option<&T> {
        let base = self.base(set);
        self.lines[base..base + self.ways].iter().flatten().find(|l| l.tag == tag).map(|l| &l.data)
    }

    /// Inserts `(set, tag) -> data`, replacing an existing line with the same
    /// tag or evicting the LRU line of the set. Returns the evicted
    /// `(tag, data)` if a *different* valid line was displaced.
    pub fn insert(&mut self, set: usize, tag: u64, data: T) -> Option<(u64, T)> {
        let base = self.base(set);
        let stamp = self.bump();
        // Same-tag replacement first.
        for i in base..base + self.ways {
            if matches!(&self.lines[i], Some(l) if l.tag == tag) {
                self.lines[i] = Some(Line { tag, stamp, data });
                return None;
            }
        }
        // Free way next.
        for i in base..base + self.ways {
            if self.lines[i].is_none() {
                self.lines[i] = Some(Line { tag, stamp, data });
                return None;
            }
        }
        // Evict LRU.
        let victim = (base..base + self.ways)
            .min_by_key(|&i| self.lines[i].as_ref().map(|l| l.stamp).unwrap_or(0))
            .expect("ways > 0");
        self.stats.evictions += 1;
        let old = self.lines[victim].take().expect("all ways valid here");
        self.lines[victim] = Some(Line { tag, stamp, data });
        Some((old.tag, old.data))
    }

    /// Removes `(set, tag)` if present, returning its payload.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<T> {
        let base = self.base(set);
        for i in base..base + self.ways {
            if matches!(&self.lines[i], Some(l) if l.tag == tag) {
                return self.lines[i].take().map(|l| l.data);
            }
        }
        None
    }

    /// Iterates over the valid `(tag, data)` pairs of one set, in way order.
    pub fn set_entries(&self, set: usize) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base(set);
        self.lines[base..base + self.ways].iter().flatten().map(|l| (l.tag, &l.data))
    }

    /// Number of valid lines across the whole cache.
    pub fn len(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }

    /// True if no line is valid.
    pub fn is_empty(&self) -> bool {
        self.lines.iter().all(|l| l.is_none())
    }

    /// Drops every line (statistics are kept).
    pub fn clear(&mut self) {
        for l in &mut self.lines {
            *l = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2);
        c.insert(0, 1, 100);
        c.insert(0, 2, 200);
        // Touch tag 1, making tag 2 the LRU.
        assert_eq!(c.get(0, 1), Some(&100));
        let evicted = c.insert(0, 3, 300).unwrap();
        assert_eq!(evicted, (2, 200));
        assert!(c.probe(0, 1).is_some());
        assert!(c.probe(0, 3).is_some());
    }

    #[test]
    fn same_tag_insert_replaces_in_place() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2);
        c.insert(1, 9, 1);
        assert!(c.insert(1, 9, 2).is_none());
        assert_eq!(c.probe(1, 9), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2);
        c.insert(0, 1, 1);
        c.insert(0, 2, 2);
        let before = c.stats();
        let _ = c.probe(0, 1); // no LRU update: tag 1 remains LRU
        assert_eq!(c.stats(), before);
        let evicted = c.insert(0, 3, 3).unwrap();
        assert_eq!(evicted.0, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 1);
        assert!(c.get(0, 5).is_none());
        c.insert(0, 5, 50);
        assert!(c.get(0, 5).is_some());
        c.insert(0, 6, 60); // evicts 5
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1, 2);
        c.insert(0, 1, 10);
        assert_eq!(c.invalidate(0, 1), Some(10));
        assert_eq!(c.invalidate(0, 1), None);
        assert!(c.is_empty());
    }

    #[test]
    fn get_mut_allows_update() {
        let mut c: SetAssoc<Vec<u8>> = SetAssoc::new(1, 1);
        c.insert(0, 1, vec![1]);
        c.get_mut(0, 1).unwrap().push(2);
        assert_eq!(c.probe(0, 1), Some(&vec![1, 2]));
    }

    #[test]
    fn set_entries_lists_only_that_set() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2);
        c.insert(0, 1, 10);
        c.insert(1, 2, 20);
        let set0: Vec<_> = c.set_entries(0).collect();
        assert_eq!(set0, vec![(1, &10)]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c: SetAssoc<u32> = SetAssoc::new(2, 2);
        c.insert(0, 1, 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.sets(), 2);
        assert_eq!(c.ways(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = SetAssoc::<u8>::new(4, 0);
    }

    /// Differential test against a trivially-correct reference model: a
    /// map plus explicit recency ordering.
    #[test]
    fn matches_reference_lru_model() {
        use std::collections::HashMap;

        struct RefModel {
            ways: usize,
            // per set: (tag -> value), recency list most-recent-last
            sets: Vec<(HashMap<u64, u32>, Vec<u64>)>,
        }
        impl RefModel {
            fn touch(recency: &mut Vec<u64>, tag: u64) {
                recency.retain(|&t| t != tag);
                recency.push(tag);
            }
            fn get(&mut self, set: usize, tag: u64) -> Option<u32> {
                let (map, recency) = &mut self.sets[set];
                let hit = map.get(&tag).copied();
                if hit.is_some() {
                    Self::touch(recency, tag);
                }
                hit
            }
            fn insert(&mut self, set: usize, tag: u64, v: u32) {
                let ways = self.ways;
                let (map, recency) = &mut self.sets[set];
                if let std::collections::hash_map::Entry::Occupied(mut e) = map.entry(tag) {
                    e.insert(v);
                    Self::touch(recency, tag);
                    return;
                }
                if map.len() == ways {
                    let victim = recency.remove(0);
                    map.remove(&victim);
                }
                map.insert(tag, v);
                recency.push(tag);
            }
        }

        // A fixed pseudo-random op sequence (deterministic; no external
        // RNG needed).
        let mut dut: SetAssoc<u32> = SetAssoc::new(4, 2);
        let mut reference =
            RefModel { ways: 2, sets: (0..4).map(|_| (HashMap::new(), Vec::new())).collect() };
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for i in 0..5_000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let set = (x >> 33) as usize % 4;
            let tag = (x >> 40) % 6;
            if x.is_multiple_of(3) {
                dut.insert(set, tag, i);
                reference.insert(set, tag, i);
            } else {
                assert_eq!(
                    dut.get(set, tag).copied(),
                    reference.get(set, tag),
                    "divergence at op {i} (set {set}, tag {tag})"
                );
            }
        }
    }
}
