//! Instruction cache model.
//!
//! Build mode in both the trace-cache baseline and the XBC frontend fetches
//! raw instruction bytes through this cache (paper §2.1 / Figure 6). Only
//! timing/presence is modeled — the bytes themselves live in the program
//! image — so the payload is `()`.

use crate::cache::{CacheStats, SetAssoc};
use xbc_isa::Addr;

/// Configuration of an [`ICache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ICacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (fetch granularity).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Extra cycles charged on a miss (L2/memory round trip).
    pub miss_penalty: u64,
}

impl Default for ICacheConfig {
    /// A 64 KiB, 4-way, 32 B-line cache with a 10-cycle miss penalty —
    /// comfortably sized so that, as in the paper, IC misses are not the
    /// first-order effect.
    fn default() -> Self {
        ICacheConfig { size_bytes: 64 * 1024, line_bytes: 32, ways: 4, miss_penalty: 10 }
    }
}

impl ICacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, capacity not a
    /// multiple of `line_bytes × ways`, or non-power-of-two line size).
    pub fn sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.ways > 0 && self.size_bytes > 0);
        let lines = self.size_bytes / self.line_bytes;
        assert!(lines.is_multiple_of(self.ways), "capacity must divide evenly into ways");
        lines / self.ways
    }
}

/// Outcome of one instruction-cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IcAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Cycles of penalty charged (0 on a hit).
    pub penalty: u64,
}

/// A set-associative instruction cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use xbc_uarch::{ICache, ICacheConfig};
/// use xbc_isa::Addr;
///
/// let mut ic = ICache::new(ICacheConfig { size_bytes: 1024, line_bytes: 32, ways: 2, miss_penalty: 7 });
/// let first = ic.fetch(Addr::new(0x40));
/// assert!(!first.hit);
/// assert_eq!(first.penalty, 7);
/// assert!(ic.fetch(Addr::new(0x5f)).hit); // same 32-byte line
/// ```
#[derive(Clone, Debug)]
pub struct ICache {
    cfg: ICacheConfig,
    cache: SetAssoc<()>,
    /// `log2(line_bytes)`: the line number is a shift, since
    /// [`ICacheConfig::sets`] asserts a power-of-two line size.
    line_shift: u32,
}

impl ICache {
    /// Creates an empty cache for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`ICacheConfig::sets`]).
    pub fn new(cfg: ICacheConfig) -> Self {
        let sets = cfg.sets();
        ICache {
            cfg,
            cache: SetAssoc::new(sets, cfg.ways),
            line_shift: cfg.line_bytes.trailing_zeros(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> ICacheConfig {
        self.cfg
    }

    /// Address of the first byte of the line containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> Addr {
        Addr::new(addr.raw() & !(self.cfg.line_bytes as u64 - 1))
    }

    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        self.cache.split(addr.raw() >> self.line_shift)
    }

    /// Fetches the line containing `addr`, allocating it on a miss.
    #[inline]
    pub fn fetch(&mut self, addr: Addr) -> IcAccess {
        let (set, tag) = self.set_and_tag(addr);
        if self.cache.get(set, tag).is_some() {
            IcAccess { hit: true, penalty: 0 }
        } else {
            self.cache.insert(set, tag, ());
            IcAccess { hit: false, penalty: self.cfg.miss_penalty }
        }
    }

    /// Cache statistics (hits/misses/evictions).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Forgets statistics, keeping contents (for warm-up discard).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ICache {
        ICache::new(ICacheConfig { size_bytes: 256, line_bytes: 32, ways: 2, miss_penalty: 5 })
    }

    #[test]
    fn geometry() {
        let ic = small();
        assert_eq!(ic.config().sets(), 4);
    }

    #[test]
    fn same_line_hits() {
        let mut ic = small();
        assert!(!ic.fetch(Addr::new(0x100)).hit);
        assert!(ic.fetch(Addr::new(0x11f)).hit);
        assert!(!ic.fetch(Addr::new(0x120)).hit); // next line
    }

    #[test]
    fn miss_penalty_charged_once() {
        let mut ic = small();
        assert_eq!(ic.fetch(Addr::new(0)).penalty, 5);
        assert_eq!(ic.fetch(Addr::new(0)).penalty, 0);
    }

    #[test]
    fn capacity_evictions_occur() {
        let mut ic = small();
        // 4 sets × 2 ways × 32B = 256B. Walk 3 lines mapping to set 0:
        // line addresses 0, 4*32=128... with 4 sets, stride 128 bytes maps to
        // the same set.
        ic.fetch(Addr::new(0));
        ic.fetch(Addr::new(128));
        ic.fetch(Addr::new(256));
        assert_eq!(ic.stats().evictions, 1);
        // Oldest (0) was evicted.
        assert!(!ic.fetch(Addr::new(0)).hit);
    }

    #[test]
    fn line_of_masks_low_bits() {
        let ic = small();
        assert_eq!(ic.line_of(Addr::new(0x47)), Addr::new(0x40));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        let _ =
            ICache::new(ICacheConfig { size_bytes: 90, line_bytes: 30, ways: 1, miss_penalty: 0 });
    }
}
