//! Branch target buffer for the instruction-cache frontend.
//!
//! The IC-based frontend of Figure 6 uses a BTB to redirect fetch: it maps a
//! branch instruction's IP to its kind and (for direct branches) its taken
//! target, so fetch can follow predicted-taken branches without decoding.

use xbc_isa::{Addr, BranchKind};
use xbc_uarch::SetAssoc;

/// One BTB entry: what kind of branch lives at the tagged IP, and where it
/// goes when taken (direct branches only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbEntry {
    /// Control-flow class of the branch.
    pub kind: BranchKind,
    /// Static taken target for direct branches; `None` for indirect ones.
    pub target: Option<Addr>,
}

/// Configuration of a [`Btb`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl Default for BtbConfig {
    /// 4K entries, 4-way: large enough that BTB capacity is not the
    /// bottleneck, as in the paper's stand-alone frontend methodology.
    fn default() -> Self {
        BtbConfig { entries: 4096, ways: 4 }
    }
}

/// A set-associative branch target buffer keyed by branch IP.
///
/// # Examples
///
/// ```
/// use xbc_predict::{Btb, BtbConfig, BtbEntry};
/// use xbc_isa::{Addr, BranchKind};
///
/// let mut btb = Btb::new(BtbConfig { entries: 16, ways: 2 });
/// btb.update(Addr::new(0x10), BtbEntry { kind: BranchKind::CondDirect, target: Some(Addr::new(0x40)) });
/// assert_eq!(btb.lookup(Addr::new(0x10)).unwrap().target, Some(Addr::new(0x40)));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    cache: SetAssoc<BtbEntry>,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(cfg: BtbConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.entries > 0, "BTB geometry must be non-zero");
        assert!(cfg.entries.is_multiple_of(cfg.ways), "entries must divide into ways");
        Btb { cache: SetAssoc::new(cfg.entries / cfg.ways, cfg.ways) }
    }

    /// Looks up the branch at `ip`, updating recency.
    #[inline]
    pub fn lookup(&mut self, ip: Addr) -> Option<BtbEntry> {
        let (set, tag) = self.cache.split(ip.raw());
        self.cache.get(set, tag).copied()
    }

    /// Installs or refreshes the entry for the branch at `ip`.
    #[inline]
    pub fn update(&mut self, ip: Addr, entry: BtbEntry) {
        let (set, tag) = self.cache.split(ip.raw());
        self.cache.insert(set, tag, entry);
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> xbc_uarch::CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::new(BtbConfig { entries: 8, ways: 2 });
        assert!(btb.lookup(Addr::new(0x20)).is_none());
        btb.update(
            Addr::new(0x20),
            BtbEntry { kind: BranchKind::UncondDirect, target: Some(Addr::new(0x100)) },
        );
        let e = btb.lookup(Addr::new(0x20)).unwrap();
        assert_eq!(e.kind, BranchKind::UncondDirect);
    }

    #[test]
    fn indirect_entries_have_no_target() {
        let mut btb = Btb::new(BtbConfig { entries: 8, ways: 2 });
        btb.update(Addr::new(0x30), BtbEntry { kind: BranchKind::Return, target: None });
        assert_eq!(btb.lookup(Addr::new(0x30)).unwrap().target, None);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut btb = Btb::new(BtbConfig { entries: 2, ways: 2 }); // one set
        let mk = |t| BtbEntry { kind: BranchKind::CondDirect, target: Some(Addr::new(t)) };
        btb.update(Addr::new(2), mk(1));
        btb.update(Addr::new(4), mk(2));
        btb.update(Addr::new(6), mk(3)); // evicts ip=2
        assert!(btb.lookup(Addr::new(2)).is_none());
        assert!(btb.lookup(Addr::new(6)).is_some());
    }

    #[test]
    #[should_panic(expected = "divide into ways")]
    fn bad_geometry_rejected() {
        let _ = Btb::new(BtbConfig { entries: 9, ways: 2 });
    }
}
