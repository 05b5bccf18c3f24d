//! The XBTB: the pointer table that drives XBC delivery (paper §3.5).
//!
//! The XBC is a multiple-entry structure indexed by *ending* IP, so a
//! branch target IP cannot be looked up in it directly. All navigation
//! goes through the XBTB: each entry, keyed by an XB's identity (its
//! end-IP), records how that XB ends and where execution goes next as
//! [`XbPtr`]s (taken / not-taken for conditionals; callee / return-point
//! for calls). Indirect successors live in the XiBTB and return successors
//! flow through the XRSB (both owned by the frontend).
//!
//! Each entry also carries the 7-bit bias counter and promoted state used
//! by branch promotion (§3.8).

use crate::ptr::{BankMask, XbPtr};
use xbc_isa::{Addr, BranchKind};
use xbc_predict::{Bias, BiasCounter};
use xbc_uarch::SetIndex;

/// How an extended block ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum XbEndKind {
    /// Conditional direct branch: successor chosen by the XBP between the
    /// `taken` and `not_taken` pointers.
    Cond,
    /// Direct call: `taken` points at the callee's first XB (XB_func),
    /// `not_taken` at the XB after the return (XB_ret); a frame is pushed
    /// on the XRSB.
    Call,
    /// Return: successor comes from the XRSB.
    Return,
    /// Indirect jump: successor comes from the XiBTB.
    Indirect,
    /// Indirect call: successor comes from the XiBTB *and* a frame is
    /// pushed on the XRSB (the return point is `not_taken`).
    IndirectCall,
    /// No branch: the XB was closed by the 16-uop quota; `taken` points at
    /// the sequential continuation.
    Fall,
}

impl XbEndKind {
    /// Classifies an architectural branch kind (of an XB's last
    /// instruction) into its XBTB end kind.
    pub fn from_branch(branch: BranchKind) -> XbEndKind {
        match branch {
            BranchKind::CondDirect => XbEndKind::Cond,
            BranchKind::CallDirect => XbEndKind::Call,
            BranchKind::Return => XbEndKind::Return,
            BranchKind::IndirectJump => XbEndKind::Indirect,
            BranchKind::IndirectCall => XbEndKind::IndirectCall,
            BranchKind::None | BranchKind::UncondDirect => XbEndKind::Fall,
        }
    }
}

/// The combined block formed by physically merging a promoted XB with its
/// monotonic successor (§3.8, [`crate::PromotionMode::Merge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedXb {
    /// Identity of the combined block (= the successor XB1's end IP).
    pub xb_ip: Addr,
    /// Banks holding the combined block.
    pub mask: BankMask,
    /// Total combined length in uops.
    pub total_len: u8,
    /// The XB1 window length included in the combination; entering XB0 at
    /// offset `o` enters the combined block at `o + suffix_len`.
    pub suffix_len: u8,
}

/// One XBTB entry.
#[derive(Clone, Debug)]
pub struct XbtbEntry {
    /// Identity of the XB this entry describes (its ending IP).
    pub xb_ip: Addr,
    /// How the XB ends.
    pub kind: XbEndKind,
    /// Taken-path successor (callee for calls, continuation for `Fall`).
    pub taken: Option<XbPtr>,
    /// Not-taken-path successor (return-point XB for calls).
    pub not_taken: Option<XbPtr>,
    /// 7-bit monotonicity counter (§3.8).
    pub bias: BiasCounter,
    /// Promoted direction, when the ending branch has been promoted.
    pub promoted: Option<Bias>,
    /// Physically merged combination, when promotion mode is `Merge`.
    pub merged: Option<MergedXb>,
}

impl XbtbEntry {
    fn new(xb_ip: Addr, kind: XbEndKind) -> Self {
        XbtbEntry {
            xb_ip,
            kind,
            taken: None,
            not_taken: None,
            bias: BiasCounter::new(),
            promoted: None,
            merged: None,
        }
    }

    /// The successor pointer for a resolved conditional direction.
    pub fn successor(&self, taken: bool) -> Option<XbPtr> {
        if taken {
            self.taken
        } else {
            self.not_taken
        }
    }

    /// Sets the successor pointer for a direction.
    pub fn set_successor(&mut self, taken: bool, ptr: XbPtr) {
        if taken {
            self.taken = Some(ptr);
        } else {
            self.not_taken = Some(ptr);
        }
    }
}

/// XBTB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XbtbStats {
    /// Lookups that found the entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries allocated.
    pub allocations: u64,
    /// Valid entries displaced by conflicting allocations.
    pub conflict_evictions: u64,
}

/// A 4-way set-associative XBTB (paper: fixed 8K entries; associativity
/// unstated — 4-way avoids the conflict thrashing a direct-mapped table of
/// this size exhibits at SPEC-class working sets).
///
/// # Examples
///
/// ```
/// use xbc::{Xbtb, XbEndKind};
/// use xbc_isa::Addr;
///
/// let mut t = Xbtb::new(1024);
/// t.allocate(Addr::new(0x400), XbEndKind::Cond);
/// assert!(t.get(Addr::new(0x400)).is_some());
/// assert!(t.get(Addr::new(0x800)).is_none());
/// ```
/// The table is stored struct-of-arrays (DESIGN.md §14): the identity and
/// LRU lanes live in their own contiguous planes — a `find` compares the
/// set's four identity words in one cache line instead of walking four
/// ~100-byte entry structs — and the entry payloads sit in a pool that
/// grows with the resident working set. Construction allocates only
/// zero-initialized planes (the allocator serves those from untouched
/// pages), so a cold XBTB costs no page-in until slots are actually used.
#[derive(Clone, Debug)]
pub struct Xbtb {
    /// Identity plane: raw `xb_ip` per slot (gated by `valid`).
    ips: Vec<u64>,
    /// Valid plane: nonzero = slot occupied, and `pool_idx` is live.
    valid: Vec<u8>,
    /// Pool-index plane: slot → `pool` position.
    pool_idx: Vec<u32>,
    /// Entry payloads of the occupied slots, in allocation order.
    pool: Vec<XbtbEntry>,
    lru: Vec<u64>,
    stamp: u64,
    sets: SetIndex,
    ways: usize,
    stats: XbtbStats,
}

/// Associativity of the XBTB.
const XBTB_WAYS: usize = 4;

impl Xbtb {
    /// Creates an empty XBTB with `entries` slots (4-way set-associative).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two of at least the
    /// associativity (4).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && entries >= XBTB_WAYS,
            "XBTB entries must be a power of two >= {XBTB_WAYS}"
        );
        Xbtb {
            ips: vec![0; entries],
            valid: vec![0; entries],
            pool_idx: vec![0; entries],
            pool: Vec::new(),
            lru: vec![0; entries],
            stamp: 0,
            sets: SetIndex::new(entries / XBTB_WAYS),
            ways: XBTB_WAYS,
            stats: XbtbStats::default(),
        }
    }

    #[inline]
    fn set_base(&self, xb_ip: Addr) -> usize {
        // Fibonacci hashing: function-strided code layouts otherwise
        // cluster into a few sets and thrash the table.
        let h = xb_ip.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.sets.split(h >> 32).0 * self.ways
    }

    #[inline]
    fn find(&self, xb_ip: Addr) -> Option<usize> {
        let base = self.set_base(xb_ip);
        let raw = xb_ip.raw();
        (base..base + self.ways).find(|&i| self.valid[i] != 0 && self.ips[i] == raw)
    }

    /// Finds the slot holding `xb_ip` without touching statistics or LRU.
    ///
    /// The slot stays valid until the next [`Xbtb::allocate`]; the
    /// delivery resolve path probes once and reuses the slot for its
    /// half-dozen reads instead of re-hashing per access.
    pub fn probe_slot(&self, xb_ip: Addr) -> Option<u32> {
        self.find(xb_ip).map(|i| i as u32)
    }

    /// Entry at a probed slot.
    pub fn at(&self, slot: u32) -> &XbtbEntry {
        &self.pool[self.pool_idx[slot as usize] as usize]
    }

    /// Mutable entry at a probed slot (no statistics, like
    /// [`Xbtb::get_mut`]).
    pub fn at_mut(&mut self, slot: u32) -> &mut XbtbEntry {
        &mut self.pool[self.pool_idx[slot as usize] as usize]
    }

    /// Applies the hit-side statistics and LRU accounting of
    /// [`Xbtb::get`] to a probed slot.
    pub fn touch_hit(&mut self, slot: u32) {
        self.stats.hits += 1;
        self.stamp += 1;
        self.lru[slot as usize] = self.stamp;
    }

    /// Applies the miss-side statistics of [`Xbtb::get`].
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Looks up an entry by XB identity, counting hit/miss statistics.
    pub fn get(&mut self, xb_ip: Addr) -> Option<&XbtbEntry> {
        match self.find(xb_ip) {
            Some(i) => {
                self.stats.hits += 1;
                self.stamp += 1;
                self.lru[i] = self.stamp;
                Some(&self.pool[self.pool_idx[i] as usize])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Mutable lookup (no statistics; used on already-resolved entries).
    pub fn get_mut(&mut self, xb_ip: Addr) -> Option<&mut XbtbEntry> {
        let i = self.find(xb_ip)?;
        Some(&mut self.pool[self.pool_idx[i] as usize])
    }

    /// Returns the entry for `xb_ip`, allocating (and evicting the set's
    /// LRU entry) if needed. An existing entry keeps its pointers but its
    /// `kind` is refreshed.
    pub fn allocate(&mut self, xb_ip: Addr, kind: XbEndKind) -> &mut XbtbEntry {
        self.stamp += 1;
        let stamp = self.stamp;
        let i = match self.find(xb_ip) {
            Some(i) => i,
            None => {
                let base = self.set_base(xb_ip);
                let victim = (base..base + self.ways)
                    .min_by_key(|&i| if self.valid[i] == 0 { 0 } else { self.lru[i] })
                    .expect("ways > 0");
                self.stats.allocations += 1;
                if self.valid[victim] != 0 {
                    self.stats.conflict_evictions += 1;
                    // Reuse the displaced entry's pool slot.
                    self.pool[self.pool_idx[victim] as usize] = XbtbEntry::new(xb_ip, kind);
                } else {
                    self.pool_idx[victim] =
                        u32::try_from(self.pool.len()).expect("pool bounded by slot count");
                    self.pool.push(XbtbEntry::new(xb_ip, kind));
                    self.valid[victim] = 1;
                }
                self.ips[victim] = xb_ip.raw();
                victim
            }
        };
        self.lru[i] = stamp;
        let e = &mut self.pool[self.pool_idx[i] as usize];
        e.kind = kind;
        e
    }

    /// Statistics so far.
    pub fn stats(&self) -> XbtbStats {
        self.stats
    }

    /// Iterates over the valid entries (for audits and reports).
    pub fn entries(&self) -> impl Iterator<Item = &XbtbEntry> {
        (0..self.ips.len())
            .filter(|&i| self.valid[i] != 0)
            .map(|i| &self.pool[self.pool_idx[i] as usize])
    }

    /// Structural audit of the pointer table (paper §3.5):
    ///
    /// * residency — every entry sits in the set its identity hashes to,
    ///   and no identity appears twice;
    /// * pointer sanity — every stored [`XbPtr`] has `1..=max_offset` entry
    ///   offset and a bank mask with at least `ceil(offset / line_uops)`
    ///   bits (an XB spans one distinct bank per line, so a thinner mask
    ///   can never fetch the window it promises);
    /// * promotion — a merged combination (§3.8) exists only while its
    ///   branch is promoted, and its suffix window fits its total length.
    ///
    /// Stored pointers may be *stale* with respect to the array (that is
    /// what set search repairs, §3.9), so this audit checks only intrinsic
    /// pointer well-formedness, never array residency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn audit(&self, line_uops: usize, max_offset: usize) -> Result<(), String> {
        let check_ptr = |who: &str, p: &XbPtr| -> Result<(), String> {
            if p.offset == 0 || p.offset as usize > max_offset {
                return Err(format!("{who}: offset {} out of 1..={max_offset}", p.offset));
            }
            let needed = (p.offset as usize).div_ceil(line_uops);
            if p.mask.count() < needed {
                return Err(format!(
                    "{who}: mask {:?} has {} banks but offset {} needs {}",
                    p.mask,
                    p.mask.count(),
                    p.offset,
                    needed
                ));
            }
            Ok(())
        };
        let mut seen = std::collections::HashSet::new();
        for i in 0..self.ips.len() {
            if self.valid[i] == 0 {
                continue;
            }
            let e = &self.pool[self.pool_idx[i] as usize];
            let who = format!("XBTB entry {} at slot {i}", e.xb_ip);
            let base = self.set_base(e.xb_ip);
            if !(base..base + self.ways).contains(&i) {
                return Err(format!("{who}: resident outside its set (base {base})"));
            }
            if !seen.insert(e.xb_ip) {
                return Err(format!("{who}: duplicate identity"));
            }
            if let Some(p) = &e.taken {
                check_ptr(&format!("{who} taken-ptr"), p)?;
            }
            if let Some(p) = &e.not_taken {
                check_ptr(&format!("{who} not-taken-ptr"), p)?;
            }
            if let Some(m) = &e.merged {
                if e.promoted.is_none() {
                    return Err(format!("{who}: merged combination without promotion"));
                }
                if m.suffix_len > m.total_len || m.total_len as usize > max_offset {
                    return Err(format!(
                        "{who}: merged lengths suffix {} / total {} exceed {max_offset}",
                        m.suffix_len, m.total_len
                    ));
                }
                if m.mask.count() == 0 {
                    return Err(format!("{who}: merged combination with an empty mask"));
                }
            }
        }
        Ok(())
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptr::BankMask;

    fn ptr(ip: u64) -> XbPtr {
        XbPtr::new(Addr::new(ip), Addr::new(ip - 7), BankMask::from_bits(0b0011), 8)
    }

    #[test]
    fn allocate_then_hit() {
        let mut t = Xbtb::new(64);
        let e = t.allocate(Addr::new(0x100), XbEndKind::Cond);
        e.set_successor(true, ptr(0x200));
        let got = t.get(Addr::new(0x100)).unwrap();
        assert_eq!(got.kind, XbEndKind::Cond);
        assert_eq!(got.successor(true).unwrap().xb_ip, Addr::new(0x200));
        assert_eq!(got.successor(false), None);
        assert_eq!(t.stats().hits, 1);
    }

    #[test]
    fn conflict_eviction_lru() {
        let mut t = Xbtb::new(4); // one set of 4 ways: everything collides
        for i in 1..=4u64 {
            t.allocate(Addr::new(i), XbEndKind::Cond);
        }
        // Touch entry 1 so entry 2 is the LRU victim.
        assert!(t.get(Addr::new(1)).is_some());
        t.allocate(Addr::new(5), XbEndKind::Return);
        assert!(t.get(Addr::new(2)).is_none());
        assert!(t.get(Addr::new(1)).is_some());
        assert!(t.get(Addr::new(5)).is_some());
        assert_eq!(t.stats().conflict_evictions, 1);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn reallocate_keeps_pointers_refreshes_kind() {
        let mut t = Xbtb::new(64);
        t.allocate(Addr::new(0x10), XbEndKind::Cond).set_successor(false, ptr(0x300));
        let e = t.allocate(Addr::new(0x10), XbEndKind::Cond);
        assert_eq!(e.not_taken.unwrap().xb_ip, Addr::new(0x300));
        assert_eq!(t.stats().allocations, 1, "same identity does not re-allocate");
    }

    #[test]
    fn end_kind_classification() {
        assert_eq!(XbEndKind::from_branch(BranchKind::CondDirect), XbEndKind::Cond);
        assert_eq!(XbEndKind::from_branch(BranchKind::CallDirect), XbEndKind::Call);
        assert_eq!(XbEndKind::from_branch(BranchKind::Return), XbEndKind::Return);
        assert_eq!(XbEndKind::from_branch(BranchKind::IndirectJump), XbEndKind::Indirect);
        assert_eq!(XbEndKind::from_branch(BranchKind::IndirectCall), XbEndKind::IndirectCall);
        assert_eq!(XbEndKind::from_branch(BranchKind::None), XbEndKind::Fall);
        assert_eq!(XbEndKind::from_branch(BranchKind::UncondDirect), XbEndKind::Fall);
    }

    #[test]
    fn get_mut_does_not_touch_stats() {
        let mut t = Xbtb::new(64);
        t.allocate(Addr::new(0x10), XbEndKind::Fall);
        let before = t.stats();
        assert!(t.get_mut(Addr::new(0x10)).is_some());
        assert!(t.get_mut(Addr::new(0x11)).is_none());
        assert_eq!(t.stats().hits, before.hits);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn entries_must_be_power_of_two() {
        let _ = Xbtb::new(100);
    }
}
