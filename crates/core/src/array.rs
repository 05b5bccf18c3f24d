//! The banked XBC data/tag array (paper §3.2, §3.4, §3.6, §3.10).
//!
//! Geometry: `sets × banks × ways` lines of `line_uops` uops. An extended
//! block is identified by the (set, tag) derived from its **ending**
//! instruction's IP and occupies one line per `ceil(len / line_uops)`,
//! each in a *different bank*, numbered by an `order` field: order 0 (the
//! *primary* bank) holds the XB's last uops, order 1 the preceding ones,
//! and so on (§3.2). Within a line uops are stored in **reverse order**
//! (§3.4), so extending an XB at its head never moves stored uops.
//!
//! Complex XBs (§3.3 case 3) appear naturally as several lines with the
//! same (set, tag, order) in different ways/banks: alternate prefixes
//! sharing the suffix lines. Pointers disambiguate with their bank mask.
//!
//! # Host data layout (DESIGN.md §14)
//!
//! The array is stored struct-of-arrays: one *lane* per `(set, bank, way)`
//! slot, with the tag, packed metadata (valid/order/count/conflicts) and
//! LRU stamp each in their own contiguous plane, and the uop payloads in
//! one flat backing **arena** of `line_uops` uops per lane. A set's lanes
//! are contiguous (bank-major, way-minor — the reference candidate order),
//! so tag matching is a branchless compare scan over the set's tag/meta
//! lanes, and a line's uops are a contiguous arena slice.
//!
//! Within a lane's arena region the line is stored **right-aligned in
//! program order**: region slot `line_uops - 1 - s` holds the uop at
//! position-from-end `order * line_uops + s`. This is the same reverse-
//! order storage contract as the paper's (§3.4: head extension fills
//! leftward, never moving stored uops) but makes every program-order read
//! a `copy_from_slice` of `region[line_uops - count ..]`.

use crate::config::XbcConfig;
use crate::inline_vec::InlineVec;
use crate::ptr::{BankMask, XbPtr};
use xbc_isa::{Addr, Uop};
use xbc_uarch::SetIndex;

/// Upper bound on `banks` (a [`BankMask`] is 8 bits), and therefore on the
/// number of lines in any [`Assembly`].
pub const MAX_BANKS: usize = 8;

/// Valid bit of a packed meta lane.
const META_VALID: u64 = 1 << 63;

/// Packs a meta lane: valid + order + uop count + conflict counter.
#[inline]
const fn meta_pack(order: u8, count: usize, conflicts: u8) -> u64 {
    META_VALID | ((conflicts as u64) << 16) | ((order as u64) << 8) | count as u64
}

/// Uops stored in the line (1..=line_uops).
#[inline]
const fn meta_count(meta: u64) -> usize {
    (meta & 0xFF) as usize
}

/// The line's order field.
#[inline]
const fn meta_order(meta: u64) -> u8 {
    ((meta >> 8) & 0xFF) as u8
}

/// Deferred-fetch events charged to the line (dynamic placement).
#[inline]
const fn meta_conflicts(meta: u64) -> u8 {
    ((meta >> 16) & 0xFF) as u8
}

/// A resolved arrangement of one XB's lines: index `k` is the `(bank, way)`
/// of the order-`k` line. `Copy` and small (the coordinates are `u8` —
/// `banks ≤ 8`, `ways < 256`), so the hot path passes assemblies by value
/// in registers: every `assemble`/`lookup` returns one by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assembly {
    /// `(bank, way)` per order, order ascending from 0.
    pub lines: InlineVec<(u8, u8), MAX_BANKS>,
    /// Banks used.
    pub mask: BankMask,
    /// Total uops stored across the lines.
    pub total_uops: usize,
}

/// Reusable buffers for the backtracking search of
/// [`XbcArray::assemble`] (DESIGN.md §12): candidate list and per-order
/// buckets survive across calls so even ambiguous assemblies never
/// allocate.
#[derive(Clone, Debug, Default)]
struct AssembleScratch {
    cands: Vec<(usize, usize, u8, usize)>,
    by_order: Vec<Vec<(usize, usize, usize)>>,
}

/// No line: the empty slot of a per-order lane table.
const NO_LANE: u8 = u8::MAX;

/// Outcome of one XB fetch attempt within a cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum XbFetch {
    /// Tag/assembly failure: the XB (or the entered part) is not in the
    /// array (evicted or moved).
    #[default]
    Miss,
    /// All `offset` uops fetched.
    Full,
    /// Bank conflict: only the leading `fetched` uops (entry side) came
    /// out; `deferred` remain for the next cycle.
    Partial {
        /// Uops fetched this cycle.
        fetched: u8,
        /// Uops deferred to the next cycle.
        deferred: u8,
    },
}

/// A census of the extended blocks resident in the array
/// (see [`XbcArray::population`]).
#[derive(Clone, Debug)]
pub struct Population {
    /// Valid bank lines.
    pub lines: usize,
    /// Stored uops across all lines.
    pub stored_uops: usize,
    /// Distinct resident XBs (unique `(set, tag)` pairs).
    pub xb_count: usize,
    /// XBs with alternate prefixes (complex, §3.3 case 3).
    pub complex_count: usize,
    /// Tag groups whose order-0 line is missing (should stay 0 under
    /// head-first eviction).
    pub truncated_count: usize,
    /// Length distribution of resident XBs, in uops.
    pub length_hist: xbc_uarch::Histogram,
}

/// Array statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Fresh XB insertions.
    pub inserts: u64,
    /// In-place head extensions (§3.3 case 2).
    pub extensions: u64,
    /// Lines evicted by placement.
    pub evicted_lines: u64,
    /// Same-tag lines above an evicted middle line invalidated (truncation).
    pub truncated_lines: u64,
    /// Lines moved by dynamic placement.
    pub relocations: u64,
}

/// The banked data + tag array.
#[derive(Clone, Debug)]
pub struct XbcArray {
    /// Set count, as the division-free `(set, tag)` split.
    index: SetIndex,
    banks: usize,
    ways: usize,
    line_uops: usize,
    /// Lanes per set (= `banks * ways`); lane `bank * ways + way`.
    lanes: usize,
    /// `(bank, way)` of each lane of a set, so the hot path never divides.
    lane_coords: [(u8, u8); 64],
    /// Lane-bit mask of every [`BankMask`] value: bit `bank * ways + way`
    /// for each way of each bank in the mask.
    bank_lanes: Box<[u64; 256]>,
    /// Tag plane, one lane per `(set, bank, way)`, set-major.
    tags: Vec<u64>,
    /// Packed meta plane (valid/order/count/conflicts); 0 = invalid lane.
    meta: Vec<u64>,
    /// LRU stamp plane.
    stamps: Vec<u64>,
    /// Flat uop arena: `line_uops` slots per lane, right-aligned
    /// program-order line regions (see the module docs).
    arena: Vec<Uop>,
    stamp: u64,
    conflict_threshold: u8,
    dynamic_placement: bool,
    stats: ArrayStats,
    scratch: AssembleScratch,
}

impl XbcArray {
    /// Creates an empty array for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &XbcConfig) -> Self {
        let sets = cfg.sets();
        assert!(cfg.banks <= MAX_BANKS, "at most {MAX_BANKS} banks (BankMask is 8 bits)");
        // `sets()` checked the lane count against the 64-bit lane masks.
        let lanes = cfg.banks * cfg.ways;
        let total = sets * lanes;
        let filler = Uop::new(
            xbc_isa::UopId::new(Addr::new(0), 0),
            xbc_isa::UopKind::Alu,
            false,
            xbc_isa::BranchKind::None,
        );
        let mut lane_coords = [(0, 0); 64];
        for (lane, c) in lane_coords.iter_mut().enumerate().take(lanes) {
            *c = ((lane / cfg.ways) as u8, (lane % cfg.ways) as u8);
        }
        // `ways` is 1..=64: a 64-way bank is all 64 lane bits.
        let way_bits = u64::MAX >> (64 - cfg.ways);
        let mut bank_lanes = Box::new([0u64; 256]);
        for (bits, lanes) in bank_lanes.iter_mut().enumerate() {
            for bank in (0..cfg.banks).filter(|&b| bits & (1 << b) != 0) {
                *lanes |= way_bits << (bank * cfg.ways);
            }
        }
        XbcArray {
            index: SetIndex::new(sets),
            banks: cfg.banks,
            ways: cfg.ways,
            line_uops: cfg.line_uops,
            lanes,
            lane_coords,
            bank_lanes,
            tags: vec![0; total],
            meta: vec![0; total],
            stamps: vec![0; total],
            arena: vec![filler; total * cfg.line_uops],
            stamp: 0,
            conflict_threshold: cfg.conflict_threshold.max(1),
            dynamic_placement: cfg.dynamic_placement,
            stats: ArrayStats::default(),
            scratch: AssembleScratch::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.index.sets()
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of ways per bank.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Uops per bank line.
    pub fn line_uops(&self) -> usize {
        self.line_uops
    }

    /// The stored uops of one line in **program order**, if valid — the
    /// line's arena region, feeding the reorder/align network (§3.7).
    /// Borrowed: the datapath read does not copy the line. (The hardware
    /// bank emits the same uops reverse-ordered; the host arena keeps them
    /// right-aligned ascending so windows read as contiguous slices.)
    pub fn line_uops_at(&self, set: usize, bank: usize, way: usize) -> Option<&[Uop]> {
        let idx = self.idx(set, bank, way);
        let m = self.meta[idx];
        if m & META_VALID == 0 {
            return None;
        }
        Some(self.region(idx, meta_count(m)))
    }

    /// Statistics so far.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Derives `(set, tag)` from an XB's ending-instruction IP.
    pub fn set_and_tag(&self, xb_ip: Addr) -> (usize, u64) {
        self.index.split(xb_ip.raw())
    }

    #[inline]
    fn idx(&self, set: usize, bank: usize, way: usize) -> usize {
        debug_assert!(set < self.sets() && bank < self.banks && way < self.ways);
        (set * self.banks + bank) * self.ways + way
    }

    /// The populated (right-aligned) arena slice of lane `idx`, in program
    /// order.
    #[inline]
    fn region(&self, idx: usize, count: usize) -> &[Uop] {
        let l = self.line_uops;
        &self.arena[idx * l + (l - count)..(idx + 1) * l]
    }

    /// The stamp of lane `idx`, 0 when invalid (invalid lanes may hold a
    /// stale stamp value; every LRU comparison must go through here).
    #[inline]
    fn stamp_at(&self, idx: usize) -> u64 {
        if self.meta[idx] & META_VALID != 0 {
            self.stamps[idx]
        } else {
            0
        }
    }

    fn bump(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Branchless tag-match scan over one set's lanes: bit `i` of the
    /// result is set iff lane `i` (= `bank * ways + way`) is valid and
    /// holds `tag`. The loop has no per-way branches — it compiles to a
    /// compare+mask reduction over the contiguous tag/meta lanes, which
    /// the autovectorizer turns into packed u64 compares.
    #[inline]
    fn match_lanes(&self, set: usize, tag: u64) -> u64 {
        let base = set * self.lanes;
        let tags = &self.tags[base..base + self.lanes];
        let meta = &self.meta[base..base + self.lanes];
        let mut bits = 0u64;
        for i in 0..tags.len() {
            let hit = (tags[i] == tag) & (meta[i] & META_VALID != 0);
            bits |= (hit as u64) << i;
        }
        bits
    }

    /// Bit `i` set iff lane `i` of `set` holds a valid line.
    #[inline]
    fn valid_lanes(&self, set: usize) -> u64 {
        let base = set * self.lanes;
        let mut bits = 0u64;
        for (i, &m) in self.meta[base..base + self.lanes].iter().enumerate() {
            bits |= ((m & META_VALID != 0) as u64) << i;
        }
        bits
    }

    /// The lane-bit mask of every lane of a set.
    #[inline]
    fn all_lanes(&self) -> u64 {
        u64::MAX >> (64 - self.lanes)
    }

    /// The lane-bit mask selecting every way of the banks in `within`.
    #[inline]
    fn lane_mask_of(&self, within: BankMask) -> u64 {
        self.bank_lanes[within.bits() as usize]
    }

    /// Collects all `(bank, way, order, count)` whose line matches `tag`,
    /// optionally restricted to banks in `within`, into `out` (banks
    /// ascending, ways ascending — the reference iteration order, which is
    /// exactly ascending lane order).
    fn collect_candidates(
        &self,
        set: usize,
        tag: u64,
        within: Option<BankMask>,
        out: &mut Vec<(usize, usize, u8, usize)>,
    ) {
        // Filtered bank by bank rather than through the lane-mask table,
        // so the reference assembly checks that table too.
        let mut bits = self.match_lanes(set, tag);
        let base = set * self.lanes;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (bank, way) = (lane / self.ways, lane % self.ways);
            if within.is_some_and(|w| !w.contains(bank)) {
                continue;
            }
            let m = self.meta[base + lane];
            out.push((bank, way, meta_order(m), meta_count(m)));
        }
    }

    /// Assembles the longest contiguous-order arrangement of `tag`'s lines,
    /// optionally restricted to a bank mask. Lines must occupy distinct
    /// banks; all but the highest order must be full (a partial line is
    /// necessarily the head). When several lines share an order
    /// (complex-XB prefixes), a bounded backtracking search finds the
    /// longest valid arrangement — greedy freshest-first picking can paint
    /// itself into a corner once merges populate sets with alternates.
    ///
    /// Allocation-free, and cheap in the common case (DESIGN.md §12): one
    /// compare scan of the set's tag lanes finds the candidates, and when
    /// no order has more than one of them the arrangement is a single
    /// chain, walked directly. Only ambiguous sets run the search (over
    /// scratch buffers reused across calls).
    pub fn assemble(&mut self, set: usize, tag: u64, within: Option<BankMask>) -> Option<Assembly> {
        let mut bits = self.match_lanes(set, tag);
        if let Some(w) = within {
            bits &= self.lane_mask_of(w);
        }
        if bits == 0 {
            return None;
        }
        let base = set * self.lanes;
        let mut by_order = [NO_LANE; MAX_BANKS];
        let mut rest = bits;
        while rest != 0 {
            let lane = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let order = meta_order(self.meta[base + lane]) as usize;
            if order < self.banks {
                if by_order[order] != NO_LANE {
                    let mut scratch = std::mem::take(&mut self.scratch);
                    let result = self.assemble_in(set, tag, within, &mut scratch);
                    self.scratch = scratch;
                    return result;
                }
                by_order[order] = lane as u8;
            }
        }
        // One candidate per order: extend the chain from order 0 while
        // banks stay distinct and lines stay full.
        let mut asm = Assembly { lines: InlineVec::new(), mask: BankMask::EMPTY, total_uops: 0 };
        for &lane in &by_order[..self.banks] {
            if lane == NO_LANE {
                break;
            }
            let (bank, way) = self.lane_coords[lane as usize];
            if asm.mask.contains(bank as usize) {
                break;
            }
            let count = meta_count(self.meta[base + lane as usize]);
            asm.lines.push((bank, way));
            asm.mask.insert(bank as usize);
            asm.total_uops += count;
            if count != self.line_uops {
                break;
            }
        }
        (!asm.lines.is_empty()).then_some(asm)
    }

    /// The scratch-buffer assembly: identical search to
    /// [`XbcArray::assemble_reference`], but reusing `scratch` instead of
    /// allocating.
    fn assemble_in(
        &self,
        set: usize,
        tag: u64,
        within: Option<BankMask>,
        scratch: &mut AssembleScratch,
    ) -> Option<Assembly> {
        scratch.cands.clear();
        self.collect_candidates(set, tag, within, &mut scratch.cands);
        if scratch.cands.is_empty() {
            return None;
        }
        // Candidates per order, freshest first (preference order for ties).
        if scratch.by_order.len() < self.banks {
            scratch.by_order.resize_with(self.banks, Vec::new);
        }
        let by_order = &mut scratch.by_order[..self.banks];
        for v in by_order.iter_mut() {
            v.clear();
        }
        for &(bank, way, order, count) in &scratch.cands {
            if (order as usize) < self.banks {
                by_order[order as usize].push((bank, way, count));
            }
        }
        for v in by_order.iter_mut() {
            v.sort_by_key(|&(bank, way, _)| {
                std::cmp::Reverse(self.stamp_at(self.idx(set, bank, way)))
            });
        }
        // DFS over per-order choices; the search space is tiny (≤ ways
        // candidates per order, ≤ banks orders).
        let mut best: Option<Assembly> = None;
        let mut stack: InlineVec<(u8, u8), MAX_BANKS> = InlineVec::new();
        self.assemble_dfs(by_order, 0, BankMask::EMPTY, 0, &mut stack, &mut best);
        best
    }

    /// Naive reference assembly: the allocating implementation the fast
    /// path must agree with, kept for differential testing (it shares only
    /// `assemble_dfs` with the scratch path). Not used on the hot path.
    pub fn assemble_reference(
        &self,
        set: usize,
        tag: u64,
        within: Option<BankMask>,
    ) -> Option<Assembly> {
        let mut cands = Vec::new();
        self.collect_candidates(set, tag, within, &mut cands);
        if cands.is_empty() {
            return None;
        }
        let mut by_order: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); self.banks];
        for &(bank, way, order, count) in &cands {
            if (order as usize) < self.banks {
                by_order[order as usize].push((bank, way, count));
            }
        }
        for v in &mut by_order {
            v.sort_by_key(|&(bank, way, _)| {
                std::cmp::Reverse(self.stamp_at(self.idx(set, bank, way)))
            });
        }
        let mut best: Option<Assembly> = None;
        let mut stack: InlineVec<(u8, u8), MAX_BANKS> = InlineVec::new();
        self.assemble_dfs(&by_order, 0, BankMask::EMPTY, 0, &mut stack, &mut best);
        best
    }

    fn assemble_dfs(
        &self,
        by_order: &[Vec<(usize, usize, usize)>],
        order: usize,
        used: BankMask,
        total: usize,
        stack: &mut InlineVec<(u8, u8), MAX_BANKS>,
        best: &mut Option<Assembly>,
    ) {
        if order > 0 {
            let better = best.as_ref().map(|b| total > b.total_uops).unwrap_or(true);
            if better {
                *best = Some(Assembly { lines: *stack, mask: used, total_uops: total });
            }
        }
        if order >= by_order.len() {
            return;
        }
        for &(bank, way, count) in &by_order[order] {
            if used.contains(bank) {
                continue;
            }
            let mut used2 = used;
            used2.insert(bank);
            stack.push((bank as u8, way as u8));
            if count == self.line_uops {
                self.assemble_dfs(by_order, order + 1, used2, total + count, stack, best);
            } else {
                // Partial line: must be the head; terminate this branch.
                let t = total + count;
                let better = best.as_ref().map(|b| t > b.total_uops).unwrap_or(true);
                if better {
                    *best = Some(Assembly { lines: *stack, mask: used2, total_uops: t });
                }
            }
            stack.pop();
        }
    }

    /// Reads an assembled XB's uops in program order.
    pub fn read_uops(&self, set: usize, asm: &Assembly) -> Vec<Uop> {
        let mut out = Vec::with_capacity(asm.total_uops);
        self.read_uops_into(set, asm, &mut out);
        out
    }

    /// Appends an assembled XB's uops in program order to `out` — the
    /// buffer-reusing form of [`XbcArray::read_uops`]. One contiguous
    /// slice copy per line (highest order — earliest uops — first).
    pub fn read_uops_into(&self, set: usize, asm: &Assembly, out: &mut Vec<Uop>) {
        for &(bank, way) in asm.lines.iter().rev() {
            let idx = self.idx(set, bank as usize, way as usize);
            let m = self.meta[idx];
            debug_assert!(m & META_VALID != 0, "assembled line present");
            out.extend_from_slice(self.region(idx, meta_count(m)));
        }
    }

    /// Length of the common suffix of an assembled XB and a uop sequence
    /// given **last uop first**: how many of `rev`'s leading uops equal the
    /// stored XB's uops read backwards from its end. Compares against the
    /// lines in place, reading no more of either side than the match.
    pub(crate) fn common_suffix(
        &self,
        set: usize,
        asm: &Assembly,
        mut rev: impl Iterator<Item = Uop>,
    ) -> usize {
        let mut n = 0;
        for &(bank, way) in asm.lines.iter() {
            let idx = self.idx(set, bank as usize, way as usize);
            for stored in self.region(idx, meta_count(self.meta[idx])).iter().rev() {
                if rev.next().as_ref() != Some(stored) {
                    return n;
                }
                n += 1;
            }
        }
        n
    }

    /// Reads the **last** `offset` uops of an assembled XB, in program
    /// order (the window a pointer with that offset would fetch).
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the stored length.
    pub fn read_window(&self, set: usize, asm: &Assembly, offset: usize) -> Vec<Uop> {
        let mut out = Vec::with_capacity(offset);
        self.read_window_into(set, asm, offset, &mut out);
        out
    }

    /// Appends the last `offset` uops of an assembled XB to `out` — the
    /// buffer-reusing form of [`XbcArray::read_window`]. The leading
    /// (earliest) `total - offset` uops are skipped by trimming whole
    /// lines and slicing into the first included one; every copy is a
    /// contiguous arena slice.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the stored length.
    pub fn read_window_into(&self, set: usize, asm: &Assembly, offset: usize, out: &mut Vec<Uop>) {
        assert!(offset <= asm.total_uops, "window larger than the stored XB");
        let mut skip = asm.total_uops - offset;
        for &(bank, way) in asm.lines.iter().rev() {
            let idx = self.idx(set, bank as usize, way as usize);
            let m = self.meta[idx];
            debug_assert!(m & META_VALID != 0, "assembled line present");
            let count = meta_count(m);
            if skip >= count {
                skip -= count;
                continue;
            }
            let region = self.region(idx, count);
            out.extend_from_slice(&region[skip..]);
            skip = 0;
        }
    }

    /// Ages every line of `tag` in `set` to LRU-minimum (paper §3.8: a
    /// promoted XB0's original location is first in line for eviction).
    pub fn demote_lru(&mut self, xb_ip: Addr) {
        let (set, tag) = self.set_and_tag(xb_ip);
        let mut bits = self.match_lanes(set, tag);
        let base = set * self.lanes;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.stamps[base + lane] = 0;
        }
    }

    /// Validates that pointer `ptr` can be fetched: enough contiguous
    /// orders within its mask to cover `ptr.offset` uops.
    pub fn lookup(&mut self, ptr: &XbPtr) -> Option<Assembly> {
        let (set, tag) = self.set_and_tag(ptr.xb_ip);
        self.lookup_at(set, tag, ptr)
    }

    /// [`XbcArray::lookup`] for an already split `(set, tag)`.
    #[inline]
    fn lookup_at(&mut self, set: usize, tag: u64, ptr: &XbPtr) -> Option<Assembly> {
        let asm = self.assemble(set, tag, Some(ptr.mask))?;
        (asm.total_uops >= ptr.offset as usize).then_some(asm)
    }

    /// Attempts to fetch the XBs pointed to by `ptrs`, in priority order,
    /// within one cycle (one line per bank). Returns per-XB outcomes and
    /// the overall bank usage. Also performs dynamic-placement bookkeeping
    /// for deferred fetches (§3.10).
    pub fn fetch(&mut self, ptrs: &[XbPtr]) -> (InlineVec<XbFetch, { MAX_BANKS + 1 }>, BankMask) {
        // At most MAX_BANKS Full results (each uses ≥1 bank) plus one
        // terminating non-Full result fit in a cycle.
        let mut used = BankMask::EMPTY;
        let mut results = InlineVec::new();
        for ptr in ptrs {
            let r = self.fetch_one(ptr, &mut used);
            let stop = !matches!(r, XbFetch::Full);
            results.push(r);
            if stop {
                break; // later XBs follow this one; no point continuing
            }
        }
        (results, used)
    }

    /// Fetches a single XB within the current cycle's bank budget,
    /// accumulating bank usage into `used`. See [`XbcArray::fetch`].
    pub fn fetch_one(&mut self, ptr: &XbPtr, used: &mut BankMask) -> XbFetch {
        let (set, tag) = self.set_and_tag(ptr.xb_ip);
        let Some(asm) = self.lookup_at(set, tag, ptr) else {
            return XbFetch::Miss;
        };
        let needed = (ptr.offset as usize).div_ceil(self.line_uops);
        debug_assert!(needed <= asm.lines.len());
        // Walk entry-side first: order needed-1 down to 0.
        let mut fetched = 0usize;
        let mut blocked = None;
        for k in (0..needed).rev() {
            let (bank, way) = (asm.lines[k].0 as usize, asm.lines[k].1 as usize);
            if used.contains(bank) {
                blocked = Some((bank, way));
                break;
            }
            used.insert(bank);
            // Uops of this line covered by the entry window.
            let line_lo = k * self.line_uops; // position-from-end of slot 0
            let hi = (ptr.offset as usize - 1).min(line_lo + self.line_uops - 1);
            fetched += hi - line_lo + 1;
            let stamp = self.bump();
            let idx = self.idx(set, bank, way);
            // Assembled lines are valid: the stamp plane alone is touched.
            debug_assert!(self.meta[idx] & META_VALID != 0, "assembled line present");
            self.stamps[idx] = stamp;
        }
        if let Some((bank, way)) = blocked {
            let deferred = ptr.offset as usize - fetched;
            self.note_conflict(set, bank, way, *used);
            return XbFetch::Partial { fetched: fetched as u8, deferred: deferred as u8 };
        }
        XbFetch::Full
    }

    /// Charges a deferred fetch to a line; when the threshold is reached
    /// and dynamic placement is enabled, moves the line to an unused bank.
    fn note_conflict(&mut self, set: usize, bank: usize, way: usize, used: BankMask) {
        let idx = self.idx(set, bank, way);
        let m = self.meta[idx];
        if m & META_VALID == 0 {
            return;
        }
        let conflicts = meta_conflicts(m).saturating_add(1);
        self.meta[idx] = meta_pack(meta_order(m), meta_count(m), conflicts);
        if !self.dynamic_placement || conflicts < self.conflict_threshold {
            return;
        }
        // Move to a bank that was idle this cycle, into a free way or over
        // a strictly older line.
        let my_stamp = self.stamps[idx];
        for target_bank in 0..self.banks {
            if used.contains(target_bank) || target_bank == bank {
                continue;
            }
            for target_way in 0..self.ways {
                let tidx = self.idx(set, target_bank, target_way);
                let replaceable = if self.meta[tidx] & META_VALID == 0 {
                    true
                } else {
                    self.stamps[tidx] < my_stamp
                };
                if replaceable {
                    if self.meta[tidx] & META_VALID != 0 {
                        self.stats.evicted_lines += 1;
                    }
                    self.move_lane(idx, tidx);
                    // The move resets the conflict counter.
                    let tm = self.meta[tidx];
                    self.meta[tidx] = meta_pack(meta_order(tm), meta_count(tm), 0);
                    self.stats.relocations += 1;
                    return;
                }
            }
        }
    }

    /// Moves lane `src`'s tag, meta, stamp and arena region onto lane
    /// `dst` (overwriting it) and invalidates `src`.
    fn move_lane(&mut self, src: usize, dst: usize) {
        self.tags[dst] = self.tags[src];
        self.meta[dst] = self.meta[src];
        self.stamps[dst] = self.stamps[src];
        let l = self.line_uops;
        self.arena.copy_within(src * l..(src + 1) * l, dst * l);
        self.meta[src] = 0;
    }

    /// Picks the replacement victim within `set`, excluding `forbidden`
    /// banks: free ways first, then head lines by LRU, then middle lines by
    /// LRU (the paper's LRU "makes sure that we do not evict a line other
    /// than a head line" whenever one exists, §3.10). Ties go to the lowest
    /// lane (bank-major, way-minor).
    ///
    /// One pass in lane order: whether a line is a head is asked only of
    /// lines older than the best head so far, so a set whose LRU line is a
    /// head (the usual case) runs few tag scans.
    fn choose_victim(&self, set: usize, forbidden: BankMask) -> Option<(usize, usize)> {
        let allowed = !self.lane_mask_of(forbidden) & self.all_lanes();
        let valid = self.valid_lanes(set);
        let lane = if allowed & !valid != 0 {
            (allowed & !valid).trailing_zeros() as usize
        } else {
            let base = set * self.lanes;
            let age = |lane: usize| self.stamps[base + lane] & 0xFFFF_FFFF_FFFF;
            // `(age, lane)` of the best head and the best middle line.
            let mut head: Option<(u64, usize)> = None;
            let mut middle: Option<(u64, usize)> = None;
            let mut rest = allowed;
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let stamp = age(lane);
                if head.is_some_and(|(s, _)| stamp >= s) {
                    continue;
                }
                let m = self.meta[base + lane];
                if !self.has_order_above(set, self.tags[base + lane], meta_order(m)) {
                    head = Some((stamp, lane));
                } else if middle.is_none_or(|(s, _)| stamp < s) {
                    middle = Some((stamp, lane));
                }
            }
            head.or(middle)?.1
        };
        let (bank, way) = self.lane_coords[lane];
        Some((bank as usize, way as usize))
    }

    /// Frees and returns a slot for a new line, honouring smart placement
    /// (§3.10): the line lands in a bank outside `avoid` when possible.
    /// LRU ordering is preserved by *switching* the LRU victim with the
    /// occupant of the desired bank rather than evicting younger lines.
    /// The slot returned is empty.
    fn place_slot(
        &mut self,
        set: usize,
        forbidden: BankMask,
        avoid: BankMask,
    ) -> Option<(usize, usize)> {
        // Free way in a preferred (non-avoided) bank?
        let preferred = !self.lane_mask_of(forbidden.union(avoid)) & self.all_lanes();
        let free = preferred & !self.valid_lanes(set);
        if free != 0 {
            let (bank, way) = self.lane_coords[free.trailing_zeros() as usize];
            return Some((bank as usize, way as usize));
        }
        let (vb, vw) = self.choose_victim(set, forbidden)?;
        if self.meta[self.idx(set, vb, vw)] & META_VALID == 0 {
            // Only avoided banks had free ways; accept the conflict.
            return Some((vb, vw));
        }
        if avoid.contains(vb) && preferred != 0 {
            // Try to keep the new line out of the avoided bank by swapping
            // the desired bank's LRU occupant into the victim's slot. Every
            // preferred lane is valid here (none was free above); the
            // first of the least recently used wins.
            let base = set * self.lanes;
            let mut rest = preferred;
            let mut desired: Option<(u64, usize)> = None;
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let stamp = self.stamps[base + lane];
                if desired.is_none_or(|(s, _)| stamp < s) {
                    desired = Some((stamp, lane));
                }
            }
            let (db, dw) = self.lane_coords[desired.expect("preferred lanes exist").1];
            let (db, dw) = (db as usize, dw as usize);
            self.evict(set, vb, vw);
            let didx = self.idx(set, db, dw);
            let vidx = self.idx(set, vb, vw);
            if self.meta[didx] & META_VALID != 0 {
                self.move_lane(didx, vidx);
            }
            return Some((db, dw));
        }
        self.evict(set, vb, vw);
        Some((vb, vw))
    }

    /// True if a valid line of `tag` in `set` has order `order + 1` (the
    /// line at `order` is then not its XB's head).
    fn has_order_above(&self, set: usize, tag: u64, order: u8) -> bool {
        let mut bits = self.match_lanes(set, tag);
        let base = set * self.lanes;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if meta_order(self.meta[base + lane]) == order + 1 {
                return true;
            }
        }
        false
    }

    /// Evicts the line at `(set, bank, way)`, truncating its XB if a
    /// middle line was removed (lines with higher orders of the same tag
    /// become unreachable and are invalidated — the paper's LRU avoids
    /// this case; placement only resorts to middle lines when every way is
    /// a middle line).
    fn evict(&mut self, set: usize, bank: usize, way: usize) {
        let idx = self.idx(set, bank, way);
        let m = self.meta[idx];
        if m & META_VALID == 0 {
            return;
        }
        self.meta[idx] = 0;
        self.stats.evicted_lines += 1;
        let (tag, order) = (self.tags[idx], meta_order(m));
        // Invalidate same-tag lines with orders above the hole.
        let mut bits = self.match_lanes(set, tag);
        let base = set * self.lanes;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if meta_order(self.meta[base + lane]) > order {
                self.meta[base + lane] = 0;
                self.stats.truncated_lines += 1;
            }
        }
    }

    /// Writes the lines of a (possibly partially shared) XB.
    ///
    /// `uops` is the **full** XB in program order; lines for orders below
    /// `skip_orders` are assumed shared (complex-XB suffix) and are not
    /// written. `suffix_mask` gives the banks those shared lines occupy
    /// (new lines must avoid them so the assembled XB spans distinct
    /// banks); `avoid` biases placement away from the previous XB's banks
    /// (smart placement, §3.10).
    ///
    /// Returns the mask of banks newly written.
    ///
    /// # Panics
    ///
    /// Panics if `uops` is empty or longer than the fetch width.
    pub fn insert(
        &mut self,
        xb_ip: Addr,
        uops: &[Uop],
        skip_orders: usize,
        suffix_mask: BankMask,
        avoid: BankMask,
    ) -> BankMask {
        assert!(!uops.is_empty(), "cannot insert an empty XB");
        let len = uops.len();
        assert!(len <= self.banks * self.line_uops, "XB of {len} uops exceeds the fetch width");
        let (set, tag) = self.set_and_tag(xb_ip);
        let n = len.div_ceil(self.line_uops);
        assert!(skip_orders <= n, "cannot skip more lines than the XB has");
        let mut forbidden = suffix_mask;
        let mut added = BankMask::EMPTY;
        for order in skip_orders..n {
            let (bank, way) = self
                .place_slot(set, forbidden, avoid)
                .expect("more orders than banks is impossible by the length assert");
            let lo = order * self.line_uops; // position-from-end of slot 0
            let hi = (lo + self.line_uops).min(len);
            let stamp = self.bump();
            let idx = self.idx(set, bank, way);
            self.write_line(idx, tag, order as u8, stamp, &uops[len - hi..len - lo]);
            forbidden.insert(bank);
            added.insert(bank);
        }
        self.stats.inserts += 1;
        added
    }

    /// Writes one whole line: tag/meta/stamp lanes plus the right-aligned
    /// arena region. `content` is the line's uops in program order.
    fn write_line(&mut self, idx: usize, tag: u64, order: u8, stamp: u64, content: &[Uop]) {
        let l = self.line_uops;
        debug_assert!(!content.is_empty() && content.len() <= l);
        self.tags[idx] = tag;
        self.meta[idx] = meta_pack(order, content.len(), 0);
        self.stamps[idx] = stamp;
        self.arena[idx * l + (l - content.len())..(idx + 1) * l].copy_from_slice(content);
    }

    /// Extends an existing XB at its head with `extra` earlier uops
    /// (program order), in place (§3.3 case 2 / §3.4). Fills the partial
    /// head line first (leftward into its arena region — stored uops do
    /// not move), then allocates new lines.
    ///
    /// Returns the new full mask of the XB.
    ///
    /// # Panics
    ///
    /// Panics if the combined length exceeds the fetch width, or if the
    /// assembly does not belong to this array's `xb_ip` tag.
    pub fn extend(
        &mut self,
        xb_ip: Addr,
        asm: &Assembly,
        extra: &[Uop],
        avoid: BankMask,
    ) -> BankMask {
        let (set, tag) = self.set_and_tag(xb_ip);
        let old_len = asm.total_uops;
        let new_len = old_len + extra.len();
        assert!(
            new_len <= self.banks * self.line_uops,
            "extension to {new_len} uops exceeds the fetch width"
        );
        // Fill the head line's free slots leftward: position-from-end
        // old_len + j is extra[extra.len() - 1 - j], so the head region
        // grows by a contiguous copy of extra's tail.
        let head_order = asm.lines.len() - 1;
        let (hb, hw) = (asm.lines[head_order].0 as usize, asm.lines[head_order].1 as usize);
        let head_lo = head_order * self.line_uops;
        let filled;
        {
            let idx = self.idx(set, hb, hw);
            let stamp = self.bump();
            let m = self.meta[idx];
            assert!(m & META_VALID != 0, "head line present");
            assert_eq!(self.tags[idx], tag, "assembly does not match xb_ip");
            let count = meta_count(m);
            let new_count = (count + extra.len()).min(self.line_uops);
            filled = new_count - count;
            if filled > 0 {
                let l = self.line_uops;
                // New head-line uops: positions-from-end [old_len,
                // head_lo + new_count) = the tail slice of `extra` ending
                // at its last uop, placed just left of the stored region.
                let src_hi = extra.len() - (old_len - head_lo - count);
                self.arena[idx * l + (l - new_count)..idx * l + (l - count)]
                    .copy_from_slice(&extra[src_hi - filled..src_hi]);
                self.meta[idx] = meta_pack(meta_order(m), new_count, meta_conflicts(m));
            }
            self.stamps[idx] = stamp;
        }
        // Allocate whole new lines for the remainder.
        let mut mask = asm.mask;
        let mut forbidden = asm.mask;
        let mut pos = old_len + filled; // next position-from-end to place
        while pos < new_len {
            let order = pos / self.line_uops;
            debug_assert_eq!(pos % self.line_uops, 0);
            let (bank, way) = self
                .place_slot(set, forbidden, avoid)
                .expect("length assert bounds the order count");
            let hi = (pos + self.line_uops).min(new_len);
            let stamp = self.bump();
            let idx = self.idx(set, bank, way);
            // Positions-from-end [pos, hi) are extra's program indices
            // [new_len - hi, new_len - pos).
            self.write_line(idx, tag, order as u8, stamp, &extra[new_len - hi..new_len - pos]);
            forbidden.insert(bank);
            mask.insert(bank);
            pos = hi;
        }
        self.stats.extensions += 1;
        mask
    }

    /// Set search (§3.9): on an XBTB hit whose pointer misses (the XB was
    /// re-placed in different banks), scan the whole set for the tag and
    /// return a repaired mask if the entry window is still stored.
    pub fn set_search(&mut self, xb_ip: Addr, offset: u8) -> Option<BankMask> {
        let (set, tag) = self.set_and_tag(xb_ip);
        let asm = self.assemble(set, tag, None)?;
        if asm.total_uops < offset as usize {
            return None;
        }
        let needed = (offset as usize).div_ceil(self.line_uops);
        let mut mask = BankMask::EMPTY;
        for &(bank, _) in &asm.lines[..needed] {
            mask.insert(bank as usize);
        }
        Some(mask)
    }

    /// Number of valid lines.
    pub fn valid_lines(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).count()
    }

    /// Total uops stored.
    pub fn stored_uops(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).map(|&m| meta_count(m)).sum()
    }

    /// Population census of the stored extended blocks: how many XBs are
    /// resident, their length distribution, and how many are complex
    /// (alternate prefixes sharing a suffix).
    pub fn population(&self) -> Population {
        use std::collections::HashMap;
        let mut per_tag: HashMap<(usize, u64), Vec<(u8, usize)>> = HashMap::new();
        for set in 0..self.sets() {
            let base = set * self.lanes;
            for lane in 0..self.lanes {
                let m = self.meta[base + lane];
                if m & META_VALID != 0 {
                    per_tag
                        .entry((set, self.tags[base + lane]))
                        .or_default()
                        .push((meta_order(m), meta_count(m)));
                }
            }
        }
        let mut pop = Population {
            lines: self.valid_lines(),
            stored_uops: self.stored_uops(),
            xb_count: per_tag.len(),
            complex_count: 0,
            truncated_count: 0,
            length_hist: xbc_uarch::Histogram::new(self.banks * self.line_uops),
        };
        for ((_, _), mut lines) in per_tag {
            lines.sort_unstable();
            // Complex: more than one line at the same order.
            let mut complex = false;
            for w in lines.windows(2) {
                if w[0].0 == w[1].0 {
                    complex = true;
                }
            }
            if complex {
                pop.complex_count += 1;
            }
            // Truncated: order 0 missing (head survived an eviction hole —
            // cannot happen with head-first eviction, but audit anyway).
            if lines[0].0 != 0 {
                pop.truncated_count += 1;
                continue;
            }
            let total: usize = {
                // Longest contiguous-order length (complex alternates count
                // once, by their longest arrangement).
                let mut total = 0;
                let mut expect = 0u8;
                for &(order, count) in &lines {
                    if order == expect {
                        total += count;
                        expect += 1;
                    } else if order > expect {
                        break;
                    }
                }
                total
            };
            if total > 0 {
                pop.length_hist.record(total);
            }
        }
        pop
    }

    /// Metadata of one line, if valid: `(tag, order, uop count)`. Together
    /// with [`XbcArray::line_uops_at`] this exposes enough state for an
    /// *independent* census (see `xbc::XbcInvariants`), so the checker does
    /// not have to trust [`XbcArray::population`].
    pub fn line_meta(&self, set: usize, bank: usize, way: usize) -> Option<(u64, u8, usize)> {
        let idx = self.idx(set, bank, way);
        let m = self.meta[idx];
        if m & META_VALID == 0 {
            return None;
        }
        Some((self.tags[idx], meta_order(m), meta_count(m)))
    }

    /// Structural audit of one set (paper §3.2–§3.4 storage rules):
    ///
    /// * line geometry — `order < banks`, `1..=line_uops` uops per line;
    /// * reverse-order storage — the arena region is right-aligned and in
    ///   program order, so adjacent region slots of the same instruction
    ///   carry ascending uop slots, a branch kind implies `ends_inst`, and
    ///   interior uops carry [`BranchKind::None`](xbc_isa::BranchKind);
    /// * single exit — a boundary-ending branch uop may only sit at
    ///   position-from-end 0 (order 0, last region slot). Tags in
    ///   `merged_tags` are exempt: merge-mode combinations (§3.8) legally
    ///   bury the promoted conditional mid-block.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated storage rule.
    pub fn audit_set(
        &self,
        set: usize,
        merged_tags: &std::collections::HashSet<(usize, u64)>,
    ) -> Result<(), String> {
        for bank in 0..self.banks {
            for way in 0..self.ways {
                let idx = self.idx(set, bank, way);
                let m = self.meta[idx];
                if m & META_VALID == 0 {
                    continue;
                }
                let tag = self.tags[idx];
                let at = format!("set {set} bank {bank} way {way} tag {tag:#x}");
                if (meta_order(m) as usize) >= self.banks {
                    return Err(format!("{at}: order {} >= banks {}", meta_order(m), self.banks));
                }
                let count = meta_count(m);
                if count == 0 || count > self.line_uops {
                    return Err(format!("{at}: {count} uops in a {}-uop line", self.line_uops));
                }
                let merged = merged_tags.contains(&(set, tag));
                let region = self.region(idx, count);
                for (i, u) in region.iter().enumerate() {
                    // The region is in program order; slot s (the paper's
                    // reverse-storage index) is count-1-i positions from
                    // the line's end.
                    let slot = count - 1 - i;
                    if !u.ends_inst && u.branch != xbc_isa::BranchKind::None {
                        return Err(format!(
                            "{at} slot {slot}: interior uop carries branch {:?}",
                            u.branch
                        ));
                    }
                    // Position-from-end of this uop within the XB.
                    let pos = meta_order(m) as usize * self.line_uops + slot;
                    if pos != 0 && u.ends_inst && u.branch.ends_xb_boundary() && !merged {
                        return Err(format!(
                            "{at} slot {slot}: XB-ending branch {:?} at interior position {pos}",
                            u.branch
                        ));
                    }
                    // Reverse storage ⇔ program-order region: adjacent
                    // same-instruction region entries ascend by one slot.
                    if i + 1 < count {
                        let next = &region[i + 1];
                        if u.id.inst_ip == next.id.inst_ip && u.id.slot + 1 != next.id.slot {
                            return Err(format!(
                                "{at} slot {slot}: uop slots not descending ({} then {})",
                                u.id, next.id
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// [`XbcArray::audit_set`] over every set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated storage rule.
    pub fn audit(
        &self,
        merged_tags: &std::collections::HashSet<(usize, u64)>,
    ) -> Result<(), String> {
        for set in 0..self.sets() {
            self.audit_set(set, merged_tags)?;
        }
        Ok(())
    }

    /// Redundancy audit: `(stored uop slots, distinct uop identities)`.
    /// The XBC's central claim is that these are (nearly) equal.
    pub fn redundancy(&self) -> (usize, usize) {
        let mut ids = std::collections::HashSet::new();
        let mut total = 0usize;
        for idx in 0..self.meta.len() {
            let m = self.meta[idx];
            if m & META_VALID == 0 {
                continue;
            }
            for u in self.region(idx, meta_count(m)) {
                total += 1;
                ids.insert(u.id);
            }
        }
        (total, ids.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_isa::{BranchKind, UopId, UopKind};

    fn cfg() -> XbcConfig {
        XbcConfig { total_uops: 128, ..XbcConfig::default() } // 4 sets
    }

    fn mk_uops(base_ip: u64, n: usize) -> Vec<Uop> {
        (0..n)
            .map(|i| {
                let last = i + 1 == n;
                Uop::new(
                    UopId::new(Addr::new(base_ip + i as u64), 0),
                    if last { UopKind::Branch } else { UopKind::Alu },
                    true,
                    if last { BranchKind::CondDirect } else { BranchKind::None },
                )
            })
            .collect()
    }

    /// End IP chosen so the XB lands in set 0 of a 4-set array.
    fn end_ip(n: usize) -> Addr {
        Addr::new(0x100 + n as u64 - 1)
    }

    #[test]
    fn insert_and_read_roundtrip() {
        let mut a = XbcArray::new(&cfg());
        let uops = mk_uops(0x100, 10);
        let ip = end_ip(10);
        let mask = a.insert(ip, &uops, 0, BankMask::EMPTY, BankMask::EMPTY);
        assert_eq!(mask.count(), 3); // ceil(10/4)
        let (set, tag) = a.set_and_tag(ip);
        let asm = a.assemble(set, tag, None).unwrap();
        assert_eq!(asm.total_uops, 10);
        assert_eq!(a.read_uops(set, &asm), uops);
    }

    #[test]
    fn reverse_order_storage_head_is_partial() {
        let mut a = XbcArray::new(&cfg());
        let uops = mk_uops(0x200, 9); // 3 lines: 4 + 4 + 1
        let ip = Addr::new(0x200 + 8);
        a.insert(ip, &uops, 0, BankMask::EMPTY, BankMask::EMPTY);
        let (set, tag) = a.set_and_tag(ip);
        let asm = a.assemble(set, tag, None).unwrap();
        assert_eq!(asm.lines.len(), 3);
        // Head line (order 2) holds exactly one uop: the XB's first.
        let (hb, hw) = (asm.lines[2].0 as usize, asm.lines[2].1 as usize);
        let head = a.line_uops_at(set, hb, hw).unwrap();
        assert_eq!(head.len(), 1);
        assert_eq!(head[0], uops[0]);
        let (_, order, count) = a.line_meta(set, hb, hw).unwrap();
        assert_eq!((order, count), (2, 1));
    }

    #[test]
    fn lookup_respects_offset_and_mask() {
        let mut a = XbcArray::new(&cfg());
        let uops = mk_uops(0x300, 8);
        let ip = Addr::new(0x307);
        let mask = a.insert(ip, &uops, 0, BankMask::EMPTY, BankMask::EMPTY);
        let full = XbPtr::new(ip, Addr::new(0x300), mask, 8);
        assert!(a.lookup(&full).is_some());
        // An entry mid-block needs fewer orders.
        let mid = XbPtr::new(ip, Addr::new(0x303), mask, 5);
        assert!(a.lookup(&mid).is_some());
        // A wrong mask fails.
        let bogus = XbPtr::new(ip, Addr::new(0x300), BankMask::from_bits(0b1000), 8);
        // (unless the XB happens to sit in exactly bank 3 alone, impossible
        // for an 8-uop XB needing 2 banks)
        assert!(a.lookup(&bogus).is_none());
    }

    #[test]
    fn extend_prepends_without_moving() {
        let mut a = XbcArray::new(&cfg());
        let full = mk_uops(0x400, 10);
        let ip = Addr::new(0x400 + 9);
        // Insert only the 6-uop suffix first (an XB discovered mid-way).
        a.insert(ip, &full[4..], 0, BankMask::EMPTY, BankMask::EMPTY);
        let (set, tag) = a.set_and_tag(ip);
        let asm = a.assemble(set, tag, None).unwrap();
        assert_eq!(asm.total_uops, 6);
        let before: Vec<(u8, u8)> = asm.lines.to_vec();
        // Extend with the 4 earlier uops.
        let mask = a.extend(ip, &asm, &full[..4], BankMask::EMPTY);
        let asm2 = a.assemble(set, tag, None).unwrap();
        assert_eq!(asm2.total_uops, 10);
        assert_eq!(a.read_uops(set, &asm2), full);
        // The original lines did not move (reverse order property, §3.4).
        assert_eq!(&asm2.lines[..2], &before[..]);
        assert!(mask.count() >= asm.mask.count());
        assert_eq!(a.stats().extensions, 1);
    }

    #[test]
    fn fetch_two_disjoint_xbs_in_one_cycle() {
        let mut a = XbcArray::new(&cfg());
        let u1 = mk_uops(0x500, 8);
        let ip1 = Addr::new(0x507);
        let m1 = a.insert(ip1, &u1, 0, BankMask::EMPTY, BankMask::EMPTY);
        let u2 = mk_uops(0x600, 8);
        let ip2 = Addr::new(0x607);
        // Smart placement avoids the first XB's banks.
        let m2 = a.insert(ip2, &u2, 0, BankMask::EMPTY, m1);
        assert!(!m1.intersects(m2), "smart placement should separate the XBs");
        let p1 = XbPtr::new(ip1, Addr::new(0x500), m1, 8);
        let p2 = XbPtr::new(ip2, Addr::new(0x600), m2, 8);
        let (results, used) = a.fetch(&[p1, p2]);
        assert_eq!(results, [XbFetch::Full, XbFetch::Full]);
        assert_eq!(used.count(), 4);
    }

    #[test]
    fn fetch_conflict_defers_suffix() {
        let mut a = XbcArray::new(&XbcConfig {
            total_uops: 128,
            dynamic_placement: false,
            ..XbcConfig::default()
        });
        let u1 = mk_uops(0x500, 8);
        let ip1 = Addr::new(0x507);
        let m1 = a.insert(ip1, &u1, 0, BankMask::EMPTY, BankMask::EMPTY);
        let u2 = mk_uops(0x600, 8);
        let ip2 = Addr::new(0x607);
        // Force overlap: place XB2 in the same banks as XB1.
        let forbidden_of_others = {
            // compute complement of m1 and forbid it, pushing XB2 into m1's banks
            let mut f = BankMask::EMPTY;
            for b in 0..4 {
                if !m1.contains(b) {
                    f.insert(b);
                }
            }
            f
        };
        let m2 = a.insert(ip2, &u2, 0, forbidden_of_others, BankMask::EMPTY);
        assert!(m1.intersects(m2));
        let p1 = XbPtr::new(ip1, Addr::new(0x500), m1, 8);
        let p2 = XbPtr::new(ip2, Addr::new(0x600), m2, 8);
        let (results, _) = a.fetch(&[p1, p2]);
        assert_eq!(results[0], XbFetch::Full);
        match results[1] {
            XbFetch::Partial { fetched, deferred } => {
                assert_eq!(fetched + deferred, 8);
                assert_eq!(deferred % 4, 0, "deferral happens at line granularity");
            }
            other => panic!("expected partial fetch, got {other:?}"),
        }
    }

    #[test]
    fn mid_entry_fetch_counts_window_only() {
        let mut a = XbcArray::new(&cfg());
        let u = mk_uops(0x700, 12);
        let ip = Addr::new(0x70b);
        let m = a.insert(ip, &u, 0, BankMask::EMPTY, BankMask::EMPTY);
        // Enter with offset 5: only orders 0 and 1 needed.
        let p = XbPtr::new(ip, Addr::new(0x707), m, 5);
        let (results, used) = a.fetch(&[p]);
        assert_eq!(results, [XbFetch::Full]);
        assert_eq!(used.count(), 2);
    }

    #[test]
    fn eviction_truncates_from_head() {
        // 1-set array so everything collides.
        let tiny = XbcConfig { total_uops: 32, ..XbcConfig::default() }; // 1 set
        let mut a = XbcArray::new(&tiny);
        // Fill the set: 2 XBs × 16 uops = 32 uops (8 lines).
        let u1 = mk_uops(0x100, 16);
        let ip1 = Addr::new(0x10f);
        let m1 = a.insert(ip1, &u1, 0, BankMask::EMPTY, BankMask::EMPTY);
        let u2 = mk_uops(0x200, 16);
        let ip2 = Addr::new(0x20f);
        a.insert(ip2, &u2, 0, BankMask::EMPTY, BankMask::EMPTY);
        assert_eq!(a.valid_lines(), 8);
        // A third insert evicts lines; victims should be head lines first,
        // so surviving XB fragments stay fetchable from lower offsets.
        let u3 = mk_uops(0x300, 8);
        let ip3 = Addr::new(0x307);
        a.insert(ip3, &u3, 0, BankMask::EMPTY, BankMask::EMPTY);
        assert!(a.stats().evicted_lines >= 2);
        // XB1 should survive as a (possibly shorter) suffix, if any of it
        // remains reachable.
        let (set, tag) = a.set_and_tag(ip1);
        if let Some(asm) = a.assemble(set, tag, None) {
            assert!(asm.total_uops % 4 == 0 || asm.total_uops == 16);
            let read = a.read_uops(set, &asm);
            assert_eq!(&read[..], &u1[16 - asm.total_uops..]);
        }
        let _ = m1;
    }

    #[test]
    fn set_search_finds_relocated_xb() {
        let mut a = XbcArray::new(&cfg());
        let u = mk_uops(0x800, 8);
        let ip = Addr::new(0x807);
        let m = a.insert(ip, &u, 0, BankMask::EMPTY, BankMask::EMPTY);
        // A stale pointer with the wrong mask misses...
        let mut wrong = BankMask::EMPTY;
        for b in 0..4 {
            if !m.contains(b) {
                wrong.insert(b);
            }
        }
        let stale = XbPtr::new(ip, Addr::new(0x800), wrong, 8);
        assert!(a.lookup(&stale).is_none());
        // ...but set search recovers the true mask.
        let repaired = a.set_search(ip, 8).expect("XB is present");
        assert_eq!(repaired, m);
        assert!(a.lookup(&XbPtr::new(ip, Addr::new(0x800), repaired, 8)).is_some());
    }

    #[test]
    fn no_redundancy_for_distinct_xbs() {
        let mut a = XbcArray::new(&XbcConfig { total_uops: 1024, ..XbcConfig::default() });
        for i in 0..8u64 {
            // Odd stride so the XBs spread over the 32 sets instead of
            // aliasing into one.
            let u = mk_uops(0x1000 + i * 37, 12);
            a.insert(Addr::new(0x1000 + i * 37 + 11), &u, 0, BankMask::EMPTY, BankMask::EMPTY);
        }
        let (total, distinct) = a.redundancy();
        assert_eq!(total, distinct, "distinct XBs must not duplicate uops");
        assert_eq!(total, 96);
    }

    #[test]
    fn complex_xb_shares_suffix_lines() {
        let mut a = XbcArray::new(&cfg());
        // XB_cur = 12 uops ending at ip; XB_new shares the last 8 uops
        // (2 lines) but has a different 4-uop prefix.
        let cur = mk_uops(0x900, 12);
        let ip = Addr::new(0x90b);
        let m_cur = a.insert(ip, &cur, 0, BankMask::EMPTY, BankMask::EMPTY);
        let (set, tag) = a.set_and_tag(ip);
        let asm = a.assemble(set, tag, None).unwrap();
        // Shared suffix: orders 0..1 (8 uops). New prefix: 4 different uops.
        let mut new_xb = mk_uops(0xA00, 4);
        new_xb.extend_from_slice(&cur[4..]);
        let suffix_mask = {
            let mut m = BankMask::EMPTY;
            m.insert(asm.lines[0].0 as usize);
            m.insert(asm.lines[1].0 as usize);
            m
        };
        let added = a.insert(ip, &new_xb, 2, suffix_mask, BankMask::EMPTY);
        assert_eq!(added.count(), 1);
        assert!(!added.intersects(suffix_mask));
        // Both pointers now resolve within their masks.
        let p_new = XbPtr::new(ip, Addr::new(0xA00), suffix_mask.union(added), 12);
        assert!(a.lookup(&p_new).is_some(), "complex prefix must assemble");
        let _ = m_cur;
        // Storage grew by one line only (the shared suffix is not copied).
        assert_eq!(a.valid_lines(), 4);
    }

    #[test]
    fn population_census() {
        let mut a = XbcArray::new(&XbcConfig { total_uops: 1024, ..XbcConfig::default() });
        let u1 = mk_uops(0x100, 10);
        a.insert(Addr::new(0x109), &u1, 0, BankMask::EMPTY, BankMask::EMPTY);
        let u2 = mk_uops(0x200, 5);
        a.insert(Addr::new(0x204), &u2, 0, BankMask::EMPTY, BankMask::EMPTY);
        let pop = a.population();
        assert_eq!(pop.xb_count, 2);
        assert_eq!(pop.lines, 5); // 3 + 2
        assert_eq!(pop.stored_uops, 15);
        assert_eq!(pop.complex_count, 0);
        assert_eq!(pop.truncated_count, 0);
        assert_eq!(pop.length_hist.count(), 2);
        assert!((pop.length_hist.mean() - 7.5).abs() < 1e-9);
        // Add a complex alternate prefix to the first XB.
        let (set, tag) = a.set_and_tag(Addr::new(0x109));
        let asm = a.assemble(set, tag, None).unwrap();
        let mut alt = mk_uops(0x300, 2);
        alt.extend_from_slice(&u1[2..]);
        let mut suffix = BankMask::EMPTY;
        suffix.insert(asm.lines[0].0 as usize);
        suffix.insert(asm.lines[1].0 as usize);
        a.insert(Addr::new(0x109), &alt, 2, suffix, BankMask::EMPTY);
        let pop = a.population();
        assert_eq!(pop.xb_count, 2);
        assert_eq!(pop.complex_count, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the fetch width")]
    fn oversized_xb_rejected() {
        let mut a = XbcArray::new(&cfg());
        let u = mk_uops(0xB00, 17);
        a.insert(Addr::new(0xB10), &u, 0, BankMask::EMPTY, BankMask::EMPTY);
    }
}
