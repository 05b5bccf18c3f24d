//! The XBC-based frontend (paper §3.5–§3.6, Figure 6).
//!
//! Delivery mode follows XBTB pointers: each cycle the XBTB supplies up to
//! `xbs_per_cycle` next-XB pointers (conditionals resolved by the XBP,
//! indirects by the XiBTB, returns by the XRSB); the priority encoder
//! fetches the pointed-to XBs from the banked array — a bank conflict
//! defers the tail of the second XB — and the XBQ drains to the renamer at
//! 8 uops/cycle. Promoted branches (§3.8) chain to their frequent-path
//! successor without consuming prediction bandwidth, emulating the merged
//! XB. On a mis-fetch or XBTB miss the frontend falls back to the shared
//! IC build pipeline, where the XFU (re)builds XBs and repairs the pointer
//! graph.

use crate::array::{XbFetch, XbcArray};
use crate::config::{PromotionMode, XbcConfig};
use crate::invariants::XbcInvariants;
use crate::ptr::{BankMask, XbPtr};
use crate::xbtb::{MergedXb, XbEndKind, Xbtb, XbtbEntry, XbtbStats};
use crate::xfu::{install_with, InstallKind, InstallScratch, Xfu};

use std::collections::HashSet;
use xbc_frontend::{BuildEngine, Frontend, FrontendMetrics, OracleStream, Predictors, Probe};
use xbc_isa::{Addr, Uop};
use xbc_obs::{
    CycleKind, D2bCause, Event, EventSink, FillKind, LookupKind, MispredictKind, UopSource,
};
use xbc_predict::{IndirectPredictor, ReturnStack};
use xbc_workload::DynInst;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Build,
    Delivery,
}

/// One XRSB frame: a pointer to the XBTB entry of the call-ended XB that
/// pushed it (paper §3.5 pushes entry pointers, so the return-point
/// pointer is read — and may have been healed — at pop time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct XrsbFrame {
    call_xb: Addr,
}

/// A pointer slot waiting to be filled once the successor XB's identity is
/// known ("the XBTB entry of the previously executed XB is updated to
/// point to XB_new", §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkFrom {
    /// A taken/not-taken (or call/fall continuation) slot of an entry.
    Slot { xb_ip: Addr, taken: bool },
    /// An XiBTB slot, with the path history captured at resolution.
    Indirect { xb_ip: Addr, history: u64 },
}

/// What to do once the XBQ drains. `build` carries the delivery→build
/// switch cause so the eventual [`Event::SwitchToBuild`] emission charges
/// the right counter — every switch has exactly one cause by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct AfterDrain {
    penalty: u64,
    build: Option<D2bCause>,
}

/// Outcome of resolving an XB's ending branch during fetch.
enum EndAction {
    /// Keep chaining; `free` transitions (promoted branches) do not consume
    /// a prediction slot.
    Continue { free: bool },
    /// Stop fetching this cycle (penalty and/or build switch scheduled).
    Stop,
}

/// The eXtended Block Cache frontend.
///
/// # Examples
///
/// ```
/// use xbc::{XbcConfig, XbcFrontend};
/// use xbc_frontend::Frontend;
/// use xbc_workload::standard_traces;
///
/// let trace = standard_traces()[0].capture(20_000);
/// let mut fe = XbcFrontend::new(XbcConfig::default());
/// let m = fe.run(&trace);
/// assert!(m.structure_uops > 0, "the XBC must deliver something");
/// ```
#[derive(Clone, Debug)]
pub struct XbcFrontend {
    cfg: XbcConfig,
    array: XbcArray,
    xbtb: Xbtb,
    xfu: Xfu,
    engine: BuildEngine,
    preds: Predictors,
    xibtb: IndirectPredictor<XbPtr>,
    xrsb: ReturnStack<XrsbFrame>,
    mode: Mode,
    /// Next XB to fetch in delivery mode.
    cur: Option<XbPtr>,
    /// Where `cur` was read from, so set-search repairs can be written
    /// back ("Set-search repairs the XBTB", §3.10).
    cur_src: Option<LinkFrom>,
    /// Uops accepted into the XBQ, not yet through the renamer.
    pending_uops: usize,
    after_drain: Option<AfterDrain>,
    /// Delivery-mode stall cycles outstanding.
    stall: u64,
    link_from: Option<LinkFrom>,
    /// Banks of the most recently placed XB (smart placement).
    last_mask: BankMask,
    /// Identities of merge-mode combined blocks ever created. Their tags
    /// legally bury a promoted conditional mid-block, so the structural
    /// audit exempts them from the single-exit rule. Kept as a
    /// conservative superset: de-promotion dissolves a combination
    /// logically, but its lines stay in the array until evicted.
    merged_ids: HashSet<Addr>,
    /// Install/extend events since creation (paces the full audits).
    audit_events: u64,
    /// Reusable install buffers (decoded block + stored readback), so the
    /// build path re-allocates nothing per installed XB (DESIGN.md §12).
    install_scratch: InstallScratch,
    /// Reusable combined-uop buffer for merge-mode block combination.
    merge_buf: Vec<Uop>,
    /// Debug counters for return-misprediction causes:
    /// `[frame-none, entry-gone, ptr-none, mismatch]`.
    #[doc(hidden)]
    pub ret_debug: [u64; 4],
    /// Debug counters for stale successor pointers, by the predecessor's
    /// end kind: `[cond, call, ret, indirect, fall]`.
    #[doc(hidden)]
    pub stale_debug: [u64; 5],
}

impl XbcFrontend {
    /// Creates a cold XBC frontend.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: XbcConfig) -> Self {
        cfg.validate();
        XbcFrontend {
            array: XbcArray::new(&cfg),
            xbtb: Xbtb::new(cfg.xbtb_entries),
            xfu: Xfu::new(cfg.max_xb_uops),
            engine: BuildEngine::new(cfg.icache, cfg.btb, cfg.decoder, cfg.timing),
            preds: Predictors::new(cfg.gshare),
            // History-hashed XiBTB, matching the indirect predictor the
            // other frontends use.
            xibtb: IndirectPredictor::new(12, 6),
            xrsb: ReturnStack::new(32),
            mode: Mode::Build,
            cur: None,
            cur_src: None,
            pending_uops: 0,
            after_drain: None,
            stall: 0,
            link_from: None,
            last_mask: BankMask::EMPTY,
            merged_ids: HashSet::new(),
            audit_events: 0,
            install_scratch: InstallScratch::default(),
            merge_buf: Vec::new(),
            ret_debug: [0; 4],
            stale_debug: [0; 5],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &XbcConfig {
        &self.cfg
    }

    /// Replaces the predictor complement (for predictor ablations); call
    /// before the first `run`.
    pub fn set_predictors(&mut self, preds: Predictors) {
        self.preds = preds;
    }

    /// The banked array (inspection / audits).
    pub fn array(&self) -> &XbcArray {
        &self.array
    }

    /// XBTB statistics.
    pub fn xbtb_stats(&self) -> XbtbStats {
        self.xbtb.stats()
    }

    /// The array-coordinate form of [`XbcFrontend::merged_ids`], for the
    /// single-exit exemption.
    fn merged_tags(&self) -> HashSet<(usize, u64)> {
        self.merged_ids.iter().map(|&ip| self.array.set_and_tag(ip)).collect()
    }

    /// Full structural audit: array storage rules + differential census,
    /// XBTB pointer sanity, XFU build state. Always compiled (and cheap
    /// relative to a whole run), so checkers can call it explicitly via
    /// [`Frontend::check_invariants`] regardless of build flavour.
    fn audit_full(&self) -> Result<(), String> {
        XbcInvariants::check_with(&self.array, &self.merged_tags())?;
        XbcInvariants::check_xbtb(&self.xbtb, &self.array)?;
        XbcInvariants::check_xfu(&self.xfu)
    }

    /// Invariant hook after an install/extend event: audits the touched
    /// set every time and everything every 1024 events. The audit body is
    /// compiled only under the `check` feature or `debug_assertions`, so
    /// release throughput is untouched.
    #[inline]
    #[allow(unused_variables)]
    fn audit_after_install(&mut self, set: usize) {
        self.audit_events += 1;
        #[cfg(any(feature = "check", debug_assertions))]
        {
            if let Err(e) = self.array.audit_set(set, &self.merged_tags()) {
                panic!("XBC invariant violated after install (set {set}): {e}");
            }
            if self.audit_events.is_multiple_of(1024) {
                if let Err(e) = self.audit_full() {
                    panic!("XBC invariant violated: {e}");
                }
            }
        }
    }

    fn refresh_promotion<S: EventSink>(
        cfg: &XbcConfig,
        entry: &mut XbtbEntry,
        probe: &mut Probe<'_, S>,
    ) {
        if !cfg.promotion.enabled() {
            return;
        }
        match (entry.promoted, entry.bias.bias()) {
            (None, Some(b)) => {
                entry.promoted = Some(b);
                probe.emit(Event::Promotion);
            }
            (Some(p), cur) if cur != Some(p) => {
                entry.promoted = None;
                entry.merged = None; // de-promotion dissolves the combination
                probe.emit(Event::Depromotion);
            }
            _ => {}
        }
    }

    /// Physically merges a promoted XB0 with its monotonic successor
    /// (§3.8, [`PromotionMode::Merge`]): the combined uops are written into
    /// XB1's set (sharing XB1's whole suffix lines, complex-XB style), the
    /// original XB0 lines are LRU-demoted, and the entry records the
    /// combination. Returns `true` on success; failures (missing pointer,
    /// over-quota combination, evicted pieces) leave chaining in effect.
    fn try_merge(&mut self, xb0_ip: Addr) -> bool {
        let Some(e0) = self.xbtb.get_mut(xb0_ip) else { return false };
        let Some(dir) = e0.promoted else { return false };
        let Some(ptr1) = e0.successor(dir.as_taken()) else { return false };
        if ptr1.xb_ip == xb0_ip {
            return false; // a self-loop cannot merge with itself
        }
        let (set0, tag0) = self.array.set_and_tag(xb0_ip);
        let Some(asm0) = self.array.assemble(set0, tag0, None) else { return false };
        let len0 = asm0.total_uops;
        let combined_len = len0 + ptr1.offset as usize;
        if combined_len > self.cfg.max_xb_uops {
            return false;
        }
        let (set1, tag1) = self.array.set_and_tag(ptr1.xb_ip);
        let Some(asm1) = self.array.assemble(set1, tag1, Some(ptr1.mask)) else { return false };
        if asm1.total_uops < ptr1.offset as usize {
            return false;
        }
        let mut combined = std::mem::take(&mut self.merge_buf);
        combined.clear();
        self.array.read_uops_into(set0, &asm0, &mut combined);
        self.array.read_window_into(set1, &asm1, ptr1.offset as usize, &mut combined);
        // Share XB1's whole suffix lines; the partially-shared line (if the
        // window is not line-aligned) duplicates, as in any complex XB.
        let shared = ptr1.offset as usize / self.array.line_uops();
        let mut suffix_mask = BankMask::EMPTY;
        for &(bank, _) in &asm1.lines[..shared] {
            suffix_mask.insert(bank as usize);
        }
        let added = self.array.insert(ptr1.xb_ip, &combined, shared, suffix_mask, BankMask::EMPTY);
        self.merge_buf = combined;
        self.array.demote_lru(xb0_ip);
        // The combined lines are in the array whatever happens below, so
        // the audit exemption must cover them from here on.
        self.merged_ids.insert(ptr1.xb_ip);
        let merged = MergedXb {
            xb_ip: ptr1.xb_ip,
            mask: suffix_mask.union(added),
            total_len: combined_len as u8,
            suffix_len: ptr1.offset,
        };
        let ok = if let Some(e0) = self.xbtb.get_mut(xb0_ip) {
            e0.merged = Some(merged);
            true
        } else {
            false
        };
        self.audit_after_install(set1);
        ok
    }

    /// In merge mode, rewrites a pointer into a promoted-and-merged XB0 so
    /// it enters the combined block instead. Validates the promoted
    /// direction against the committed path first; on a violation the
    /// original pointer is kept and normal resolution charges the
    /// mis-fetch. `window` is the uops already accepted this cycle.
    fn substitute_merged<S: EventSink>(
        &mut self,
        ptr: XbPtr,
        window: usize,
        oracle: &OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) -> Option<XbPtr> {
        if self.cfg.promotion != PromotionMode::Merge {
            return None;
        }
        let e = self.xbtb.get_mut(ptr.xb_ip)?;
        if e.kind != XbEndKind::Cond {
            return None;
        }
        let dir = e.promoted?;
        if e.merged.is_none() {
            self.try_merge(ptr.xb_ip);
        }
        let e = self.xbtb.get_mut(ptr.xb_ip)?;
        let m = e.merged?;
        if ptr.offset + m.suffix_len > m.total_len {
            // The pointer enters deeper into XB0 than the combination
            // covers (XB0 shrank before the merge): not substitutable.
            return None;
        }
        // Check the promoted branch's committed outcome at XB0's end.
        let (d0, _) = oracle.window_end(window + ptr.offset as usize)?;
        if d0.taken != dir.as_taken() {
            return None; // violation: fetch XB0 normally, resolve penalizes
        }
        let d0 = *d0;
        let e = self.xbtb.get_mut(ptr.xb_ip).expect("still resident");
        e.bias.update(d0.taken);
        Self::refresh_promotion(&self.cfg, e, probe);
        let comb = XbPtr::new(m.xb_ip, ptr.entry_ip, m.mask, ptr.offset + m.suffix_len);
        // Heal the source pointer to the combined block (§3.8: "the XBTB
        // entry is then updated to point to XB_comb").
        if let Some(src) = self.cur_src {
            self.write_slot(src, comb);
        }
        Some(comb)
    }

    fn apply_link(&mut self, successor: XbPtr) {
        let Some(link) = self.link_from.take() else { return };
        self.write_slot(link, successor);
    }

    fn write_slot(&mut self, link: LinkFrom, successor: XbPtr) {
        match link {
            LinkFrom::Slot { xb_ip, taken } => {
                if let Some(e) = self.xbtb.get_mut(xb_ip) {
                    e.set_successor(taken, successor);
                }
            }
            LinkFrom::Indirect { xb_ip, history } => {
                self.xibtb.update(xb_ip, history, successor);
            }
        }
    }

    /// Chooses the successor pointer for a fetched XB at delivery-fetch
    /// resolution, updating the predictors and XRSB.
    ///
    /// Returns `(next, consumed_slot, mispredicted)`.
    fn select_successor<S: EventSink>(
        &mut self,
        xb_ip: Addr,
        slot: Option<u32>,
        d_end: &DynInst,
        probe: &mut Probe<'_, S>,
    ) -> (Option<XbPtr>, bool, bool) {
        // The caller already probed the slot; only the statistics/LRU
        // side of a `get` remains to be applied here.
        probe.note(|| Event::Lookup { what: LookupKind::Xbtb, hit: slot.is_some() });
        let Some(slot) = slot else {
            self.xbtb.note_miss();
            return (None, true, false);
        };
        self.xbtb.touch_hit(slot);
        let kind = self.xbtb.at(slot).kind;
        match kind {
            XbEndKind::Fall => (self.xbtb.at(slot).taken, true, false),
            XbEndKind::Cond => {
                let taken = d_end.taken;
                let promoted = self.xbtb.at(slot).promoted;
                if let Some(dir) = promoted.filter(|_| self.cfg.promotion.enabled()) {
                    // Promoted: no prediction consumed; following the
                    // monotonic direction. A violation is a mis-fetch whose
                    // recovery pointer lives in the same entry (§3.8).
                    let e = self.xbtb.at_mut(slot);
                    e.bias.update(taken);
                    Self::refresh_promotion(&self.cfg, e, probe);
                    let e = self.xbtb.at(slot);
                    let follows = dir.as_taken() == taken;
                    let next = e.successor(taken);
                    if follows {
                        (next, false, false)
                    } else {
                        probe.emit(Event::Mispredict(MispredictKind::Cond));
                        (next, false, true)
                    }
                } else {
                    let pred = self.preds.dir.predict(xb_ip);
                    self.preds.dir.update(xb_ip, taken);
                    let e = self.xbtb.at_mut(slot);
                    e.bias.update(taken);
                    Self::refresh_promotion(&self.cfg, e, probe);
                    let next = self.xbtb.at(slot).successor(taken);
                    if pred == taken {
                        (next, true, false)
                    } else {
                        probe.emit(Event::Mispredict(MispredictKind::Cond));
                        (next, true, true)
                    }
                }
            }
            XbEndKind::Call => {
                let next = self.xbtb.at(slot).taken;
                self.xrsb.push(XrsbFrame { call_xb: xb_ip });
                (next, true, false)
            }
            XbEndKind::Return => {
                let frame = self.xrsb.pop();
                probe.note(|| Event::Lookup { what: LookupKind::Xrsb, hit: frame.is_some() });
                if let Some(f) = frame {
                    // The XB after the return will refresh the call entry's
                    // return-point pointer.
                    self.link_from = Some(LinkFrom::Slot { xb_ip: f.call_xb, taken: false });
                }
                let predicted =
                    frame.and_then(|f| self.xbtb.get_mut(f.call_xb).and_then(|e| e.not_taken));
                match (frame, predicted) {
                    (None, _) => self.ret_debug[0] += 1,
                    (Some(f), None) => {
                        if self.xbtb.get_mut(f.call_xb).is_none() {
                            self.ret_debug[1] += 1;
                        } else {
                            self.ret_debug[2] += 1;
                        }
                    }
                    (Some(_), Some(p)) if p.entry_ip != d_end.next_ip => self.ret_debug[3] += 1,
                    _ => {}
                }
                match predicted {
                    Some(p) if p.entry_ip == d_end.next_ip => {
                        // Consume the link (a dangling one would later be
                        // applied to an unrelated XB and corrupt the call
                        // entry's return pointer).
                        self.apply_link(p);
                        (Some(p), true, false)
                    }
                    _ => {
                        probe.emit(Event::Mispredict(MispredictKind::Target));
                        (None, true, true)
                    }
                }
            }
            XbEndKind::Indirect | XbEndKind::IndirectCall => {
                if kind == XbEndKind::IndirectCall {
                    self.xrsb.push(XrsbFrame { call_xb: xb_ip });
                }
                let history = self.preds.dir.history();
                let predicted = self.xibtb.predict(xb_ip, history);
                probe.note(|| Event::Lookup { what: LookupKind::Xibtb, hit: predicted.is_some() });
                self.link_from = Some(LinkFrom::Indirect { xb_ip, history });
                match predicted {
                    Some(p) if p.entry_ip == d_end.next_ip => {
                        // Refresh so repeated targets stay resident.
                        self.apply_link(p);
                        (Some(p), true, false)
                    }
                    _ => {
                        probe.emit(Event::Mispredict(MispredictKind::Target));
                        (None, true, true)
                    }
                }
            }
        }
    }

    /// The slot that feeds the successor pointer of `xb_ip` when its end
    /// resolves in direction `taken` (for set-search write-backs).
    fn successor_source(&mut self, xb_ip: Addr, taken: bool) -> Option<LinkFrom> {
        let slot = self.xbtb.probe_slot(xb_ip)?;
        self.successor_source_at(slot, xb_ip, taken)
    }

    /// [`XbcFrontend::successor_source`] for an already-probed slot.
    fn successor_source_at(&mut self, slot: u32, xb_ip: Addr, taken: bool) -> Option<LinkFrom> {
        let kind = self.xbtb.at(slot).kind;
        Some(match kind {
            XbEndKind::Cond => LinkFrom::Slot { xb_ip, taken },
            XbEndKind::Call | XbEndKind::Fall => LinkFrom::Slot { xb_ip, taken: true },
            XbEndKind::Return => {
                // The return pointer lives in the calling entry; the XRSB
                // frame knows which, but it is popped during resolution.
                // Healing is routed through link_from instead.
                return None;
            }
            XbEndKind::Indirect | XbEndKind::IndirectCall => {
                LinkFrom::Indirect { xb_ip, history: self.preds.dir.history() }
            }
        })
    }

    /// Side-effect-free successor peek used by the build→delivery switch
    /// check: the end effects (bias updates, XRSB frames, links) were
    /// already applied when the block was installed, so this only *reads*
    /// where delivery would go next.
    fn peek_successor(&mut self, xb_ip: Addr, d_end: &DynInst) -> Option<XbPtr> {
        let kind = self.xbtb.get_mut(xb_ip)?.kind;
        match kind {
            XbEndKind::Fall | XbEndKind::Call => self.xbtb.get_mut(xb_ip)?.taken,
            XbEndKind::Cond => self.xbtb.get_mut(xb_ip)?.successor(d_end.taken),
            XbEndKind::Return => {
                // The install loop already popped the frame into link_from.
                match self.link_from {
                    Some(LinkFrom::Slot { xb_ip: call_xb, taken: false }) => {
                        self.xbtb.get_mut(call_xb)?.not_taken
                    }
                    _ => None,
                }
            }
            XbEndKind::Indirect | XbEndKind::IndirectCall => match self.link_from {
                Some(LinkFrom::Indirect { xb_ip: src, history }) if src == xb_ip => {
                    self.xibtb.predict(src, history)
                }
                _ => None,
            },
        }
    }

    /// Resolves the end of a fully fetched XB: picks the successor pointer,
    /// schedules penalties / build switches, and reports whether fetch may
    /// chain on within this cycle.
    fn resolve_xb_end<S: EventSink>(
        &mut self,
        oracle: &OracleStream<'_>,
        window: usize,
        ptr: XbPtr,
        probe: &mut Probe<'_, S>,
    ) -> EndAction {
        let Some((d_end, _)) = oracle.window_end(window) else {
            // Trace ends inside this XB: nothing further to chain.
            self.cur = None;
            return EndAction::Stop;
        };
        let d_end = *d_end;
        if d_end.inst.ip != ptr.xb_ip {
            // The fetched window diverged from the committed path *inside*
            // the block. This only happens for merged combined blocks
            // (§3.8): the promoted conditional buried mid-window resolved
            // against its bias. Hardware discovers the divergence at
            // execute — a mis-fetch: flush, penalty, rebuild.
            probe.emit(Event::Mispredict(MispredictKind::Target));
            self.after_drain = Some(AfterDrain {
                penalty: self.cfg.timing.mispredict_penalty,
                build: Some(D2bCause::Misfetch),
            });
            self.cur = None;
            return EndAction::Stop;
        }

        // One probe covers every same-entry access below (allocation — the
        // only thing that can move entries — cannot happen mid-resolve).
        let slot = self.xbtb.probe_slot(ptr.xb_ip);
        let src = slot.and_then(|s| self.successor_source_at(s, ptr.xb_ip, d_end.taken));
        let (next, consumed, mispredicted) = self.select_successor(ptr.xb_ip, slot, &d_end, probe);

        let Some(slot) = slot else {
            // XBTB miss: must rebuild through the IC path (§3.5).
            self.after_drain = Some(AfterDrain { penalty: 0, build: Some(D2bCause::XbtbMiss) });
            self.cur = None;
            return EndAction::Stop;
        };

        if mispredicted {
            // Flush; recovery continues at `next` when the entry knows the
            // correct path (conditionals), otherwise through build mode.
            let penalty = self.cfg.timing.mispredict_penalty;
            match next {
                Some(p) if p.entry_ip == d_end.next_ip => {
                    self.after_drain = Some(AfterDrain { penalty, build: None });
                    self.cur = Some(p);
                    // Recovery goes down the resolved direction.
                    self.cur_src = Some(LinkFrom::Slot { xb_ip: ptr.xb_ip, taken: d_end.taken });
                }
                _ => {
                    // Remember the slot so the rebuilt successor heals it.
                    let cause = match self.xbtb.at(slot).kind {
                        XbEndKind::Cond | XbEndKind::Call | XbEndKind::Fall => {
                            if self.link_from.is_none() {
                                self.link_from =
                                    Some(LinkFrom::Slot { xb_ip: ptr.xb_ip, taken: d_end.taken });
                            }
                            D2bCause::NoPointer
                        }
                        XbEndKind::Return => D2bCause::Return,
                        XbEndKind::Indirect | XbEndKind::IndirectCall => D2bCause::Indirect,
                    };
                    self.after_drain = Some(AfterDrain { penalty, build: Some(cause) });
                    self.cur = None;
                }
            }
            return EndAction::Stop;
        }

        match next {
            Some(p) if p.entry_ip == d_end.next_ip => {
                // Consume a pending link that describes this very
                // transition (left over from an interrupted build pass).
                if let Some(LinkFrom::Slot { xb_ip, taken }) = self.link_from {
                    if xb_ip == ptr.xb_ip && taken == d_end.taken {
                        self.apply_link(p);
                    }
                }
                self.cur = Some(p);
                self.cur_src = src;
                EndAction::Continue { free: !consumed }
            }
            Some(_) => {
                // Stale pointer: the successor moved or was rebuilt under a
                // different identity — a mis-fetch (§3.5), penalized like a
                // misprediction, repaired through build mode.
                match self.xbtb.at(slot).kind {
                    XbEndKind::Cond => self.stale_debug[0] += 1,
                    XbEndKind::Call => self.stale_debug[1] += 1,
                    XbEndKind::Return => self.stale_debug[2] += 1,
                    XbEndKind::Indirect | XbEndKind::IndirectCall => self.stale_debug[3] += 1,
                    XbEndKind::Fall => self.stale_debug[4] += 1,
                }
                probe.emit(Event::Mispredict(MispredictKind::Target));
                self.link_from = Some(LinkFrom::Slot { xb_ip: ptr.xb_ip, taken: d_end.taken });
                self.after_drain = Some(AfterDrain {
                    penalty: self.cfg.timing.mispredict_penalty,
                    build: Some(D2bCause::StalePointer),
                });
                self.cur = None;
                EndAction::Stop
            }
            None => {
                // Pointer not yet recorded: switch to build, which will
                // fill the slot.
                if self.link_from.is_none() {
                    let kind = self.xbtb.at(slot).kind;
                    if let XbEndKind::Cond | XbEndKind::Call | XbEndKind::Fall = kind {
                        self.link_from =
                            Some(LinkFrom::Slot { xb_ip: ptr.xb_ip, taken: d_end.taken });
                    }
                }
                self.after_drain =
                    Some(AfterDrain { penalty: 0, build: Some(D2bCause::NoPointer) });
                self.cur = None;
                EndAction::Stop
            }
        }
    }

    /// Fetch stage: pulls up to `xbs_per_cycle` XBs (plus free promoted
    /// continuations) into the XBQ. Returns the uops accepted.
    ///
    /// All oracle windows are measured from the *drain* cursor, so queued
    /// (fetched-ahead) uops offset every window by `pending_uops`.
    fn fetch_into_queue<S: EventSink>(
        &mut self,
        oracle: &OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) -> usize {
        let budget = self.cfg.banks * self.cfg.line_uops;
        let base = self.pending_uops;
        let mut used = BankMask::EMPTY;
        let mut slots = self.cfg.xbs_per_cycle;
        let mut accepted = 0usize;
        // Promoted chains are bounded by the uop budget, but guard anyway.
        let mut guard = 0;
        while guard < 32 {
            guard += 1;
            let Some(ptr) = self.cur else {
                if self.after_drain.is_none() {
                    self.after_drain =
                        Some(AfterDrain { penalty: 0, build: Some(D2bCause::NoPointer) });
                }
                break;
            };
            if accepted + ptr.offset as usize > budget {
                if accepted == 0 {
                    // A pointer wider than the fetch network can never be
                    // honoured; rebuild through the IC path instead of
                    // retrying forever.
                    probe.emit(Event::StructureMiss);
                    self.after_drain =
                        Some(AfterDrain { penalty: 0, build: Some(D2bCause::ArrayMiss) });
                }
                break; // alignment network is full this cycle
            }
            // Merge-mode promotion: enter the combined block instead.
            if let Some(comb) = self.substitute_merged(ptr, base + accepted, oracle, probe) {
                if accepted + comb.offset as usize <= budget {
                    self.cur = Some(comb);
                    continue;
                }
            }
            match self.array.fetch_one(&ptr, &mut used) {
                XbFetch::Miss => {
                    if self.cfg.set_search {
                        let mut repaired = self
                            .array
                            .set_search(ptr.xb_ip, ptr.offset)
                            .map(|mask| XbPtr { mask, ..ptr });
                        // Only accept a repair the next lookup will hit
                        // (a mask-vs-lookup disagreement would spin).
                        if let Some(r) = repaired {
                            if self.array.lookup(&r).is_none() {
                                repaired = None;
                            }
                        }
                        probe.emit(Event::SetSearch { hit: repaired.is_some() });
                        if let Some(repaired) = repaired {
                            // Repaired: retry next cycle (one-cycle loss,
                            // §3.9), and write the fresh mask back to the
                            // slot the pointer came from so the search does
                            // not repeat on every visit.
                            self.cur = Some(repaired);
                            if let Some(src) = self.cur_src {
                                self.write_slot(src, repaired);
                            }
                            break;
                        }
                    }
                    probe.emit(Event::StructureMiss);
                    self.after_drain =
                        Some(AfterDrain { penalty: 0, build: Some(D2bCause::ArrayMiss) });
                    break;
                }
                XbFetch::Partial { fetched, deferred } => {
                    probe.emit(Event::BankConflict { deferred: u16::from(deferred) });
                    accepted += fetched as usize;
                    self.cur = Some(XbPtr { offset: deferred, ..ptr });
                    // A mid-XB continuation pointer must never be written
                    // back into a successor slot.
                    self.cur_src = None;
                    break;
                }
                XbFetch::Full => {
                    accepted += ptr.offset as usize;
                    match self.resolve_xb_end(oracle, base + accepted, ptr, probe) {
                        EndAction::Stop => break,
                        EndAction::Continue { free } => {
                            if !free {
                                slots -= 1;
                                if slots == 0 {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
        accepted
    }

    fn switch_to_build<S: EventSink>(&mut self, probe: &mut Probe<'_, S>, cause: D2bCause) {
        self.mode = Mode::Build;
        self.xfu.clear();
        self.engine.add_stall(std::mem::take(&mut self.stall));
        probe.emit(Event::SwitchToBuild(cause));
    }

    fn delivery_cycle<S: EventSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) {
        if self.stall > 0 {
            // Nothing happens while stalled: retire every outstanding
            // stall cycle in this one step (the per-cycle event stream is
            // unchanged; only the run-loop round-trips are saved).
            probe.emit_cycles(CycleKind::Stall, std::mem::take(&mut self.stall) as u64);
            return;
        }
        if self.pending_uops == 0 {
            if let Some(ad) = self.after_drain.take() {
                self.stall += ad.penalty;
                if let Some(cause) = ad.build {
                    self.switch_to_build(probe, cause);
                    // The transition consumes this cycle.
                    probe.emit(Event::Cycle(CycleKind::Stall));
                    return;
                }
                if self.stall > 0 {
                    probe.emit_cycles(CycleKind::Stall, std::mem::take(&mut self.stall) as u64);
                    return;
                }
            }
        }
        // Fetch stage. Without an XBQ (depth 0) a new group starts only on
        // an empty queue; with one, fetch runs ahead while there is room
        // for a full-width group and no flush/switch is pending.
        let fetch_width = self.cfg.banks * self.cfg.line_uops;
        let room = if self.cfg.xbq_depth == 0 {
            self.pending_uops == 0
        } else {
            // A queue shallower than one fetch group could otherwise never
            // accept anything; once empty it must take a group regardless
            // (degenerating to the undecoupled depth-0 pacing).
            self.pending_uops == 0 || self.pending_uops + fetch_width <= self.cfg.xbq_depth
        };
        if room && self.after_drain.is_none() && self.stall == 0 {
            let accepted = self.fetch_into_queue(oracle, probe);
            self.pending_uops += accepted;
        }
        if self.pending_uops == 0 {
            // Nothing queued and nothing fetched: a set-search retry or a
            // miss-triggered transition; either way the cycle is lost.
            if let Some(ad) = self.after_drain.take() {
                self.stall += ad.penalty;
                if let Some(cause) = ad.build {
                    self.switch_to_build(probe, cause);
                }
            }
            probe.emit(Event::Cycle(CycleKind::Stall));
            return;
        }
        // Drain through the renamer.
        let budget = self.cfg.timing.renamer_width.min(self.pending_uops);
        let mut delivered = 0usize;
        while delivered < budget {
            let n = oracle.take_uops(budget - delivered);
            if n == 0 {
                // Trace exhausted mid-queue.
                self.pending_uops = delivered;
                break;
            }
            delivered += n;
        }
        self.pending_uops -= delivered;
        if delivered > 0 {
            probe.emit(Event::Uops {
                src: UopSource::Structure,
                n: xbc_obs::saturate_u16(delivered),
            });
        }
        probe.emit(Event::Cycle(CycleKind::Delivery));
    }

    fn build_cycle<S: EventSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) {
        let cycle_kind = self.engine.cycle(oracle, &mut self.preds, probe, &mut self.xfu);
        if cycle_kind == CycleKind::Stall {
            // A stall cycle delivers nothing and builds nothing, so the
            // remaining stall cycles are all identical: retire them in one
            // step instead of one run-loop round-trip each. The event
            // stream (one `Cycle(Stall)` per cycle) is unchanged.
            probe.emit_cycles(CycleKind::Stall, self.engine.take_stall() + 1);
            return;
        }
        let built = self.xfu.take_done();
        let mut last: Option<(XbPtr, InstallKind, DynInst)> = None;
        for b in &built {
            let avoid = if self.cfg.smart_placement { self.last_mask } else { BankMask::EMPTY };
            let evicted_before = self.array.stats().evicted_lines;
            let (ptr, kind) = install_with(b, &mut self.array, avoid, &mut self.install_scratch);
            probe.note(|| Event::Fill {
                kind: match kind {
                    InstallKind::Fresh => FillKind::Fresh,
                    InstallKind::Contained => FillKind::Contained,
                    InstallKind::Extended => FillKind::Extended,
                    InstallKind::Complex => FillKind::Complex,
                },
                uops: xbc_obs::saturate_u16(b.uop_count()),
                banks: ptr.mask.count() as u8,
            });
            let evicted = self.array.stats().evicted_lines - evicted_before;
            if evicted > 0 {
                probe.note(|| Event::Eviction { lines: xbc_obs::saturate_u16(evicted as usize) });
            }
            probe.note(|| Event::Occupancy {
                lines: self.array.valid_lines() as u32,
                uops: self.array.stored_uops() as u32,
            });
            self.last_mask = ptr.mask;
            let end = *b.end();
            let end_kind = XbEndKind::from_branch(end.inst.branch);
            self.xbtb.allocate(ptr.xb_ip, end_kind);
            // Heal the predecessor's pointer.
            self.apply_link(ptr);
            // End-of-XB bookkeeping. Branch *predictor* updates already
            // happened inside the build engine; here only XBTB-side state
            // moves: bias counters, XRSB frames, the successor link slot.
            match end_kind {
                XbEndKind::Cond => {
                    let e = self.xbtb.get_mut(ptr.xb_ip).expect("allocated");
                    e.bias.update(end.taken);
                    Self::refresh_promotion(&self.cfg, e, probe);
                    self.link_from = Some(LinkFrom::Slot { xb_ip: ptr.xb_ip, taken: end.taken });
                }
                XbEndKind::Call => {
                    self.xrsb.push(XrsbFrame { call_xb: ptr.xb_ip });
                    self.link_from = Some(LinkFrom::Slot { xb_ip: ptr.xb_ip, taken: true });
                }
                XbEndKind::Return => {
                    self.link_from =
                        self.xrsb.pop().map(|f| LinkFrom::Slot { xb_ip: f.call_xb, taken: false });
                }
                XbEndKind::Indirect | XbEndKind::IndirectCall => {
                    if end_kind == XbEndKind::IndirectCall {
                        self.xrsb.push(XrsbFrame { call_xb: ptr.xb_ip });
                    }
                    self.link_from = Some(LinkFrom::Indirect {
                        xb_ip: ptr.xb_ip,
                        history: self.preds.dir.history(),
                    });
                }
                XbEndKind::Fall => {
                    self.link_from = Some(LinkFrom::Slot { xb_ip: ptr.xb_ip, taken: true });
                }
            }
            last = Some((ptr, kind, end));
            let (set, _) = self.array.set_and_tag(ptr.xb_ip);
            self.audit_after_install(set);
        }
        self.xfu.recycle(built);
        // Switch check (§3.5): delivery resumes when the block just built
        // was already cached (XBC hit) and the XBTB can point onward.
        if let Some((ptr, InstallKind::Contained, end)) = last {
            if !oracle.done() && oracle.uop_offset() == 0 {
                if let Some(p) = self.peek_successor(ptr.xb_ip, &end) {
                    if p.entry_ip == oracle.fetch_ip() {
                        // The stored mask may be stale (the successor's lines
                        // were re-placed); set search repairs it (§3.9).
                        let repaired = if self.array.lookup(&p).is_some() {
                            Some(p)
                        } else if self.cfg.set_search {
                            let r = self
                                .array
                                .set_search(p.xb_ip, p.offset)
                                .map(|mask| XbPtr { mask, ..p });
                            probe.emit(Event::SetSearch { hit: r.is_some() });
                            r
                        } else {
                            None
                        };
                        if let Some(p) = repaired {
                            self.mode = Mode::Delivery;
                            self.cur_src = self.successor_source(ptr.xb_ip, end.taken);
                            if let Some(src) = self.cur_src {
                                self.write_slot(src, p);
                            }
                            // The pending link described exactly this
                            // transition; left dangling it would later be
                            // applied to an unrelated XB and corrupt a slot.
                            self.link_from = None;
                            self.cur = Some(p);
                            self.pending_uops = 0;
                            self.after_drain = None;
                            self.stall += self.engine.take_stall();
                            self.xfu.clear();
                            probe.emit(Event::SwitchToDelivery);
                        }
                    }
                }
            }
        }
        probe.emit(Event::Cycle(cycle_kind));
    }

    fn step_probe<S: EventSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) {
        match self.mode {
            Mode::Build => self.build_cycle(oracle, probe),
            Mode::Delivery => self.delivery_cycle(oracle, probe),
        }
    }
}

impl Frontend for XbcFrontend {
    fn name(&self) -> &str {
        "xbc"
    }

    fn step(&mut self, oracle: &mut OracleStream<'_>, metrics: &mut FrontendMetrics) {
        self.step_probe(oracle, &mut Probe::untraced(metrics));
    }

    fn step_traced(
        &mut self,
        oracle: &mut OracleStream<'_>,
        metrics: &mut FrontendMetrics,
        sink: &mut dyn EventSink,
    ) {
        self.step_probe(oracle, &mut Probe::traced(metrics, sink));
    }

    fn mode_label(&self) -> &'static str {
        match self.mode {
            Mode::Build => "build",
            Mode::Delivery => "delivery",
        }
    }

    fn state_brief(&self) -> String {
        format!(
            "mode={:?} cur={:?} pending={} stall={} after={:?}",
            self.mode, self.cur, self.pending_uops, self.stall, self.after_drain
        )
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.audit_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_isa::{BranchKind, Inst};
    use xbc_workload::{standard_traces, CondBehavior, ProgramBuilder, Trace};

    fn small() -> XbcConfig {
        XbcConfig { total_uops: 4096, ..XbcConfig::default() }
    }

    /// A hot loop with a monotonic branch: everything should come from the
    /// XBC after one build pass, and the loop branch should get promoted.
    fn loop_trace(n: usize) -> Trace {
        let mut b = ProgramBuilder::new();
        for i in 0..6u64 {
            b.push(Inst::plain(Addr::new(0x100 + i), 1, 2));
        }
        b.push_cond(
            Inst::new(Addr::new(0x106), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x100))),
            CondBehavior::Bernoulli { p_taken: 1.0 },
        );
        b.push(Inst::new(Addr::new(0x108), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x100), 1);
        Trace::capture("loop", &p, 0, n)
    }

    #[test]
    fn hot_loop_served_from_xbc() {
        let t = loop_trace(4000);
        let mut fe = XbcFrontend::new(small());
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert!(m.uop_miss_rate() < 0.05, "miss rate {}", m.uop_miss_rate());
        assert!(m.delivery_bandwidth() > 4.0, "bandwidth {}", m.delivery_bandwidth());
    }

    #[test]
    fn promotion_fires_on_monotonic_loop() {
        let t = loop_trace(4000);
        let mut fe = XbcFrontend::new(small());
        let m = fe.run(&t);
        assert!(m.promotions >= 1, "the 100%-taken loop branch must promote");
    }

    #[test]
    fn promotion_off_means_no_promotions() {
        let t = loop_trace(4000);
        let mut fe = XbcFrontend::new(XbcConfig { promotion: PromotionMode::Off, ..small() });
        let m = fe.run(&t);
        assert_eq!(m.promotions, 0);
    }

    #[test]
    fn delivers_whole_trace() {
        let t = standard_traces()[0].capture(30_000);
        let mut fe = XbcFrontend::new(XbcConfig::default());
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert_eq!(m.cycles, m.build_cycles + m.delivery_cycles + m.stall_cycles);
    }

    #[test]
    fn no_redundancy_invariant_on_real_workload() {
        let t = standard_traces()[0].capture(50_000);
        let mut fe = XbcFrontend::new(XbcConfig::default());
        fe.run(&t);
        let (total, distinct) = fe.array().redundancy();
        // Complex-XB split lines may duplicate a few uops; anything beyond
        // a couple of percent means the build algorithm is broken.
        let dup = total - distinct;
        assert!(
            (dup as f64) < 0.05 * total as f64,
            "redundancy too high: {dup} duplicated of {total}"
        );
    }

    #[test]
    fn xbc_beats_tc_miss_rate_at_equal_size() {
        use xbc_frontend::{TcConfig, TraceCacheFrontend};
        let t = standard_traces()[8].capture(120_000); // sysmark-like
        let size = 8192;
        let mut xbc = XbcFrontend::new(XbcConfig { total_uops: size, ..XbcConfig::default() });
        let mut tc = TraceCacheFrontend::new(TcConfig { total_uops: size, ..TcConfig::default() });
        let mx = xbc.run(&t);
        let mt = tc.run(&t);
        assert!(
            mx.uop_miss_rate() < mt.uop_miss_rate(),
            "XBC {} vs TC {}",
            mx.uop_miss_rate(),
            mt.uop_miss_rate()
        );
    }

    #[test]
    fn smaller_xbc_misses_more() {
        let t = standard_traces()[8].capture(60_000);
        let mut big = XbcFrontend::new(XbcConfig { total_uops: 65536, ..XbcConfig::default() });
        let mut small = XbcFrontend::new(XbcConfig { total_uops: 2048, ..XbcConfig::default() });
        let mb = big.run(&t);
        let ms = small.run(&t);
        assert!(ms.uop_miss_rate() > mb.uop_miss_rate());
    }

    #[test]
    fn set_search_disabled_still_correct() {
        let t = standard_traces()[0].capture(30_000);
        let mut fe = XbcFrontend::new(XbcConfig { set_search: false, ..small() });
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert_eq!(m.set_searches, 0);
    }

    #[test]
    fn merge_mode_correct_and_promotes() {
        let t = loop_trace(4000);
        let mut fe = XbcFrontend::new(XbcConfig { promotion: PromotionMode::Merge, ..small() });
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert!(m.promotions >= 1);
        assert!(m.uop_miss_rate() < 0.1, "miss {}", m.uop_miss_rate());
    }

    #[test]
    fn merge_mode_duplicates_bounded_on_real_workload() {
        // Merging copies XB0 into the combined block: duplication rises
        // above the complex-split baseline but must stay moderate.
        let t = standard_traces()[0].capture(60_000);
        let mut fe =
            XbcFrontend::new(XbcConfig { promotion: PromotionMode::Merge, ..XbcConfig::default() });
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        let (stored, distinct) = fe.array().redundancy();
        let dup = (stored - distinct) as f64 / stored.max(1) as f64;
        assert!(dup < 0.25, "merge duplication out of band: {:.1}%", 100.0 * dup);
    }

    /// A two-sided branch whose not-taken arm appears only after warm-up:
    /// the first NT occurrence must heal the pointer through build mode,
    /// and later NT occurrences must recover *within* delivery via the
    /// entry's other pointer (the XBC's §3.5 advantage).
    #[test]
    fn cond_mispredict_recovers_in_delivery() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::plain(Addr::new(0x100), 1, 2));
        b.push_cond(
            Inst::new(Addr::new(0x101), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x100))),
            CondBehavior::Bernoulli { p_taken: 0.9 },
        );
        b.push(Inst::plain(Addr::new(0x103), 1, 2));
        b.push(Inst::new(Addr::new(0x104), 2, 1, BranchKind::UncondDirect, Some(Addr::new(0x100))));
        let p = b.build(Addr::new(0x100), 1);
        let t = Trace::capture("two-sided", &p, 3, 20_000);
        let mut fe = XbcFrontend::new(small());
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        // ~10% of ~6700 branch executions mispredict, but almost none of
        // them should force a rebuild once both pointers exist.
        assert!(m.cond_mispredicts > 100, "mispredicts {}", m.cond_mispredicts);
        assert!(
            m.delivery_to_build < m.cond_mispredicts / 5,
            "only a fraction of mispredicts may leave delivery: {} vs {}",
            m.delivery_to_build,
            m.cond_mispredicts
        );
        assert!(m.uop_miss_rate() < 0.05, "miss {}", m.uop_miss_rate());
    }

    /// Two 16-uop XBs cannot fetch in one cycle of a 4-bank array: the
    /// second defers, showing up as bank-conflict uops, and everything
    /// still delivers correctly.
    #[test]
    fn bank_conflicts_defer_but_stay_correct() {
        let mut b = ProgramBuilder::new();
        // Two max-length straight-line blocks in a tight loop.
        for i in 0..4u64 {
            b.push(Inst::plain(Addr::new(0x100 + i), 1, 4));
        }
        b.push_cond(
            Inst::new(Addr::new(0x104), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x200))),
            CondBehavior::Bernoulli { p_taken: 1.0 },
        );
        for i in 0..4u64 {
            b.push(Inst::plain(Addr::new(0x200 + i), 1, 4));
        }
        b.push_cond(
            Inst::new(Addr::new(0x204), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x100))),
            CondBehavior::Bernoulli { p_taken: 1.0 },
        );
        b.push(Inst::new(Addr::new(0x206), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x100), 1);
        let t = Trace::capture("wide", &p, 0, 4_000);
        let mut fe = XbcFrontend::new(small());
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert!(m.uop_miss_rate() < 0.05);
        // Each loop body is 17+16 uops of XBs; conflicts are expected but
        // bounded — and bandwidth should still approach the renamer width.
        assert!(m.delivery_bandwidth() > 5.0, "bw {}", m.delivery_bandwidth());
    }

    #[test]
    fn xbs_per_cycle_one_reduces_bandwidth() {
        let t = standard_traces()[0].capture(60_000);
        let mut one = XbcFrontend::new(XbcConfig { xbs_per_cycle: 1, ..XbcConfig::default() });
        let mut two = XbcFrontend::new(XbcConfig::default());
        let m1 = one.run(&t);
        let m2 = two.run(&t);
        assert!(
            m1.delivery_bandwidth() < m2.delivery_bandwidth(),
            "1 XB/cycle {} vs 2 XBs/cycle {}",
            m1.delivery_bandwidth(),
            m2.delivery_bandwidth()
        );
    }

    #[test]
    fn all_promotion_modes_deliver_identical_uop_totals() {
        let t = standard_traces()[16].capture(40_000);
        for mode in [PromotionMode::Off, PromotionMode::Chain, PromotionMode::Merge] {
            let mut fe = XbcFrontend::new(XbcConfig { promotion: mode, ..XbcConfig::default() });
            let m = fe.run(&t);
            assert_eq!(m.total_uops(), t.uop_count(), "mode {mode}");
        }
    }
}
