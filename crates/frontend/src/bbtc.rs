//! Block-based trace cache frontend (paper §2.4, after Black/Rychlik/Shen
//! ISCA'99).
//!
//! The BBTC splits the trace cache into two structures:
//!
//! * a **block cache** of decoded basic blocks, indexed by block start IP
//!   (one copy per block — like the XBC it removes *instruction*
//!   redundancy), and
//! * a **trace table** of block-pointer sequences, indexed by the first
//!   block's IP (redundancy moves to the pointers).
//!
//! As the paper notes, this trades the TC's instruction redundancy for
//! *pointer* redundancy and **more fragmentation**: blocks are stored at a
//! finer granularity, so a short block still burns a whole fixed-size
//! block-cache entry.

use crate::build::{BuildEngine, FillSink, Predictors, TimingConfig};
use crate::frontend::Frontend;
use crate::metrics::FrontendMetrics;
use crate::oracle::OracleStream;
use crate::probe::Probe;
use xbc_isa::{Addr, BranchKind};
use xbc_obs::{CycleKind, D2bCause, Event, EventSink, MispredictKind, UopSource};
use xbc_predict::{BtbConfig, GshareConfig};
use xbc_uarch::{check_capacity, DecoderConfig, ICacheConfig, SetAssoc};
use xbc_workload::DynInst;

/// Configuration of a [`BbtcFrontend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BbtcConfig {
    /// Block-cache capacity in uop slots. Each entry reserves
    /// `block_uops` slots (fragmentation is real).
    pub total_uops: usize,
    /// Uop slots per block-cache entry.
    pub block_uops: usize,
    /// Block-cache associativity.
    pub block_ways: usize,
    /// Trace-table entries (sequences of block pointers).
    pub trace_entries: usize,
    /// Trace-table associativity.
    pub trace_ways: usize,
    /// Block pointers per trace-table entry.
    pub blocks_per_trace: usize,
    /// Build-path instruction cache.
    pub icache: ICacheConfig,
    /// Build-path BTB.
    pub btb: BtbConfig,
    /// Build-path decoder.
    pub decoder: DecoderConfig,
    /// Timing constants.
    pub timing: TimingConfig,
    /// Conditional predictor.
    pub gshare: GshareConfig,
}

impl Default for BbtcConfig {
    /// A 32K-uop block cache (4-way, 8-uop entries) with a 4K-entry trace
    /// table of 4-block pointer sequences — the Blac99-class design
    /// point at the paper's headline budget.
    fn default() -> Self {
        BbtcConfig {
            total_uops: 32 * 1024,
            block_uops: 8,
            block_ways: 4,
            trace_entries: 4096,
            trace_ways: 4,
            blocks_per_trace: 4,
            icache: ICacheConfig::default(),
            btb: BtbConfig::default(),
            decoder: DecoderConfig::default(),
            timing: TimingConfig::default(),
            gshare: GshareConfig::default(),
        }
    }
}

impl BbtcConfig {
    /// Block-cache sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry.
    pub fn block_sets(&self) -> usize {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self.total_uops / self.block_uops / self.block_ways
    }

    /// Trace-table sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry.
    pub fn trace_sets(&self) -> usize {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self.trace_entries / self.trace_ways
    }

    /// Checks the geometry [`BbtcConfig::block_sets`] and
    /// [`BbtcConfig::trace_sets`] assert.
    ///
    /// # Errors
    ///
    /// Returns a message naming the inconsistency.
    pub fn check(&self) -> Result<(), String> {
        check_capacity(self.total_uops)?;
        let entries = self.total_uops.checked_div(self.block_uops).unwrap_or(0);
        if entries == 0 || self.block_ways == 0 || !entries.is_multiple_of(self.block_ways) {
            return Err(format!(
                "block-cache capacity ({} uops in {}-uop blocks) must divide into {} ways",
                self.total_uops, self.block_uops, self.block_ways
            ));
        }
        if self.trace_ways == 0 || !self.trace_entries.is_multiple_of(self.trace_ways) {
            return Err(format!(
                "trace table ({} entries) must divide into {} ways",
                self.trace_entries, self.trace_ways
            ));
        }
        Ok(())
    }
}

/// One decoded basic block in the block cache: the committed instructions
/// from its start up to (and including) its ending branch, capped at
/// `block_uops`.
#[derive(Clone, Debug)]
struct Block {
    insts: Vec<DynInst>,
    uops: usize,
}

/// One trace-table entry: the start IPs of up to `blocks_per_trace`
/// consecutive blocks, with the embedded conditional direction taken when
/// the trace was built.
#[derive(Clone, Debug)]
struct TracePtrs {
    blocks: Vec<Addr>,
}

/// Fill unit: forms basic blocks and block-pointer traces.
#[derive(Clone, Debug)]
struct BbtcFill {
    block_uops: usize,
    blocks_per_trace: usize,
    cur: Vec<DynInst>,
    cur_uops: usize,
    /// Completed blocks awaiting installation.
    done_blocks: Vec<Block>,
    /// Start IPs of blocks accumulated toward the current trace.
    trace_acc: Vec<Addr>,
    /// Completed traces awaiting installation.
    done_traces: Vec<TracePtrs>,
}

impl BbtcFill {
    fn new(block_uops: usize, blocks_per_trace: usize) -> Self {
        BbtcFill {
            block_uops,
            blocks_per_trace,
            cur: Vec::new(),
            cur_uops: 0,
            done_blocks: Vec::new(),
            trace_acc: Vec::new(),
            done_traces: Vec::new(),
        }
    }

    fn finalize_block(&mut self, ends_trace: bool) {
        if self.cur.is_empty() {
            return;
        }
        let start = self.cur[0].inst.ip;
        self.done_blocks.push(Block { insts: std::mem::take(&mut self.cur), uops: self.cur_uops });
        self.cur_uops = 0;
        self.trace_acc.push(start);
        if self.trace_acc.len() >= self.blocks_per_trace || ends_trace {
            self.done_traces.push(TracePtrs { blocks: std::mem::take(&mut self.trace_acc) });
        }
    }

    fn clear(&mut self) {
        self.cur.clear();
        self.cur_uops = 0;
        self.done_blocks.clear();
        self.trace_acc.clear();
        self.done_traces.clear();
    }
}

impl FillSink for BbtcFill {
    fn observe(&mut self, d: &DynInst) {
        if self.cur_uops + d.inst.uops as usize > self.block_uops {
            self.finalize_block(false);
        }
        self.cur.push(*d);
        self.cur_uops += d.inst.uops as usize;
        if d.inst.branch.ends_basic_block() {
            // Indirect transfers end the whole trace (next block unknown
            // from the pointer sequence).
            let ends_trace = d.inst.branch.is_indirect();
            self.finalize_block(ends_trace);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Build,
    Delivery,
}

/// The block-based trace cache frontend.
///
/// # Examples
///
/// ```
/// use xbc_frontend::{BbtcConfig, BbtcFrontend, Frontend};
/// use xbc_workload::standard_traces;
///
/// let trace = standard_traces()[0].capture(20_000);
/// let mut fe = BbtcFrontend::new(BbtcConfig::default());
/// let m = fe.run(&trace);
/// assert!(m.structure_uops > 0);
/// ```
#[derive(Clone, Debug)]
pub struct BbtcFrontend {
    cfg: BbtcConfig,
    blocks: SetAssoc<Block>,
    traces: SetAssoc<TracePtrs>,
    engine: BuildEngine,
    preds: Predictors,
    fill: BbtcFill,
    mode: Mode,
    pending_uops: usize,
    pending_resteer: Option<u64>,
    stall: u64,
}

impl BbtcFrontend {
    /// Creates a cold BBTC frontend.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry.
    pub fn new(cfg: BbtcConfig) -> Self {
        BbtcFrontend {
            blocks: SetAssoc::new(cfg.block_sets(), cfg.block_ways),
            traces: SetAssoc::new(cfg.trace_sets(), cfg.trace_ways),
            engine: BuildEngine::new(cfg.icache, cfg.btb, cfg.decoder, cfg.timing),
            preds: Predictors::new(cfg.gshare),
            fill: BbtcFill::new(cfg.block_uops, cfg.blocks_per_trace),
            mode: Mode::Build,
            pending_uops: 0,
            pending_resteer: None,
            stall: 0,
            cfg,
        }
    }

    /// Number of blocks resident in the block cache.
    pub fn blocks_cached(&self) -> usize {
        self.blocks.len()
    }

    /// Number of pointer traces resident in the trace table.
    pub fn traces_cached(&self) -> usize {
        self.traces.len()
    }

    fn block_slot(&self, ip: Addr) -> (usize, u64) {
        self.blocks.split(ip.raw())
    }

    fn trace_slot(&self, ip: Addr) -> (usize, u64) {
        self.traces.split(ip.raw())
    }

    /// Walks the pointed-to blocks against the oracle, mirroring the TC
    /// walk but going through the block cache for every pointer.
    ///
    /// An associated fn over disjoint fields so the caller can keep the
    /// `TracePtrs` borrowed from the trace table while the walk touches
    /// the block cache and predictors — blocks are read in place via
    /// index handles instead of being cloned per pointer.
    ///
    /// Returns `(accepted uops, resteer penalty, leading-block miss,
    /// mispredict kind)` — the walk does no accounting itself; the
    /// caller emits the events (and thereby the counter bumps).
    fn walk(
        blocks: &mut SetAssoc<Block>,
        preds: &mut Predictors,
        timing: &TimingConfig,
        ptrs: &TracePtrs,
        oracle: &OracleStream<'_>,
    ) -> (usize, Option<u64>, bool, Option<MispredictKind>) {
        let mut accepted = 0usize;
        let mut j = 0usize; // oracle lookahead in instructions
        for (bi, &start) in ptrs.blocks.iter().enumerate() {
            // The leading block was verified by the trace-table lookup;
            // later blocks may have been evicted from the block cache.
            let (set, tag) = blocks.split(start.raw());
            let Some(idx) = blocks.get_index(set, tag) else {
                return (accepted, None, bi == 0, None);
            };
            let block = blocks.data_at(idx);
            // Validate the pointer against the committed path.
            match oracle.peek(j) {
                Some(od) if od.inst.ip == start => {}
                _ => return (accepted, None, false, None),
            }
            for td in &block.insts {
                let Some(od) = oracle.peek(j) else { return (accepted, None, false, None) };
                if td.inst.ip != od.inst.ip {
                    return (accepted, None, false, None);
                }
                accepted += td.inst.uops as usize;
                j += 1;
                let ip = td.inst.ip;
                match td.inst.branch {
                    BranchKind::None => {}
                    BranchKind::UncondDirect => {}
                    BranchKind::CallDirect => preds.rsb.push(td.inst.next_seq()),
                    BranchKind::CondDirect => {
                        let pred = preds.dir.predict(ip);
                        let correct = pred == od.taken;
                        preds.dir.update(ip, od.taken);
                        if !correct {
                            return (
                                accepted,
                                Some(timing.mispredict_penalty),
                                false,
                                Some(MispredictKind::Cond),
                            );
                        }
                        if pred != td.taken {
                            // Correctly predicted off the embedded path.
                            return (accepted, None, false, None);
                        }
                    }
                    BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        let hist = preds.dir.history();
                        let pred = preds.indirect.predict(ip, hist);
                        preds.indirect.update(ip, hist, od.next_ip);
                        if td.inst.branch == BranchKind::IndirectCall {
                            preds.rsb.push(td.inst.next_seq());
                        }
                        if pred != Some(od.next_ip) {
                            return (
                                accepted,
                                Some(timing.mispredict_penalty),
                                false,
                                Some(MispredictKind::Target),
                            );
                        }
                        return (accepted, None, false, None);
                    }
                    BranchKind::Return => {
                        let pred = preds.rsb.pop();
                        if pred != Some(od.next_ip) {
                            return (
                                accepted,
                                Some(timing.mispredict_penalty),
                                false,
                                Some(MispredictKind::Target),
                            );
                        }
                        return (accepted, None, false, None);
                    }
                }
            }
        }
        (accepted, None, false, None)
    }

    fn delivery_cycle<S: EventSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) {
        if self.stall > 0 {
            probe.emit_cycles(CycleKind::Stall, std::mem::take(&mut self.stall));
            return;
        }
        if self.pending_uops == 0 {
            let ip = oracle.fetch_ip();
            let (set, tag) = self.trace_slot(ip);
            let Some(idx) = self.traces.get_index(set, tag) else {
                probe.emit(Event::StructureMiss);
                probe.emit(Event::SwitchToBuild(D2bCause::StructureMiss));
                self.mode = Mode::Build;
                self.fill.clear();
                probe.emit(Event::Cycle(CycleKind::Stall));
                return;
            };
            let ptrs = self.traces.data_at(idx);
            let (accepted, resteer, leading_miss, mispredict) =
                Self::walk(&mut self.blocks, &mut self.preds, &self.cfg.timing, ptrs, oracle);
            if leading_miss {
                probe.emit(Event::StructureMiss);
            }
            if let Some(kind) = mispredict {
                probe.emit(Event::Mispredict(kind));
            }
            if accepted == 0 {
                // Leading block evicted from the block cache.
                probe.emit(Event::SwitchToBuild(D2bCause::StructureMiss));
                self.mode = Mode::Build;
                self.fill.clear();
                probe.emit(Event::Cycle(CycleKind::Stall));
                return;
            }
            self.pending_uops = accepted;
            self.pending_resteer = resteer;
        }
        let budget = self.cfg.timing.renamer_width.min(self.pending_uops);
        let delivered = oracle.drain_uops(budget);
        self.pending_uops = if delivered < budget { 0 } else { self.pending_uops - delivered };
        if delivered > 0 {
            probe.emit(Event::Uops {
                src: UopSource::Structure,
                n: xbc_obs::saturate_u16(delivered),
            });
        }
        probe.emit(Event::Cycle(CycleKind::Delivery));
        if self.pending_uops == 0 {
            if let Some(p) = self.pending_resteer.take() {
                self.stall += p;
            }
        }
    }

    fn build_cycle<S: EventSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) {
        let kind = self.engine.cycle(oracle, &mut self.preds, probe, &mut self.fill);
        if kind == CycleKind::Stall {
            // A stall cycle delivers and builds nothing, so every
            // remaining stall cycle is identical: retire them all in this
            // step (a recording sink still sees one `Cycle(Stall)` each).
            debug_assert!(self.fill.done_blocks.is_empty(), "a stall cycle completes no block");
            probe.emit_cycles(CycleKind::Stall, self.engine.take_stall() + 1);
            return;
        }
        for block in std::mem::take(&mut self.fill.done_blocks) {
            let (set, tag) = self.block_slot(block.insts[0].inst.ip);
            // One copy per block start: same-tag insertion replaces.
            self.blocks.insert(set, tag, block);
        }
        let built_any = !self.fill.done_traces.is_empty();
        for t in std::mem::take(&mut self.fill.done_traces) {
            let (set, tag) = self.trace_slot(t.blocks[0]);
            self.traces.insert(set, tag, t);
        }
        if built_any && !oracle.done() && oracle.uop_offset() == 0 {
            let (set, tag) = self.trace_slot(oracle.fetch_ip());
            if self.traces.probe(set, tag).is_some() {
                self.mode = Mode::Delivery;
                self.fill.clear();
                probe.emit(Event::SwitchToDelivery);
            }
        }
        probe.emit(Event::Cycle(kind));
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

    /// Redundancy audit of the *block cache*: `(stored uop slots used,
    /// distinct uop identities)`. The BBTC shares blocks, so like the XBC
    /// these should be equal; its cost is fragmentation instead.
    pub fn block_redundancy(&self) -> (usize, usize) {
        let mut ids = std::collections::HashSet::new();
        let mut total = 0usize;
        for set in 0..self.blocks.sets() {
            for (_, b) in self.blocks.set_entries(set) {
                total += b.uops;
                for d in &b.insts {
                    for slot in 0..d.inst.uops {
                        ids.insert((d.inst.ip, slot));
                    }
                }
            }
        }
        (total, ids.len())
    }
}

impl Frontend for BbtcFrontend {
    fn name(&self) -> &str {
        "bbtc"
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_isa::Inst;
    use xbc_workload::{standard_traces, CondBehavior, ProgramBuilder, Trace};

    #[test]
    fn geometry() {
        let cfg = BbtcConfig::default();
        assert_eq!(cfg.block_sets(), 1024); // 32K/8 = 4K entries, 4-way
        assert_eq!(cfg.trace_sets(), 1024);
    }

    #[test]
    fn delivers_whole_trace() {
        let t = standard_traces()[0].capture(30_000);
        let mut fe = BbtcFrontend::new(BbtcConfig::default());
        let m = fe.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert_eq!(m.cycles, m.build_cycles + m.delivery_cycles + m.stall_cycles);
    }

    #[test]
    fn hot_loop_served_from_bbtc() {
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
        let t = Trace::capture("loop", &p, 0, 4_000);
        let mut fe = BbtcFrontend::new(BbtcConfig { total_uops: 4096, ..Default::default() });
        let m = fe.run(&t);
        assert!(m.uop_miss_rate() < 0.05, "miss {}", m.uop_miss_rate());
        assert!(m.delivery_bandwidth() > 4.0);
    }

    #[test]
    fn blocks_are_shared_across_traces() {
        // Two paths joining at a common tail: the tail block must be
        // stored once even though two pointer traces reference it.
        let t = standard_traces()[8].capture(60_000);
        let mut fe = BbtcFrontend::new(BbtcConfig::default());
        fe.run(&t);
        let (stored, distinct) = fe.block_redundancy();
        // Block identities are start-IP keyed, so one copy per block; the
        // residual overlap comes from quota-split boundaries shifting with
        // the entry point (post-resteer / post-interrupt), which re-slices
        // a few straight-line regions. Far below the TC's per-trace copies.
        let dup = (stored - distinct) as f64 / stored.max(1) as f64;
        assert!(dup < 0.05, "block overlap {:.2}% out of band", 100.0 * dup);
        assert!(fe.traces_cached() > 0 && fe.blocks_cached() > 0);
    }

    #[test]
    fn fill_unit_block_boundaries() {
        let mut fill = BbtcFill::new(8, 4);
        let mk = |ip: u64, uops: u8, br: BranchKind| DynInst {
            inst: match br {
                BranchKind::None => Inst::plain(Addr::new(ip), 1, uops),
                BranchKind::UncondDirect => {
                    Inst::new(Addr::new(ip), 1, uops, br, Some(Addr::new(0x99)))
                }
                _ => Inst::new(Addr::new(ip), 1, uops, br, None),
            },
            taken: false,
            next_ip: Addr::new(ip + 1),
        };
        // An unconditional jump ends a *block* here (unlike an XB).
        fill.observe(&mk(0x10, 2, BranchKind::None));
        fill.observe(&mk(0x11, 1, BranchKind::UncondDirect));
        assert_eq!(fill.done_blocks.len(), 1);
        // Quota split at 8 uops.
        for i in 0..3 {
            fill.observe(&mk(0x20 + i, 4, BranchKind::None));
        }
        assert_eq!(fill.done_blocks.len(), 2);
        assert_eq!(fill.done_blocks[1].uops, 8);
        // An indirect ends the pointer trace immediately.
        fill.observe(&mk(0x30, 1, BranchKind::Return));
        assert_eq!(fill.done_traces.len(), 1);
    }

    #[test]
    fn intermediate_vs_tc_on_redundant_workload_at_small_budget() {
        use crate::tc::{TcConfig, TraceCacheFrontend};
        // The §2.4 positioning: the BBTC removes instruction redundancy but
        // adds fragmentation and pointer indirection. Its win shows where
        // capacity pressure is highest — at small budgets on fan-in-heavy
        // workloads — while larger budgets favor the TC's simpler path.
        let t = standard_traces()[11].capture(120_000); // sys.access
        let mut tc = TraceCacheFrontend::new(TcConfig { total_uops: 4096, ..Default::default() });
        let mut bbtc = BbtcFrontend::new(BbtcConfig { total_uops: 4096, ..Default::default() });
        let mt = tc.run(&t);
        let mb = bbtc.run(&t);
        assert!(
            mb.uop_miss_rate() < mt.uop_miss_rate(),
            "bbtc {} vs tc {}",
            mb.uop_miss_rate(),
            mt.uop_miss_rate()
        );
    }
}
