//! Trace-cache frontend (paper §2.3, evaluated in §4).
//!
//! The baseline the XBC is measured against: a 4-way set-associative cache
//! whose lines each hold a single trace of up to 16 uops with at most 3
//! conditional branches (the Rotenberg/Friendly model the paper cites).
//! Traces are *single-entry multiple-exit*, indexed by the IP of their
//! first instruction, and are **not** path associative: two traces starting
//! at the same IP cannot coexist — inserting one replaces the other.
//!
//! The hit-rate cost the paper attacks comes from exactly two properties
//! modeled faithfully here:
//!
//! * **redundancy** — the same uop is stored in every trace that happens to
//!   flow through it (different start points / alignments), and
//! * **fragmentation** — a short trace still occupies a full 16-uop line.

use crate::build::{BuildEngine, FillSink, Predictors, TimingConfig};
use crate::frontend::Frontend;
use crate::metrics::FrontendMetrics;
use crate::oracle::OracleStream;
use crate::probe::Probe;
use xbc_isa::BranchKind;
use xbc_obs::{CycleKind, D2bCause, Event, EventSink, MispredictKind, UopSource};
use xbc_predict::{BtbConfig, GshareConfig, IndirectPredictor};
use xbc_uarch::{check_capacity, DecoderConfig, ICacheConfig, SetAssoc};
use xbc_workload::DynInst;

/// Configuration of a [`TraceCacheFrontend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcConfig {
    /// Total uop capacity (lines × 16). The paper's headline size is 32K.
    pub total_uops: usize,
    /// Associativity (paper: 4-way).
    pub ways: usize,
    /// Uops per trace line (paper: 16).
    pub line_uops: usize,
    /// Maximum conditional branches per trace (paper: 3).
    pub max_cond_branches: usize,
    /// Build-path instruction cache.
    pub icache: ICacheConfig,
    /// Build-path BTB.
    pub btb: BtbConfig,
    /// Build-path decoder widths.
    pub decoder: DecoderConfig,
    /// Timing constants.
    pub timing: TimingConfig,
    /// Conditional predictor (paper: 16-bit gshare).
    pub gshare: GshareConfig,
    /// Path associativity (Jacobson et al. — "Jaco97" in the paper, §2.3):
    /// traces are identified by their start IP *and* a fold of their
    /// embedded conditional directions, so multiple paths from one start
    /// IP coexist; a next-trace predictor (keyed by the previous trace and
    /// the global history) selects which variant to fetch. Off in the
    /// paper's baseline model.
    pub path_associative: bool,
    /// Embedded-direction bits folded into the trace identity when
    /// path-associative.
    pub path_bits: u32,
}

impl Default for TcConfig {
    /// The paper's baseline: 32K uops, 4-way, 16-uop lines, ≤3 branches.
    fn default() -> Self {
        TcConfig {
            total_uops: 32 * 1024,
            ways: 4,
            line_uops: 16,
            max_cond_branches: 3,
            icache: ICacheConfig::default(),
            btb: BtbConfig::default(),
            decoder: DecoderConfig::default(),
            timing: TimingConfig::default(),
            gshare: GshareConfig::default(),
            path_associative: false,
            path_bits: 6,
        }
    }
}

impl TcConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not divide evenly.
    pub fn sets(&self) -> usize {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self.total_uops / self.line_uops / self.ways
    }

    /// Checks the geometry [`TcConfig::sets`] asserts.
    ///
    /// # Errors
    ///
    /// Returns a message naming the inconsistency.
    pub fn check(&self) -> Result<(), String> {
        check_capacity(self.total_uops)?;
        if self.line_uops == 0 || self.ways == 0 {
            return Err("TC lines and ways must be non-zero".into());
        }
        let lines = self.total_uops / self.line_uops;
        if lines == 0 || !lines.is_multiple_of(self.ways) {
            return Err(format!(
                "TC total_uops ({}) must divide into ways ({}) × line_uops ({})",
                self.total_uops, self.ways, self.line_uops
            ));
        }
        Ok(())
    }
}

/// One cached trace: the committed path segment it was built along.
#[derive(Clone, Debug)]
struct TraceLine {
    insts: Vec<DynInst>,
}

impl TraceLine {
    /// Fold of the embedded conditional directions (path identity bits).
    fn dir_fold(&self, bits: u32) -> u64 {
        let mut fold = 0u64;
        let mut n = 0;
        for d in &self.insts {
            if d.inst.branch == BranchKind::CondDirect {
                fold |= (d.taken as u64) << (n % bits.max(1));
                n += 1;
            }
        }
        fold & ((1 << bits) - 1)
    }
}

impl TraceLine {
    #[cfg_attr(not(test), allow(dead_code))]
    fn uops(&self) -> usize {
        self.insts.iter().map(|d| d.inst.uops as usize).sum()
    }
}

/// Fill unit: groups committed instructions into traces.
#[derive(Clone, Debug)]
struct TcFill {
    line_uops: usize,
    max_cond: usize,
    cur: Vec<DynInst>,
    uops: usize,
    conds: usize,
    done: Vec<TraceLine>,
}

impl TcFill {
    fn new(line_uops: usize, max_cond: usize) -> Self {
        TcFill { line_uops, max_cond, cur: Vec::new(), uops: 0, conds: 0, done: Vec::new() }
    }

    fn finalize(&mut self) {
        if !self.cur.is_empty() {
            self.done.push(TraceLine { insts: std::mem::take(&mut self.cur) });
            self.uops = 0;
            self.conds = 0;
        }
    }

    fn clear(&mut self) {
        self.cur.clear();
        self.uops = 0;
        self.conds = 0;
        self.done.clear();
    }
}

impl FillSink for TcFill {
    fn observe(&mut self, d: &DynInst) {
        if self.uops + d.inst.uops as usize > self.line_uops {
            self.finalize();
        }
        self.cur.push(*d);
        self.uops += d.inst.uops as usize;
        match d.inst.branch {
            BranchKind::CondDirect => {
                self.conds += 1;
                if self.conds >= self.max_cond {
                    self.finalize();
                }
            }
            BranchKind::IndirectJump | BranchKind::IndirectCall | BranchKind::Return => {
                self.finalize()
            }
            _ => {}
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Build,
    Delivery,
}

/// The trace-cache frontend.
///
/// # Examples
///
/// ```
/// use xbc_frontend::{Frontend, TcConfig, TraceCacheFrontend};
/// use xbc_workload::standard_traces;
///
/// let trace = standard_traces()[0].capture(20_000);
/// let mut tc = TraceCacheFrontend::new(TcConfig::default());
/// let m = tc.run(&trace);
/// assert!(m.structure_uops > 0, "the TC must deliver something");
/// assert!(m.uop_miss_rate() < 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct TraceCacheFrontend {
    cfg: TcConfig,
    cache: SetAssoc<TraceLine>,
    engine: BuildEngine,
    preds: Predictors,
    fill: TcFill,
    mode: Mode,
    /// Accepted structure uops not yet pushed through the renamer.
    pending_uops: usize,
    /// Resteer penalty to apply once `pending_uops` drains.
    pending_resteer: Option<u64>,
    /// Delivery-mode stall cycles outstanding.
    stall: u64,
    /// Identity key of the previously fetched/built trace.
    last_path: u64,
    /// Next-trace predictor (Jaco97): previous trace → the full identity
    /// key of the following trace (last-successor table; folding the noisy
    /// global history in only hurts on iid branches). Only consulted when
    /// path-associative.
    next_trace: IndirectPredictor<u64>,
}

impl TraceCacheFrontend {
    /// Creates a cold trace-cache frontend.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`TcConfig::sets`]).
    pub fn new(cfg: TcConfig) -> Self {
        let sets = cfg.sets();
        TraceCacheFrontend {
            cache: SetAssoc::new(sets, cfg.ways),
            engine: BuildEngine::new(cfg.icache, cfg.btb, cfg.decoder, cfg.timing),
            preds: Predictors::new(cfg.gshare),
            fill: TcFill::new(cfg.line_uops, cfg.max_cond_branches),
            mode: Mode::Build,
            pending_uops: 0,
            pending_resteer: None,
            stall: 0,
            last_path: 0,
            next_trace: IndirectPredictor::new(12, 0),
            cfg,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &TcConfig {
        &self.cfg
    }

    /// Replaces the predictor complement (for predictor ablations); call
    /// before the first `run`.
    pub fn set_predictors(&mut self, preds: Predictors) {
        self.preds = preds;
    }

    /// Number of valid trace lines currently cached.
    pub fn lines_cached(&self) -> usize {
        self.cache.len()
    }

    /// Identity key of a trace: its start IP, plus (when path-associative)
    /// its embedded-direction fold in high bits so path variants share a
    /// set but carry distinct tags.
    fn trace_key(&self, ip: xbc_isa::Addr, dir_fold: u64) -> u64 {
        if self.cfg.path_associative {
            ip.raw() ^ (dir_fold << 40)
        } else {
            ip.raw()
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    fn set_and_tag(&self, ip: xbc_isa::Addr, dir_fold: u64) -> (usize, u64) {
        self.cache.split(self.trace_key(ip, dir_fold))
    }

    /// Finds the trace to fetch for the current oracle position. Without
    /// path associativity this is a plain start-IP lookup; with it, the
    /// next-trace predictor proposes a variant, validated against the
    /// fetch address, with the zero-fold variant as fallback.
    ///
    /// Returns the trace's identity key plus a line *index* into the cache
    /// (read it with `data_at`) rather than cloning the `TraceLine` — a hit
    /// used to copy the whole `Vec<DynInst>` every delivery cycle.
    fn lookup_next(&mut self, ip: xbc_isa::Addr) -> Option<(u64, usize)> {
        if !self.cfg.path_associative {
            let key = self.trace_key(ip, 0);
            let (set, tag) = self.cache.split(key);
            return self.cache.get_index(set, tag).map(|idx| (key, idx));
        }
        let hist = self.preds.dir.history();
        if let Some(key) = self.next_trace.predict(xbc_isa::Addr::new(self.last_path), hist) {
            let (set, tag) = self.cache.split(key);
            if let Some(idx) = self.cache.get_index(set, tag) {
                if self.cache.data_at(idx).insts[0].inst.ip == ip {
                    return Some((key, idx));
                }
            }
        }
        // Fallback: all variants share the set (the fold only perturbs tag
        // bits), so scan it for any trace starting at the fetch address —
        // the way-comparators match on the start IP in hardware.
        let (set, _) = self.cache.split(self.trace_key(ip, 0));
        let key = self
            .cache
            .set_entries(set)
            .find(|(_, l)| l.insts[0].inst.ip == ip)
            .map(|(_, l)| self.trace_key(ip, l.dir_fold(self.cfg.path_bits)))?;
        // Touch for LRU (the uncounted scan above doesn't).
        let (s, tag) = self.cache.split(key);
        let idx = self.cache.get_index(s, tag)?;
        Some((key, idx))
    }

    /// Records the observed trace succession for the next-trace predictor
    /// and rolls the path context forward.
    fn note_transition(&mut self, key: u64) {
        if self.cfg.path_associative {
            let hist = self.preds.dir.history();
            self.next_trace.update(xbc_isa::Addr::new(self.last_path), hist, key);
        }
        self.last_path = key;
    }

    /// Walks a trace line against the oracle, performing all predictor
    /// updates, and returns the number of uops accepted for delivery,
    /// any resteer penalty to charge after they drain, and the kind of
    /// mispredict that truncated the walk (if one did) — the caller
    /// turns that into the event/counter bump, keeping this walk free
    /// of accounting.
    fn walk_line(
        line: &TraceLine,
        oracle: &OracleStream<'_>,
        preds: &mut Predictors,
        timing: &TimingConfig,
    ) -> (usize, Option<u64>, Option<MispredictKind>) {
        let mut accepted = 0usize;
        for (j, td) in line.insts.iter().enumerate() {
            let Some(od) = oracle.peek(j) else {
                break; // end of trace capture
            };
            if td.inst.ip != od.inst.ip {
                // The embedded path diverged from the committed path at a
                // non-predicted point (stale line after self-modifying-like
                // replacement); stop before the divergence.
                break;
            }
            accepted += td.inst.uops as usize;
            let ip = td.inst.ip;
            match td.inst.branch {
                BranchKind::None => {}
                BranchKind::UncondDirect => {}
                BranchKind::CallDirect => {
                    preds.rsb.push(td.inst.next_seq());
                }
                BranchKind::CondDirect => {
                    let pred = preds.dir.predict(ip);
                    let correct = pred == od.taken;
                    preds.dir.update(ip, od.taken);
                    if !correct {
                        return (
                            accepted,
                            Some(timing.mispredict_penalty),
                            Some(MispredictKind::Cond),
                        );
                    }
                    if pred != td.taken {
                        // Correctly predicted off the embedded path: the
                        // rest of the line is the wrong way — truncate the
                        // fetch, no penalty.
                        return (accepted, None, None);
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
                            Some(MispredictKind::Target),
                        );
                    }
                    return (accepted, None, None); // traces end at indirects
                }
                BranchKind::Return => {
                    let pred = preds.rsb.pop();
                    if pred != Some(od.next_ip) {
                        return (
                            accepted,
                            Some(timing.mispredict_penalty),
                            Some(MispredictKind::Target),
                        );
                    }
                    return (accepted, None, None);
                }
            }
        }
        (accepted, None, None)
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
            debug_assert_eq!(oracle.uop_offset(), 0, "line fetch must start at an inst boundary");
            let ip = oracle.fetch_ip();
            let Some((key, idx)) = self.lookup_next(ip) else {
                // TC miss: back to build mode. The failed lookup costs one
                // cycle of nothing.
                probe.emit(Event::StructureMiss);
                probe.emit(Event::SwitchToBuild(D2bCause::StructureMiss));
                self.mode = Mode::Build;
                self.fill.clear();
                probe.emit(Event::Cycle(CycleKind::Stall));
                return;
            };
            self.note_transition(key);
            let line = self.cache.data_at(idx);
            let (accepted, resteer, mispredict) =
                Self::walk_line(line, oracle, &mut self.preds, &self.cfg.timing);
            if let Some(kind) = mispredict {
                probe.emit(Event::Mispredict(kind));
            }
            debug_assert!(accepted > 0, "a hit line always supplies its first instruction");
            self.pending_uops = accepted;
            self.pending_resteer = resteer;
        }
        // Push up to renamer-width uops of the accepted segment.
        let budget = self.cfg.timing.renamer_width.min(self.pending_uops);
        let delivered = oracle.drain_uops(budget);
        debug_assert_eq!(delivered, budget, "oracle drained while pending uops remain");
        self.pending_uops -= delivered;
        if delivered > 0 {
            probe.emit(Event::Uops {
                src: UopSource::Structure,
                n: xbc_obs::saturate_u16(delivered),
            });
        }
        probe.emit(Event::Cycle(CycleKind::Delivery));
        if self.pending_uops == 0 {
            if let Some(penalty) = self.pending_resteer.take() {
                self.stall += penalty;
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
            debug_assert!(self.fill.done.is_empty(), "a stall cycle completes no trace");
            probe.emit_cycles(CycleKind::Stall, self.engine.take_stall() + 1);
            return;
        }
        let completed: Vec<TraceLine> = std::mem::take(&mut self.fill.done);
        let built_any = !completed.is_empty();
        for line in completed {
            let start = line.insts[0].inst.ip;
            // Without path associativity the identity is the start IP
            // alone, so a same-start different-path trace replaces in
            // place (the SetAssoc same-tag path); with it, path variants
            // (distinguished by their direction fold) coexist across the
            // set's ways, and the next-trace predictor learns successions.
            let fold = line.dir_fold(self.cfg.path_bits);
            let key = self.trace_key(start, fold);
            let (set, tag) = self.cache.split(key);
            self.cache.insert(set, tag, line);
            self.note_transition(key);
        }
        // Head lookup once a trace completes (paper §2.3): hit ⇒ delivery.
        if built_any && !oracle.done() && oracle.uop_offset() == 0 {
            let ip = oracle.fetch_ip();
            if self.lookup_next(ip).is_some() {
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
}

impl Frontend for TraceCacheFrontend {
    fn name(&self) -> &str {
        "tc"
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
    use xbc_isa::{Addr, Inst};
    use xbc_workload::{standard_traces, CondBehavior, ProgramBuilder, Trace};

    fn small_cfg() -> TcConfig {
        TcConfig { total_uops: 4096, ..TcConfig::default() }
    }

    /// A hot loop that fits trivially: after one build pass the TC should
    /// serve nearly everything.
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
    fn geometry() {
        assert_eq!(TcConfig::default().sets(), 512);
        assert_eq!(small_cfg().sets(), 64);
    }

    #[test]
    fn hot_loop_is_served_from_tc() {
        let t = loop_trace(4000);
        let mut tc = TraceCacheFrontend::new(small_cfg());
        let m = tc.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert!(m.uop_miss_rate() < 0.05, "miss rate {}", m.uop_miss_rate());
        // 13-uop trace (6×2 + 1) drains in 2 cycles: 6.5 uops/cycle.
        let bw = m.delivery_bandwidth();
        assert!(bw > 5.0 && bw <= 8.0, "bandwidth {bw}");
    }

    #[test]
    fn delivers_whole_trace_exactly_once() {
        let t = standard_traces()[0].capture(30_000);
        let mut tc = TraceCacheFrontend::new(TcConfig::default());
        let m = tc.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
        assert_eq!(m.cycles, m.build_cycles + m.delivery_cycles + m.stall_cycles);
    }

    #[test]
    fn smaller_cache_misses_more() {
        let t = standard_traces()[8].capture(60_000); // sysmark-like, big footprint
        let mut big =
            TraceCacheFrontend::new(TcConfig { total_uops: 65536, ..TcConfig::default() });
        let mut small =
            TraceCacheFrontend::new(TcConfig { total_uops: 2048, ..TcConfig::default() });
        let mb = big.run(&t);
        let ms = small.run(&t);
        assert!(
            ms.uop_miss_rate() > mb.uop_miss_rate(),
            "small {} vs big {}",
            ms.uop_miss_rate(),
            mb.uop_miss_rate()
        );
    }

    #[test]
    fn traces_respect_line_limits() {
        // Feed the fill unit directly.
        let mut fill = TcFill::new(16, 3);
        let mk = |ip: u64, uops: u8, br: BranchKind| DynInst {
            inst: match br {
                BranchKind::None => Inst::plain(Addr::new(ip), 1, uops),
                BranchKind::CondDirect => {
                    Inst::new(Addr::new(ip), 1, uops, br, Some(Addr::new(0x1000)))
                }
                _ => Inst::new(Addr::new(ip), 1, uops, br, None),
            },
            taken: false,
            next_ip: Addr::new(ip + 1),
        };
        // 5 insts of 4 uops: the 5th overflows 16 and must start a new line.
        for i in 0..5 {
            fill.observe(&mk(0x10 + i, 4, BranchKind::None));
        }
        assert_eq!(fill.done.len(), 1);
        assert_eq!(fill.done[0].uops(), 16);
        // Three conditional branches close a trace.
        fill.clear();
        for i in 0..3 {
            fill.observe(&mk(0x50 + i, 1, BranchKind::CondDirect));
        }
        assert_eq!(fill.done.len(), 1);
        assert_eq!(fill.done[0].insts.len(), 3);
        // A return closes immediately.
        fill.clear();
        fill.observe(&mk(0x80, 1, BranchKind::Return));
        assert_eq!(fill.done.len(), 1);
    }

    #[test]
    fn no_path_associativity_same_start_ip_replaces() {
        let cfg = small_cfg();
        let mut tc = TraceCacheFrontend::new(cfg);
        let mk_line = |ips: &[u64]| TraceLine {
            insts: ips
                .iter()
                .map(|&ip| DynInst {
                    inst: Inst::plain(Addr::new(ip), 1, 1),
                    taken: false,
                    next_ip: Addr::new(ip + 1),
                })
                .collect(),
        };
        let (set, tag) = tc.set_and_tag(Addr::new(0x100), 0);
        tc.cache.insert(set, tag, mk_line(&[0x100, 0x101]));
        tc.cache.insert(set, tag, mk_line(&[0x100, 0x102]));
        assert_eq!(tc.lines_cached(), 1, "same start IP may not coexist");
    }

    #[test]
    fn path_associativity_allows_same_start_traces() {
        let cfg = TcConfig { path_associative: true, ..small_cfg() };
        let mut tc = TraceCacheFrontend::new(cfg);
        let mk_line = |ips: &[u64]| TraceLine {
            insts: ips
                .iter()
                .map(|&ip| DynInst {
                    inst: Inst::plain(Addr::new(ip), 1, 1),
                    taken: false,
                    next_ip: Addr::new(ip + 1),
                })
                .collect(),
        };
        let (s1, t1) = tc.set_and_tag(Addr::new(0x100), 0xAAA);
        let (s2, t2) = tc.set_and_tag(Addr::new(0x100), 0xBBB);
        assert_eq!(s1, s2, "path variants share the set");
        assert_ne!(t1, t2, "but carry distinct tags");
        tc.cache.insert(s1, t1, mk_line(&[0x100, 0x101]));
        tc.cache.insert(s2, t2, mk_line(&[0x100, 0x102]));
        assert_eq!(tc.lines_cached(), 2, "two paths from one start coexist");
    }

    #[test]
    fn path_associative_tc_still_delivers_everything() {
        let t = standard_traces()[0].capture(30_000);
        let mut tc =
            TraceCacheFrontend::new(TcConfig { path_associative: true, ..TcConfig::default() });
        let m = tc.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
    }
}
