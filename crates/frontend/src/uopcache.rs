//! Decoded (uop) cache frontend (paper §2.2).
//!
//! Caches the decoder's output at *instruction* granularity: each entry
//! holds one instruction's uops in a fixed-size slot (the addressing
//! problem of §2.2 forces a full [`xbc_isa::Inst::MAX_UOPS`]-uop slot per
//! instruction, so short instructions fragment the array). Removes decode
//! latency/width limits on hits but keeps the IC's bandwidth behaviour:
//! one consecutive run per cycle, broken by taken branches.

use crate::build::{BuildEngine, FillSink, Predictors, TimingConfig};
use crate::frontend::Frontend;
use crate::metrics::FrontendMetrics;
use crate::oracle::OracleStream;
use crate::probe::Probe;
use xbc_isa::Inst;
use xbc_obs::{CycleKind, D2bCause, Event, EventSink, MispredictKind, UopSource};
use xbc_predict::{BtbConfig, GshareConfig};
use xbc_uarch::{check_capacity, DecoderConfig, ICacheConfig, SetAssoc};
use xbc_workload::DynInst;

/// Configuration of a [`UopCacheFrontend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UopCacheConfig {
    /// Total uop-slot capacity. Divided by `MAX_UOPS` to get entries, since
    /// every entry must reserve space for the worst-case expansion.
    pub total_uops: usize,
    /// Associativity.
    pub ways: usize,
    /// Build path instruction cache.
    pub icache: ICacheConfig,
    /// Build path BTB.
    pub btb: BtbConfig,
    /// Build path decoder.
    pub decoder: DecoderConfig,
    /// Timing constants.
    pub timing: TimingConfig,
    /// Conditional predictor.
    pub gshare: GshareConfig,
}

impl Default for UopCacheConfig {
    fn default() -> Self {
        UopCacheConfig {
            total_uops: 32 * 1024,
            ways: 4,
            icache: ICacheConfig::default(),
            btb: BtbConfig::default(),
            decoder: DecoderConfig::default(),
            timing: TimingConfig::default(),
            gshare: GshareConfig::default(),
        }
    }
}

impl UopCacheConfig {
    /// Entries implied by the geometry (one instruction per entry).
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not divide evenly.
    pub fn entries(&self) -> usize {
        self.check().unwrap_or_else(|e| panic!("{e}"));
        self.total_uops / Inst::MAX_UOPS as usize
    }

    /// Checks the geometry [`UopCacheConfig::entries`] asserts.
    ///
    /// # Errors
    ///
    /// Returns a message naming the inconsistency.
    pub fn check(&self) -> Result<(), String> {
        check_capacity(self.total_uops)?;
        let entries = self.total_uops / Inst::MAX_UOPS as usize;
        if entries == 0 || self.ways == 0 || !entries.is_multiple_of(self.ways) {
            return Err(format!(
                "uop cache capacity ({} uops = {entries} entries) must divide into {} ways",
                self.total_uops, self.ways
            ));
        }
        Ok(())
    }
}

/// Fill sink installing decoded instructions into the uop cache.
#[derive(Clone, Debug, Default)]
struct UcFill {
    pending: Vec<DynInst>,
}

impl FillSink for UcFill {
    fn observe(&mut self, d: &DynInst) {
        self.pending.push(*d);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Build,
    Delivery,
}

/// The decoded-cache frontend.
///
/// # Examples
///
/// ```
/// use xbc_frontend::{Frontend, UopCacheConfig, UopCacheFrontend};
/// use xbc_workload::standard_traces;
///
/// let trace = standard_traces()[0].capture(20_000);
/// let mut uc = UopCacheFrontend::new(UopCacheConfig::default());
/// let m = uc.run(&trace);
/// assert!(m.structure_uops > 0);
/// ```
#[derive(Clone, Debug)]
pub struct UopCacheFrontend {
    cfg: UopCacheConfig,
    cache: SetAssoc<u8>, // payload: uop count of the cached instruction
    engine: BuildEngine,
    preds: Predictors,
    fill: UcFill,
    mode: Mode,
    stall: u64,
}

impl UopCacheFrontend {
    /// Creates a cold decoded-cache frontend.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`UopCacheConfig::entries`]).
    pub fn new(cfg: UopCacheConfig) -> Self {
        let entries = cfg.entries();
        UopCacheFrontend {
            cache: SetAssoc::new(entries / cfg.ways, cfg.ways),
            engine: BuildEngine::new(cfg.icache, cfg.btb, cfg.decoder, cfg.timing),
            preds: Predictors::new(cfg.gshare),
            fill: UcFill::default(),
            mode: Mode::Build,
            stall: 0,
            cfg,
        }
    }

    fn install_pending(&mut self) {
        for d in self.fill.pending.drain(..) {
            let (set, tag) = self.cache.split(d.inst.ip.raw());
            self.cache.insert(set, tag, d.inst.uops);
        }
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
        // Deliver a consecutive run of cached instructions, up to the
        // renamer width, stopping at a taken branch or a cache miss.
        let mut delivered = 0usize;
        let mut any_hit = false;
        while delivered < self.cfg.timing.renamer_width {
            let Some(d) = oracle.current().copied() else { break };
            let (set, tag) = self.cache.split(d.inst.ip.raw());
            if self.cache.get(set, tag).is_none() {
                if !any_hit {
                    // Leading miss: switch to build mode.
                    probe.emit(Event::StructureMiss);
                    probe.emit(Event::SwitchToBuild(D2bCause::StructureMiss));
                    self.mode = Mode::Build;
                    probe.emit(Event::Cycle(CycleKind::Stall));
                    return;
                }
                break;
            }
            if delivered + d.inst.uops as usize > self.cfg.timing.renamer_width {
                break;
            }
            any_hit = true;
            let n = oracle.take_inst();
            delivered += n;
            if d.inst.branch.is_branch() {
                // The uop cache entry knows the branch kind: fetch is
                // BTB-independent on hits.
                let correct = self.preds.resolve(&d, true);
                if !correct {
                    probe.emit(Event::Mispredict(
                        if d.inst.branch == xbc_isa::BranchKind::CondDirect {
                            MispredictKind::Cond
                        } else {
                            MispredictKind::Target
                        },
                    ));
                    self.stall += self.cfg.timing.mispredict_penalty;
                    break;
                }
                if d.taken {
                    break;
                }
            }
        }
        if delivered > 0 {
            probe.emit(Event::Uops {
                src: UopSource::Structure,
                n: xbc_obs::saturate_u16(delivered),
            });
        }
        probe.emit(Event::Cycle(CycleKind::Delivery));
    }

    fn step_probe<S: EventSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) {
        match self.mode {
            Mode::Build => {
                let kind = self.engine.cycle(oracle, &mut self.preds, probe, &mut self.fill);
                self.install_pending();
                if !oracle.done() && oracle.uop_offset() == 0 {
                    let (set, tag) = self.cache.split(oracle.fetch_ip().raw());
                    if self.cache.probe(set, tag).is_some() {
                        self.mode = Mode::Delivery;
                        probe.emit(Event::SwitchToDelivery);
                        probe.emit(Event::Cycle(kind));
                        return;
                    }
                }
                if kind == CycleKind::Stall {
                    // A stall cycle builds nothing and moves nothing, so
                    // the switch probe above misses on every remaining
                    // stall cycle too: retire them all in this step.
                    probe.emit_cycles(CycleKind::Stall, self.engine.take_stall() + 1);
                } else {
                    probe.emit(Event::Cycle(kind));
                }
            }
            Mode::Delivery => self.delivery_cycle(oracle, probe),
        }
    }
}

impl Frontend for UopCacheFrontend {
    fn name(&self) -> &str {
        "uopcache"
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
    use xbc_workload::standard_traces;

    #[test]
    fn delivers_whole_trace() {
        let t = standard_traces()[0].capture(30_000);
        let mut uc = UopCacheFrontend::new(UopCacheConfig::default());
        let m = uc.run(&t);
        assert_eq!(m.total_uops(), t.uop_count());
    }

    #[test]
    fn mostly_hits_after_warmup_on_compact_code() {
        let t = standard_traces()[0].capture(60_000); // spec.compress: small footprint
        let mut uc = UopCacheFrontend::new(UopCacheConfig::default());
        let m = uc.run(&t);
        assert!(m.uop_miss_rate() < 0.5, "miss rate {}", m.uop_miss_rate());
    }

    #[test]
    fn fragmentation_costs_capacity_vs_tc() {
        // An 8K-uop decoded cache holds only 2K instructions; the same
        // budget as a TC holds fewer *uops* of short instructions.
        let cfg = UopCacheConfig { total_uops: 8192, ..UopCacheConfig::default() };
        assert_eq!(cfg.entries(), 2048);
    }

    #[test]
    fn geometry_panics_on_bad_capacity() {
        let cfg = UopCacheConfig { total_uops: 4, ways: 8, ..UopCacheConfig::default() };
        let r = std::panic::catch_unwind(|| cfg.entries());
        assert!(r.is_err());
    }
}
