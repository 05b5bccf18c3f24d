//! Shared build-mode engine.
//!
//! Both the trace-cache baseline and the XBC frontend fall back to the same
//! IC-based pipeline when their structure misses (paper Figure 6, upper
//! path): the BTB steers fetch, one instruction-cache line is fetched per
//! cycle, the decoder translates a bounded number of instructions, and the
//! decoded uops go to the renamer — while a fill unit observes them to
//! build traces/XBs.

use crate::oracle::OracleStream;
use crate::probe::Probe;
use xbc_isa::{Addr, BranchKind};
use xbc_obs::{CycleKind, Event, EventSink, MispredictKind, UopSource};
use xbc_predict::{
    Btb, BtbConfig, BtbEntry, DirPredictor, GshareConfig, IndirectPredictor, ReturnStack,
};
use xbc_uarch::{Decoder, DecoderConfig, ICache, ICacheConfig};
use xbc_workload::DynInst;

/// Pipeline timing constants shared by all frontends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Cycles lost to a branch misprediction (flush + refill of the
    /// frontend pipe).
    pub mispredict_penalty: u64,
    /// Renamer width in uops per cycle. The paper fixes this at 8.
    pub renamer_width: usize,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig { mispredict_penalty: 10, renamer_width: 8 }
    }
}

/// The predictor set shared between build and delivery modes: the
/// conditional direction predictor (gshare — the paper's XBP), an
/// indirect-target predictor keyed by branch IP and path history, and a
/// return stack of addresses.
#[derive(Clone, Debug)]
pub struct Predictors {
    /// Conditional direction predictor (the paper's XBP; gshare by
    /// default, swappable for ablations).
    pub dir: DirPredictor,
    /// Indirect jump/call target predictor.
    pub indirect: IndirectPredictor<Addr>,
    /// Return address stack.
    pub rsb: ReturnStack<Addr>,
}

impl Predictors {
    /// Creates the paper's predictor complement: 16-bit gshare, a 4K-entry
    /// history-hashed indirect table, and a 32-deep return stack.
    pub fn new(gshare: GshareConfig) -> Self {
        Self::with_dir(DirPredictor::gshare(gshare))
    }

    /// Like [`Predictors::new`] but with an explicit direction predictor
    /// (for predictor ablations).
    pub fn with_dir(dir: DirPredictor) -> Self {
        Predictors { dir, indirect: IndirectPredictor::new(12, 6), rsb: ReturnStack::new(32) }
    }

    /// Resolves one committed branch against the predictors, updating them
    /// and returning `true` if the frontend would have predicted it
    /// correctly. Non-branches return `true` without touching anything.
    ///
    /// `btb_known` tells whether fetch even knew a branch was there (from a
    /// BTB hit or from structure metadata); an unknown *taken* branch is a
    /// mis-fetch regardless of predictor state.
    pub fn resolve(&mut self, d: &DynInst, btb_known: bool) -> bool {
        let ip = d.inst.ip;
        match d.inst.branch {
            BranchKind::None => true,
            BranchKind::CondDirect => {
                // `update` judges the pre-update prediction; a branch the
                // BTB does not know is predicted not taken.
                let correct = self.dir.update(ip, d.taken);
                if btb_known {
                    correct
                } else {
                    !d.taken
                }
            }
            BranchKind::UncondDirect => btb_known,
            BranchKind::CallDirect => {
                self.rsb.push(d.inst.next_seq());
                btb_known
            }
            BranchKind::IndirectJump => {
                let pred = self.indirect.predict(ip, self.dir.history());
                self.indirect.update(ip, self.dir.history(), d.next_ip);
                btb_known && pred == Some(d.next_ip)
            }
            BranchKind::IndirectCall => {
                let pred = self.indirect.predict(ip, self.dir.history());
                self.indirect.update(ip, self.dir.history(), d.next_ip);
                self.rsb.push(d.inst.next_seq());
                btb_known && pred == Some(d.next_ip)
            }
            BranchKind::Return => {
                let pred = self.rsb.pop();
                btb_known && pred == Some(d.next_ip)
            }
        }
    }
}

/// Observer fed every committed instruction delivered in build mode; fill
/// units (trace-cache fill, the XBC's XFU) implement this.
pub trait FillSink {
    /// Called once per committed instruction, in order.
    fn observe(&mut self, d: &DynInst);
}

/// A sink that builds nothing (pure-IC frontend).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFill;

impl FillSink for NoFill {
    fn observe(&mut self, _d: &DynInst) {}
}

/// The IC-based build pipeline: instruction cache + BTB + decoder.
#[derive(Clone, Debug)]
pub struct BuildEngine {
    icache: ICache,
    btb: Btb,
    decoder: Decoder,
    timing: TimingConfig,
    /// Remaining stall cycles (IC miss or misprediction resteer).
    stall: u64,
}

impl BuildEngine {
    /// Creates a build engine.
    pub fn new(
        icache: ICacheConfig,
        btb: BtbConfig,
        decoder: DecoderConfig,
        timing: TimingConfig,
    ) -> Self {
        BuildEngine {
            icache: ICache::new(icache),
            btb: Btb::new(btb),
            decoder: Decoder::new(decoder),
            timing,
            stall: 0,
        }
    }

    /// Schedules `cycles` of stall (used by frontends to charge delivery-
    /// mode mispredictions through the same mechanism).
    pub fn add_stall(&mut self, cycles: u64) {
        self.stall += cycles;
    }

    /// True if a stall is pending.
    pub fn stalled(&self) -> bool {
        self.stall > 0
    }

    /// Takes the pending stall cycles (used when a frontend switches out of
    /// build mode and must carry the remaining stall with it).
    pub fn take_stall(&mut self) -> u64 {
        std::mem::take(&mut self.stall)
    }

    /// Runs one build-mode cycle: delivers zero or more committed
    /// instructions from the IC path, feeding `fill`. Emits IC-uop and
    /// mispredict events through `probe` and returns the kind of cycle
    /// this was — the *caller* closes the cycle by emitting
    /// `Event::Cycle(kind)` as its last event, so installs and mode
    /// switches that follow this call still land inside the same cycle.
    ///
    /// # Panics
    ///
    /// Panics if called when `oracle` is exhausted.
    pub fn cycle<E: EventSink, F: FillSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        preds: &mut Predictors,
        probe: &mut Probe<'_, E>,
        fill: &mut F,
    ) -> CycleKind {
        assert!(!oracle.done(), "build cycle past end of trace");
        if self.stall > 0 {
            self.stall -= 1;
            return CycleKind::Stall;
        }

        let ip = oracle.fetch_ip();
        let access = self.icache.fetch(ip);
        if !access.hit {
            // This cycle initiated the fill; stall for the remainder.
            self.stall += access.penalty;
            return CycleKind::Build;
        }
        let line = self.icache.line_of(ip);
        self.decoder.begin_cycle();
        let mut delivered = 0usize;

        while let Some(d) = oracle.current().copied() {
            if self.icache.line_of(d.inst.ip) != line {
                break; // next fetch line, next cycle
            }
            if !self.decoder.try_consume(&d.inst) {
                break; // decode width exhausted
            }
            if delivered + d.inst.uops as usize > self.timing.renamer_width {
                break; // renamer width exhausted
            }
            fill.observe(&d);
            // The instruction may already be partially delivered if a
            // structure frontend switched to build mode mid-instruction
            // (bank-conflict fetches stop at line, not instruction,
            // boundaries); only the remainder flows through here.
            let n = oracle.take_inst();
            debug_assert!(n >= 1 && n <= d.inst.uops as usize);
            delivered += n;

            if d.inst.branch.is_branch() {
                let btb_known = self.btb.lookup(d.inst.ip).is_some();
                let correct = preds.resolve(&d, btb_known);
                // Train the BTB on every executed branch.
                self.btb.update(d.inst.ip, BtbEntry { kind: d.inst.branch, target: d.inst.target });
                if !correct {
                    self.stall += self.timing.mispredict_penalty;
                    probe.emit(Event::Mispredict(
                        if matches!(d.inst.branch, BranchKind::CondDirect) {
                            MispredictKind::Cond
                        } else {
                            MispredictKind::Target
                        },
                    ));
                    break;
                }
                if d.taken {
                    break; // fetch cannot continue past a taken branch
                }
            }
        }
        if delivered > 0 {
            probe.emit(Event::Uops { src: UopSource::Ic, n: xbc_obs::saturate_u16(delivered) });
        }
        CycleKind::Build
    }

    /// Instruction-cache statistics.
    pub fn icache_stats(&self) -> xbc_uarch::CacheStats {
        self.icache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FrontendMetrics;
    use xbc_isa::Inst;
    use xbc_workload::{CondBehavior, ProgramBuilder, Trace};

    /// One engine cycle with the metrics-only probe, closing the cycle
    /// the way a frontend's `step` does.
    fn run_cycle<F: FillSink>(
        e: &mut BuildEngine,
        o: &mut OracleStream<'_>,
        p: &mut Predictors,
        m: &mut FrontendMetrics,
        f: &mut F,
    ) {
        let mut probe = Probe::untraced(m);
        let kind = e.cycle(o, p, &mut probe, f);
        probe.emit(Event::Cycle(kind));
    }

    fn straight_line_trace(n_insts: usize) -> Trace {
        // 32 plain 1-byte 1-uop insts then a return, looped by wrap.
        let mut b = ProgramBuilder::new();
        for i in 0..32u64 {
            b.push(Inst::plain(Addr::new(0x100 + i), 1, 1));
        }
        b.push(Inst::new(Addr::new(0x120), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x100), 1);
        Trace::capture("s", &p, 0, n_insts)
    }

    fn engine() -> BuildEngine {
        BuildEngine::new(
            ICacheConfig { size_bytes: 1024, line_bytes: 16, ways: 2, miss_penalty: 3 },
            BtbConfig { entries: 64, ways: 2 },
            DecoderConfig { insts_per_cycle: 4, uops_per_cycle: 6 },
            TimingConfig { mispredict_penalty: 5, renamer_width: 8 },
        )
    }

    #[test]
    fn straight_line_throughput_is_decoder_bound() {
        let t = straight_line_trace(64);
        let mut o = OracleStream::new(&t);
        let mut e = engine();
        let mut p = Predictors::new(GshareConfig { history_bits: 8 });
        let mut m = FrontendMetrics::default();
        while !o.done() {
            run_cycle(&mut e, &mut o, &mut p, &mut m, &mut NoFill);
        }
        assert_eq!(m.ic_uops, 64);
        // 4 insts/cycle max on 1-uop insts, plus IC misses and the return
        // mispredicts; far fewer cycles than 64.
        assert!(m.build_cycles >= 16, "cycles {}", m.build_cycles);
        assert!(m.cycles < 64, "cycles {}", m.cycles);
    }

    #[test]
    fn ic_miss_stalls() {
        let t = straight_line_trace(4);
        let mut o = OracleStream::new(&t);
        let mut e = engine();
        let mut p = Predictors::new(GshareConfig { history_bits: 8 });
        let mut m = FrontendMetrics::default();
        // First cycle: cold IC miss, nothing delivered.
        run_cycle(&mut e, &mut o, &mut p, &mut m, &mut NoFill);
        assert_eq!(m.ic_uops, 0);
        assert!(e.stalled());
        // 3 stall cycles follow.
        for _ in 0..3 {
            run_cycle(&mut e, &mut o, &mut p, &mut m, &mut NoFill);
        }
        assert!(!e.stalled());
        run_cycle(&mut e, &mut o, &mut p, &mut m, &mut NoFill);
        assert!(m.ic_uops > 0);
        assert_eq!(m.stall_cycles, 3);
    }

    #[test]
    fn unknown_taken_branch_mispredicts_then_learns() {
        // A tight always-taken loop: first encounter misses the BTB
        // (mis-fetch); afterwards gshare + BTB predict it.
        let mut b = ProgramBuilder::new();
        b.push(Inst::plain(Addr::new(0x10), 1, 1));
        b.push_cond(
            Inst::new(Addr::new(0x11), 1, 1, BranchKind::CondDirect, Some(Addr::new(0x10))),
            CondBehavior::Bernoulli { p_taken: 1.0 },
        );
        b.push(Inst::new(Addr::new(0x12), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        let t = Trace::capture("l", &p, 0, 400);
        let mut o = OracleStream::new(&t);
        let mut e = engine();
        let mut preds = Predictors::new(GshareConfig { history_bits: 8 });
        let mut m = FrontendMetrics::default();
        while !o.done() {
            run_cycle(&mut e, &mut o, &mut preds, &mut m, &mut NoFill);
        }
        assert!(m.cond_mispredicts >= 1);
        // After warm-up the loop branch predicts perfectly: misses stay low.
        assert!(m.cond_mispredicts < 25, "mispredicts {}", m.cond_mispredicts);
        assert_eq!(m.ic_uops, 400);
    }

    #[test]
    fn fill_sink_sees_every_instruction() {
        struct Count(u64);
        impl FillSink for Count {
            fn observe(&mut self, _d: &DynInst) {
                self.0 += 1;
            }
        }
        let t = straight_line_trace(40);
        let mut o = OracleStream::new(&t);
        let mut e = engine();
        let mut p = Predictors::new(GshareConfig { history_bits: 8 });
        let mut m = FrontendMetrics::default();
        let mut c = Count(0);
        while !o.done() {
            run_cycle(&mut e, &mut o, &mut p, &mut m, &mut c);
        }
        assert_eq!(c.0, 40);
    }

    #[test]
    fn taken_branch_ends_fetch_cycle() {
        // inst at 0x10 (1 uop), taken jmp at 0x11 to 0x18, inst at 0x18, ret.
        let mut b = ProgramBuilder::new();
        b.push(Inst::plain(Addr::new(0x10), 1, 1));
        b.push(Inst::new(Addr::new(0x11), 1, 1, BranchKind::UncondDirect, Some(Addr::new(0x18))));
        b.push(Inst::plain(Addr::new(0x18), 1, 1));
        b.push(Inst::new(Addr::new(0x19), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        let t = Trace::capture("j", &p, 0, 4);
        let mut o = OracleStream::new(&t);
        let mut e = engine();
        let mut preds = Predictors::new(GshareConfig { history_bits: 8 });
        let mut m = FrontendMetrics::default();
        // Warm the IC and BTB first by running to completion once is not
        // possible (single capture); instead check that after the taken jmp
        // at most 2 insts were delivered in its cycle even though all four
        // fit in one line.
        // Cycle 1: IC miss.
        run_cycle(&mut e, &mut o, &mut preds, &mut m, &mut NoFill);
        while e.stalled() {
            run_cycle(&mut e, &mut o, &mut preds, &mut m, &mut NoFill);
        }
        let before = o.inst_index();
        run_cycle(&mut e, &mut o, &mut preds, &mut m, &mut NoFill);
        let after = o.inst_index();
        assert!(after - before <= 2, "taken branch must stop the fetch cycle");
    }
}
