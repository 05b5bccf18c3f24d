//! Pure instruction-cache frontend (paper §2.1).
//!
//! The traditional baseline: every uop comes through the IC + decoder path,
//! there is no decoded-uop structure, and hence no delivery mode. Its
//! bandwidth ceiling is the decoder; its latency is charged implicitly via
//! decode-width limits and taken-branch fetch breaks.

use crate::build::{BuildEngine, NoFill, Predictors, TimingConfig};
use crate::frontend::Frontend;
use crate::metrics::FrontendMetrics;
use crate::oracle::OracleStream;
use crate::probe::Probe;
use xbc_obs::{CycleKind, Event, EventSink};
use xbc_predict::{BtbConfig, GshareConfig};
use xbc_uarch::{DecoderConfig, ICacheConfig};

/// Configuration of an [`IcFrontend`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IcFrontendConfig {
    /// Instruction cache geometry.
    pub icache: ICacheConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// Decoder widths.
    pub decoder: DecoderConfig,
    /// Timing constants.
    pub timing: TimingConfig,
    /// Conditional predictor.
    pub gshare: GshareConfig,
}

/// The instruction-cache-only frontend.
///
/// # Examples
///
/// ```
/// use xbc_frontend::{Frontend, IcFrontend, IcFrontendConfig};
/// use xbc_workload::standard_traces;
///
/// let trace = standard_traces()[0].capture(5_000);
/// let mut fe = IcFrontend::new(IcFrontendConfig::default());
/// let m = fe.run(&trace);
/// assert_eq!(m.uop_miss_rate(), 1.0); // every uop comes from the IC
/// assert_eq!(m.total_uops(), trace.uop_count());
/// ```
#[derive(Clone, Debug)]
pub struct IcFrontend {
    engine: BuildEngine,
    preds: Predictors,
}

impl IcFrontend {
    /// Creates the frontend.
    pub fn new(cfg: IcFrontendConfig) -> Self {
        IcFrontend {
            engine: BuildEngine::new(cfg.icache, cfg.btb, cfg.decoder, cfg.timing),
            preds: Predictors::new(cfg.gshare),
        }
    }

    fn step_probe<S: EventSink>(
        &mut self,
        oracle: &mut OracleStream<'_>,
        probe: &mut Probe<'_, S>,
    ) {
        match self.engine.cycle(oracle, &mut self.preds, probe, &mut NoFill) {
            // Nothing happens while stalled: retire the whole stall in
            // this one step (a recording sink still sees one
            // `Cycle(Stall)` per cycle).
            CycleKind::Stall => probe.emit_cycles(CycleKind::Stall, self.engine.take_stall() + 1),
            kind => probe.emit(Event::Cycle(kind)),
        }
    }
}

impl Frontend for IcFrontend {
    fn name(&self) -> &str {
        "ic"
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_workload::standard_traces;

    #[test]
    fn delivers_whole_trace() {
        let trace = standard_traces()[0].capture(20_000);
        let mut fe = IcFrontend::new(IcFrontendConfig::default());
        let m = fe.run(&trace);
        assert_eq!(m.total_uops(), trace.uop_count());
        assert_eq!(m.structure_uops, 0);
        assert_eq!(m.delivery_cycles, 0);
        assert_eq!(m.cycles, m.build_cycles + m.stall_cycles);
    }

    #[test]
    fn bandwidth_is_decoder_limited() {
        let trace = standard_traces()[0].capture(20_000);
        let mut fe = IcFrontend::new(IcFrontendConfig::default());
        let m = fe.run(&trace);
        let upc = m.overall_uops_per_cycle();
        // A single-ported IC frontend cannot sustain anything near the
        // 8-uop renamer width on branchy integer code.
        assert!(upc > 0.5 && upc < 6.0, "uops/cycle {upc}");
    }

    #[test]
    fn name_is_stable() {
        let fe = IcFrontend::new(IcFrontendConfig::default());
        assert_eq!(fe.name(), "ic");
    }
}
