//! The common frontend interface.

use crate::metrics::FrontendMetrics;
use crate::oracle::OracleStream;
use xbc_obs::EventSink;
use xbc_workload::{InstSource, Trace};

/// The one replay loop behind every `run*` entry point: steps `fe`
/// against `oracle` (traced when `sink` is set) until the stream drains,
/// with the forward-progress watchdog. Shared so the resident and
/// streaming paths cannot drift apart.
///
/// # Panics
///
/// Panics if the frontend stops delivering uops for 10,000 consecutive
/// cycles (a livelocked pointer-repair loop must fail loudly rather
/// than spin; the longest legal stall is one misprediction penalty
/// plus an IC miss).
fn drive<F: Frontend + ?Sized>(
    fe: &mut F,
    oracle: &mut OracleStream<'_>,
    mut sink: Option<&mut dyn EventSink>,
) -> FrontendMetrics {
    let mut metrics = FrontendMetrics::default();
    let mut last_delivered = 0u64;
    let mut stuck_cycles = 0u32;
    while !oracle.done() {
        match sink.as_deref_mut() {
            Some(s) => fe.step_traced(oracle, &mut metrics, s),
            None => fe.step(oracle, &mut metrics),
        }
        if oracle.delivered_uops() == last_delivered {
            stuck_cycles += 1;
            assert!(
                stuck_cycles < 10_000,
                "{} frontend livelock at inst {} (ip {}): {}",
                fe.name(),
                oracle.inst_index(),
                oracle.fetch_ip(),
                fe.state_brief()
            );
        } else {
            last_delivered = oracle.delivered_uops();
            stuck_cycles = 0;
        }
    }
    metrics
}

/// A trace-driven frontend model: replays a committed instruction stream
/// and reports how many cycles it took and where the uops came from.
///
/// Implementations in this workspace: [`crate::IcFrontend`] (pure
/// instruction cache), [`crate::UopCacheFrontend`] (decoded cache, paper
/// §2.2), [`crate::TraceCacheFrontend`] (paper §2.3), and the XBC frontend
/// in the `xbc` crate (paper §3).
///
/// The unit of progress is [`Frontend::step`]: one machine cycle against
/// the oracle cursor. [`Frontend::run`] is a provided whole-trace loop
/// over `step` with a forward-progress watchdog; checkers (the `xbc-check`
/// crate's lockstep differential harness) drive `step` directly so they
/// can compare streams and audit state *between* cycles instead of only at
/// the end of a run.
pub trait Frontend {
    /// Short machine-readable name (used in report tables).
    fn name(&self) -> &str;

    /// Advances the model by exactly one cycle against `oracle`,
    /// accumulating into `metrics`. Every call must add at least one cycle
    /// to `metrics.cycles`.
    ///
    /// # Panics
    ///
    /// May panic if called when `oracle.done()` — callers check first.
    fn step(&mut self, oracle: &mut OracleStream<'_>, metrics: &mut FrontendMetrics);

    /// [`Frontend::step`], with cycle-level event tracing into `sink`.
    ///
    /// Emits one `Event` per counter bump (so a `Reconciler` fold of
    /// the stream reproduces `metrics` exactly) plus observability-only
    /// detail, closing with exactly one `Event::Cycle`. The default
    /// ignores `sink` and just steps — every frontend in this workspace
    /// overrides it; the default exists so external `Frontend` impls
    /// (if any) keep compiling, degrading to an empty trace.
    ///
    /// # Panics
    ///
    /// Same contract as [`Frontend::step`].
    fn step_traced(
        &mut self,
        oracle: &mut OracleStream<'_>,
        metrics: &mut FrontendMetrics,
        sink: &mut dyn EventSink,
    ) {
        let _ = sink;
        self.step(oracle, metrics);
    }

    /// Label of the current internal mode (`"build"` / `"delivery"`), for
    /// divergence reports. Single-mode frontends report `"build"`.
    fn mode_label(&self) -> &'static str {
        "build"
    }

    /// One-line summary of internal state for watchdog / divergence
    /// diagnostics. Default: empty.
    fn state_brief(&self) -> String {
        String::new()
    }

    /// Structural self-audit: verifies the model's internal invariants
    /// (duplicate-free arrays, consistent counters, valid pointers).
    /// Returns a description of the first violation found. Frontends
    /// without auditable structure report `Ok(())`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }

    /// Replays the whole trace, returning accumulated metrics.
    ///
    /// A frontend is single-shot per run: internal predictor/cache state
    /// persists across calls, which models a warm restart; create a fresh
    /// instance for an independent run.
    ///
    /// # Panics
    ///
    /// Panics if the frontend stops delivering uops for 10,000 consecutive
    /// cycles (a livelocked pointer-repair loop must fail loudly rather
    /// than spin; the longest legal stall is one misprediction penalty
    /// plus an IC miss).
    fn run(&mut self, trace: &Trace) -> FrontendMetrics {
        drive(self, &mut OracleStream::new(trace), None)
    }

    /// [`Frontend::run`], tracing every cycle's events into `sink`.
    ///
    /// Same replay loop and watchdog as [`Frontend::run`], driving
    /// [`Frontend::step_traced`] instead of `step`.
    ///
    /// # Panics
    ///
    /// Same livelock watchdog as [`Frontend::run`].
    fn run_traced(&mut self, trace: &Trace, sink: &mut dyn EventSink) -> FrontendMetrics {
        drive(self, &mut OracleStream::new(trace), Some(sink))
    }

    /// [`Frontend::run`] over a streaming instruction source: the trace
    /// is pulled through a bounded window (default
    /// [`crate::DEFAULT_STREAM_WINDOW`] instructions), so host memory is
    /// O(window) however long the trace is. Metrics are bit-identical to
    /// a resident [`Frontend::run`] of the same committed stream.
    ///
    /// A source that can turn out corrupt (`xbc_workload::TraceStream`)
    /// ends at its first bad record instead of panicking, so the metrics
    /// are only as good as the source's verdict: check it before using
    /// them.
    ///
    /// # Panics
    ///
    /// Same livelock watchdog as [`Frontend::run`].
    fn run_streamed(&mut self, source: &mut dyn InstSource) -> FrontendMetrics {
        drive(self, &mut OracleStream::streaming(source), None)
    }

    /// [`Frontend::run_streamed`], tracing every cycle's events into
    /// `sink`.
    ///
    /// # Panics
    ///
    /// Same contract as [`Frontend::run_streamed`].
    fn run_streamed_traced(
        &mut self,
        source: &mut dyn InstSource,
        sink: &mut dyn EventSink,
    ) -> FrontendMetrics {
        drive(self, &mut OracleStream::streaming(source), Some(sink))
    }
}
