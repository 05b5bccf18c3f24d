//! The sweep engine: runs (trace × frontend-configuration) grids in
//! parallel and collects result rows.
//!
//! Parallelism is **cell-level**: the unit of scheduled work is one
//! `(trace, frontend)` cell pulled from a single shared queue, so a
//! sweep of N configurations over M traces scales to `min(threads, N×M)`
//! busy workers — not `min(threads, M)` as a trace-major scheduler
//! would. Each trace is still captured exactly once per run: the first
//! worker that needs it captures into an `Arc<Trace>` behind a per-trace
//! [`OnceLock`]; workers that reach sibling cells in the meantime block
//! on that lock and then share the capture. Row order stays
//! deterministic (trace-major, frontend-minor) regardless of threading.
//!
//! When a [`Store`] is attached ([`Sweep::with_store`]), the engine is
//! fully cached: each (trace, frontend, insts) cell first consults the
//! result cache, and only cells that miss cost a capture + simulation.
//! A re-run with unchanged parameters performs zero captures and zero
//! simulations — it is a pure replay of cached rows.

use crate::bench::{SweepBench, WorkerStat};
use crate::report::{rows_from_json, Row};
use crate::spec::FrontendSpec;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use xbc_frontend::{Frontend, FrontendMetrics, OracleStream, Reconciler};
use xbc_obs::{jsonl, EventSink, NullSink, VecSink};
use xbc_store::{CaptureOutcome, Store, StreamCapture, StreamReplay};
use xbc_workload::{InstSource, Trace, TraceSpec};

/// Bumped whenever simulator semantics change, so stale cached results
/// are invalidated rather than silently replayed.
pub const CODE_VERSION: u32 = 1;

/// The result-cache key of one (trace, frontend, insts) cell: every
/// input that determines the row, plus [`CODE_VERSION`]. Public so
/// tests and tooling can address individual cells (e.g. to forge or
/// evict an entry).
pub fn result_key(spec: &TraceSpec, fe: &FrontendSpec, insts: usize) -> String {
    format!(
        "row|name={}|suite={}|seed={}|functions={}|insts={insts}|fe={}|code={CODE_VERSION}",
        spec.name,
        spec.suite,
        spec.seed,
        spec.functions,
        fe.key()
    )
}

/// Resolves a requested worker count: `0` means one worker per
/// available core (falling back to 4 when the core count is unknown).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        requested
    }
}

/// Runs `work(i)` for every cell index in `0..cells`, distributing the
/// cells over at most `threads` workers that pull from one shared
/// atomic queue. Returns one [`WorkerStat`] per spawned worker.
fn parallel_cells<F>(cells: usize, threads: usize, work: F) -> Vec<WorkerStat>
where
    F: Fn(usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let stats: Mutex<Vec<WorkerStat>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells) {
            scope.spawn(|| {
                let mut busy = Duration::ZERO;
                let mut done = 0usize;
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= cells {
                        break;
                    }
                    let t0 = Instant::now();
                    work(idx);
                    busy += t0.elapsed();
                    done += 1;
                }
                stats
                    .lock()
                    .expect("worker stats lock")
                    .push(WorkerStat { cells: done, busy_ms: busy.as_millis() as u64 });
            });
        }
    });
    stats.into_inner().expect("workers joined")
}

/// The capture-cost share of the `rank`-th cell (0-based) among the
/// `missing` cells whose shared capture cost `total_ms`: every cell
/// gets the truncated average, and the first `total_ms % missing` cells
/// get one extra millisecond, so the shares sum to exactly `total_ms`
/// — no remainder is dropped. Public so other schedulers over the same
/// cell model (the `xbc-serve` daemon) apportion capture cost the same
/// way.
pub fn capture_share(total_ms: u64, missing: usize, rank: usize) -> u64 {
    debug_assert!(rank < missing, "share rank out of range");
    total_ms / missing as u64 + u64::from((rank as u64) < total_ms % missing as u64)
}

/// One unit of scheduled work: a (trace, frontend) cell that missed the
/// result cache, plus its rank among the trace's missing cells (used to
/// apportion the shared capture cost deterministically).
struct Cell {
    trace: usize,
    fe: usize,
    rank: usize,
    missing: usize,
}

/// How a sweep's workers obtain one trace's committed stream after the
/// per-trace `OnceLock` leader resolved it.
enum TraceHandle {
    /// Materialized in memory (uncached sweeps, checked/traced runs, or
    /// `stream_capture` off), with the leader's capture/load cost.
    Resident(Arc<Trace>, u64),
    /// On disk in the store — captured streamed (possibly overlapped
    /// with the leader's own simulation) or already cached. Sibling
    /// cells stream it from the store; nobody holds the whole trace.
    OnDisk,
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Traces to replay.
    pub traces: Vec<TraceSpec>,
    /// Frontend configurations to run each trace through.
    pub frontends: Vec<FrontendSpec>,
    /// Dynamic instructions per trace.
    pub insts: usize,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Optional trace/result store; `None` disables caching.
    pub store: Option<Arc<Store>>,
    /// Emit per-trace progress lines to stderr (default on).
    pub progress: bool,
    /// Verify accounting identities and structural invariants while
    /// simulating (default off). Checked runs produce *identical* rows —
    /// the checks observe, they never perturb — so [`CODE_VERSION`] is
    /// unaffected; cells replayed from the result cache are not re-run.
    pub check: bool,
    /// Write a cycle-level `xbc-events-v1` JSONL event stream for every
    /// cell to this path. Tracing bypasses the result cache (every cell
    /// is simulated so the stream is complete) and the file is written
    /// in deterministic trace-major cell order after all workers join —
    /// byte-identical regardless of `threads`. Rows are unaffected:
    /// tracing observes, it never perturbs.
    pub trace_events: Option<String>,
    /// Capture cold traces *streamed* into the store, overlapping the
    /// capture with the leader cell's simulation (default on; only takes
    /// effect with a store attached, on plain runs — checked and traced
    /// runs need the resident trace). Off restores strict
    /// capture-then-simulate, the A/B baseline for the overlap win. Rows
    /// are identical either way — the committed stream is byte-identical
    /// by construction.
    pub stream_capture: bool,
}

impl Sweep {
    /// Creates an uncached sweep over the given traces and frontends
    /// with `insts` instructions per trace.
    ///
    /// # Panics
    ///
    /// Panics if any list is empty or `insts` is zero.
    pub fn new(traces: Vec<TraceSpec>, frontends: Vec<FrontendSpec>, insts: usize) -> Self {
        assert!(!traces.is_empty(), "sweep needs at least one trace");
        assert!(!frontends.is_empty(), "sweep needs at least one frontend");
        assert!(insts > 0, "sweep needs a positive instruction budget");
        Sweep {
            traces,
            frontends,
            insts,
            threads: 0,
            store: None,
            progress: true,
            check: false,
            trace_events: None,
            stream_capture: true,
        }
    }

    /// Attaches a trace/result store; subsequent [`run`](Sweep::run)
    /// calls consult it before capturing or simulating anything.
    pub fn with_store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Runs the sweep. Every `(trace, frontend)` cell is one unit of
    /// work on a shared queue; each trace is captured at most once and
    /// shared by all its cells, so every configuration sees the
    /// identical committed path (the paper's trace-driven methodology).
    /// With a store attached, cells whose results are cached skip both
    /// the capture and the simulation.
    ///
    /// Rows are returned grouped by trace (in input order), then by
    /// frontend (in input order) — deterministic regardless of threading.
    pub fn run(&self) -> Vec<Row> {
        self.run_with_bench().0
    }

    /// Runs the sweep and also returns the scheduler's performance
    /// accounting: wall time, capture/sim split, cache effectiveness,
    /// and per-worker utilization (the `--bench-json` payload).
    pub fn run_with_bench(&self) -> (Vec<Row>, SweepBench) {
        let wall0 = Instant::now();
        let n_fe = self.frontends.len();
        let n_cells = self.traces.len() * n_fe;
        let mut rows: Vec<Option<Row>> = vec![None; n_cells];

        // Phase 1: probe the result cache. Sequential on purpose — each
        // probe is one small CRC-checked read, negligible next to a
        // simulation, and a single pass gives a deterministic view of
        // which cells miss before any work is scheduled. A traced sweep
        // skips the probe: cached cells would leave holes in the event
        // stream, so every cell is simulated (captures stay cached).
        if let Some(store) = self.store.as_ref().filter(|_| self.trace_events.is_none()) {
            for (ti, spec) in self.traces.iter().enumerate() {
                for (fi, fe) in self.frontends.iter().enumerate() {
                    let key = result_key(spec, fe, self.insts);
                    let Some(body) = store.load_result(&key) else { continue };
                    match rows_from_json(&body) {
                        Ok(parsed) if parsed.len() == 1 => {
                            rows[ti * n_fe + fi] = parsed.into_iter().next();
                        }
                        Ok(parsed) => {
                            // CRC-valid but not a single row (e.g. written
                            // by an older schema): evict so the stale entry
                            // stops costing a recompute on every run.
                            store.evict_result(
                                &key,
                                &format!("expected 1 cached row, found {}", parsed.len()),
                            );
                        }
                        Err(e) => {
                            store.evict_result(&key, &format!("undecodable cached row: {e}"));
                        }
                    }
                }
            }
        }

        // Phase 2: plan the missing cells, trace-major, so each cell's
        // rank among its trace's misses — and therefore its share of
        // the capture cost — is deterministic.
        let mut cells: Vec<Cell> = Vec::new();
        let mut trace_missing = vec![0usize; self.traces.len()];
        for (ti, tm) in trace_missing.iter_mut().enumerate() {
            let start = cells.len();
            for fi in 0..n_fe {
                if rows[ti * n_fe + fi].is_none() {
                    cells.push(Cell { trace: ti, fe: fi, rank: cells.len() - start, missing: 0 });
                }
            }
            *tm = cells.len() - start;
            for c in &mut cells[start..] {
                c.missing = *tm;
            }
            if self.progress && *tm == 0 {
                eprintln!("[sweep] {:<18} {n_fe} cached, 0 simulated", self.traces[ti].name);
            }
        }

        // Phase 3: drain the cell queue. The first cell of a trace to
        // run resolves its committed stream behind the trace's OnceLock:
        // with streamed capture, a cold trace is captured to the store
        // in the background *while the leader cell simulates it live*
        // off a bounded channel; sibling cells then stream it from disk.
        // Otherwise the leader captures (or loads) a resident trace that
        // siblings share by Arc. Workers then simulate independently.
        let threads = resolve_threads(self.threads);
        // Overlap needs the store (the capture's destination) and the
        // plain replay loop — checked/traced runs replay resident.
        let overlap_ok = self.stream_capture && !self.check && self.trace_events.is_none();
        let shared: Vec<OnceLock<TraceHandle>> =
            (0..self.traces.len()).map(|_| OnceLock::new()).collect();
        let done_rows: Mutex<Vec<(usize, Row)>> = Mutex::new(Vec::new());
        let event_sections: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let remaining: Vec<AtomicUsize> =
            trace_missing.iter().map(|&m| AtomicUsize::new(m)).collect();
        let trace_sim_ms: Vec<AtomicU64> =
            (0..self.traces.len()).map(|_| AtomicU64::new(0)).collect();
        let captures = AtomicU64::new(0);
        let capture_ms_total = AtomicU64::new(0);
        let sim_ms_total = AtomicU64::new(0);
        let overlap_ms_total = AtomicU64::new(0);
        let overlapped_cells = AtomicU64::new(0);
        let workers = parallel_cells(cells.len(), threads, |i| {
            let cell = &cells[i];
            let spec = &self.traces[cell.trace];
            let fe = &self.frontends[cell.fe];
            // The overlapped leader simulates its own cell *inside* the
            // OnceLock closure (the channel exists only there); its
            // result rides out through this slot.
            let mut leader_sim: Option<(FrontendMetrics, u64, u64)> = None;
            let handle = shared[cell.trace].get_or_init(|| {
                if let Some(store) = self.store.as_ref().filter(|_| overlap_ok) {
                    match store.stream_capture_shared(spec, self.insts) {
                        StreamCapture::Leader(mut cap) => {
                            // Cold cell: simulate the live stream while
                            // the capture writes it to the store.
                            let t0 = Instant::now();
                            let mut src = cap.take_source();
                            let mut frontend = fe.instantiate();
                            let m = frontend.run_streamed(&mut src);
                            let cap_ms = cap.finish();
                            let wall = t0.elapsed().as_millis() as u64;
                            captures.fetch_add(1, Ordering::Relaxed);
                            capture_ms_total.fetch_add(cap_ms, Ordering::Relaxed);
                            overlap_ms_total.fetch_add(cap_ms.min(wall), Ordering::Relaxed);
                            overlapped_cells.fetch_add(1, Ordering::Relaxed);
                            leader_sim = Some((m, wall, cap_ms));
                            return TraceHandle::OnDisk;
                        }
                        // Entry already on disk (or a concurrent job
                        // just captured it): every cell streams it, no
                        // capture to account here.
                        StreamCapture::CacheHit | StreamCapture::Joined => {
                            return TraceHandle::OnDisk;
                        }
                    }
                }
                let c0 = Instant::now();
                let t = match &self.store {
                    Some(store) => store.get_or_capture(spec, self.insts),
                    None => spec.capture(self.insts),
                };
                let ms = c0.elapsed().as_millis() as u64;
                captures.fetch_add(1, Ordering::Relaxed);
                capture_ms_total.fetch_add(ms, Ordering::Relaxed);
                TraceHandle::Resident(Arc::new(t), ms)
            });
            let (m, elapsed_ms, cap_ms, sim_ms) = match handle {
                TraceHandle::Resident(trace, cap_ms) => {
                    let trace = Arc::clone(trace);
                    let sim0 = Instant::now();
                    let mut frontend = fe.instantiate();
                    let m = if self.trace_events.is_some() {
                        let mut sink = VecSink::new();
                        let m = if self.check {
                            run_checked_traced(&mut *frontend, &trace, spec.name, &mut sink)
                        } else {
                            frontend.run_traced(&trace, &mut sink)
                        };
                        if self.check {
                            let folded = Reconciler::fold(sink.events.iter());
                            assert_eq!(
                                folded,
                                m,
                                "[--check] {} on {}: event stream does not reconcile to metrics",
                                fe.label(),
                                spec.name
                            );
                        }
                        let mut section = String::new();
                        jsonl::write_section(&mut section, &fe.label(), spec.name, &sink.events);
                        event_sections
                            .lock()
                            .expect("event section lock")
                            .push((cell.trace * n_fe + cell.fe, section));
                        m
                    } else if self.check {
                        run_checked(&mut *frontend, &trace, spec.name)
                    } else {
                        frontend.run(&trace)
                    };
                    let sim_ms = sim0.elapsed().as_millis() as u64;
                    (m, capture_share(*cap_ms, cell.missing, cell.rank) + sim_ms, *cap_ms, sim_ms)
                }
                TraceHandle::OnDisk => {
                    if let Some((m, wall, cap_ms)) = leader_sim.take() {
                        // The overlapped leader: its cell's wall clock
                        // covers capture and simulation together; the
                        // capture share is `cap_ms` and the rest is sim,
                        // so attributions sum to the measured wall with
                        // no double-counting.
                        (m, wall, cap_ms, wall.saturating_sub(cap_ms))
                    } else {
                        let store = self.store.as_ref().expect("on-disk handle implies a store");
                        match replay_stored(store, spec, fe, self.insts) {
                            StreamReplay::Verified((m, open_ms, sim_ms)) => {
                                (m, open_ms + sim_ms, 0, sim_ms)
                            }
                            StreamReplay::Miss | StreamReplay::Corrupt => {
                                // Eviction race (the entry vanished
                                // between the leader's capture and this
                                // replay), or the entry failed its
                                // verdict and was evicted just now.
                                // Regenerate resident on a fresh frontend.
                                let c0 = Instant::now();
                                let (trace, outcome) =
                                    store.get_or_capture_shared(spec, self.insts);
                                let cap_ms = c0.elapsed().as_millis() as u64;
                                if matches!(outcome, CaptureOutcome::Captured) {
                                    captures.fetch_add(1, Ordering::Relaxed);
                                    capture_ms_total.fetch_add(cap_ms, Ordering::Relaxed);
                                }
                                let sim0 = Instant::now();
                                let mut frontend = fe.instantiate();
                                let m = frontend.run(&trace);
                                let sim_ms = sim0.elapsed().as_millis() as u64;
                                (m, cap_ms + sim_ms, cap_ms, sim_ms)
                            }
                        }
                    }
                }
            };
            sim_ms_total.fetch_add(sim_ms, Ordering::Relaxed);
            trace_sim_ms[cell.trace].fetch_add(sim_ms, Ordering::Relaxed);
            let mut row = Row::new(spec.name, &spec.suite.to_string(), *fe, self.insts, &m);
            row.elapsed_ms = elapsed_ms;
            if let Some(store) = &self.store {
                store.store_result(
                    &result_key(spec, fe, self.insts),
                    &crate::report::to_json(std::slice::from_ref(&row)),
                );
            }
            done_rows.lock().expect("sweep result lock").push((cell.trace * n_fe + cell.fe, row));
            if remaining[cell.trace].fetch_sub(1, Ordering::AcqRel) == 1 && self.progress {
                eprintln!(
                    "[sweep] {:<18} {} cached, {} simulated, capture {} ms, sim {} ms",
                    spec.name,
                    n_fe - cell.missing,
                    cell.missing,
                    cap_ms,
                    trace_sim_ms[cell.trace].load(Ordering::Relaxed)
                );
            }
        });
        for (idx, row) in done_rows.into_inner().expect("workers joined") {
            rows[idx] = Some(row);
        }
        if let Some(path) = &self.trace_events {
            // Deterministic trace-major cell order, whatever the thread
            // interleaving was.
            let mut sections = event_sections.into_inner().expect("workers joined");
            sections.sort_by_key(|(idx, _)| *idx);
            let out: String = sections.into_iter().map(|(_, s)| s).collect();
            match std::fs::write(path, out) {
                Ok(()) => {
                    if self.progress {
                        eprintln!("[sweep] wrote event trace {path}");
                    }
                }
                Err(e) => eprintln!("[sweep] failed to write event trace {path}: {e}"),
            }
        }

        let bench = SweepBench {
            threads,
            traces: self.traces.len(),
            frontends: n_fe,
            total_cells: n_cells,
            cached_cells: n_cells - cells.len(),
            simulated_cells: cells.len(),
            deduped_cells: 0,
            captures: captures.into_inner(),
            capture_ms: capture_ms_total.into_inner(),
            sim_ms: sim_ms_total.into_inner(),
            overlapped_cells: overlapped_cells.into_inner() as usize,
            overlap_ms: overlap_ms_total.into_inner(),
            wall_ms: wall0.elapsed().as_millis() as u64,
            workers,
        };
        if self.progress {
            if let Some(store) = &self.store {
                eprintln!("[xbc-store] {}", store.stats());
            }
            eprintln!("[sweep-bench] {bench}");
        }
        (rows.into_iter().map(|r| r.expect("every cell filled")).collect(), bench)
    }
}

/// Steps a frontend to completion while asserting, every cycle, the
/// accounting identities any correct model maintains (uop conservation
/// and the build/delivery/stall partition), then runs the frontend's
/// structural self-audit. Behaviorally identical to [`Frontend::run`] —
/// only observation is added — so checked and unchecked rows match.
///
/// # Panics
///
/// Panics with a diagnostic naming the frontend, trace, and cycle on the
/// first violation.
pub fn run_checked(fe: &mut dyn Frontend, trace: &Trace, trace_name: &str) -> FrontendMetrics {
    run_checked_traced(fe, trace, trace_name, &mut NullSink)
}

/// Replays one cell from the store's copy of its trace on a fresh
/// frontend: open, streamed replay and the entry's verdict in one
/// [`Store::replay_trace_stream`] call. The sweep and the daemon both
/// replay stored traces through here only, so a row is never published
/// from an entry that failed its verdict. A verified replay yields the
/// metrics plus the open and replay milliseconds.
pub fn replay_stored(
    store: &Store,
    spec: &TraceSpec,
    fe: &FrontendSpec,
    insts: usize,
) -> StreamReplay<(FrontendMetrics, u64, u64)> {
    let open0 = Instant::now();
    store.replay_trace_stream(spec, insts, |stream| {
        let open_ms = open0.elapsed().as_millis() as u64;
        let sim0 = Instant::now();
        let m = fe.instantiate().run_streamed(stream);
        (m, open_ms, sim0.elapsed().as_millis() as u64)
    })
}

/// [`run_checked`] with an event sink attached: every step goes through
/// [`Frontend::step_traced`], so the sink sees the full `xbc-obs` event
/// stream while the per-cycle identities are asserted. With a
/// [`NullSink`] this *is* `run_checked`.
///
/// # Panics
///
/// Panics with a diagnostic naming the frontend, trace, and cycle on the
/// first violation.
pub fn run_checked_traced(
    fe: &mut dyn Frontend,
    trace: &Trace,
    trace_name: &str,
    sink: &mut dyn EventSink,
) -> FrontendMetrics {
    run_checked_oracle(fe, &mut OracleStream::new(trace), trace_name, sink)
}

/// [`run_checked`] over a streaming instruction source: the checked
/// replay loop against a windowed oracle (`Frontend::run_streamed` with
/// every per-cycle identity asserted), so verified replays too are
/// O(window) in host memory.
///
/// A source that can fail (a `TraceStream`) ends early instead of
/// panicking; check its verdict before trusting the result.
///
/// # Panics
///
/// Same contract as [`run_checked`].
pub fn run_checked_streamed(
    fe: &mut dyn Frontend,
    source: &mut dyn InstSource,
    trace_name: &str,
    sink: &mut dyn EventSink,
) -> FrontendMetrics {
    run_checked_oracle(fe, &mut OracleStream::streaming(source), trace_name, sink)
}

/// The checked replay loop itself, over an already-built oracle cursor
/// (resident or streaming): asserts the accounting identities after
/// every cycle, then runs the structural self-audits.
///
/// # Panics
///
/// Panics with a diagnostic naming the frontend, trace, and cycle on the
/// first violation.
pub fn run_checked_oracle(
    fe: &mut dyn Frontend,
    oracle: &mut OracleStream<'_>,
    trace_name: &str,
    sink: &mut dyn EventSink,
) -> FrontendMetrics {
    let mut metrics = FrontendMetrics::default();
    let mut stuck = 0u32;
    let mut last_delivered = 0u64;
    while !oracle.done() {
        let before = metrics.cycles;
        fe.step_traced(oracle, &mut metrics, sink);
        assert!(
            metrics.cycles > before,
            "[--check] {} on {trace_name}: step added no cycle at uop {}",
            fe.name(),
            oracle.delivered_uops()
        );
        assert_eq!(
            metrics.cycles,
            metrics.build_cycles + metrics.delivery_cycles + metrics.stall_cycles,
            "[--check] {} on {trace_name}: cycle partition broken at cycle {}",
            fe.name(),
            metrics.cycles
        );
        assert_eq!(
            metrics.d2b_cause_sum(),
            metrics.delivery_to_build,
            "[--check] {} on {trace_name}: delivery-to-build switch without a cause at cycle {}",
            fe.name(),
            metrics.cycles
        );
        assert_eq!(
            metrics.total_uops(),
            oracle.delivered_uops(),
            "[--check] {} on {trace_name}: uop conservation broken at cycle {}",
            fe.name(),
            metrics.cycles
        );
        if oracle.delivered_uops() == last_delivered {
            stuck += 1;
            assert!(
                stuck < 10_000,
                "[--check] {} on {trace_name}: livelock at inst {}",
                fe.name(),
                oracle.inst_index()
            );
        } else {
            last_delivered = oracle.delivered_uops();
            stuck = 0;
        }
    }
    if let Err(e) = fe.check_invariants() {
        panic!("[--check] {} on {trace_name}: invariant violation: {e}", fe.name());
    }
    if let Err(e) = xbc::XbcInvariants::check_metrics(&metrics) {
        panic!("[--check] {} on {trace_name}: metrics invariant violation: {e}", fe.name());
    }
    metrics
}

/// One `(trace, label, metrics)` result of [`sweep_custom`].
pub type CustomRow = (String, String, FrontendMetrics);

/// A fully custom sweep for ablations: `make(config_index)` builds a cold
/// frontend for each labelled configuration. Scheduling is cell-level,
/// like [`Sweep::run`]: every (trace, label) cell is one queue item, and
/// each trace is captured once and shared by all its cells. Returns
/// `(trace, label, metrics)` tuples in deterministic trace-major order.
///
/// With a `store`, captures go through the trace cache; results are not
/// cached (the configurations are opaque closures, so they have no
/// stable identity to key on).
pub fn sweep_custom<F>(
    traces: &[TraceSpec],
    insts: usize,
    labels: &[&str],
    threads: usize,
    store: Option<&Store>,
    make: F,
) -> Vec<CustomRow>
where
    F: Fn(usize) -> Box<dyn Frontend + Send> + Sync,
{
    assert!(!traces.is_empty() && !labels.is_empty() && insts > 0, "empty custom sweep");
    let n_cfg = labels.len();
    let shared: Vec<OnceLock<Arc<Trace>>> = (0..traces.len()).map(|_| OnceLock::new()).collect();
    let results: Mutex<Vec<(usize, CustomRow)>> = Mutex::new(Vec::new());
    parallel_cells(traces.len() * n_cfg, resolve_threads(threads), |cell| {
        let (ti, ci) = (cell / n_cfg, cell % n_cfg);
        let spec = &traces[ti];
        let trace = Arc::clone(shared[ti].get_or_init(|| {
            Arc::new(match store {
                Some(s) => s.get_or_capture(spec, insts),
                None => spec.capture(insts),
            })
        }));
        let mut fe = make(ci);
        let m = fe.run(&trace);
        results
            .lock()
            .expect("sweep result lock")
            .push((cell, (spec.name.to_owned(), labels[ci].to_owned(), m)));
    });
    let mut rows = results.into_inner().expect("workers joined");
    rows.sort_by_key(|(idx, _)| *idx);
    rows.into_iter().map(|(_, row)| row).collect()
}

/// Captures (or loads, with a `store`) each trace and applies `f` to it,
/// distributing the traces over `threads` workers. Results come back in
/// input order. This is the per-trace building block for harnesses that
/// analyze traces without sweeping frontends (e.g. fig1), so they scale
/// with `--threads` too.
pub fn map_traces_parallel<T, F>(
    specs: &[TraceSpec],
    insts: usize,
    threads: usize,
    store: Option<&Store>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&TraceSpec, &Trace) -> T + Sync,
{
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::new());
    parallel_cells(specs.len(), resolve_threads(threads), |i| {
        let spec = &specs[i];
        let trace = match store {
            Some(s) => s.get_or_capture(spec, insts),
            None => spec.capture(insts),
        };
        results.lock().expect("map result lock").push((i, f(spec, &trace)));
    });
    let mut out = results.into_inner().expect("workers joined");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_workload::standard_traces;

    #[test]
    fn small_sweep_is_deterministic_and_ordered() {
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(3).collect();
        let frontends = vec![
            FrontendSpec::Tc { total_uops: 4096, ways: 4 },
            FrontendSpec::Xbc { total_uops: 4096, ways: 2, promotion: true },
        ];
        let sweep = Sweep::new(traces.clone(), frontends.clone(), 5_000);
        let a = sweep.run();
        let b = sweep.run();
        assert_eq!(a.len(), 6);
        // Ordering: trace-major, frontend-minor.
        assert_eq!(a[0].trace, traces[0].name);
        assert_eq!(a[1].trace, traces[0].name);
        assert_eq!(a[2].trace, traces[1].name);
        assert_eq!(a[0].frontend.label(), "tc-4k");
        assert_eq!(a[1].frontend.label(), "xbc-4k");
        // Determinism.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.miss_rate, y.miss_rate);
            assert_eq!(x.cycles, y.cycles);
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic];
        let mut sweep = Sweep::new(traces, frontends, 3_000);
        let par = sweep.run();
        sweep.threads = 1;
        let seq = sweep.run();
        assert_eq!(par.len(), seq.len());
        for (x, y) in par.iter().zip(&seq) {
            assert_eq!(x.cycles, y.cycles);
        }
    }

    #[test]
    fn capture_shares_sum_to_the_measured_time() {
        // The remainder is spread over the first `total % missing`
        // cells, one extra millisecond each, so nothing is dropped.
        for (total, missing) in
            [(0u64, 1usize), (1, 3), (7, 3), (9, 3), (100, 7), (6, 6), (5, 8), (1234, 11)]
        {
            let shares: Vec<u64> = (0..missing).map(|r| capture_share(total, missing, r)).collect();
            assert_eq!(shares.iter().sum::<u64>(), total, "total={total} missing={missing}");
            // Shares are within 1 ms of each other, largest first.
            assert!(shares.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
        }
        // Overlapped cells use a different split of the same invariant:
        // the leader's wall clock covers capture and simulation
        // together, the capture attribution is the capture's own wall
        // (clamped to the cell's), and the rest is sim — so the two
        // attributions sum to exactly the measured cell time, never
        // more (the old strictly-serial accounting would have summed to
        // wall + capture, double-counting the hidden capture).
        for (wall, cap_ms) in [(100u64, 60u64), (100, 100), (50, 80), (0, 0), (7, 0)] {
            let capture_attr = cap_ms.min(wall);
            let sim_attr = wall.saturating_sub(cap_ms);
            assert_eq!(capture_attr + sim_attr, wall, "wall={wall} cap={cap_ms}");
        }
    }

    #[test]
    fn streamed_sweep_overlaps_and_matches_resident() {
        let dir =
            std::env::temp_dir().join(format!("xbc-sweep-overlap-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];

        // Baseline rows: no store, resident capture.
        let mut resident = Sweep::new(traces.clone(), frontends.clone(), 4_000);
        resident.progress = false;
        resident.stream_capture = false;
        let baseline = resident.run();

        // Cold streamed sweep: every trace is captured overlapped with
        // its leader cell's simulation.
        let store = Arc::new(Store::open(&dir).unwrap());
        let mut streamed = Sweep::new(traces.clone(), frontends, 4_000).with_store(store);
        streamed.progress = false;
        let (rows, bench) = streamed.run_with_bench();
        assert_eq!(bench.captures, traces.len() as u64, "one capture per distinct trace");
        assert_eq!(bench.overlapped_cells, traces.len(), "every cold trace overlaps one cell");
        assert!(bench.overlap_ms <= bench.capture_ms);
        assert!(bench.overlap_fraction() <= 1.0);
        for (b, r) in baseline.iter().zip(&rows) {
            assert_eq!(b.trace, r.trace);
            assert_eq!(b.cycles, r.cycles, "streamed capture must not perturb results");
            assert_eq!(b.miss_rate, r.miss_rate);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn thread_resolution() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_traces_rejected() {
        let _ = Sweep::new(vec![], vec![FrontendSpec::Ic], 10);
    }

    #[test]
    fn cached_rerun_simulates_nothing_and_matches() {
        let dir = std::env::temp_dir().join(format!("xbc-sweep-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];
        let store = Arc::new(Store::open(&dir).unwrap());
        let mut sweep = Sweep::new(traces, frontends, 3_000).with_store(Arc::clone(&store));
        sweep.progress = false;
        let fresh = sweep.run();
        let after_fresh = store.stats();
        assert_eq!(after_fresh.result_misses, 4);
        assert_eq!(after_fresh.result_hits, 0);
        let (cached, bench) = sweep.run_with_bench();
        let after_cached = store.stats();
        // The re-run hit every result cell and never touched a trace
        // (the fresh run's sibling cells streamed the freshly captured
        // entries from disk, so trace hits exist — but must not grow).
        assert_eq!(after_cached.result_hits, 4);
        assert_eq!(after_cached.trace_hits, after_fresh.trace_hits);
        assert_eq!(after_cached.trace_misses, after_fresh.trace_misses);
        assert_eq!(bench.cached_cells, 4);
        assert_eq!(bench.simulated_cells, 0);
        assert_eq!(bench.captures, 0);
        assert!(bench.workers.is_empty(), "a fully cached sweep spawns no workers");
        for (f, c) in fresh.iter().zip(&cached) {
            assert_eq!(f.trace, c.trace);
            assert_eq!(f.frontend, c.frontend);
            assert_eq!(f.cycles, c.cycles);
            assert_eq!(f.miss_rate, c.miss_rate);
            assert_eq!(f.elapsed_ms, c.elapsed_ms, "cached rows keep the original cost");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checked_sweep_rows_match_unchecked() {
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];
        let mut plain = Sweep::new(traces.clone(), frontends.clone(), 4_000);
        plain.progress = false;
        let mut checked = Sweep::new(traces, frontends, 4_000);
        checked.progress = false;
        checked.check = true;
        for (p, c) in plain.run().iter().zip(&checked.run()) {
            assert_eq!(p.cycles, c.cycles, "--check must observe, never perturb");
            assert_eq!(p.miss_rate, c.miss_rate);
        }
    }

    #[test]
    fn custom_sweep_runs_all_configs() {
        use xbc::{XbcConfig, XbcFrontend};
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let rows = sweep_custom(&traces, 3_000, &["promo", "nopromo"], 0, None, |i| {
            use xbc::PromotionMode;
            Box::new(XbcFrontend::new(XbcConfig {
                total_uops: 4096,
                promotion: if i == 0 { PromotionMode::Chain } else { PromotionMode::Off },
                ..XbcConfig::default()
            }))
        });
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1, "promo");
        assert_eq!(rows[1].1, "nopromo");
        assert_eq!(rows[0].0, traces[0].name);
    }

    #[test]
    fn map_traces_parallel_keeps_input_order() {
        let specs: Vec<TraceSpec> = standard_traces().into_iter().take(3).collect();
        let names = map_traces_parallel(&specs, 1_000, 0, None, |spec, trace| {
            assert_eq!(trace.inst_count(), 1_000);
            spec.name.to_owned()
        });
        let expected: Vec<String> = specs.iter().map(|s| s.name.to_owned()).collect();
        assert_eq!(names, expected);
    }
}
