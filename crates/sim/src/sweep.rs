//! The sweep engine: runs (trace × frontend-configuration) grids in
//! parallel and collects result rows.
//!
//! Parallelism is **cell-level**: the unit of scheduled work is one
//! `(trace, frontend)` cell pulled from a single shared queue, so a
//! sweep of N configurations over M traces scales to `min(threads, N×M)`
//! busy workers — not `min(threads, M)` as a trace-major scheduler
//! would. Each trace is still captured exactly once per run: each
//! missing cell goes through the cold-cell step of [`crate::cell`], the
//! same one the `xbc-serve` daemon runs. Row order stays deterministic
//! (trace-major, frontend-minor) regardless of threading.
//!
//! When a [`Store`] is attached ([`Sweep::with_store`]), the engine is
//! fully cached: each (trace, frontend, insts) cell first consults the
//! result cache, and only cells that miss cost a capture + simulation.
//! A re-run with unchanged parameters performs zero captures and zero
//! simulations — it is a pure replay of cached rows.

use crate::bench::{SweepBench, WorkerStat};
use crate::cell::{cached_row, plan_cells, ColdRun};
use crate::fingerprint::SIM_FINGERPRINT;
use crate::report::Row;
use crate::spec::FrontendSpec;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use xbc_frontend::{Frontend, FrontendMetrics, OracleStream, Reconciler};
use xbc_obs::{jsonl, EventSink, NullSink, VecSink};
use xbc_store::Store;
use xbc_workload::{InstSource, Trace, TraceSpec};

/// The result-cache key of one (trace, frontend, insts) cell: every
/// input that determines the row, plus [`SIM_FINGERPRINT`], so a
/// simulator that computes different rows reads none of the old ones.
/// Public so tests and tooling can address individual cells (e.g. to
/// forge or evict an entry).
pub fn result_key(spec: &TraceSpec, fe: &FrontendSpec, insts: usize) -> String {
    format!(
        "row|name={}|suite={}|seed={}|functions={}|insts={insts}|fe={}|code={SIM_FINGERPRINT:016x}",
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
    /// the checks observe, they never perturb — so they share the
    /// unchecked rows' result keys; cells replayed from the result cache
    /// are not re-run.
    pub check: bool,
    /// Write a cycle-level `xbc-events-v1` JSONL event stream for every
    /// cell to this path. Tracing bypasses the result cache (every cell
    /// is simulated so the stream is complete) and the file is written
    /// in deterministic trace-major cell order after all workers join —
    /// byte-identical regardless of `threads`. Rows are unaffected:
    /// tracing observes, it never perturbs.
    pub trace_events: Option<String>,
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
                    if let Some(body) = store.load_result(&key) {
                        rows[ti * n_fe + fi] = cached_row(store, &key, &body);
                    }
                }
            }
        }

        // Phase 2: plan the missing cells, trace-major, so each cell's
        // rank among its trace's misses — and therefore its share of a
        // resident capture's cost — is deterministic.
        let cells = plan_cells(&rows, n_fe);
        let remaining: Vec<AtomicUsize> =
            (0..self.traces.len()).map(|_| AtomicUsize::new(0)).collect();
        for c in &cells {
            remaining[c.trace].store(c.missing, Ordering::Relaxed);
        }
        if self.progress {
            for (spec, left) in self.traces.iter().zip(&remaining) {
                if left.load(Ordering::Relaxed) == 0 {
                    eprintln!("[sweep] {:<18} {n_fe} cached, 0 simulated", spec.name);
                }
            }
        }

        // Phase 3: drain the cell queue through the shared cold-cell
        // step. A checked or traced sweep observes every step, so it
        // replays a resident trace through its own loop.
        let threads = resolve_threads(self.threads);
        let observed = self.check || self.trace_events.is_some();
        let cold = ColdRun::new(self.traces.len());
        let done_rows: Mutex<Vec<(usize, Row)>> = Mutex::new(Vec::new());
        let event_sections: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let trace_ms: Vec<AtomicU64> = (0..self.traces.len()).map(|_| AtomicU64::new(0)).collect();
        let workers = parallel_cells(cells.len(), threads, |i| {
            let cell = &cells[i];
            let spec = &self.traces[cell.trace];
            let fe = &self.frontends[cell.fe];
            let idx = cell.trace * n_fe + cell.fe;
            let row = if observed {
                let replay = |frontend: &mut dyn Frontend, trace: &Trace| {
                    if self.trace_events.is_none() {
                        return run_checked(frontend, trace, spec.name);
                    }
                    let mut sink = VecSink::new();
                    let m = if self.check {
                        run_checked_traced(frontend, trace, spec.name, &mut sink)
                    } else {
                        frontend.run_traced(trace, &mut sink)
                    };
                    if self.check {
                        assert_eq!(
                            Reconciler::fold(sink.events.iter()),
                            m,
                            "[--check] {} on {}: event stream does not reconcile to metrics",
                            fe.label(),
                            spec.name
                        );
                    }
                    let mut section = String::new();
                    jsonl::write_section(&mut section, &fe.label(), spec.name, &sink.events);
                    event_sections.lock().expect("event section lock").push((idx, section));
                    m
                };
                cold.resident(self.store.as_deref(), spec, fe, self.insts, cell, replay)
            } else {
                cold.simulate(self.store.as_ref(), spec, fe, self.insts, cell)
            };
            trace_ms[cell.trace].fetch_add(row.elapsed_ms, Ordering::Relaxed);
            if let Some(store) = &self.store {
                store.store_result(
                    &result_key(spec, fe, self.insts),
                    &crate::report::to_json(std::slice::from_ref(&row)),
                );
            }
            done_rows.lock().expect("sweep result lock").push((idx, row));
            if remaining[cell.trace].fetch_sub(1, Ordering::AcqRel) == 1 && self.progress {
                eprintln!(
                    "[sweep] {:<18} {} cached, {} simulated in {} ms",
                    spec.name,
                    n_fe - cell.missing,
                    cell.missing,
                    trace_ms[cell.trace].load(Ordering::Relaxed)
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
            wall_ms: wall0.elapsed().as_millis() as u64,
            workers,
            ..cold.bench()
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
        let trace = shared[ti].get_or_init(|| match store {
            Some(s) => s.get_or_capture(spec, insts),
            None => Arc::new(spec.capture(insts)),
        });
        let mut fe = make(ci);
        let m = fe.run(trace);
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
            None => Arc::new(spec.capture(insts)),
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
    fn streamed_sweep_overlaps_and_matches_resident() {
        let dir =
            std::env::temp_dir().join(format!("xbc-sweep-overlap-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
        let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];

        // Baseline rows: no store, resident capture.
        let mut resident = Sweep::new(traces.clone(), frontends.clone(), 4_000);
        resident.progress = false;
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
