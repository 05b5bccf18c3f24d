//! The three workloads: what each runs, how its timed phase measures
//! the end-to-end metrics, and how its traced phase splits the same
//! work into layers.
//!
//! * `replay` — one XBC 32K config (4 banks × 2 ways, promotion on) over
//!   six pre-captured 1M-instruction traces, one cell per request, one
//!   worker; the result cache is emptied before every pass.
//! * `sweep_cold` — a 6-trace × 10-config grid at 300k instructions on a
//!   fresh empty store every pass, two workers: a cold figure
//!   regeneration through every layer.
//! * `serve_mix` — an in-process daemon (two workers, pre-warmed store)
//!   driven by two closed-loop clients: ~85% warm figure grids (21
//!   traces × 6–8 configs at 100k instructions), ~15% the same grid
//!   plus one never-requested XBC column, which both clients request
//!   together so the daemon's single-flight dedup runs.
//!
//! Every workload also re-requests each cold grid warm, so warm and
//! cold request latency exist on all three.

use crate::layers::{self, Daemon, Reply};
use crate::report::{metric, Metric};
use crate::spans::{durations, Fold, Recorder};
use crate::stats::{self, Latency, Outcome, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;
use xbc_serve::protocol::SweepRequest;
use xbc_serve::Endpoint;
use xbc_sim::{FrontendSpec, Row, SweepBench};
use xbc_store::{fnv1a64, Store};
use xbc_workload::{Rng64, Suite, TraceSpec};

/// The seed whose output hashes are committed (see `expected.rs`).
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Warm re-requests after each cold `sweep_cold` grid: enough warm
/// samples per run for a trusted 90th percentile.
const WARM_REPEATS: usize = 10;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-config XBC replay of pre-captured traces.
    Replay,
    /// Cold multi-config sweep on an empty store.
    SweepCold,
    /// Closed-loop warm/cold request mix against the daemon.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Replay, Workload::SweepCold, Workload::ServeMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::SweepCold => "sweep_cold",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a run produced.
pub struct RunResult {
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Output checks that failed, one line each.
    pub errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

/// Per-run context.
pub struct Ctx {
    /// Workload seed: picks traces within each suite and the daemon's
    /// request sequence.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Private scratch directory inside the checkout.
    pub work: PathBuf,
}

// ---------------------------------------------------------------- inputs

/// The traces of successive passes of `replay` and `sweep_cold`: each
/// suite's traces in a seeded order, of which pass `p` takes the next two
/// (wrapping). Over a run every trace of a suite comes up about equally
/// often, so the seed changes which traces share a pass and in what
/// order, not how costly the run's trace mix is.
struct Rotation {
    suites: Vec<Vec<TraceSpec>>,
}

impl Rotation {
    fn new(seed: u64) -> Rotation {
        let all = layers::standard_traces();
        let mut rng = Rng64::seed_from_u64(seed ^ 0x7472_6163_6573);
        let suites = [Suite::SpecInt95, Suite::Sysmark32, Suite::Games]
            .map(|suite| {
                let mut mine: Vec<TraceSpec> =
                    all.iter().filter(|t| t.suite == suite).cloned().collect();
                shuffle(&mut mine, &mut rng);
                mine
            })
            .to_vec();
        Rotation { suites }
    }

    /// Two traces per suite for pass `p`.
    fn pass(&self, p: usize) -> Vec<TraceSpec> {
        self.suites
            .iter()
            .flat_map(|s| [s[(2 * p) % s.len()].clone(), s[(2 * p + 1) % s.len()].clone()])
            .collect()
    }

    /// Every trace any pass can take.
    fn all(&self) -> Vec<TraceSpec> {
        self.suites.concat()
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.uniform(i as u64 + 1) as usize);
    }
}

fn xbc(kib: usize, ways: usize, promotion: bool) -> FrontendSpec {
    FrontendSpec::Xbc { total_uops: kib * 1024, ways, promotion }
}

const REPLAY_INSTS: usize = 1_000_000;
const SWEEP_INSTS: usize = 300_000;
const SERVE_INSTS: usize = 100_000;

fn sweep_cold_configs() -> Vec<FrontendSpec> {
    use FrontendSpec::*;
    vec![
        Ic,
        UopCache { total_uops: 8192 },
        UopCache { total_uops: 32768 },
        Bbtc { total_uops: 8192 },
        Bbtc { total_uops: 32768 },
        Tc { total_uops: 8192, ways: 4 },
        Tc { total_uops: 32768, ways: 4 },
        xbc(8, 2, true),
        xbc(32, 2, true),
        xbc(32, 2, false),
    ]
}

/// The warm figure grids `serve_mix` requests (all pre-warmed). They
/// share twelve configs, as a researcher's figures share baselines.
fn warm_grids() -> Vec<Vec<FrontendSpec>> {
    use FrontendSpec::*;
    let (ic, uop8, uop32) = (Ic, UopCache { total_uops: 8192 }, UopCache { total_uops: 32768 });
    let (tc8, tc16, tc32) = (
        Tc { total_uops: 8192, ways: 4 },
        Tc { total_uops: 16384, ways: 4 },
        Tc { total_uops: 32768, ways: 4 },
    );
    let bbtc32 = Bbtc { total_uops: 32768 };
    vec![
        // Baselines against XBC at the paper's two sizes.
        vec![ic, uop8, uop32, tc8, tc32, xbc(8, 2, true), xbc(32, 2, true)],
        // XBC size scan against the trace cache.
        vec![xbc(4, 2, true), xbc(8, 2, true), xbc(16, 2, true), xbc(32, 2, true), tc16, tc32],
        // Promotion ablation beside the trace cache sizes.
        vec![
            xbc(8, 2, true),
            xbc(16, 2, true),
            xbc(32, 2, true),
            xbc(32, 2, false),
            tc8,
            tc16,
            tc32,
            uop32,
        ],
        // Block-based structures.
        vec![ic, bbtc32, uop8, uop32, tc16, xbc(16, 2, true)],
    ]
}

/// Every config of every warm grid, once.
fn warm_configs() -> Vec<FrontendSpec> {
    let mut out: Vec<FrontendSpec> = Vec::new();
    for fe in warm_grids().into_iter().flatten() {
        if !out.contains(&fe) {
            out.push(fe);
        }
    }
    out
}

/// XBC columns no warm grid holds, in a seeded order: each cold
/// request of `serve_mix` takes the next one. Only the size and the
/// promotion switch vary, so every cold column costs about the same.
fn cold_columns(seed: u64) -> Vec<FrontendSpec> {
    let warm = warm_configs();
    let mut cols: Vec<FrontendSpec> = (2..=96)
        .flat_map(|kib| [true, false].map(|p| xbc(kib, 2, p)))
        .filter(|fe| !warm.contains(fe))
        .collect();
    shuffle(&mut cols, &mut Rng64::seed_from_u64(seed ^ 0x636f_6c64));
    cols
}

/// Share of `serve_mix` requests that add a cold column.
const COLD_SHARE: f64 = 0.15;
/// A cold request comes at least every this many positions, which
/// bounds how far past the deadline the clients run.
const MAX_COLD_GAP: usize = 12;

/// One `serve_mix` client's endless request sequence: per position, the
/// warm grid to request and whether the position is cold. The cold
/// positions come from a stream whose seed both clients share, so they
/// line up; the warm grids come from the client's own stream.
struct Mix {
    cold: Rng64,
    grid: Rng64,
    gap: usize,
}

impl Mix {
    fn new(seed: u64, client: u64) -> Mix {
        Mix {
            cold: Rng64::seed_from_u64(seed ^ 0x006d_6978),
            grid: Rng64::seed_from_u64(seed ^ ((client + 1) << 32)),
            gap: 0,
        }
    }
}

impl Iterator for Mix {
    /// (warm grid index, cold?)
    type Item = (usize, bool);

    fn next(&mut self) -> Option<(usize, bool)> {
        self.gap += 1;
        let cold = self.gap >= MAX_COLD_GAP || self.cold.gen::<f64>() < COLD_SHARE;
        if cold {
            self.gap = 0;
        }
        Some((self.grid.uniform(warm_grids().len() as u64) as usize, cold))
    }
}

// ---------------------------------------------------------------- checks

/// A row without its host timing, the part the output check compares.
fn canon(r: &Row) -> String {
    let mut r = r.clone();
    r.elapsed_ms = 0;
    r.to_json(0)
}

/// Hash of the simulated fields of `rows`, in order.
pub fn rows_hash(rows: &[Row]) -> u64 {
    let text: String = rows.iter().map(canon).collect();
    fnv1a64(text.as_bytes())
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| canon(x) == canon(y))
}

/// The first row seen for each cell; a later pass must reproduce it.
#[derive(Default)]
struct Seen(BTreeMap<(String, String), String>);

impl Seen {
    /// Checks `rows` against earlier passes, failing the cells that differ.
    fn check(&mut self, rows: &[Row], tally: &mut Tally, errors: &mut Vec<String>) {
        for r in rows {
            let first = self.0.entry(cell_key(r)).or_insert_with(|| canon(r));
            if *first != canon(r) {
                tally.failed += 1;
                errors.push(format!(
                    "{} on {}: row differs between passes",
                    r.frontend.label(),
                    r.trace
                ));
            }
        }
    }
}

fn cell_key(r: &Row) -> (String, String) {
    (r.trace.clone(), r.frontend.key())
}

/// Checks `rows` against the committed hash for `w` when running the
/// default seed.
fn check_hash(
    w: Workload,
    ctx: &Ctx,
    rows: &[Row],
    errors: &mut Vec<String>,
    lines: &mut Vec<String>,
) {
    let got = rows_hash(rows);
    lines.push(format!("row hash: {got:#018x} over {} rows (seed {})", rows.len(), ctx.seed));
    if ctx.seed == DEFAULT_SEED {
        let want = crate::expected::row_hash(w);
        if got != want {
            errors.push(format!("{}: row hash {got:#018x} != committed {want:#018x}", w.name()));
        }
    }
}

// ---------------------------------------------------------------- timing helpers

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `setup` [`SETUPS`] times, tearing down all but the last, and
/// returns the last with the median set-up time.
fn repeated_setup<T>(mut setup: impl FnMut(usize) -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let v = setup(k);
        times.push(secs(t0));
        if let Some(old) = kept.replace(v) {
            teardown(old);
        }
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

/// Returns freed heap to the system and resets the process's
/// resident-set high-water mark, so what is measured next does not
/// inherit the peak or the heap of what ran before. Returns a report line.
fn reset_peak_rss() -> String {
    trim_heap();
    match std::fs::write("/proc/self/clear_refs", "5") {
        Ok(()) => format!("peak RSS reset to {:.1} MiB", peak_rss_mb()),
        Err(e) => format!("cannot reset the RSS high-water mark: {e}"),
    }
}

/// Hands freed heap back to the system, so a resident set measured next
/// does not depend on how fragmented earlier work left the heap.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain byte count, works
        // only on the allocator's own state under its own locks, and may
        // be called from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The resident-set high-water mark in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn remove_dir(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

/// The end-to-end metrics every workload reports.
struct EndToEnd {
    setup_s: f64,
    muops_per_s: f64,
    cells_per_s: f64,
    warm: Vec<f64>,
    cold: Vec<f64>,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn metrics(&self, lines: &mut Vec<String>) -> Vec<Metric> {
        let warm =
            Latency::of(&self.warm).unwrap_or(Latency { n: 0, p50: 0.0, p90: 0.0, tail: None });
        let cold =
            Latency::of(&self.cold).unwrap_or(Latency { n: 0, p50: 0.0, p90: 0.0, tail: None });
        lines.push(format!("setup_s = {:.4} s (median of {SETUPS} set-ups)", self.setup_s));
        lines.push(format!("muops_per_s = {:.4} Muops/s", self.muops_per_s));
        lines.push(format!("cells_per_s = {:.4} cells/s", self.cells_per_s));
        lines.push(warm.describe("warm_req_ms", "ms"));
        lines.push(cold.describe("cold_req_ms", "ms"));
        lines.push(format!("peak_rss_mb = {:.4} MiB", self.peak_rss_mb));
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("muops_per_s", self.muops_per_s, "Muops/s"),
            metric("cells_per_s", self.cells_per_s, "cells/s"),
            metric("warm_req_ms_p50", warm.p50, "ms"),
            metric("warm_req_ms_p90", warm.p90, "ms"),
            metric("cold_req_ms_p50", cold.p50, "ms"),
            metric("cold_req_ms_p90", cold.p90, "ms"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

// ---------------------------------------------------------------- replay

struct ReplayPlan {
    rotation: Rotation,
    fe: FrontendSpec,
    insts: usize,
}

impl ReplayPlan {
    fn new(seed: u64) -> ReplayPlan {
        ReplayPlan { rotation: Rotation::new(seed), fe: xbc(32, 2, true), insts: REPLAY_INSTS }
    }

    fn setup(&self, dir: &Path, traces: &[TraceSpec]) -> Arc<Store> {
        let store = layers::open_store(dir);
        for t in traces {
            layers::capture(&store, t, self.insts);
        }
        store
    }

    /// One pass: every trace as a cold one-cell request (its cached row
    /// forgotten first), then the same request warm. Returns the cold
    /// rows and their benches.
    fn pass(
        &self,
        traces: &[TraceSpec],
        store: &Arc<Store>,
        tally: &mut Tally,
        warm_ms: &mut Vec<f64>,
        cold_ms: &mut Vec<f64>,
    ) -> (Vec<Row>, Vec<SweepBench>) {
        for t in traces {
            layers::forget_row(store, t, &self.fe, self.insts);
        }
        let mut rows = Vec::new();
        let mut benches = Vec::new();
        for t in traces {
            let one = std::slice::from_ref(t);
            let fes = std::slice::from_ref(&self.fe);
            let t0 = Instant::now();
            let (cold, cb) = layers::sweep(one, fes, self.insts, 1, Some(store));
            cold_ms.push(secs(t0) * 1e3);
            let t1 = Instant::now();
            let (warm, wb) = layers::sweep(one, fes, self.insts, 1, Some(store));
            warm_ms.push(secs(t1) * 1e3);
            let ok_cold = cold.len() == 1 && cb.simulated_cells == 1;
            let ok_warm = wb.cached_cells == 1 && same_rows(&cold, &warm);
            tally.record(if ok_cold { Outcome::Ok } else { Outcome::Mismatch }, 1);
            tally.record(if ok_warm { Outcome::Ok } else { Outcome::Mismatch }, 1);
            rows.extend(cold);
            benches.push(cb);
        }
        (rows, benches)
    }
}

fn run_replay(ctx: &Ctx) -> RunResult {
    let plan = ReplayPlan::new(ctx.seed);
    let mut lines = vec![format!(
        "replay: {} x {} insts, {}, threads 1, 2 traces per suite per pass; first pass: {}",
        plan.rotation.pass(0).len(),
        plan.insts,
        plan.fe.label(),
        names(&plan.rotation.pass(0))
    )];
    let all = plan.rotation.all();
    let (store, setup_s) = repeated_setup(
        |k| plan.setup(&ctx.work.join(format!("store-{k}")), &all),
        |s| remove_dir(s.root()),
    );
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut warm, mut cold) = (vec![], vec![]);
    let (mut uops, mut cells) = (0u64, 0usize);
    let mut seen = Seen::default();
    let mut per_trace: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut peaks = Vec::new();
    let t0 = Instant::now();
    let mut p = 0;
    while p == 0 || secs(t0) < ctx.seconds {
        // Untimed: each pass's peak is measured on its own.
        let note = reset_peak_rss();
        if p == 0 {
            lines.push(note);
        }
        let traces = plan.rotation.pass(p);
        let before = cold.len();
        let (rows, _) = plan.pass(&traces, &store, &mut tally, &mut warm, &mut cold);
        uops += rows.iter().map(|r| r.uops).sum::<u64>();
        cells += rows.len();
        for (t, ms) in traces.iter().zip(&cold[before..]) {
            per_trace.entry(t.name).or_default().push(*ms);
        }
        if p == 0 {
            check_hash(Workload::Replay, ctx, &rows, &mut errors, &mut lines);
        }
        seen.check(&rows, &mut tally, &mut errors);
        peaks.push(peak_rss_mb());
        p += 1;
    }
    let cold_s = cold.iter().sum::<f64>() / 1e3;
    let e2e = EndToEnd {
        setup_s,
        muops_per_s: uops as f64 / cold_s / 1e6,
        cells_per_s: cells as f64 / cold_s,
        warm,
        cold,
        peak_rss_mb: stats::median(&peaks),
    };
    lines.push(format!("passes: {p}; peak_rss_mb is the median of the per-pass peaks"));
    let per_trace: Vec<String> =
        per_trace.iter().map(|(t, v)| format!("{t} {:.1}", stats::median(v))).collect();
    lines.push(format!("median cold request ms per trace: {}", per_trace.join(", ")));
    let metrics = e2e.metrics(&mut lines);
    RunResult { tally, errors, metrics, lines }
}

// ---------------------------------------------------------------- sweep_cold

struct SweepPlan {
    rotation: Rotation,
    fes: Vec<FrontendSpec>,
    insts: usize,
    threads: usize,
}

impl SweepPlan {
    fn new(seed: u64) -> SweepPlan {
        SweepPlan {
            rotation: Rotation::new(seed),
            fes: sweep_cold_configs(),
            insts: SWEEP_INSTS,
            threads: 2,
        }
    }

    /// One cold sweep over `traces` on a fresh store in `dir`, then the
    /// same grid [`WARM_REPEATS`] times warm. Returns (cold rows, cold
    /// bench, cold ms, warm ms of each repeat).
    fn pass(
        &self,
        traces: &[TraceSpec],
        dir: &Path,
        tally: &mut Tally,
    ) -> (Vec<Row>, SweepBench, f64, Vec<f64>) {
        remove_dir(dir);
        let store = layers::open_store(dir);
        let t0 = Instant::now();
        let (cold, cb) = layers::sweep(traces, &self.fes, self.insts, self.threads, Some(&store));
        let cold_ms = secs(t0) * 1e3;
        let cells = traces.len() * self.fes.len();
        let ok_cold = cold.len() == cells && cb.simulated_cells == cells;
        tally.record(if ok_cold { Outcome::Ok } else { Outcome::Mismatch }, cells as u64);
        let mut warm_ms = Vec::new();
        for _ in 0..WARM_REPEATS {
            let t1 = Instant::now();
            let (warm, wb) =
                layers::sweep(traces, &self.fes, self.insts, self.threads, Some(&store));
            warm_ms.push(secs(t1) * 1e3);
            let ok_warm = wb.cached_cells == cells && same_rows(&cold, &warm);
            tally.record(if ok_warm { Outcome::Ok } else { Outcome::Mismatch }, cells as u64);
        }
        drop(store);
        remove_dir(dir);
        (cold, cb, cold_ms, warm_ms)
    }
}

fn run_sweep_cold(ctx: &Ctx) -> RunResult {
    let plan = SweepPlan::new(ctx.seed);
    let first = plan.rotation.pass(0);
    let mut lines = vec![format!(
        "sweep_cold: {} traces x {} configs x {} insts, threads {}, 2 traces per suite per pass; first pass: {}",
        first.len(),
        plan.fes.len(),
        plan.insts,
        plan.threads,
        names(&first)
    )];
    // Set-up is one untimed cold pass, so lazy process and page-cache
    // set-up finishes before timing.
    let (_, setup_s) = repeated_setup(
        |k| {
            plan.pass(&first, &ctx.work.join(format!("setup-{k}")), &mut Tally::default());
        },
        |()| {},
    );
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let (mut warm, mut cold) = (vec![], vec![]);
    let (mut uops, mut cells) = (0u64, 0usize);
    let mut seen = Seen::default();
    let mut peaks = Vec::new();
    let t0 = Instant::now();
    let mut p = 0;
    while p == 0 || secs(t0) < ctx.seconds {
        // Untimed: each pass's peak is measured on its own.
        let note = reset_peak_rss();
        if p == 0 {
            lines.push(note);
        }
        let (rows, _, cold_ms, warm_ms) =
            plan.pass(&plan.rotation.pass(p), &ctx.work.join("store"), &mut tally);
        uops += rows.iter().map(|r| r.uops).sum::<u64>();
        cells += rows.len();
        cold.push(cold_ms);
        warm.extend(warm_ms);
        if p == 0 {
            check_hash(Workload::SweepCold, ctx, &rows, &mut errors, &mut lines);
        }
        seen.check(&rows, &mut tally, &mut errors);
        peaks.push(peak_rss_mb());
        p += 1;
    }
    let cold_s = cold.iter().sum::<f64>() / 1e3;
    let e2e = EndToEnd {
        setup_s,
        muops_per_s: uops as f64 / cold_s / 1e6,
        cells_per_s: cells as f64 / cold_s,
        warm,
        cold,
        peak_rss_mb: stats::median(&peaks),
    };
    lines.push(format!("passes: {p}; peak_rss_mb is the median of the per-pass peaks"));
    let metrics = e2e.metrics(&mut lines);
    RunResult { tally, errors, metrics, lines }
}

// ---------------------------------------------------------------- serve_mix

struct ServePlan {
    traces: Vec<TraceSpec>,
    grids: Vec<Vec<FrontendSpec>>,
    cold_cols: Vec<FrontendSpec>,
    insts: usize,
    threads: usize,
}

/// A running `serve_mix` daemon with its pre-warmed store and the
/// reference rows the pre-warm sweep computed.
struct ServeEnv {
    store: Arc<Store>,
    daemon: Daemon,
    reference: BTreeMap<(String, String), Row>,
    warm_rows: Vec<Row>,
}

/// What the clients saw.
#[derive(Default)]
struct ClientLog {
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    rows: u64,
    replies: Vec<Reply>,
    /// Per cold request: the column's index, its rows, and whether the
    /// request already failed its other checks.
    cold_rows: Vec<(usize, Vec<Row>, bool)>,
    tally: Tally,
    mismatches: Vec<String>,
}

impl ServePlan {
    fn new(seed: u64) -> ServePlan {
        ServePlan {
            traces: layers::standard_traces(),
            grids: warm_grids(),
            cold_cols: cold_columns(seed),
            insts: SERVE_INSTS,
            threads: 2,
        }
    }

    fn setup(&self, dir: &Path) -> ServeEnv {
        let store = layers::open_store(&dir.join("store"));
        for t in &self.traces {
            layers::capture(&store, t, self.insts);
        }
        let (warm_rows, _) =
            layers::sweep(&self.traces, &warm_configs(), self.insts, self.threads, Some(&store));
        let reference = warm_rows.iter().map(|r| (cell_key(r), r.clone())).collect();
        let daemon = Daemon::boot(&dir.join("serve.sock"), &store, self.threads);
        ServeEnv { store, daemon, reference, warm_rows }
    }

    fn request(&self, grid: usize, cold: Option<usize>) -> SweepRequest {
        let mut fes = self.grids[grid].clone();
        fes.extend(cold.map(|c| self.cold_cols[c]));
        layers::request(&self.traces, &fes, self.insts)
    }

    /// Drives the two closed-loop clients for at most `positions`
    /// requests each, or until `stop` says so at a cold position. Both
    /// clients meet at every cold position and send the same new column
    /// together.
    fn drive(
        &self,
        env: &ServeEnv,
        seed: u64,
        positions: usize,
        stop: &(dyn Fn() -> bool + Sync),
        submit: fn(&Endpoint, &SweepRequest) -> Result<Reply, String>,
    ) -> [ClientLog; 2] {
        let barrier = Barrier::new(2);
        let halt = AtomicBool::new(false);
        let logs = [0usize, 1].map(|_| Mutex::new(ClientLog::default()));
        std::thread::scope(|scope| {
            for (c, log) in logs.iter().enumerate() {
                let (barrier, halt) = (&barrier, &halt);
                scope.spawn(move || {
                    let mut log = log.lock().expect("client log");
                    let mut cold_seen = 0usize;
                    for (grid, is_cold) in Mix::new(seed, c as u64).take(positions) {
                        let cold = is_cold.then_some(cold_seen);
                        if is_cold {
                            if barrier.wait().is_leader() {
                                halt.store(stop(), Ordering::SeqCst);
                            }
                            barrier.wait();
                            if halt.load(Ordering::SeqCst) {
                                break;
                            }
                            cold_seen += 1;
                        }
                        let req = self.request(grid, cold);
                        let t0 = Instant::now();
                        let reply = submit(env.daemon.endpoint(), &req);
                        let ms = secs(t0) * 1e3;
                        self.record(env, &req, cold, ms, reply, &mut log);
                    }
                });
            }
        });
        logs.map(|l| l.into_inner().expect("client log"))
    }

    /// Checks one reply and files its latency.
    fn record(
        &self,
        env: &ServeEnv,
        req: &SweepRequest,
        cold: Option<usize>,
        ms: f64,
        reply: Result<Reply, String>,
        log: &mut ClientLog,
    ) {
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                log.tally.record(stats::classify_error(&e), 1);
                log.mismatches.push(format!("request failed: {e}"));
                return;
            }
        };
        let n_fe = req.frontends.len();
        let mut ok = reply.rows.len() == self.traces.len() * n_fe;
        let mut col_rows = Vec::new();
        for (i, r) in reply.rows.iter().enumerate() {
            let fe = req.frontends[i % n_fe];
            ok &= r.trace == req.traces[i / n_fe] && r.frontend == fe;
            if cold.is_some() && i % n_fe == n_fe - 1 {
                col_rows.push(r.clone());
            } else {
                ok &= env.reference.get(&cell_key(r)).is_some_and(|want| canon(want) == canon(r));
            }
        }
        log.rows += reply.rows.len() as u64;
        if let Some(c) = cold {
            log.cold_ms.push(ms);
            log.cold_rows.push((c, col_rows, !ok));
        } else {
            log.warm_ms.push(ms);
        }
        if !ok {
            log.mismatches.push(format!("rows of request {:?} do not match", req.frontends));
        }
        log.tally.record(if ok { Outcome::Ok } else { Outcome::Mismatch }, 1);
        // Keep the accounting, not the rows: a run sees thousands of replies.
        log.replies.push(Reply { rows: Vec::new(), ..reply });
    }

    /// Compares every cold column the daemon served with an in-process
    /// sweep of the same cells. Returns the number of requests that fail
    /// only this check, and the distinct simulated rows.
    fn verify_cold(&self, logs: &[ClientLog; 2], errors: &mut Vec<String>) -> (u64, Vec<Row>) {
        let mut served: BTreeMap<usize, Vec<(&Vec<Row>, bool)>> = BTreeMap::new();
        for log in logs {
            for (c, rows, failed) in &log.cold_rows {
                served.entry(*c).or_default().push((rows, *failed));
            }
        }
        let cols: Vec<FrontendSpec> = served.keys().map(|&c| self.cold_cols[c]).collect();
        if cols.is_empty() {
            return (0, Vec::new());
        }
        let (rows, _) = layers::sweep(&self.traces, &cols, self.insts, self.threads, None);
        let mut bad = 0;
        let mut distinct = Vec::new();
        for (k, (c, got)) in served.iter().enumerate() {
            let want: Vec<Row> = rows.iter().skip(k).step_by(cols.len()).cloned().collect();
            for &(g, failed) in got {
                if !same_rows(&want, g) {
                    bad += u64::from(!failed);
                    errors.push(format!(
                        "serve_mix: cold column {} differs from an in-process sweep",
                        self.cold_cols[*c].label()
                    ));
                }
            }
            distinct.extend(want);
        }
        (bad, distinct)
    }
}

fn stop_env(env: ServeEnv) {
    env.daemon.stop();
    remove_dir(env.store.root().parent().unwrap_or(env.store.root()));
}

fn run_serve_mix(ctx: &Ctx) -> RunResult {
    let plan = ServePlan::new(ctx.seed);
    let mut lines = vec![format!(
        "serve_mix: daemon with {} workers, 2 closed-loop clients, {} traces x {} insts, {} warm grids, {:.0}% cold",
        plan.threads,
        plan.traces.len(),
        plan.insts,
        plan.grids.len(),
        COLD_SHARE * 100.0
    )];
    let (env, setup_s) =
        repeated_setup(|k| plan.setup(&ctx.work.join(format!("setup-{k}"))), stop_env);
    lines.push(reset_peak_rss());
    let t0 = Instant::now();
    let seconds = ctx.seconds;
    let logs = plan.drive(&env, ctx.seed, usize::MAX, &|| secs(t0) >= seconds, layers::submit);
    let wall = secs(t0);
    let peak = peak_rss_mb();
    let mut errors: Vec<String> = logs.iter().flat_map(|l| l.mismatches.clone()).collect();
    let (bad_cold, simulated) = plan.verify_cold(&logs, &mut errors);
    let mut tally = Tally::default();
    for l in &logs {
        tally.merge(l.tally);
    }
    // A cold request whose column failed the cross-check counts as failed.
    tally.failed += bad_cold;
    check_hash(Workload::ServeMix, ctx, &env.warm_rows, &mut errors, &mut lines);
    stop_env(env);
    let rows: u64 = logs.iter().map(|l| l.rows).sum();
    let requests: usize = logs.iter().map(|l| l.replies.len()).sum();
    lines.push(format!(
        "requests: {requests} ({} cold columns simulated, {} rows delivered) in {wall:.3} s",
        simulated.len() / plan.traces.len(),
        rows
    ));
    let e2e = EndToEnd {
        setup_s,
        muops_per_s: simulated.iter().map(|r| r.uops).sum::<u64>() as f64 / wall / 1e6,
        cells_per_s: rows as f64 / wall,
        warm: logs.iter().flat_map(|l| l.warm_ms.clone()).collect(),
        cold: logs.iter().flat_map(|l| l.cold_ms.clone()).collect(),
        peak_rss_mb: peak,
    };
    let metrics = e2e.metrics(&mut lines);
    RunResult { tally, errors, metrics, lines }
}

fn names(traces: &[TraceSpec]) -> String {
    traces.iter().map(|t| t.name).collect::<Vec<_>>().join(",")
}

/// Runs the timed phase of `w` and reports its end-to-end metrics.
pub fn run(w: Workload, ctx: &Ctx) -> RunResult {
    match w {
        Workload::Replay => run_replay(ctx),
        Workload::SweepCold => run_sweep_cold(ctx),
        Workload::ServeMix => run_serve_mix(ctx),
    }
}

// ---------------------------------------------------------------- traced run

/// One request of the traced replica: a grid the replica runs cell by
/// cell through the layer adapter, the way the sweep engine does.
struct Req {
    traces: Vec<TraceSpec>,
    fes: Vec<FrontendSpec>,
    insts: usize,
    /// The traces are not in the store yet; the first cell of each
    /// captures it.
    capture: bool,
}

/// What one replica pass did.
struct ReplicaPass {
    rows: Vec<Vec<Row>>,
    wall_s: f64,
    reads: u64,
    hits: u64,
}

/// Runs `reqs` in order against `store`: probe every cell's cached row,
/// then replay the missing cells on `threads` workers — capture (when
/// asked), open, replay, write — each call inside a span.
fn replica(reqs: &[Req], store: &Arc<Store>, threads: usize, rec: &Recorder) -> ReplicaPass {
    let t0 = Instant::now();
    let (mut reads, mut hits) = (0, 0);
    let mut out = Vec::new();
    for (rid, req) in reqs.iter().enumerate() {
        let rid = rid as u64;
        let n_fe = req.fes.len();
        let cells: Vec<(usize, usize)> =
            (0..req.traces.len()).flat_map(|t| (0..n_fe).map(move |f| (t, f))).collect();
        let mut rows: Vec<Option<Row>> = rec.time("sim.probe", None, rid, |pid| {
            cells
                .iter()
                .map(|&(t, f)| {
                    rec.time("store.result_read", pid, rid, |_| {
                        layers::read_row(store, &req.traces[t], &req.fes[f], req.insts)
                    })
                })
                .collect()
        });
        reads += cells.len() as u64;
        hits += rows.iter().filter(|r| r.is_some()).count() as u64;
        let missing: Vec<usize> = (0..cells.len()).filter(|&i| rows[i].is_none()).collect();
        let captured: Vec<OnceLock<()>> = req.traces.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(missing.len()) {
                scope.spawn(|| {
                    while let Some(&i) = missing.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (t, f) = cells[i];
                        let (spec, fe) = (&req.traces[t], &req.fes[f]);
                        let row = rec.time("sim.cell", None, rid, |cid| {
                            if req.capture {
                                captured[t].get_or_init(|| {
                                    rec.time("workload.capture", cid, rid, |_| {
                                        layers::capture(store, spec, req.insts)
                                    });
                                });
                            }
                            let mut stream = rec
                                .time("store.trace_open", cid, rid, |_| {
                                    layers::open(store, spec, req.insts)
                                })
                                .unwrap_or_else(|| panic!("{} is not in the store", spec.name));
                            let m = rec.time("frontend.replay", cid, rid, |_| {
                                layers::replay(fe, &mut stream)
                            });
                            let row = layers::row(spec, fe, req.insts, &m);
                            rec.time("store.result_write", cid, rid, |_| {
                                layers::write_row(store, spec, &row)
                            });
                            row
                        });
                        done.lock().expect("replica rows").push((i, row));
                    }
                });
            }
        });
        for (i, row) in done.into_inner().expect("replica rows") {
            rows[i] = Some(row);
        }
        out.push(rows.into_iter().map(|r| r.expect("every cell filled")).collect());
    }
    ReplicaPass { rows: out, wall_s: secs(t0), reads, hits }
}

/// Layer throughput probes over the workload's own traces, which must
/// be in `store`.
struct Probes {
    capture_minsts_per_s: f64,
    decode_minsts_per_s: f64,
    oracle_muops_per_s: f64,
    model_muops_per_s: BTreeMap<&'static str, f64>,
    gshare_update_ns: f64,
    cond_mispredicts: u64,
}

fn probes(traces: &[TraceSpec], insts: usize, store: &Store, scratch: &Path) -> Probes {
    let open = |t: &TraceSpec| layers::open(store, t, insts).expect("probe trace is in the store");
    let scratch_store = layers::open_store(scratch);
    let t0 = Instant::now();
    for t in traces {
        layers::capture(&scratch_store, t, insts);
    }
    let capture_s = secs(t0);
    drop(scratch_store);
    remove_dir(scratch);
    let total_insts = (traces.len() * insts) as f64;
    let mut decode_s = 0.0;
    for t in traces {
        let mut s = open(t);
        let t0 = Instant::now();
        assert_eq!(layers::drain_decode(&mut s), insts as u64);
        decode_s += secs(t0);
    }
    let (mut oracle_s, mut oracle_uops) = (0.0, 0u64);
    for t in traces {
        let mut s = open(t);
        let t0 = Instant::now();
        oracle_uops += layers::drain_oracle(&mut s);
        oracle_s += secs(t0);
    }
    let models: [(&'static str, FrontendSpec); 6] = [
        ("frontend.ic_muops_per_s", FrontendSpec::Ic),
        ("frontend.uopcache_muops_per_s", FrontendSpec::UopCache { total_uops: 32768 }),
        ("frontend.bbtc_muops_per_s", FrontendSpec::Bbtc { total_uops: 32768 }),
        ("frontend.tc_muops_per_s", FrontendSpec::Tc { total_uops: 32768, ways: 4 }),
        ("core.xbc_muops_per_s", xbc(32, 2, true)),
        ("core.xbc_8k_muops_per_s", xbc(8, 2, true)),
    ];
    let mut model_muops_per_s = BTreeMap::new();
    for (name, fe) in models {
        let (mut s_total, mut uops) = (0.0, 0u64);
        for t in traces {
            let mut s = open(t);
            let t0 = Instant::now();
            uops += layers::replay(&fe, &mut s).total_uops();
            s_total += secs(t0);
        }
        model_muops_per_s.insert(name, uops as f64 / s_total / 1e6);
    }
    let (mut g_ns, mut g_updates, mut wrong) = (0u64, 0u64, 0u64);
    for t in traces {
        let branches = layers::conditional_branches(&mut open(t));
        let (ns, w) = layers::gshare_updates(&branches);
        g_ns += ns;
        g_updates += branches.len() as u64;
        wrong += w;
    }
    Probes {
        capture_minsts_per_s: total_insts / capture_s / 1e6,
        decode_minsts_per_s: total_insts / decode_s / 1e6,
        oracle_muops_per_s: oracle_uops as f64 / oracle_s / 1e6,
        model_muops_per_s,
        gshare_update_ns: g_ns as f64 / g_updates.max(1) as f64,
        cond_mispredicts: wrong,
    }
}

/// Pairs of (untraced, traced) replica passes run by the traced phase.
const REPLICA_PAIRS: usize = 3;

/// Daemon-side numbers of the traced phase (zero where no daemon runs).
#[derive(Default)]
struct ServeNumbers {
    connect_us: Vec<f64>,
    first_row_ms: Vec<f64>,
    simulated: u64,
    cached: u64,
    deduped: u64,
    queue_depth_max: u64,
    retried: u64,
    cancelled: u64,
}

impl ServeNumbers {
    fn of(logs: &[ClientLog]) -> ServeNumbers {
        let mut s = ServeNumbers::default();
        for r in logs.iter().flat_map(|l| &l.replies) {
            s.connect_us.push(r.connect_us);
            s.first_row_ms.push(r.first_row_ms);
            s.simulated += r.bench.simulated_cells as u64;
            s.cached += r.bench.cached_cells as u64;
            s.deduped += r.bench.deduped_cells as u64;
            if let Some(q) = &r.sched {
                s.queue_depth_max = s.queue_depth_max.max(q.queue_depth);
                s.retried = s.retried.max(q.retried_cells);
                s.cancelled = s.cancelled.max(q.cancelled_cells);
            }
        }
        s
    }
}

/// Runs the traced phase of `w` and reports its per-layer metrics.
pub fn run_traced(w: Workload, ctx: &Ctx) -> RunResult {
    let mut lines = Vec::new();
    let mut errors = Vec::new();
    let mut tally = Tally::default();
    let work = &ctx.work;
    // Real (untraced) pass for the scheduler figures, plus the replica
    // requests and how to reset the store before each replica pass.
    let threads;
    let traces;
    let insts;
    let reqs: Vec<Req>;
    let mut real_rows: Vec<Vec<Row>> = Vec::new();
    let mut benches: Vec<SweepBench> = Vec::new();
    let mut serve = ServeNumbers::default();
    let main_store: Arc<Store>;
    let mut serve_env: Option<ServeEnv> = None;
    let mut replica_col: Option<FrontendSpec> = None;
    match w {
        Workload::Replay => {
            let plan = ReplayPlan::new(ctx.seed);
            let first = plan.rotation.pass(0);
            main_store = plan.setup(&work.join("store"), &first);
            let (rows, b) =
                plan.pass(&first, &main_store, &mut tally, &mut Vec::new(), &mut Vec::new());
            benches = b;
            threads = 1;
            reqs = first
                .iter()
                .flat_map(|t| {
                    let one = || Req {
                        traces: vec![t.clone()],
                        fes: vec![plan.fe],
                        insts: plan.insts,
                        capture: false,
                    };
                    [one(), one()]
                })
                .collect();
            real_rows = rows.into_iter().flat_map(|r| [vec![r.clone()], vec![r]]).collect();
            (traces, insts) = (first, plan.insts);
        }
        Workload::SweepCold => {
            let plan = SweepPlan::new(ctx.seed);
            let first = plan.rotation.pass(0);
            let (rows, b, _, _) = plan.pass(&first, &work.join("real"), &mut tally);
            benches = vec![b];
            threads = plan.threads;
            let one = || Req {
                traces: first.clone(),
                fes: plan.fes.clone(),
                insts: plan.insts,
                capture: true,
            };
            reqs = vec![one(), Req { capture: false, ..one() }];
            real_rows = vec![rows.clone(), rows];
            main_store = layers::open_store(&work.join("replica-0"));
            (traces, insts) = (first, plan.insts);
        }
        Workload::ServeMix => {
            let plan = ServePlan::new(ctx.seed);
            let env = plan.setup(&work.join("serve"));
            // A short mix through the timed client: 48 positions.
            let logs = plan.drive(&env, ctx.seed, 48, &|| false, layers::submit_timed);
            errors.extend(logs.iter().flat_map(|l| l.mismatches.clone()));
            let (bad, _) = plan.verify_cold(&logs, &mut errors);
            for l in &logs {
                tally.merge(l.tally);
            }
            tally.failed += bad;
            serve = ServeNumbers::of(&logs);
            threads = plan.threads;
            // Replica: four warm grids, then grid 0 plus a column the
            // daemon never saw.
            let col = *plan.cold_cols.last().expect("cold columns");
            replica_col = Some(col);
            let mut r: Vec<Req> = (0..plan.grids.len())
                .map(|g| Req {
                    traces: plan.traces.clone(),
                    fes: plan.grids[g].clone(),
                    insts: plan.insts,
                    capture: false,
                })
                .collect();
            let mut fes = plan.grids[0].clone();
            fes.push(col);
            r.push(Req { traces: plan.traces.clone(), fes, insts: plan.insts, capture: false });
            reqs = r;
            let (col_rows, _) = layers::sweep(&plan.traces, &[col], plan.insts, plan.threads, None);
            for q in &reqs {
                real_rows.push(
                    q.traces
                        .iter()
                        .flat_map(|t| q.fes.iter().map(move |fe| (t.name, fe)))
                        .map(|(t, fe)| {
                            env.reference
                                .get(&(t.to_owned(), fe.key()))
                                .or_else(|| col_rows.iter().find(|r| r.trace == t))
                                .cloned()
                                .expect("reference row")
                        })
                        .collect(),
                );
            }
            main_store = Arc::clone(&env.store);
            serve_env = Some(env);
            (traces, insts) = (plan.traces, plan.insts);
        }
    }

    // Replica passes: untraced and traced alternate, from the same
    // starting state each time.
    let fresh_store = |k: usize| -> Arc<Store> {
        match w {
            Workload::SweepCold => {
                let dir = work.join(format!("replica-{k}"));
                remove_dir(&dir);
                layers::open_store(&dir)
            }
            _ => {
                for q in &reqs {
                    for t in &q.traces {
                        for fe in &q.fes {
                            let warm_cell = w == Workload::ServeMix && Some(*fe) != replica_col;
                            if !warm_cell {
                                layers::forget_row(&main_store, t, fe, q.insts);
                            }
                        }
                    }
                }
                Arc::clone(&main_store)
            }
        }
    };
    let mut overhead = Vec::new();
    let rec = Recorder::new(true);
    let mut traced_walls = 0.0;
    let (mut reads, mut hits) = (0, 0);
    let mut io = (0u64, 0u64);
    let mut last_store = Arc::clone(&main_store);
    for pair in 0..REPLICA_PAIRS {
        let off = replica(&reqs, &fresh_store(2 * pair), threads, &Recorder::new(false));
        let store = fresh_store(2 * pair + 1);
        let before = layers::store_stats(&store);
        let on = replica(&reqs, &store, threads, &rec);
        let after = layers::store_stats(&store);
        io.0 += after.bytes_read - before.bytes_read;
        io.1 += after.bytes_written - before.bytes_written;
        overhead.push((on.wall_s / off.wall_s - 1.0) * 100.0);
        traced_walls += on.wall_s;
        reads += on.reads;
        hits += on.hits;
        for pass in [&off, &on] {
            let ok = pass.rows.len() == real_rows.len()
                && pass.rows.iter().zip(&real_rows).all(|(a, b)| same_rows(a, b));
            let cells: u64 = pass.rows.iter().map(|r| r.len() as u64).sum();
            tally.record(if ok { Outcome::Ok } else { Outcome::Mismatch }, cells);
            if !ok {
                errors.push(format!("{}: replica rows differ from the program's rows", w.name()));
            }
        }
        last_store = store;
    }
    let spans = rec.spans();
    let fold = Fold::of(&spans);
    let passes = REPLICA_PAIRS as f64;
    let ms = |name: &str| fold.get(name).1 as f64 / passes / 1e6;
    let count = |name: &str| fold.get(name).0 as f64 / passes;
    let p50_us = |name: &str| {
        let d = durations(&spans, name);
        if d.is_empty() {
            0.0
        } else {
            let mut d = d;
            d.sort_by(f64::total_cmp);
            stats::percentile(&d, 0.5) / 1e3
        }
    };

    // Layer probes over the workload's traces.
    let pr = probes(&traces, insts, &last_store, &work.join("probe-capture"));
    if let Some(env) = serve_env.take() {
        env.daemon.stop();
    }

    // Exact row counts over the distinct XBC cells the replica produced.
    let mut xbc_rows: BTreeMap<(String, String), Row> = BTreeMap::new();
    for r in real_rows.iter().flatten() {
        if matches!(r.frontend, FrontendSpec::Xbc { .. }) {
            xbc_rows.insert(cell_key(r), r.clone());
        }
    }
    let sum = |f: fn(&Row) -> u64| xbc_rows.values().map(f).sum::<u64>() as f64;

    let (utilization, overlap) = if benches.is_empty() {
        // The daemon reports no per-worker busy time: take the replica's.
        let busy = fold.get("sim.cell").1 as f64 / 1e9;
        (busy / (threads as f64 * traced_walls), 0.0)
    } else {
        let busy: u64 = benches.iter().flat_map(|b| &b.workers).map(|w| w.busy_ms).sum();
        let capacity: u64 = benches.iter().map(|b| b.workers.len() as u64 * b.wall_ms).sum();
        let cap_ms: u64 = benches.iter().map(|b| b.capture_ms).sum();
        let ov_ms: u64 = benches.iter().map(|b| b.overlap_ms).sum();
        (
            busy as f64 / capacity.max(1) as f64,
            if cap_ms == 0 { 0.0 } else { ov_ms as f64 / cap_ms as f64 },
        )
    };

    // The self-time report: each layer, their sum, and the residual.
    let layer_names = [
        "workload.capture",
        "store.result_read",
        "store.trace_open",
        "frontend.replay",
        "store.result_write",
    ];
    lines.push(format!(
        "traced replica of {} ({} pass(es), {threads} worker(s)): self time per pass",
        w.name(),
        REPLICA_PAIRS
    ));
    let mut layer_sum = 0.0;
    for name in layer_names {
        let (n, _, own) = fold.get(name);
        let v = own as f64 / passes / 1e6;
        layer_sum += v;
        lines.push(format!("  {name:<22} {v:>12.3} ms  ({:.0} calls)", n as f64 / passes));
    }
    let sim_self = (fold.get("sim.cell").2 + fold.get("sim.probe").2) as f64 / passes / 1e6;
    lines.push(format!("  {:<22} {layer_sum:>12.3} ms", "sum of layers"));
    lines.push(format!("  {:<22} {sim_self:>12.3} ms  (scheduler + bookkeeping)", "sim.self"));
    lines.push(format!(
        "  {:<22} {:>12.3} ms  (sum of layers + sim.self = {:.3} ms)",
        "worker-busy",
        fold.root_ns as f64 / passes / 1e6,
        layer_sum + sim_self
    ));
    let serve_ratio = if serve.simulated + serve.deduped == 0 {
        0.0
    } else {
        serve.deduped as f64 / (serve.simulated + serve.deduped) as f64
    };
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let mib = 1024.0 * 1024.0;
    let metrics = vec![
        metric("workload.capture_ms", ms("workload.capture"), "ms"),
        metric("workload.capture_minsts_per_s", pr.capture_minsts_per_s, "Minsts/s"),
        metric("workload.captures", count("workload.capture"), "count"),
        metric("workload.decode_minsts_per_s", pr.decode_minsts_per_s, "Minsts/s"),
        metric("store.trace_open_ms", ms("store.trace_open"), "ms"),
        metric("store.trace_opens", count("store.trace_open"), "count"),
        metric("store.result_read_us_p50", p50_us("store.result_read"), "us"),
        metric("store.result_reads", count("store.result_read"), "count"),
        metric("store.result_write_us_p50", p50_us("store.result_write"), "us"),
        metric("store.result_writes", count("store.result_write"), "count"),
        metric("store.result_hit_ratio", hits as f64 / reads.max(1) as f64, "ratio"),
        metric("store.bytes_read_mb", io.0 as f64 / passes / mib, "MiB"),
        metric("store.bytes_written_mb", io.1 as f64 / passes / mib, "MiB"),
        metric("frontend.oracle_muops_per_s", pr.oracle_muops_per_s, "Muops/s"),
        metric(
            "frontend.ic_muops_per_s",
            pr.model_muops_per_s["frontend.ic_muops_per_s"],
            "Muops/s",
        ),
        metric(
            "frontend.uopcache_muops_per_s",
            pr.model_muops_per_s["frontend.uopcache_muops_per_s"],
            "Muops/s",
        ),
        metric(
            "frontend.bbtc_muops_per_s",
            pr.model_muops_per_s["frontend.bbtc_muops_per_s"],
            "Muops/s",
        ),
        metric(
            "frontend.tc_muops_per_s",
            pr.model_muops_per_s["frontend.tc_muops_per_s"],
            "Muops/s",
        ),
        metric("frontend.replay_ms", ms("frontend.replay"), "ms"),
        metric("core.xbc_muops_per_s", pr.model_muops_per_s["core.xbc_muops_per_s"], "Muops/s"),
        metric(
            "core.xbc_8k_muops_per_s",
            pr.model_muops_per_s["core.xbc_8k_muops_per_s"],
            "Muops/s",
        ),
        metric("core.delivery_to_build", sum(|r| r.delivery_to_build), "count"),
        metric("core.bank_conflict_uops", sum(|r| r.bank_conflict_uops), "count"),
        metric("core.promotions", sum(|r| r.promotions), "count"),
        metric("predict.gshare_update_ns", pr.gshare_update_ns, "ns"),
        metric("predict.cond_mispredicts", pr.cond_mispredicts as f64, "count"),
        metric("sim.worker_utilization", utilization, "ratio"),
        metric("sim.overlap_fraction", overlap, "ratio"),
        metric("sim.probe_ms", ms("sim.probe"), "ms"),
        metric("sim.self_ms", sim_self, "ms"),
        metric("serve.connect_us_p50", med(&serve.connect_us), "us"),
        metric("serve.first_row_ms_p50", med(&serve.first_row_ms), "ms"),
        metric("serve.simulated_cells", serve.simulated as f64, "count"),
        metric("serve.cached_cells", serve.cached as f64, "count"),
        metric("serve.deduped_cells", serve.deduped as f64, "count"),
        metric("serve.dedup_ratio", serve_ratio, "ratio"),
        metric("serve.queue_depth_max", serve.queue_depth_max as f64, "count"),
        metric("serve.retried_cells", serve.retried as f64, "count"),
        metric("serve.cancelled_cells", serve.cancelled as f64, "count"),
        metric("obs.span_overhead_pct", stats::median(&overhead), "%"),
    ];
    for m in &metrics {
        lines.push(format!("{} = {:.4} {}", m.name, m.value, m.unit));
    }
    RunResult { tally, errors, metrics, lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_spreads_passes_evenly_over_each_suite() {
        let r = Rotation::new(7);
        let mut count: BTreeMap<&str, usize> = BTreeMap::new();
        // 40 passes = 10 full cycles of the 8-trace suites, 16 of Games.
        for p in 0..40 {
            let pass = r.pass(p);
            assert_eq!(pass.len(), 6);
            for pair in pass.chunks(2) {
                assert_ne!(pair[0].name, pair[1].name, "pass {p} repeats a trace");
                assert_eq!(pair[0].suite, pair[1].suite);
            }
            for t in pass {
                *count.entry(t.name).or_default() += 1;
            }
        }
        assert_eq!(count.len(), 21);
        for (name, n) in count {
            let want = if name.starts_with("games.") { 16 } else { 10 };
            assert_eq!(n, want, "{name}");
        }
        assert_eq!(names(&Rotation::new(7).pass(3)), names(&r.pass(3)), "same seed, same inputs");
    }

    #[test]
    fn mix_is_about_fifteen_percent_cold_with_bounded_gaps() {
        let a: Vec<(usize, bool)> = Mix::new(3, 0).take(20_000).collect();
        let b: Vec<(usize, bool)> = Mix::new(3, 1).take(20_000).collect();
        let cold = a.iter().filter(|p| p.1).count() as f64 / 20_000.0;
        assert!((0.14..0.2).contains(&cold), "cold share {cold}");
        let mut gap = 0;
        for &(_, c) in &a {
            gap = if c { 0 } else { gap + 1 };
            assert!(gap < MAX_COLD_GAP);
        }
        assert!(a.iter().zip(&b).all(|(x, y)| x.1 == y.1), "cold positions line up");
        assert!(a.iter().zip(&b).any(|(x, y)| x.0 != y.0), "clients draw their own grids");
        let n = warm_grids().len();
        assert!(a.iter().all(|p| p.0 < n));
    }

    #[test]
    fn cold_columns_are_new_and_distinct() {
        let cols = cold_columns(5);
        let warm = warm_configs();
        assert!(cols.len() > 180);
        assert!(cols.iter().all(|c| !warm.contains(c)));
        let mut keys: Vec<String> = cols.iter().map(FrontendSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cols.len());
    }
}
