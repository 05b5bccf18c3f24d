//! Regression tests for the cell-level sweep scheduler: a grid with
//! more frontends than traces must (a) produce rows identical to the
//! single-threaded run — the scheduler only changes *when* cells run,
//! never *what* they compute — and (b) account every measured
//! millisecond of capture + simulation to some row (no remainder
//! dropped by the capture-cost split).

use std::sync::Arc;
use xbc_sim::{FrontendSpec, Sweep};
use xbc_store::Store;
use xbc_workload::{standard_traces, TraceSpec};

/// A fig9-style grid: many configurations, few traces — the shape a
/// trace-major scheduler serializes.
fn eight_frontends() -> Vec<FrontendSpec> {
    let mut fes = Vec::new();
    for &s in &[2048usize, 4096, 8192, 16384] {
        fes.push(FrontendSpec::Tc { total_uops: s, ways: 4 });
        fes.push(FrontendSpec::Xbc { total_uops: s, ways: 2, promotion: true });
    }
    fes
}

/// Everything but `elapsed_ms` (which is wall-clock measurement, not
/// simulation output) must match across thread counts.
fn assert_rows_identical(a: &[xbc_sim::Row], b: &[xbc_sim::Row]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.trace, y.trace);
        assert_eq!(x.frontend, y.frontend);
        assert_eq!(x.insts, y.insts);
        assert_eq!(x.uops, y.uops);
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.miss_rate, y.miss_rate);
        assert_eq!(x.bandwidth, y.bandwidth);
        assert_eq!(x.uops_per_cycle, y.uops_per_cycle);
        assert_eq!(x.cond_mispredicts, y.cond_mispredicts);
        assert_eq!(x.target_mispredicts, y.target_mispredicts);
        assert_eq!(x.delivery_to_build, y.delivery_to_build);
        assert_eq!(x.bank_conflict_uops, y.bank_conflict_uops);
        assert_eq!(x.promotions, y.promotions);
    }
}

#[test]
fn one_trace_eight_configs_parallel_matches_single_thread() {
    // 1 trace × 8 configs: the old trace-major scheduler would cap this
    // sweep at one worker; the cell scheduler spreads it over four. The
    // rows must not care.
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(1).collect();
    let mut sweep = Sweep::new(traces, eight_frontends(), 4_000);
    sweep.progress = false;
    sweep.threads = 4;
    let (par, bench) = sweep.run_with_bench();
    assert_eq!(bench.threads, 4);
    assert_eq!(bench.total_cells, 8);
    assert_eq!(bench.simulated_cells, 8);
    assert_eq!(bench.captures, 1, "one trace is captured exactly once, not per worker");
    assert_eq!(bench.workers.len(), 4, "all four workers participate despite one trace");
    sweep.threads = 1;
    let seq = sweep.run();
    assert_rows_identical(&par, &seq);
}

#[test]
fn more_frontends_than_traces_keeps_row_order() {
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let fes = eight_frontends();
    let mut sweep = Sweep::new(traces.clone(), fes.clone(), 3_000);
    sweep.progress = false;
    sweep.threads = 4;
    let rows = sweep.run();
    assert_eq!(rows.len(), 16);
    // Trace-major, frontend-minor, regardless of completion order.
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.trace, traces[i / fes.len()].name);
        assert_eq!(row.frontend, fes[i % fes.len()]);
    }
}

#[test]
fn elapsed_ms_sums_to_measured_capture_plus_sim_time() {
    // The capture-cost split distributes its remainder instead of
    // truncating it, so the per-row elapsed times reconstruct the
    // measured wall time exactly — not "up to missing-1 ms short".
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let mut sweep = Sweep::new(traces.clone(), eight_frontends(), 20_000);
    sweep.progress = false;
    sweep.threads = 4;
    let (rows, bench) = sweep.run_with_bench();
    let row_total: u64 = rows.iter().map(|r| r.elapsed_ms).sum();
    assert_eq!(
        row_total,
        bench.capture_ms + bench.sim_ms,
        "per-row elapsed_ms must account for every measured capture+sim millisecond"
    );
    // And the bench's own ledger is internally consistent.
    assert_eq!(bench.total_cells, bench.cached_cells + bench.simulated_cells);
    assert_eq!(bench.workers.iter().map(|w| w.cells).sum::<usize>(), bench.simulated_cells);

    // A cold store-backed run: each trace's first cell simulates off its
    // streamed capture, the others replay the stored entry. The leader's
    // row is its wall time and the others' are stream open + replay, so
    // the rows still add up to the ledger.
    let dir = std::env::temp_dir().join(format!("xbc-sweep-ledger-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    sweep.store = Some(Arc::new(Store::open(&dir).unwrap()));
    let (stored, bench) = sweep.run_with_bench();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(bench.simulated_cells, rows.len());
    assert_eq!(bench.captures, traces.len() as u64, "each trace is captured once");
    assert_eq!(bench.overlapped_cells, traces.len(), "each capture feeds one cell live");
    assert!(bench.overlap_ms <= bench.capture_ms);
    assert_eq!(
        stored.iter().map(|r| r.elapsed_ms).sum::<u64>(),
        bench.capture_ms + bench.sim_ms,
        "stored-path rows must account for every capture, open and replay millisecond"
    );
    assert_rows_identical(&rows, &stored);
}
