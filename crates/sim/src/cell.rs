//! The cold-cell step, shared by [`Sweep`](crate::Sweep) and the
//! `xbc-serve` daemon: plan a grid's missing cells, read one cached row,
//! and resolve and replay one missing cell, with one ledger per run that
//! fills the run's [`SweepBench`].
//!
//! With a store, a missing cell has a single path. It replays the stored
//! trace ([`replay_stored`]); if the entry is absent, or failed its
//! verdict and was evicted, the cell leads the trace's streamed capture
//! ([`Store::stream_capture_shared`]) and simulates live off the capture
//! channel while the capture writes the entry. A cell that finds the
//! entry landed, or waited for another cell's capture, replays it from
//! the store on the next pass. Without a store, and in a checked or
//! traced sweep, cells replay a resident trace captured once per run and
//! shared by the trace's cells.

use crate::bench::SweepBench;
use crate::report::{rows_from_json, Row};
use crate::spec::FrontendSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use xbc_frontend::{Frontend, FrontendMetrics};
use xbc_store::{Store, StreamCapture, StreamReplay};
use xbc_workload::{Trace, TraceSpec};

/// Passes of the stored path before a cell gives up. A cold cell needs
/// two (miss, then lead or wait); more means the trace's entry keeps
/// vanishing or failing its verdict under the cell.
const STORED_ATTEMPTS: usize = 4;

/// One missing (trace, frontend) cell of a grid, with its rank among the
/// trace's missing cells, which fixes its share of a resident capture's
/// cost whatever order the cells run in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// The cell's trace, as an index into the grid's traces.
    pub trace: usize,
    /// The cell's frontend, as an index into the grid's frontends.
    pub fe: usize,
    /// Rank among the trace's missing cells (0-based).
    pub rank: usize,
    /// Missing cells of the trace.
    pub missing: usize,
}

/// The missing cells of a trace-major grid of `rows` with `n_fe`
/// frontends per trace, in trace-major order.
pub fn plan_cells(rows: &[Option<Row>], n_fe: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (trace, trace_rows) in rows.chunks(n_fe).enumerate() {
        let start = cells.len();
        for (fe, _) in trace_rows.iter().enumerate().filter(|(_, r)| r.is_none()) {
            cells.push(Cell { trace, fe, rank: cells.len() - start, missing: 0 });
        }
        let missing = cells.len() - start;
        for c in &mut cells[start..] {
            c.missing = missing;
        }
    }
    cells
}

/// The row a result entry read under `key` holds, or `None` after
/// evicting an entry that holds no single decodable row (written by an
/// older schema, say), so a stale entry stops costing a recompute on
/// every run.
pub fn cached_row(store: &Store, key: &str, body: &str) -> Option<Row> {
    match rows_from_json(body) {
        Ok(mut parsed) if parsed.len() == 1 => parsed.pop(),
        Ok(parsed) => {
            store.evict_result(key, &format!("expected 1 cached row, found {}", parsed.len()));
            None
        }
        Err(e) => {
            store.evict_result(key, &format!("undecodable cached row: {e}"));
            None
        }
    }
}

/// The capture-cost share of the `rank`-th cell (0-based) among the
/// `missing` cells whose shared capture cost `total_ms`: every cell
/// gets the truncated average, and the first `total_ms % missing` cells
/// get one extra millisecond, so the shares sum to exactly `total_ms`
/// — no remainder is dropped.
fn capture_share(total_ms: u64, missing: usize, rank: usize) -> u64 {
    debug_assert!(rank < missing, "share rank out of range");
    total_ms / missing as u64 + u64::from((rank as u64) < total_ms % missing as u64)
}

/// Replays one cell from the store's copy of its trace on a fresh
/// frontend: open, streamed replay and the entry's verdict in one
/// [`Store::replay_trace_stream`] call. Stored traces are replayed
/// through here only, so a row is never published from an entry that
/// failed its verdict. A verified replay yields the metrics plus the
/// open and replay milliseconds.
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

/// The cold-cell state of one run (a sweep, or one daemon request): each
/// trace's resident capture, resolved at most once, and the ledger of
/// capture and simulation time. Every cell's `elapsed_ms` is its part of
/// the ledger, so the rows' `elapsed_ms` sum to `capture_ms + sim_ms`.
pub struct ColdRun {
    resident: Vec<OnceLock<(Arc<Trace>, u64)>>,
    captures: AtomicU64,
    capture_ms: AtomicU64,
    sim_ms: AtomicU64,
    overlap_ms: AtomicU64,
    overlapped_cells: AtomicU64,
    streamed_cells: AtomicU64,
}

impl ColdRun {
    /// An empty ledger for a grid of `traces` traces.
    pub fn new(traces: usize) -> ColdRun {
        ColdRun {
            resident: (0..traces).map(|_| OnceLock::new()).collect(),
            captures: AtomicU64::new(0),
            capture_ms: AtomicU64::new(0),
            sim_ms: AtomicU64::new(0),
            overlap_ms: AtomicU64::new(0),
            overlapped_cells: AtomicU64::new(0),
            streamed_cells: AtomicU64::new(0),
        }
    }

    /// Resolves and replays the missing `cell` (trace `spec` on frontend
    /// `fe`): the stored path with a `store`, the resident one without.
    /// The row carries the cell's `elapsed_ms`.
    ///
    /// # Panics
    ///
    /// Panics with the trace name if the stored path finds no verified
    /// entry after a few attempts, and if the trace's capture fails.
    pub fn simulate(
        &self,
        store: Option<&Arc<Store>>,
        spec: &TraceSpec,
        fe: &FrontendSpec,
        insts: usize,
        cell: &Cell,
    ) -> Row {
        match store {
            Some(store) => self.stored(store, spec, fe, insts),
            None => {
                self.resident(None, spec, fe, insts, cell, |frontend, trace| frontend.run(trace))
            }
        }
    }

    /// The stored path: replay the entry, else lead or wait for its
    /// streamed capture and replay again.
    fn stored(&self, store: &Arc<Store>, spec: &TraceSpec, fe: &FrontendSpec, insts: usize) -> Row {
        for _ in 0..STORED_ATTEMPTS {
            if let StreamReplay::Verified((m, open_ms, sim_ms)) =
                replay_stored(store, spec, fe, insts)
            {
                // The stream open is the cell's own trace cost.
                self.capture_ms.fetch_add(open_ms, Ordering::Relaxed);
                self.sim_ms.fetch_add(sim_ms, Ordering::Relaxed);
                self.streamed_cells.fetch_add(1, Ordering::Relaxed);
                return row(spec, fe, insts, &m, open_ms + sim_ms);
            }
            // Absent, or evicted just now: capture it, or wait for the
            // capture under way, then replay the landed entry.
            if let StreamCapture::Leader(mut cap) = store.stream_capture_shared(spec, insts) {
                let t0 = Instant::now();
                let m = fe.instantiate().run_streamed(&mut cap.take_source());
                let cap_ms = cap.finish();
                let wall = t0.elapsed().as_millis() as u64;
                // The capture thread started before `t0`, so `cap_ms` can
                // exceed the cell's wall time; clamped, capture and sim
                // add up to it.
                let hidden = cap_ms.min(wall);
                self.captures.fetch_add(1, Ordering::Relaxed);
                self.capture_ms.fetch_add(hidden, Ordering::Relaxed);
                self.overlap_ms.fetch_add(hidden, Ordering::Relaxed);
                self.sim_ms.fetch_add(wall - hidden, Ordering::Relaxed);
                self.overlapped_cells.fetch_add(1, Ordering::Relaxed);
                self.streamed_cells.fetch_add(1, Ordering::Relaxed);
                return row(spec, fe, insts, &m, wall);
            }
        }
        panic!("{}: no verified stored trace after {STORED_ATTEMPTS} attempts", spec.name);
    }

    /// Replays the missing `cell` from its trace's resident capture with
    /// `replay` on a fresh frontend. The first of the trace's cells to
    /// arrive captures it (through `store`'s trace cache, if given) and
    /// the cells share the capture cost by rank.
    pub(crate) fn resident(
        &self,
        store: Option<&Store>,
        spec: &TraceSpec,
        fe: &FrontendSpec,
        insts: usize,
        cell: &Cell,
        replay: impl FnOnce(&mut dyn Frontend, &Trace) -> FrontendMetrics,
    ) -> Row {
        let (trace, cap_ms) = self.resident[cell.trace].get_or_init(|| {
            let c0 = Instant::now();
            let trace = match store {
                Some(store) => store.get_or_capture(spec, insts),
                None => Arc::new(spec.capture(insts)),
            };
            let ms = c0.elapsed().as_millis() as u64;
            self.captures.fetch_add(1, Ordering::Relaxed);
            self.capture_ms.fetch_add(ms, Ordering::Relaxed);
            (trace, ms)
        });
        let sim0 = Instant::now();
        let m = replay(&mut *fe.instantiate(), trace);
        let sim_ms = sim0.elapsed().as_millis() as u64;
        self.sim_ms.fetch_add(sim_ms, Ordering::Relaxed);
        row(spec, fe, insts, &m, capture_share(*cap_ms, cell.missing, cell.rank) + sim_ms)
    }

    /// Cells replayed through the stored path.
    pub fn streamed_cells(&self) -> u64 {
        self.streamed_cells.load(Ordering::Relaxed)
    }

    /// The ledger's fields of a [`SweepBench`] (captures, capture, sim
    /// and overlap time, overlapped cells), the rest left default.
    pub fn bench(&self) -> SweepBench {
        SweepBench {
            captures: self.captures.load(Ordering::Relaxed),
            capture_ms: self.capture_ms.load(Ordering::Relaxed),
            sim_ms: self.sim_ms.load(Ordering::Relaxed),
            overlapped_cells: self.overlapped_cells.load(Ordering::Relaxed) as usize,
            overlap_ms: self.overlap_ms.load(Ordering::Relaxed),
            ..SweepBench::default()
        }
    }
}

/// The row of a cell of trace `spec` on frontend `fe`, with its cost.
fn row(spec: &TraceSpec, fe: &FrontendSpec, insts: usize, m: &FrontendMetrics, ms: u64) -> Row {
    let mut row = Row::new(spec.name, &spec.suite.to_string(), *fe, insts, m);
    row.elapsed_ms = ms;
    row
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn plan_ranks_each_traces_missing_cells() {
        let some = || Some(Row::new("t", "spec", FrontendSpec::Ic, 1, &FrontendMetrics::default()));
        // Two traces of three frontends: the first misses its 1st and
        // 3rd cell, the second is fully cached.
        let rows = vec![None, some(), None, some(), some(), some()];
        let cells = plan_cells(&rows, 3);
        assert_eq!(
            cells,
            [
                Cell { trace: 0, fe: 0, rank: 0, missing: 2 },
                Cell { trace: 0, fe: 2, rank: 1, missing: 2 },
            ]
        );
        assert!(plan_cells(&[some(), some()], 1).is_empty());
    }
}
