//! Sweep-scheduler performance accounting (`--bench-json`).
//!
//! [`Sweep::run_with_bench`](crate::Sweep::run_with_bench) returns a
//! [`SweepBench`] alongside the rows: end-to-end wall time, the
//! capture/simulation split, cache effectiveness, and per-worker
//! utilization of the cell scheduler. The figure harnesses serialize it
//! (via [`SweepBench::to_json`]) to a `BENCH_sweep.json` artifact, so
//! simulator throughput is tracked as machine-readable data rather than
//! a terminal anecdote.

use std::fmt;

/// What one sweep worker did, for the utilization report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStat {
    /// Cells this worker completed.
    pub cells: usize,
    /// Wall-clock milliseconds this worker spent inside cells. Time
    /// blocked waiting on another worker's shared capture counts as
    /// busy — the worker is serialized, not idle.
    pub busy_ms: u64,
}

/// Performance accounting of one sweep run.
#[derive(Clone, Debug, Default)]
pub struct SweepBench {
    /// Resolved worker-thread cap (after `0` = one per core).
    pub threads: usize,
    /// Traces in the grid.
    pub traces: usize,
    /// Frontend configurations in the grid.
    pub frontends: usize,
    /// Grid size: `traces × frontends`.
    pub total_cells: usize,
    /// Cells replayed from the result cache (no capture, no simulation).
    pub cached_cells: usize,
    /// Cells simulated this run.
    pub simulated_cells: usize,
    /// Cells resolved without simulating *or* probing-as-cached: the
    /// row was shared from a concurrent request's in-flight simulation
    /// of the identical cell, or picked up from a result the cache
    /// probe missed but a concurrent request stored moments later.
    /// Always 0 for a one-shot `Sweep`; the `xbc-serve` daemon's
    /// cross-request single-flight dedup reports here.
    pub deduped_cells: usize,
    /// Traces captured this run (or, for a resident replay, loaded
    /// from the trace store).
    pub captures: u64,
    /// Trace cost in wall time: each capture (an overlapped capture
    /// only up to its cell's wall time) plus each stored replay's
    /// stream open. With `sim_ms` it sums to the simulated rows'
    /// `elapsed_ms`.
    pub capture_ms: u64,
    /// Simulation wall time, summed over simulated cells.
    pub sim_ms: u64,
    /// Cold cells whose capture ran overlapped with their own
    /// simulation (streamed capture feeding the replay live). Always 0
    /// without a store, and in checked or traced sweeps.
    pub overlapped_cells: usize,
    /// Capture milliseconds hidden behind simulation on overlapped
    /// cells: for each such cell, the part of its capture that ran
    /// while the cell was also simulating. Bounded by `capture_ms`;
    /// capture and sim attributions still sum to each cell's wall time
    /// (no double-counting).
    pub overlap_ms: u64,
    /// End-to-end wall time of the run.
    pub wall_ms: u64,
    /// Per-worker busy time and cell counts (one entry per spawned
    /// worker; empty when every cell was cached).
    pub workers: Vec<WorkerStat>,
}

impl SweepBench {
    /// Simulated cells per second of wall time.
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            0.0
        } else {
            self.simulated_cells as f64 * 1000.0 / self.wall_ms as f64
        }
    }

    /// Fraction of total capture time that was hidden behind
    /// simulation on overlapped cells (`overlap_ms / capture_ms`; 0
    /// when nothing was captured). 1.0 means every captured millisecond
    /// ran concurrently with a simulation.
    pub fn overlap_fraction(&self) -> f64 {
        if self.capture_ms == 0 {
            0.0
        } else {
            self.overlap_ms as f64 / self.capture_ms as f64
        }
    }

    /// Mean fraction of the run's wall time the workers spent busy
    /// (1.0 = perfectly utilized).
    pub fn worker_utilization(&self) -> f64 {
        if self.workers.is_empty() || self.wall_ms == 0 {
            return 0.0;
        }
        let busy: u64 = self.workers.iter().map(|w| w.busy_ms).sum();
        busy as f64 / (self.workers.len() as u64 * self.wall_ms) as f64
    }

    /// Serializes to the `BENCH_sweep.json` schema. Field order is
    /// fixed, so diffs between runs are line-oriented.
    pub fn to_json(&self) -> String {
        let workers = if self.workers.is_empty() {
            "[]".to_owned()
        } else {
            let rows: Vec<String> = self
                .workers
                .iter()
                .map(|w| format!("    {{ \"cells\": {}, \"busy_ms\": {} }}", w.cells, w.busy_ms))
                .collect();
            format!("[\n{}\n  ]", rows.join(",\n"))
        };
        format!(
            "{{\n  \"schema\": \"xbc-sweep-bench-v1\",\n  \"threads\": {},\n  \
             \"traces\": {},\n  \"frontends\": {},\n  \"total_cells\": {},\n  \
             \"cached_cells\": {},\n  \"simulated_cells\": {},\n  \"deduped_cells\": {},\n  \
             \"captures\": {},\n  \
             \"capture_ms\": {},\n  \"sim_ms\": {},\n  \
             \"overlapped_cells\": {},\n  \"overlap_ms\": {},\n  \"overlap_fraction\": {},\n  \
             \"wall_ms\": {},\n  \
             \"cells_per_sec\": {},\n  \"worker_utilization\": {},\n  \"workers\": {}\n}}\n",
            self.threads,
            self.traces,
            self.frontends,
            self.total_cells,
            self.cached_cells,
            self.simulated_cells,
            self.deduped_cells,
            self.captures,
            self.capture_ms,
            self.sim_ms,
            self.overlapped_cells,
            self.overlap_ms,
            self.overlap_fraction(),
            self.wall_ms,
            self.cells_per_sec(),
            self.worker_utilization(),
            workers,
        )
    }
}

impl fmt::Display for SweepBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cells ({} cached, {} simulated{}) in {} ms on {} threads: \
             {:.1} cells/s, capture {} ms, sim {} ms{}, utilization {:.0}%",
            self.total_cells,
            self.cached_cells,
            self.simulated_cells,
            if self.deduped_cells > 0 {
                format!(", {} deduped", self.deduped_cells)
            } else {
                String::new()
            },
            self.wall_ms,
            self.threads,
            self.cells_per_sec(),
            self.capture_ms,
            self.sim_ms,
            if self.overlapped_cells > 0 {
                format!(
                    " ({} overlapped, {:.0}% of capture hidden)",
                    self.overlapped_cells,
                    100.0 * self.overlap_fraction()
                )
            } else {
                String::new()
            },
            100.0 * self.worker_utilization(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepBench {
        SweepBench {
            threads: 4,
            traces: 2,
            frontends: 8,
            total_cells: 16,
            cached_cells: 4,
            simulated_cells: 12,
            deduped_cells: 0,
            captures: 2,
            capture_ms: 30,
            sim_ms: 970,
            overlapped_cells: 1,
            overlap_ms: 15,
            wall_ms: 500,
            workers: vec![
                WorkerStat { cells: 6, busy_ms: 490 },
                WorkerStat { cells: 6, busy_ms: 510 },
            ],
        }
    }

    #[test]
    fn derived_rates() {
        let b = sample();
        assert!((b.cells_per_sec() - 24.0).abs() < 1e-9);
        assert!((b.worker_utilization() - 1.0).abs() < 1e-9);
        assert!((b.overlap_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(SweepBench::default().overlap_fraction(), 0.0);
        assert_eq!(SweepBench::default().cells_per_sec(), 0.0);
        assert_eq!(SweepBench::default().worker_utilization(), 0.0);
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        for field in [
            "\"schema\": \"xbc-sweep-bench-v1\"",
            "\"threads\": 4",
            "\"total_cells\": 16",
            "\"cached_cells\": 4",
            "\"simulated_cells\": 12",
            "\"capture_ms\": 30",
            "\"sim_ms\": 970",
            "\"overlapped_cells\": 1",
            "\"overlap_ms\": 15",
            "\"overlap_fraction\": 0.5",
            "\"wall_ms\": 500",
            "\"cells\": 6",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
        // Parses as JSON with our own parser.
        let doc = crate::json::Json::parse(&j).unwrap();
        assert_eq!(doc.get("total_cells").and_then(crate::json::Json::as_u64), Some(16));
        assert_eq!(doc.get("workers").and_then(crate::json::Json::as_arr).map(<[_]>::len), Some(2));
    }

    #[test]
    fn display_summary() {
        let s = sample().to_string();
        assert!(s.contains("16 cells"));
        assert!(s.contains("4 threads"));
    }
}
