//! Fault injection for the sweep daemon — compiled only under the
//! `check` feature, so release builds carry no hooks.
//!
//! The daemon's failure surface is concurrency under partial failure:
//! a client vanishing mid-stream, a worker dying inside a cell, the
//! store's advisory lock never arriving. None of those occur naturally
//! in a test run, so [`FaultInjector`] gives the fault campaign
//! (`tests/serve_faults.rs`) deterministic triggers:
//!
//! * [`kill_next_cells`](FaultInjector::kill_next_cells) — the next N
//!   dispatched cells fail as if the worker died inside them; the
//!   scheduler retries each cell once, then fails the owning request.
//! * [`panic_next_cells`](FaultInjector::panic_next_cells) — the next
//!   N simulated cells panic after their simulation, before their row
//!   is stored; the panic fails the cell's request, and cells of other
//!   requests waiting for that row go back to the queue.
//! * [`delay_rows`](FaultInjector::delay_rows) — sleep before each row
//!   write, widening race windows for disconnect tests.
//! * [`drop_connection_after`](FaultInjector::drop_connection_after) /
//!   [`truncate_after`](FaultInjector::truncate_after) — sever or
//!   half-write the stream after N rows, modeling a daemon-side crash
//!   from the client's point of view.
//!
//! Each daemon owns its injector (`ServeConfig.faults`), so parallel
//! tests cannot trip each other; store lock-timeout injection lives
//! process-wide in `xbc_store::test_faults` because the lock path has
//! no per-daemon handle.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

/// What to do to the connection before writing the next row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RowFault {
    /// Write the row normally.
    None,
    /// Sleep this many milliseconds, then write the row.
    Delay(u64),
    /// Sever the connection without writing the row.
    Drop,
    /// Write half the row's bytes, then sever.
    Truncate,
}

/// Deterministic fault triggers for one daemon instance. All knobs are
/// plain atomics so tests flip them while the daemon runs.
#[derive(Debug)]
pub struct FaultInjector {
    /// Pending worker-kill count; each dispatched cell decrements one.
    kill_cells: AtomicU32,
    /// Pending cell-panic count; each simulated cell decrements one.
    panic_cells: AtomicU32,
    /// Milliseconds to sleep before each row write (0 = off).
    delay_row_ms: AtomicU64,
    /// Sever the stream after this many rows (-1 = off).
    drop_after_rows: AtomicI64,
    /// Half-write then sever after this many rows (-1 = off).
    truncate_after_rows: AtomicI64,
    /// Rows written across the daemon since the last [`reset`].
    ///
    /// [`reset`]: FaultInjector::reset
    rows_written: AtomicU64,
}

impl Default for FaultInjector {
    fn default() -> FaultInjector {
        FaultInjector::new()
    }
}

impl FaultInjector {
    /// A quiescent injector: every fault off.
    pub fn new() -> FaultInjector {
        FaultInjector {
            kill_cells: AtomicU32::new(0),
            panic_cells: AtomicU32::new(0),
            delay_row_ms: AtomicU64::new(0),
            drop_after_rows: AtomicI64::new(-1),
            truncate_after_rows: AtomicI64::new(-1),
            rows_written: AtomicU64::new(0),
        }
    }

    /// Arms the next `n` dispatched cells to fail as if their worker
    /// died mid-simulation.
    pub fn kill_next_cells(&self, n: u32) {
        self.kill_cells.store(n, Ordering::SeqCst);
    }

    /// Arms the next `n` simulated cells to panic once their simulation
    /// finishes, before their row is stored or delivered.
    pub fn panic_next_cells(&self, n: u32) {
        self.panic_cells.store(n, Ordering::SeqCst);
    }

    /// Sleeps `ms` before every row write (0 disables).
    pub fn delay_rows(&self, ms: u64) {
        self.delay_row_ms.store(ms, Ordering::SeqCst);
    }

    /// Severs the client connection after `rows` rows have streamed.
    pub fn drop_connection_after(&self, rows: u64) {
        self.drop_after_rows.store(rows as i64, Ordering::SeqCst);
    }

    /// Writes half of row `rows + 1`'s bytes, then severs.
    pub fn truncate_after(&self, rows: u64) {
        self.truncate_after_rows.store(rows as i64, Ordering::SeqCst);
    }

    /// Disarms every fault and zeroes the row counter.
    pub fn reset(&self) {
        self.kill_cells.store(0, Ordering::SeqCst);
        self.panic_cells.store(0, Ordering::SeqCst);
        self.delay_row_ms.store(0, Ordering::SeqCst);
        self.drop_after_rows.store(-1, Ordering::SeqCst);
        self.truncate_after_rows.store(-1, Ordering::SeqCst);
        self.rows_written.store(0, Ordering::SeqCst);
    }

    /// Consumes one armed worker-kill, if any. Called by the worker at
    /// cell dispatch.
    pub(crate) fn take_worker_kill(&self) -> bool {
        self.kill_cells
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Consumes one armed cell panic, if any. Called by a cell's leader
    /// after its simulation.
    pub(crate) fn take_cell_panic(&self) -> bool {
        self.panic_cells
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Decides the fate of the next row write and advances the row
    /// counter.
    pub(crate) fn next_row_fault(&self) -> RowFault {
        let written = self.rows_written.fetch_add(1, Ordering::SeqCst);
        let drop_after = self.drop_after_rows.load(Ordering::SeqCst);
        if drop_after >= 0 && written as i64 >= drop_after {
            return RowFault::Drop;
        }
        let truncate_after = self.truncate_after_rows.load(Ordering::SeqCst);
        if truncate_after >= 0 && written as i64 >= truncate_after {
            return RowFault::Truncate;
        }
        let delay = self.delay_row_ms.load(Ordering::SeqCst);
        if delay > 0 {
            return RowFault::Delay(delay);
        }
        RowFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kills_are_consumed_one_per_cell() {
        let faults = FaultInjector::new();
        assert!(!faults.take_worker_kill());
        faults.kill_next_cells(2);
        assert!(faults.take_worker_kill());
        assert!(faults.take_worker_kill());
        assert!(!faults.take_worker_kill(), "third dispatch survives");
    }

    #[test]
    fn row_faults_trigger_at_the_armed_count() {
        let faults = FaultInjector::new();
        assert_eq!(faults.next_row_fault(), RowFault::None);
        faults.reset();
        faults.drop_connection_after(1);
        assert_eq!(faults.next_row_fault(), RowFault::None, "row 1 streams");
        assert_eq!(faults.next_row_fault(), RowFault::Drop, "row 2 severs");
        faults.reset();
        faults.truncate_after(0);
        assert_eq!(faults.next_row_fault(), RowFault::Truncate);
        faults.reset();
        faults.delay_rows(3);
        assert_eq!(faults.next_row_fault(), RowFault::Delay(3));
        faults.reset();
        assert_eq!(faults.next_row_fault(), RowFault::None);
    }
}
