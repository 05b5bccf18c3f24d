//! Fair cell scheduler for the sweep daemon.
//!
//! PR 7's daemon used a single FIFO `VecDeque` of cells: a client that
//! submitted a 1000-cell grid starved everyone who arrived after it,
//! because the whole grid was enqueued ahead of any later request. This
//! module replaces the FIFO with a two-level policy:
//!
//! 1. **Priority classes** — every sweep request carries a `priority`
//!    (default 0); queued cells of a higher class are always dispatched
//!    before any lower class. Priorities affect *queued* cells only:
//!    a running cell is never preempted mid-simulation.
//! 2. **Round-robin within a class** — among requests of equal
//!    priority, workers take one cell per client in rotation, so a
//!    2-cell request finishes in roughly 2 dispatch turns regardless of
//!    how many thousand cells its neighbor queued first.
//!
//! The scheduler also owns the daemon's drain protocol: once
//! [`Scheduler::begin_drain`] is called new requests are refused, but
//! every already-registered cell is still simulated and streamed, so a
//! `shutdown` racing an active sweep drains instead of severing
//! mid-stream. Counters ([`Scheduler::stats`]) feed the `done` trailer
//! and the CLI's observability output.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// How many times a cell is re-dispatched after a worker dies inside it
/// (fault-injection campaigns; a real panic would abort the scope).
#[cfg_attr(not(feature = "check"), allow(dead_code))]
pub(crate) const MAX_CELL_ATTEMPTS: u32 = 2;

/// Queue-depth and throughput counters, reported in every `done`
/// trailer and by `xbcsim submit --shutdown`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Cells queued and not yet dispatched, across all clients.
    pub queue_depth: u64,
    /// Cells ever enqueued (including retries' first attempts, not the
    /// re-dispatches themselves).
    pub enqueued_cells: u64,
    /// Cells that finished simulation.
    pub completed_cells: u64,
    /// Cells resolved by sharing another request's in-flight result.
    pub deduped_cells: u64,
    /// Cells re-dispatched after a worker died inside them, or after
    /// the simulation they waited on failed.
    pub retried_cells: u64,
    /// Cells dropped because their job failed or its client vanished.
    pub cancelled_cells: u64,
    /// Per-client pending queue sizes at the time of the snapshot,
    /// ordered by client id.
    pub clients: Vec<ClientCells>,
}

/// One client's slice of the queue in a [`SchedStats`] snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientCells {
    /// Connection id the daemon assigned at accept time.
    pub client: u64,
    /// Priority class of this client's active request.
    pub priority: u32,
    /// Cells still queued for this client.
    pub queued: u64,
}

/// A unit of queued work: which job, which cell index within it, and
/// which attempt (0 = first dispatch).
pub(crate) struct CellTicket<J> {
    pub job: J,
    pub cell: usize,
    pub attempt: u32,
}

struct ClientQueue<J> {
    client: u64,
    priority: u32,
    job: J,
    pending: VecDeque<(usize, u32)>,
}

struct Inner<J> {
    queues: Vec<ClientQueue<J>>,
    /// Round-robin cursor into `queues` (within the winning priority
    /// class).
    rr: usize,
    draining: bool,
    /// Cells currently inside a worker.
    running: usize,
}

/// The daemon-wide cell queue. `J` is the job handle workers carry
/// back (an `Arc<Job>` in the daemon; tests use lighter types).
pub(crate) struct Scheduler<J: Clone> {
    inner: Mutex<Inner<J>>,
    cv: Condvar,
    enqueued: AtomicU64,
    completed: AtomicU64,
    deduped: AtomicU64,
    retried: AtomicU64,
    cancelled: AtomicU64,
}

impl<J: Clone> Scheduler<J> {
    pub fn new() -> Scheduler<J> {
        Scheduler {
            inner: Mutex::new(Inner { queues: Vec::new(), rr: 0, draining: false, running: 0 }),
            cv: Condvar::new(),
            enqueued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
        }
    }

    /// Enqueues `cells` cell indices for one client's request. Refused
    /// once draining: the caller reports the error to the client
    /// instead of accepting work that would outlive the daemon.
    pub fn register(
        &self,
        client: u64,
        priority: u32,
        job: J,
        cells: impl IntoIterator<Item = usize>,
    ) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap();
        if inner.draining {
            return Err("daemon is draining; request refused".to_owned());
        }
        let pending: VecDeque<(usize, u32)> = cells.into_iter().map(|c| (c, 0)).collect();
        if pending.is_empty() {
            return Ok(());
        }
        self.enqueued.fetch_add(pending.len() as u64, Ordering::Relaxed);
        inner.queues.push(ClientQueue { client, priority, job, pending });
        drop(inner);
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks for the next cell under the priority + round-robin
    /// policy. Returns `None` when the daemon is draining and every
    /// queued *and running* cell has finished — the worker-exit
    /// condition that makes shutdown drain instead of sever.
    pub fn pop(&self) -> Option<CellTicket<J>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(ticket) = Self::take_next(&mut inner) {
                inner.running += 1;
                return Some(ticket);
            }
            if inner.draining && inner.running == 0 {
                // Wake siblings so every worker observes the exit
                // condition, not just the one notified last.
                self.cv.notify_all();
                return None;
            }
            inner = self.cv.wait(inner).unwrap();
        }
    }

    fn take_next(inner: &mut Inner<J>) -> Option<CellTicket<J>> {
        if inner.queues.is_empty() {
            return None;
        }
        let top = inner.queues.iter().map(|q| q.priority).max().unwrap();
        let n = inner.queues.len();
        // Start the scan at the cursor so equal-priority clients take
        // turns; the first queue in the winning class wins this turn.
        let start = inner.rr % n;
        let idx = (0..n).map(|o| (start + o) % n).find(|&i| inner.queues[i].priority == top)?;
        let queue = &mut inner.queues[idx];
        let (cell, attempt) = queue.pending.pop_front().expect("queues hold pending cells");
        let job = queue.job.clone();
        if queue.pending.is_empty() {
            inner.queues.remove(idx);
            // Removal shifts later queues left; keep the cursor aimed
            // at the element after the one we just served.
            inner.rr = if inner.queues.is_empty() { 0 } else { idx % inner.queues.len() };
        } else {
            inner.rr = (idx + 1) % n;
        }
        Some(CellTicket { job, cell, attempt })
    }

    /// Marks a dispatched cell finished (success or permanent failure).
    pub fn complete(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        inner.running -= 1;
        drop(inner);
        self.cv.notify_all();
    }

    /// Puts a cell back at the *front* of its client's queue after a
    /// worker died inside it. The retry jumps the round-robin line so a
    /// faulted cell cannot starve behind newly queued work. Callers
    /// bound attempts with [`MAX_CELL_ATTEMPTS`].
    #[cfg_attr(not(feature = "check"), allow(dead_code))]
    pub fn requeue(&self, client: u64, priority: u32, job: J, cell: usize, attempt: u32) {
        self.push_front(true, client, priority, job, cell, attempt);
    }

    /// Puts a cell that was waiting on another cell's simulation back at
    /// the front of its client's queue, because that simulation failed.
    /// Unlike [`Scheduler::requeue`] the cell holds no worker: it left
    /// its worker when it started waiting.
    pub fn resubmit(&self, client: u64, priority: u32, job: J, cell: usize, attempt: u32) {
        self.push_front(false, client, priority, job, cell, attempt);
    }

    fn push_front(
        &self,
        dispatched: bool,
        client: u64,
        priority: u32,
        job: J,
        cell: usize,
        attempt: u32,
    ) {
        self.retried.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap();
        if dispatched {
            inner.running -= 1;
        }
        if let Some(queue) = inner.queues.iter_mut().find(|q| q.client == client) {
            queue.pending.push_front((cell, attempt));
        } else {
            inner.queues.push(ClientQueue {
                client,
                priority,
                job,
                pending: VecDeque::from([(cell, attempt)]),
            });
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Drops every still-queued cell of one client (its job failed or
    /// its connection went away). Running cells finish on their own.
    pub fn cancel(&self, client: u64) {
        let mut inner = self.inner.lock().unwrap();
        let mut dropped = 0u64;
        inner.queues.retain(|q| {
            if q.client == client {
                dropped += q.pending.len() as u64;
                false
            } else {
                true
            }
        });
        if !inner.queues.is_empty() {
            inner.rr %= inner.queues.len();
        } else {
            inner.rr = 0;
        }
        drop(inner);
        if dropped > 0 {
            self.cancelled.fetch_add(dropped, Ordering::Relaxed);
        }
        self.cv.notify_all();
    }

    /// Counts cells resolved by single-flight sharing (for `stats`).
    pub fn note_deduped(&self, n: u64) {
        self.deduped.fetch_add(n, Ordering::Relaxed);
    }

    /// Flips the drain flag and wakes all workers; returns the number
    /// of cells still queued or running, which the `bye` line reports
    /// to the shutdown caller.
    pub fn begin_drain(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        inner.draining = true;
        let remaining =
            inner.queues.iter().map(|q| q.pending.len() as u64).sum::<u64>() + inner.running as u64;
        drop(inner);
        self.cv.notify_all();
        remaining
    }

    /// Snapshot for the `done` trailer and observability counters.
    pub fn stats(&self) -> SchedStats {
        let inner = self.inner.lock().unwrap();
        let mut clients: Vec<ClientCells> = inner
            .queues
            .iter()
            .map(|q| ClientCells {
                client: q.client,
                priority: q.priority,
                queued: q.pending.len() as u64,
            })
            .collect();
        clients.sort_by_key(|c| c.client);
        SchedStats {
            queue_depth: inner.queues.iter().map(|q| q.pending.len() as u64).sum(),
            enqueued_cells: self.enqueued.load(Ordering::Relaxed),
            completed_cells: self.completed.load(Ordering::Relaxed),
            deduped_cells: self.deduped.load(Ordering::Relaxed),
            retried_cells: self.retried.load(Ordering::Relaxed),
            cancelled_cells: self.cancelled.load(Ordering::Relaxed),
            clients,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(sched: &Scheduler<u64>) -> Vec<(u64, usize)> {
        let mut order = Vec::new();
        sched.begin_drain();
        while let Some(t) = sched.pop() {
            order.push((t.job, t.cell));
            sched.complete();
        }
        order
    }

    #[test]
    fn round_robin_interleaves_equal_priority_clients() {
        let sched: Scheduler<u64> = Scheduler::new();
        sched.register(1, 0, 1, [10, 11, 12, 13]).unwrap();
        sched.register(2, 0, 2, [20, 21]).unwrap();
        let order = drain_order(&sched);
        // Client 2's two cells are done by turn 4 even though client 1
        // queued four cells first.
        let last_c2 = order.iter().rposition(|&(job, _)| job == 2).unwrap();
        assert!(last_c2 <= 3, "round-robin should finish the small client early: {order:?}");
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn higher_priority_class_runs_first() {
        let sched: Scheduler<u64> = Scheduler::new();
        sched.register(1, 0, 1, [10, 11, 12]).unwrap();
        sched.register(2, 5, 2, [20, 21]).unwrap();
        let order = drain_order(&sched);
        assert_eq!(&order[..2], &[(2, 20), (2, 21)], "priority 5 preempts queued priority 0");
    }

    #[test]
    fn register_refused_while_draining_but_queued_work_drains() {
        let sched: Scheduler<u64> = Scheduler::new();
        sched.register(1, 0, 1, [10, 11]).unwrap();
        let remaining = sched.begin_drain();
        assert_eq!(remaining, 2);
        assert!(sched.register(2, 0, 2, [20]).is_err());
        let mut served = 0;
        while let Some(_t) = sched.pop() {
            served += 1;
            sched.complete();
        }
        assert_eq!(served, 2, "queued cells still drain after begin_drain");
        assert!(sched.pop().is_none());
    }

    #[test]
    fn requeue_puts_cell_at_front_and_counts_retry() {
        let sched: Scheduler<u64> = Scheduler::new();
        sched.register(1, 0, 1, [10, 11]).unwrap();
        let t = sched.pop().unwrap();
        assert_eq!((t.job, t.cell, t.attempt), (1, 10, 0));
        sched.requeue(1, 0, 1, t.cell, t.attempt + 1);
        let t = sched.pop().unwrap();
        assert_eq!((t.cell, t.attempt), (10, 1), "retried cell jumps the queue");
        sched.complete();
        assert_eq!(sched.stats().retried_cells, 1);
        sched.cancel(1);
        assert_eq!(sched.stats().cancelled_cells, 1);
    }

    #[test]
    fn resubmit_queues_a_waiting_cell_without_a_worker() {
        let sched: Scheduler<u64> = Scheduler::new();
        sched.register(1, 0, 1, [10]).unwrap();
        let t = sched.pop().unwrap();
        // Cell 10 left its worker to wait; its leader failed.
        sched.complete();
        sched.resubmit(1, 0, 1, t.cell, t.attempt);
        sched.begin_drain();
        let t = sched.pop().expect("the resubmitted cell is queued again");
        assert_eq!((t.job, t.cell), (1, 10));
        sched.complete();
        assert!(sched.pop().is_none(), "nothing runs or waits any more");
        assert_eq!(sched.stats().retried_cells, 1);
    }

    #[test]
    fn cancel_drops_only_that_client() {
        let sched: Scheduler<u64> = Scheduler::new();
        sched.register(1, 0, 1, [10, 11, 12]).unwrap();
        sched.register(2, 0, 2, [20]).unwrap();
        sched.cancel(1);
        let order = drain_order(&sched);
        assert_eq!(order, vec![(2, 20)]);
        assert_eq!(sched.stats().cancelled_cells, 3);
    }

    #[test]
    fn stats_snapshot_reports_per_client_depth() {
        let sched: Scheduler<u64> = Scheduler::new();
        sched.register(7, 0, 7, [1, 2, 3]).unwrap();
        sched.register(3, 2, 3, [4]).unwrap();
        let stats = sched.stats();
        assert_eq!(stats.queue_depth, 4);
        assert_eq!(stats.enqueued_cells, 4);
        assert_eq!(
            stats.clients,
            vec![
                ClientCells { client: 3, priority: 2, queued: 1 },
                ClientCells { client: 7, priority: 0, queued: 3 },
            ]
        );
    }

    #[test]
    fn workers_block_until_drain_even_when_idle() {
        use std::sync::Arc;
        let sched: Arc<Scheduler<u64>> = Arc::new(Scheduler::new());
        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                let mut served = 0;
                while let Some(_t) = sched.pop() {
                    served += 1;
                    sched.complete();
                }
                served
            })
        };
        // The worker is idle-blocked; late work still reaches it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.register(1, 0, 1, [10]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.begin_drain();
        assert_eq!(worker.join().unwrap(), 1);
    }
}
