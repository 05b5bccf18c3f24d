//! The sweep service daemon.
//!
//! One process holds the content-addressed [`Store`] and a fixed worker
//! pool; clients connect over a Unix-domain or TCP socket (see
//! [`Endpoint`]), submit sweep grids, and stream rows back as cells
//! complete. The daemon and `xbc_sim::Sweep` share one cell path: the
//! unit of work is one (trace × frontend) cell, cells from *all*
//! concurrent requests drain through one shared [`Scheduler`] (priority
//! classes, round-robin across clients within a class), each request's
//! rows are reassembled in deterministic trace-major order, and every
//! missing cell is planned, simulated and accounted by `xbc_sim`'s
//! cold-cell step ([`plan_cells`], [`ColdRun`]) — so a daemon-simulated
//! row is indistinguishable from a `Sweep`-simulated one.
//!
//! **Memory tier.** Every cached row the daemon reads from its store is
//! kept decoded in a bounded [`RowTier`], and served from there while
//! its entry on disk is unchanged — one `stat` against the identity
//! recorded at the read. The store stays the source of truth: a deleted,
//! replaced or rewritten entry misses the tier and is read (and
//! CRC-checked, and evicted if corrupt) as before.
//!
//! **Single-flight dedup, without waiting.** Concurrent requests
//! overlapping on a cell simulate it once: cells are keyed by the same
//! content hash as the result cache (`result_key`), the first worker to
//! reach a key leads the simulation, and a worker that pops a cell whose
//! key is already being simulated leaves it waiting on that flight and
//! goes straight back to the queue; the leader hands its row to every
//! waiting cell, and a failed leader puts them back on the queue. Before
//! simulating, a leader re-probes the result cache — a concurrent
//! request may have stored the row after this request's cache probe —
//! so a cell is never re-simulated (and its stored `elapsed_ms` never
//! overwritten) just because two clients raced. Shared rows are counted
//! as `deduped_cells`, keeping the accounting identity: summed over
//! concurrent clients, `simulated_cells` equals the number of *distinct*
//! cold cells. Trace capture dedups through the store's streamed-capture
//! flights ([`Store::stream_capture_shared`]).
//!
//! Replay is streaming-first: with a store, a cell replays its stored
//! trace ([`Store::replay_trace_stream`]), keeping worker memory
//! O(window) and publishing its row only once the entry passed its
//! verdict; the first cell of a not-yet-captured trace simulates live
//! off the trace's streamed capture, hiding the capture behind its own
//! simulation (reported as `overlapped_cells` / `overlap_ms` in the
//! `done` trailer). An uncached daemon captures each trace resident,
//! once per request.
//!
//! **Shutdown drains.** A `shutdown` request flips the scheduler into
//! drain mode: new sweeps are refused, but every already-registered
//! cell is simulated and streamed before the workers exit, so a
//! shutdown racing an active sweep reports the remaining cell count in
//! its `bye` line instead of severing the active stream.

use crate::protocol::{self, Request, SweepRequest, TierStats};
#[cfg(feature = "check")]
use crate::scheduler::MAX_CELL_ATTEMPTS;
use crate::scheduler::{CellTicket, Scheduler};
use crate::tier::{Probe, RowTier};
use crate::transport::{self, Conn, Endpoint, Listener};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xbc_sim::{
    plan_cells, resolve_threads, result_key, Cell, ColdRun, FrontendSpec, Row, SweepBench,
};
use xbc_store::Store;
use xbc_workload::{standard_traces, TraceSpec};

#[cfg(feature = "check")]
use crate::faults::{FaultInjector, RowFault};

/// How often blocked connection reads wake to check the shutdown flag
/// and idle budget.
const READ_POLL: Duration = Duration::from_millis(200);

/// Longest request line the daemon reads, newline excluded. The largest
/// legitimate request, all 21 traces × hundreds of frontends, is tens of
/// KB; a longer line gets an `error` line and the connection is closed,
/// so no client can make the daemon buffer without bound.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Buffered response bytes past which [`stream_rows`] writes without
/// waiting for more ready rows: about 40 rows, so the client starts
/// decoding while the daemon is still encoding.
const BATCH_BYTES: usize = 16 * 1024;

/// Daemon configuration for [`serve`] / [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Where to listen: a Unix-domain socket path or a TCP `host:port`
    /// (port 0 binds ephemeral; [`Server::endpoint`] reports the
    /// resolved address).
    pub listen: Endpoint,
    /// Worker threads for the shared cell pool (0 = one per core,
    /// resolved via `xbc_sim::resolve_threads`).
    pub threads: usize,
    /// Shared trace/result store; `None` disables caching (every
    /// request re-simulates, nothing streams).
    pub store: Option<Arc<Store>>,
    /// Emit per-request progress lines to stderr.
    pub progress: bool,
    /// Concurrent-connection cap; excess clients get one `error` line
    /// ("server at capacity") and a clean close instead of a hang.
    pub max_connections: usize,
    /// Close a connection that sends no request for this long
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Per-connection send timeout, bounding how long a stalled client
    /// can pin a connection thread mid-row (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Fault-injection triggers for this daemon (tests only; the hooks
    /// compile only under the `check` feature).
    #[cfg(feature = "check")]
    pub faults: Option<Arc<FaultInjector>>,
}

impl ServeConfig {
    /// A config with defaults: 0 threads (one per core), no store, no
    /// progress, 64-connection cap, no idle/write timeouts.
    pub fn new(listen: Endpoint) -> ServeConfig {
        ServeConfig {
            listen,
            threads: 0,
            store: None,
            progress: false,
            max_connections: 64,
            idle_timeout: None,
            write_timeout: None,
            #[cfg(feature = "check")]
            faults: None,
        }
    }
}

/// One submitted sweep: the grid, its pending cells, and the slots its
/// connection thread drains in index order.
struct Job {
    client: u64,
    priority: u32,
    traces: Vec<TraceSpec>,
    frontends: Vec<FrontendSpec>,
    insts: usize,
    cells: Vec<Cell>,
    /// The job's cold-cell state: resident captures (uncached daemon)
    /// and the ledger its `done` trailer reports. (With a store, the
    /// store's streamed-capture flights share captures across jobs.)
    cold: ColdRun,
    /// The full grid; workers fill cells, the connection thread takes
    /// them in trace-major order as the filled prefix grows.
    rows: Mutex<Vec<Option<Row>>>,
    row_cv: Condvar,
    /// Set when the job cannot finish (a cell panicked, or its worker
    /// died twice in a cell); the connection thread reports it as an
    /// `error` line.
    failed: Mutex<Option<String>>,
    /// Cells resolved by sharing another request's in-flight simulation
    /// or a late result-cache hit.
    deduped_cells: AtomicU64,
}

impl Job {
    /// A job over `rows`, the grid with its cached cells filled, whose
    /// missing cells are `cells`.
    fn new(
        client: u64,
        priority: u32,
        traces: Vec<TraceSpec>,
        frontends: Vec<FrontendSpec>,
        insts: usize,
        cells: Vec<Cell>,
        rows: Vec<Option<Row>>,
    ) -> Job {
        Job {
            client,
            priority,
            cold: ColdRun::new(traces.len()),
            traces,
            frontends,
            insts,
            cells,
            rows: Mutex::new(rows),
            row_cv: Condvar::new(),
            failed: Mutex::new(None),
            deduped_cells: AtomicU64::new(0),
        }
    }

    fn fail(&self, why: &str) {
        {
            let mut failed = self.failed.lock().expect("job failed lock");
            if failed.is_none() {
                *failed = Some(why.to_owned());
            }
        }
        // Serialize with the connection thread's wait loop: it checks
        // `failed` while holding the rows mutex, so taking (and
        // releasing) that mutex before notifying guarantees the waiter
        // either saw the failure before parking or receives this wake.
        drop(self.rows.lock().expect("job rows lock"));
        self.row_cv.notify_all();
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    endpoint: Endpoint,
    store: Option<Arc<Store>>,
    threads: usize,
    progress: bool,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    sched: Scheduler<Arc<Job>>,
    /// Daemon-wide in-flight table keyed by `result_key` content hash:
    /// the single-flight dedup for concurrently requested cells.
    flights: CellFlights,
    /// Rows read from the store, kept decoded (empty without a store).
    tier: RowTier,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
    next_client: AtomicU64,
    #[cfg(feature = "check")]
    faults: Option<Arc<FaultInjector>>,
}

impl Shared {
    /// Where the row cached under `key` is, if anywhere.
    fn probe(&self, key: &str) -> Probe {
        match &self.store {
            Some(store) => self.tier.probe(store, key),
            None => Probe::Miss,
        }
    }
}

/// A cell waiting for another cell's simulation of the same result key:
/// its job, its index there, and its dispatch attempt.
type Waiter = (Arc<Job>, usize, u32);

/// The cells being simulated right now, by `result_key`, each with the
/// cells that wait for its row. A worker that pops a cell whose key is
/// already being simulated adds it here and goes back to the queue, so
/// no worker ever waits on another worker's simulation.
#[derive(Default)]
struct CellFlights {
    running: Mutex<HashMap<String, Vec<Waiter>>>,
}

impl CellFlights {
    /// Leads the simulation of `key` (`true`) if none is running;
    /// otherwise `waiter` waits for the running one's row (`false`).
    /// Checked and recorded under the lock [`CellFlights::land`] takes,
    /// so a cell never waits on a flight that has already landed.
    fn lead_or_wait(&self, key: &str, waiter: Waiter) -> bool {
        let mut running = self.running.lock().expect("flight table lock");
        match running.get_mut(key) {
            Some(waiters) => {
                waiters.push(waiter);
                false
            }
            None => {
                running.insert(key.to_owned(), Vec::new());
                true
            }
        }
    }

    /// Ends the flight for `key`, returning the cells that waited on it.
    fn land(&self, key: &str) -> Vec<Waiter> {
        self.running.lock().expect("flight table lock").remove(key).unwrap_or_default()
    }
}

/// Ends the flight for `key`: every waiting cell gets a copy of the
/// leader's `row` as a deduped cell, or, when the leader failed (`None`),
/// goes back to the front of its client's queue to be led afresh —
/// unless its own request has failed meanwhile.
fn land(sched: &Scheduler<Arc<Job>>, flights: &CellFlights, key: &str, row: Option<&Row>) {
    for (job, ci, attempt) in flights.land(key) {
        match row {
            Some(row) => deliver(sched, &job, ci, row.clone(), CellSource::Deduped),
            None if job.failed.lock().expect("job failed lock").is_some() => {}
            None => sched.resubmit(job.client, job.priority, Arc::clone(&job), ci, attempt),
        }
    }
}

/// How a finished cell's row was obtained, for the job's accounting.
enum CellSource {
    Simulated,
    Deduped,
}

/// Fills a finished cell's slot and wakes the connection thread.
fn deliver(sched: &Scheduler<Arc<Job>>, job: &Job, ci: usize, row: Row, source: CellSource) {
    if let CellSource::Deduped = source {
        job.deduped_cells.fetch_add(1, Ordering::Relaxed);
        sched.note_deduped(1);
    }
    let cell = &job.cells[ci];
    let mut rows = job.rows.lock().expect("job rows lock");
    rows[cell.trace * job.frontends.len() + cell.fe] = Some(row);
    drop(rows);
    job.row_cv.notify_all();
}

/// Resolves one dispatched cell: lead its simulation, or leave it
/// waiting on the one already running. A panic while leading fails the
/// cell's request with an `error` line; the cells waiting on it go back
/// to the queue.
fn run_cell(shared: &Shared, job: &Arc<Job>, ci: usize, attempt: u32) {
    let cell = &job.cells[ci];
    let (spec, fespec) = (&job.traces[cell.trace], &job.frontends[cell.fe]);
    let key = result_key(spec, fespec, job.insts);
    if !shared.flights.lead_or_wait(&key, (Arc::clone(job), ci, attempt)) {
        return;
    }
    match catch_unwind(AssertUnwindSafe(|| lead_cell(shared, job, ci, &key))) {
        Ok((row, source)) => {
            land(&shared.sched, &shared.flights, &key, Some(&row));
            deliver(&shared.sched, job, ci, row, source);
        }
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            job.fail(&format!("cell {} x {} panicked: {what}", spec.name, fespec.label()));
            shared.sched.cancel(job.client);
            land(&shared.sched, &shared.flights, &key, None);
        }
    }
}

/// The leader's share of a cell: re-probe the result cache — a
/// concurrent request may have stored this cell after this request's
/// probe, and re-simulating would overwrite the stored row with a
/// different `elapsed_ms` and break byte-identical replay — else
/// simulate and store the row. The row is stored before the flight
/// lands, so a later leader of the same key finds it.
fn lead_cell(shared: &Shared, job: &Job, ci: usize, key: &str) -> (Row, CellSource) {
    if let Probe::Memory(row) | Probe::Disk(row) = shared.probe(key) {
        return (row, CellSource::Deduped);
    }
    let cell = &job.cells[ci];
    let (spec, fespec) = (&job.traces[cell.trace], &job.frontends[cell.fe]);
    let row = job.cold.simulate(shared.store.as_ref(), spec, fespec, job.insts, cell);
    #[cfg(feature = "check")]
    if shared.faults.as_ref().is_some_and(|f| f.take_cell_panic()) {
        panic!("injected cell panic");
    }
    if let Some(store) = &shared.store {
        store.store_result(key, &xbc_sim::to_json(std::slice::from_ref(&row)));
    }
    (row, CellSource::Simulated)
}

/// Worker loop: drain the scheduler; exit once it reports drained
/// (drain flag set *and* no queued or running cells — graceful shutdown
/// finishes every accepted request).
fn worker(shared: &Shared) {
    while let Some(CellTicket { job, cell, attempt }) = shared.sched.pop() {
        #[cfg(feature = "check")]
        if let Some(faults) = &shared.faults {
            if faults.take_worker_kill() {
                // The worker "died" inside this cell. Retry the cell
                // once; a second death fails the owning request.
                if attempt + 1 < MAX_CELL_ATTEMPTS {
                    shared.sched.requeue(
                        job.client,
                        job.priority,
                        Arc::clone(&job),
                        cell,
                        attempt + 1,
                    );
                } else {
                    job.fail(&format!(
                        "worker died {MAX_CELL_ATTEMPTS} times in cell {cell}; request failed"
                    ));
                    shared.sched.cancel(job.client);
                    shared.sched.complete();
                }
                continue;
            }
        }
        run_cell(shared, &job, cell, attempt);
        shared.sched.complete();
    }
}

/// Writes one line and flushes.
fn send_line(out: &mut Conn, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    send(out, &mut buf)
}

/// Writes the buffered lines in one call, flushes, and empties the
/// buffer.
fn send(out: &mut Conn, buf: &mut String) -> std::io::Result<()> {
    out.write_all(buf.as_bytes())?;
    buf.clear();
    out.flush()
}

/// Streams the job's rows in index order. `Ok(true)` means all rows and
/// the `done` trailer went out; `Ok(false)` means the job failed and an
/// `error` line was sent instead (connection stays usable).
///
/// Ready rows are encoded into one buffer and written together: the
/// buffer goes out before the thread waits for the next cell, once it
/// passes [`BATCH_BYTES`], and with the trailer. A warm grid is a few
/// writes instead of one per row, and a cold row still leaves as soon
/// as its cell finishes.
fn stream_rows(
    shared: &Shared,
    job: &Arc<Job>,
    out: &mut Conn,
    wall0: Instant,
    cached_cells: usize,
    memory_cells: usize,
    stats0: Option<xbc_store::StoreStats>,
) -> std::io::Result<bool> {
    enum Got {
        Row(Row),
        Failed(String),
    }
    let n_cells = job.traces.len() * job.frontends.len();
    let mut pending = String::new();
    for idx in 0..n_cells {
        let got = {
            let mut slots = job.rows.lock().expect("job rows lock");
            loop {
                if let Some(r) = slots[idx].take() {
                    break Got::Row(r);
                }
                // Checked under the rows mutex (which `Job::fail` also
                // takes before notifying), so the failure wake cannot
                // slip between this check and the wait.
                if let Some(why) = job.failed.lock().expect("job failed lock").clone() {
                    break Got::Failed(why);
                }
                if !pending.is_empty() {
                    // Send what is ready before waiting, without
                    // holding the lock the workers deliver through.
                    drop(slots);
                    send(out, &mut pending)?;
                    slots = job.rows.lock().expect("job rows lock");
                    continue;
                }
                slots = job.row_cv.wait(slots).expect("job row cv");
            }
        };
        let row = match got {
            Got::Row(row) => row,
            Got::Failed(why) => {
                pending.push_str(&protocol::error_line(&why));
                pending.push('\n');
                send(out, &mut pending)?;
                return Ok(false);
            }
        };
        #[cfg(feature = "check")]
        if let Some(faults) = &shared.faults {
            // Each fault acts at its row: the rows before it go out
            // first.
            match faults.next_row_fault() {
                RowFault::None => {}
                RowFault::Delay(ms) => {
                    send(out, &mut pending)?;
                    std::thread::sleep(Duration::from_millis(ms));
                }
                RowFault::Drop => {
                    send(out, &mut pending)?;
                    return Err(std::io::Error::other("injected connection drop"));
                }
                RowFault::Truncate => {
                    send(out, &mut pending)?;
                    protocol::push_row_line(&mut pending, idx, &row);
                    out.write_all(&pending.as_bytes()[..pending.len() / 2])?;
                    out.flush()?;
                    return Err(std::io::Error::other("injected connection truncate"));
                }
            }
        }
        protocol::push_row_line(&mut pending, idx, &row);
        if pending.len() >= BATCH_BYTES {
            send(out, &mut pending)?;
        }
    }

    let deduped = job.deduped_cells.load(Ordering::Relaxed) as usize;
    let bench = SweepBench {
        threads: shared.threads,
        traces: job.traces.len(),
        frontends: job.frontends.len(),
        total_cells: n_cells,
        cached_cells,
        // The dedup identity: over concurrent clients, simulated_cells
        // sums to the number of distinct cold cells.
        simulated_cells: job.cells.len() - deduped,
        deduped_cells: deduped,
        wall_ms: wall0.elapsed().as_millis() as u64,
        // The pool is daemon-global, not per-request: per-worker stats
        // are not attributable to one request, so the trailer's worker
        // list is empty by design.
        workers: Vec::new(),
        ..job.cold.bench()
    };
    let delta = stats0.map(|before| {
        protocol::stats_delta(
            &before,
            &shared.store.as_ref().expect("stats0 implies store").stats(),
        )
    });
    let sched = shared.sched.stats();
    let tier = shared
        .store
        .as_ref()
        .map(|_| TierStats { memory_cells: memory_cells as u64, rows: shared.tier.len() as u64 });
    pending.push_str(&protocol::done_line(
        n_cells,
        &bench,
        delta.as_ref(),
        Some(&sched),
        tier.as_ref(),
    ));
    pending.push('\n');
    send(out, &mut pending)?;
    if shared.progress {
        eprintln!(
            "[xbc-serve] client {}: {} cells ({} cached, {} of them from memory, {} simulated, \
             {} deduped, {} streamed, {} overlapped) in {} ms (queue depth {})",
            job.client,
            n_cells,
            cached_cells,
            memory_cells,
            bench.simulated_cells,
            deduped,
            job.cold.streamed_cells(),
            bench.overlapped_cells,
            bench.wall_ms,
            sched.queue_depth,
        );
    }
    Ok(true)
}

/// Serves one sweep request on an open connection: probe the result
/// cache, register the missing cells with the scheduler, stream rows
/// back in trace-major index order as the completed prefix grows, close
/// with the `done` trailer (per-request bench + store-stats delta +
/// scheduler snapshot).
fn handle_sweep(
    shared: &Shared,
    out: &mut Conn,
    client: u64,
    req: SweepRequest,
) -> std::io::Result<()> {
    let wall0 = Instant::now();
    let all = standard_traces();
    let mut specs: Vec<TraceSpec> = Vec::with_capacity(req.traces.len());
    for name in &req.traces {
        match all.iter().find(|t| t.name == *name) {
            Some(s) => specs.push(s.clone()),
            None => {
                return send_line(out, &protocol::error_line(&format!("unknown trace: {name}")));
            }
        }
    }
    if specs.is_empty() || req.frontends.is_empty() || req.insts == 0 {
        return send_line(
            out,
            &protocol::error_line("sweep needs at least one trace, one frontend, and insts > 0"),
        );
    }
    let stats0 = shared.store.as_ref().map(|s| s.stats());
    let n_fe = req.frontends.len();
    let n_cells = specs.len() * n_fe;
    let mut rows: Vec<Option<Row>> = vec![None; n_cells];

    // Probe the result cache: the memory tier, then the store.
    let mut memory_cells = 0;
    if shared.store.is_some() {
        for (ti, spec) in specs.iter().enumerate() {
            for (fi, fe) in req.frontends.iter().enumerate() {
                rows[ti * n_fe + fi] = match shared.probe(&result_key(spec, fe, req.insts)) {
                    Probe::Memory(row) => {
                        memory_cells += 1;
                        Some(row)
                    }
                    Probe::Disk(row) => Some(row),
                    Probe::Miss => None,
                };
            }
        }
    }

    let cells = plan_cells(&rows, n_fe);
    let cached_cells = n_cells - cells.len();

    let job =
        Arc::new(Job::new(client, req.priority, specs, req.frontends, req.insts, cells, rows));
    if !job.cells.is_empty() {
        if let Err(refused) =
            shared.sched.register(client, req.priority, Arc::clone(&job), 0..job.cells.len())
        {
            return send_line(out, &protocol::error_line(&refused));
        }
    }

    // Stream rows in index order as soon as each is available; cached
    // rows flow out immediately. On any stream error — the client hung
    // up, or a fault severed the connection — drop the client's
    // still-queued cells so one dead client cannot occupy the pool.
    let streamed = stream_rows(shared, &job, out, wall0, cached_cells, memory_cells, stats0);
    if streamed.is_err() {
        shared.sched.cancel(client);
    }
    streamed.map(|_| ())
}

/// Reads one request line, polling so blocked reads observe shutdown
/// and the idle budget. Returns `Ok(None)` on EOF, idle timeout, or
/// daemon drain, and an `InvalidData` error for a line longer than
/// [`MAX_REQUEST_LINE`] (its rest is left unread).
fn read_request_line(
    shared: &Shared,
    reader: &mut BufReader<Conn>,
) -> std::io::Result<Option<String>> {
    // Partial lines accumulate across poll timeouts: read_until appends
    // whatever arrived before the timeout, so the buffer must persist
    // (and must NOT be cleared) between retries.
    let mut buf: Vec<u8> = Vec::new();
    let idle0 = Instant::now();
    loop {
        // At most one byte past the cap (content plus newline) is read.
        let budget = (MAX_REQUEST_LINE + 1 - buf.len()) as u64;
        match reader.by_ref().take(budget).read_until(b'\n', &mut buf) {
            Ok(0) => return Ok(None), // EOF
            Ok(_) if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("request line exceeds {MAX_REQUEST_LINE} bytes; closing connection"),
                ));
            }
            Ok(_) => {
                // Requests are not required to be valid UTF-8 — a
                // malformed byte is a parse error, not a dead daemon.
                return Ok(Some(String::from_utf8_lossy(&buf).into_owned()));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Ok(None);
                }
                if let Some(limit) = shared.idle_timeout {
                    if buf.is_empty() && idle0.elapsed() > limit {
                        return Ok(None);
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// One client connection: hello, then serve requests line by line until
/// the client disconnects (or asks for shutdown).
fn handle_connection(shared: &Shared, conn: Conn, client: u64) -> std::io::Result<()> {
    conn.set_read_timeout(Some(READ_POLL))?;
    let mut out = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    send_line(&mut out, &protocol::hello_line(shared.threads))?;
    loop {
        let line = match read_request_line(shared, &mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            // Socket reads never report InvalidData: this is an
            // over-long line, refused before the connection closes.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return send_line(&mut out, &protocol::error_line(&e.to_string()));
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_request(&line) {
            Err(e) => send_line(&mut out, &protocol::error_line(&e))?,
            Ok(Request::Ping) => send_line(&mut out, &protocol::pong_line())?,
            Ok(Request::Shutdown) => {
                let draining = shared.sched.begin_drain();
                shared.shutdown.store(true, Ordering::Release);
                send_line(&mut out, &protocol::bye_line(draining))?;
                // Unblock the accept loop so it observes the flag.
                transport::connect(&shared.endpoint).ok();
                return Ok(());
            }
            Ok(Request::Sweep(req)) => handle_sweep(shared, &mut out, client, req)?,
        }
    }
}

/// A bound, not-yet-running daemon. Splitting bind from run lets
/// callers learn the resolved endpoint (TCP port 0) before the accept
/// loop blocks.
pub struct Server {
    listener: Listener,
    config: ServeConfig,
}

impl Server {
    /// Binds the configured endpoint without serving yet.
    ///
    /// # Errors
    ///
    /// Returns the bind error — including "another live daemon already
    /// answers on this Unix socket".
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(&config.listen)?;
        Ok(Server { listener, config })
    }

    /// The resolved listening endpoint (actual port for TCP `:0`).
    pub fn endpoint(&self) -> &Endpoint {
        self.listener.endpoint()
    }

    /// Runs the daemon: spawns the worker pool and accepts clients
    /// until one of them sends `shutdown`. Queued work is drained
    /// before returning; a Unix socket file is removed on exit.
    ///
    /// # Errors
    ///
    /// Returns the accept-loop IO error if the listener dies.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, config } = self;
        let threads = resolve_threads(config.threads);
        let shared = Shared {
            endpoint: listener.endpoint().clone(),
            store: config.store.clone(),
            threads,
            progress: config.progress,
            max_connections: config.max_connections.max(1),
            idle_timeout: config.idle_timeout,
            sched: Scheduler::new(),
            flights: CellFlights::default(),
            tier: RowTier::new(),
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            next_client: AtomicU64::new(1),
            #[cfg(feature = "check")]
            faults: config.faults.clone(),
        };
        if config.progress {
            eprintln!(
                "[xbc-serve] listening on {} ({} workers, store {}, max {} connections)",
                shared.endpoint,
                threads,
                match &shared.store {
                    Some(s) => s.root().display().to_string(),
                    None => "off".to_owned(),
                },
                shared.max_connections,
            );
        }
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| worker(&shared));
            }
            loop {
                let conn = listener.accept();
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match conn {
                    Ok(conn) => {
                        if shared.active_conns.load(Ordering::Acquire) >= shared.max_connections {
                            let mut conn = conn;
                            let refusal = protocol::error_line(&format!(
                                "server at capacity ({} connections); retry later",
                                shared.max_connections
                            ));
                            send_line(&mut conn, &refusal).ok();
                            continue;
                        }
                        shared.active_conns.fetch_add(1, Ordering::AcqRel);
                        let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                        if let Some(budget) = config.write_timeout {
                            conn.set_write_timeout(Some(budget)).ok();
                        }
                        let shared = &shared;
                        scope.spawn(move || {
                            if let Err(e) = handle_connection(shared, conn, client) {
                                // A client hanging up mid-response is its
                                // prerogative, not a daemon failure.
                                if shared.progress {
                                    eprintln!("[xbc-serve] client {client} ended: {e}");
                                }
                            }
                            shared.active_conns.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                    Err(e) => {
                        if shared.progress {
                            eprintln!("[xbc-serve] accept failed: {e}");
                        }
                    }
                }
            }
            // Shutdown: the drain flag is set; wake any workers parked
            // on an empty queue so they observe it.
            shared.sched.begin_drain();
        });
        listener.cleanup();
        if config.progress {
            eprintln!("[xbc-serve] shut down");
        }
        Ok(())
    }
}

/// Binds and runs the daemon — see [`Server`].
///
/// # Errors
///
/// Returns the bind/IO error if the endpoint cannot be set up, or if
/// another live daemon already answers on it.
pub fn serve(config: &ServeConfig) -> std::io::Result<()> {
    Server::bind(config.clone())?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_frontend::FrontendMetrics;
    use xbc_workload::standard_traces;

    /// A one-cell job of `client`, its cell missing.
    fn job(client: u64) -> Arc<Job> {
        let traces = vec![standard_traces()[0].clone()];
        let cells = vec![Cell { trace: 0, fe: 0, rank: 0, missing: 1 }];
        Arc::new(Job::new(client, 0, traces, vec![FrontendSpec::Ic], 1_000, cells, vec![None]))
    }

    fn leaders_row() -> Row {
        let m = FrontendMetrics { cycles: 4_321, ..Default::default() };
        Row::new("spec.gcc", "spec", FrontendSpec::Ic, 1_000, &m)
    }

    fn row_of(job: &Job) -> Option<Row> {
        job.rows.lock().unwrap()[0].clone()
    }

    #[test]
    fn joining_a_running_flight_returns_at_once() {
        let flights = CellFlights::default();
        let (leader, rival) = (job(1), job(2));
        assert!(flights.lead_or_wait("k", (leader, 0, 0)));
        // While the leader still runs, another worker's cell of the same
        // key waits on it without blocking that worker.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(flights.lead_or_wait("k", (Arc::clone(&rival), 0, 0))).unwrap());
            let led = rx.recv_timeout(Duration::from_secs(10)).expect("the join returned");
            assert!(!led, "a running flight is joined, not led twice");
        });
        assert!(flights.lead_or_wait("other", (rival, 0, 0)), "other keys lead their own flight");
    }

    #[test]
    fn waiting_cells_get_the_leaders_row() {
        let (flights, sched) = (CellFlights::default(), Scheduler::new());
        let (leader, a, b) = (job(1), job(2), job(3));
        assert!(flights.lead_or_wait("k", (leader, 0, 0)));
        assert!(!flights.lead_or_wait("k", (Arc::clone(&a), 0, 0)));
        assert!(!flights.lead_or_wait("k", (Arc::clone(&b), 0, 0)));
        land(&sched, &flights, "k", Some(&leaders_row()));
        for waiter in [&a, &b] {
            assert_eq!(row_of(waiter).map(|r| r.cycles), Some(4_321));
            assert_eq!(waiter.deduped_cells.load(Ordering::Relaxed), 1);
        }
        assert_eq!(sched.stats().deduped_cells, 2);
        assert!(flights.lead_or_wait("k", (a, 0, 0)), "a landed flight is gone");
    }

    #[test]
    fn a_failed_leader_requeues_its_waiting_cells() {
        let (flights, sched) = (CellFlights::default(), Scheduler::new());
        let (leader, a, failed) = (job(1), job(2), job(3));
        assert!(flights.lead_or_wait("k", (leader, 0, 0)));
        assert!(!flights.lead_or_wait("k", (Arc::clone(&a), 0, 1)));
        assert!(!flights.lead_or_wait("k", (Arc::clone(&failed), 0, 0)));
        failed.fail("its client went away");
        land(&sched, &flights, "k", None);
        assert!(row_of(&a).is_none(), "a failed flight delivers no row");
        sched.begin_drain();
        let t = sched.pop().expect("the waiting cell is queued again");
        assert_eq!((t.job.client, t.cell, t.attempt), (2, 0, 1));
        assert!(flights.lead_or_wait("k", (t.job, 0, 1)), "it leads a fresh flight");
        sched.complete();
        assert!(sched.pop().is_none(), "a failed request's cell is not queued again");
        assert_eq!(sched.stats().retried_cells, 1);
    }
}
