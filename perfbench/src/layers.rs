//! The benchmark's only door into the program: every call it makes into
//! a layer's public functions goes through this module, so a change to
//! those entry points (for instance folding the replay entry points into
//! one) changes the benchmark here and nowhere else.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xbc_frontend::{FrontendMetrics, OracleStream};
use xbc_isa::BranchKind;
use xbc_predict::{Gshare, GshareConfig};
use xbc_serve::protocol::{self, SweepRequest};
use xbc_serve::{Endpoint, SchedStats, ServeConfig, Server};
use xbc_sim::json::Json;
use xbc_sim::{result_key, rows_from_json, to_json, FrontendSpec, Row, Sweep, SweepBench};
use xbc_store::{fnv1a64, Store, StoreStats};
use xbc_workload::{InstSource, TraceSpec, TraceStream};

pub use xbc_workload::standard_traces;

/// A trace opened from the store for streaming replay.
pub type Stream = TraceStream<BufReader<std::fs::File>>;

/// Opens (creating) a store rooted at `dir`.
pub fn open_store(dir: &Path) -> Arc<Store> {
    Arc::new(Store::open(dir).expect("benchmark work directory must be writable"))
}

/// The store's counters.
pub fn store_stats(store: &Store) -> StoreStats {
    store.stats()
}

/// Captures `spec` streamed straight into the store
/// (`Store::capture_to_store`). Returns bytes written.
pub fn capture(store: &Store, spec: &TraceSpec, insts: usize) -> u64 {
    store
        .capture_to_store(spec, insts, |_, _| {})
        .unwrap_or_else(|e| panic!("capturing {} into the store failed: {e}", spec.name))
}

/// Opens a captured trace as a validated stream (`Store::open_trace_stream`).
pub fn open(store: &Store, spec: &TraceSpec, insts: usize) -> Option<Stream> {
    store.open_trace_stream(spec, insts)
}

/// Builds the configured frontend and replays `source` through it.
pub fn replay(fe: &FrontendSpec, source: &mut dyn InstSource) -> FrontendMetrics {
    fe.instantiate().run_streamed(source)
}

/// The result row of one replayed cell.
pub fn row(spec: &TraceSpec, fe: &FrontendSpec, insts: usize, m: &FrontendMetrics) -> Row {
    Row::new(spec.name, &spec.suite.to_string(), *fe, insts, m)
}

/// Reads a cell's cached row (`Store::load_result`); `None` on a miss.
pub fn read_row(store: &Store, spec: &TraceSpec, fe: &FrontendSpec, insts: usize) -> Option<Row> {
    let body = store.load_result(&result_key(spec, fe, insts))?;
    let mut rows = rows_from_json(&body).ok()?;
    (rows.len() == 1).then(|| rows.remove(0))
}

/// Caches a cell's row (`Store::store_result`).
pub fn write_row(store: &Store, spec: &TraceSpec, row: &Row) {
    store.store_result(
        &result_key(spec, &row.frontend, row.insts),
        &to_json(std::slice::from_ref(row)),
    );
}

/// Deletes a cell's cached row, so the next request simulates it again.
/// Result entries live at `<root>/results/<fnv1a64(key)>.xbr`.
pub fn forget_row(store: &Store, spec: &TraceSpec, fe: &FrontendSpec, insts: usize) {
    let key = result_key(spec, fe, insts);
    let path = store.root().join("results").join(format!("{:016x}.xbr", fnv1a64(key.as_bytes())));
    std::fs::remove_file(path).ok();
}

/// Pulls every instruction out of `source` with no replay: the decode
/// cost alone. Returns the instruction count.
pub fn drain_decode(source: &mut dyn InstSource) -> u64 {
    let mut n = 0u64;
    while let Some(d) = source.next_inst() {
        std::hint::black_box(d);
        n += 1;
    }
    n
}

/// Drains an `OracleStream` over `source` with no frontend model: the
/// per-trace work every configuration repeats. Returns uops delivered.
pub fn drain_oracle(source: &mut dyn InstSource) -> u64 {
    let mut oracle = OracleStream::streaming(source);
    while !oracle.done() {
        oracle.take_inst();
    }
    oracle.delivered_uops()
}

/// The committed stream's conditional branches as `(ip, taken)`, ready
/// for [`gshare_updates`].
pub fn conditional_branches(source: &mut dyn InstSource) -> Vec<(xbc_isa::Addr, bool)> {
    let mut out = Vec::new();
    while let Some(d) = source.next_inst() {
        if d.inst.branch == BranchKind::CondDirect {
            out.push((d.inst.ip, d.taken));
        }
    }
    out
}

/// Runs `Gshare::update` (the paper's 16-bit history) over `branches`.
/// Returns (wall ns, mispredictions).
pub fn gshare_updates(branches: &[(xbc_isa::Addr, bool)]) -> (u64, u64) {
    let mut g = Gshare::new(GshareConfig::default());
    let t0 = Instant::now();
    let mut wrong = 0u64;
    for &(ip, taken) in branches {
        wrong += u64::from(!g.update(std::hint::black_box(ip), taken));
    }
    (t0.elapsed().as_nanos() as u64, wrong)
}

/// Runs a sweep through `Sweep::run_with_bench`, quietly.
pub fn sweep(
    traces: &[TraceSpec],
    frontends: &[FrontendSpec],
    insts: usize,
    threads: usize,
    store: Option<&Arc<Store>>,
) -> (Vec<Row>, SweepBench) {
    let mut s = Sweep::new(traces.to_vec(), frontends.to_vec(), insts);
    s.threads = threads;
    s.progress = false;
    s.store = store.cloned();
    s.run_with_bench()
}

/// An in-process daemon serving on a Unix socket.
pub struct Daemon {
    endpoint: Endpoint,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds `socket`, starts the daemon with `threads` workers over
    /// `store`, and returns once it answers a `ping`.
    pub fn boot(socket: &Path, store: &Arc<Store>, threads: usize) -> Daemon {
        let mut cfg = ServeConfig::new(Endpoint::unix(socket));
        cfg.threads = threads;
        cfg.store = Some(Arc::clone(store));
        let server = Server::bind(cfg).expect("bind the daemon socket");
        let endpoint = server.endpoint().clone();
        let thread = std::thread::spawn(move || server.run());
        let t0 = Instant::now();
        while let Err(e) = xbc_serve::ping(&endpoint) {
            assert!(t0.elapsed().as_secs() < 30, "daemon never answered ping: {e}");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        Daemon { endpoint, thread }
    }

    /// Where clients connect.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(self) {
        xbc_serve::shutdown(&self.endpoint).expect("daemon shutdown");
        self.thread.join().expect("daemon thread panicked").expect("daemon exited with an error");
    }
}

/// What one daemon request returned.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    /// Rows in grid order.
    pub rows: Vec<Row>,
    /// The daemon's per-request accounting.
    pub bench: SweepBench,
    /// The daemon's queue snapshot at completion.
    pub sched: Option<SchedStats>,
    /// Connect + hello, in microseconds (timed client only).
    pub connect_us: f64,
    /// Submit to first row, in milliseconds (timed client only).
    pub first_row_ms: f64,
}

/// A sweep request for the daemon.
pub fn request(traces: &[TraceSpec], frontends: &[FrontendSpec], insts: usize) -> SweepRequest {
    SweepRequest {
        traces: traces.iter().map(|t| t.name.to_owned()).collect(),
        frontends: frontends.to_vec(),
        insts,
        priority: 0,
    }
}

/// Submits through `xbc_serve::submit`, the program's own client.
pub fn submit(endpoint: &Endpoint, req: &SweepRequest) -> Result<Reply, String> {
    let out = xbc_serve::submit(endpoint, req)?;
    Ok(Reply { rows: out.rows, bench: out.bench, sched: out.sched, ..Reply::default() })
}

/// Submits over the wire protocol directly, timing the connection and
/// the first row (the traced run's client).
pub fn submit_timed(endpoint: &Endpoint, req: &SweepRequest) -> Result<Reply, String> {
    let Endpoint::Unix(path) = endpoint else {
        return Err("timed client speaks Unix sockets only".into());
    };
    let t0 = Instant::now();
    let conn = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
    let mut out = conn.try_clone().map_err(|e| format!("clone connection: {e}"))?;
    let mut reader = BufReader::new(conn);
    let next = |reader: &mut BufReader<UnixStream>| -> Result<Json, String> {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| format!("read: {e}"))? == 0 {
            return Err("server closed the connection mid-response".into());
        }
        Json::parse(line.trim())
    };
    let hello = next(&mut reader)?;
    if hello.get("type").and_then(Json::as_str) == Some("error") {
        return Err(hello.get("message").and_then(Json::as_str).unwrap_or("refused").to_owned());
    }
    let connect_us = t0.elapsed().as_secs_f64() * 1e6;
    let t1 = Instant::now();
    writeln!(out, "{}", protocol::render_sweep_request(req))
        .and_then(|()| out.flush())
        .map_err(|e| format!("send request: {e}"))?;
    let mut reply = Reply { connect_us, ..Reply::default() };
    loop {
        let j = next(&mut reader)?;
        match j.get("type").and_then(Json::as_str) {
            Some("row") => {
                if reply.rows.is_empty() {
                    reply.first_row_ms = t1.elapsed().as_secs_f64() * 1e3;
                }
                reply.rows.push(Row::from_json(j.get("row").ok_or("row line missing row")?)?);
            }
            Some("done") => {
                reply.bench =
                    protocol::bench_from_json(j.get("bench").ok_or("done missing bench")?)?;
                reply.sched = match j.get("sched") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(protocol::sched_from_json(s)?),
                };
                return Ok(reply);
            }
            Some("error") => {
                return Err(j.get("message").and_then(Json::as_str).unwrap_or("error").to_owned())
            }
            other => return Err(format!("unexpected response type {other:?}")),
        }
    }
}
