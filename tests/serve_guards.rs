//! Daemon guards against requests and clients that could wedge it: a
//! frontend geometry the simulator cannot build, or too large to size,
//! is refused when the request is parsed (it used to panic a worker and
//! leave the client waiting forever); a panic inside a cell fails its
//! request with an `error` line and hands the cells waiting on it back
//! to the queue; a request line nested deeper than the JSON reader
//! allows is an `error` line, not a stack overflow; and a client that
//! stops reading is dropped once `ServeConfig::write_timeout` expires,
//! its queued cells cancelled, while the daemon goes on serving others.
//! The daemon writes ready rows together; the fault seam's row faults
//! must still act at their row, after the rows before it went out.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use xbc_frontend::FrontendMetrics;
use xbc_serve::protocol::{render_sweep_request, SweepRequest};
use xbc_serve::{ping, shutdown, submit, Endpoint, FaultInjector, ServeConfig, SubmitOutcome};
use xbc_sim::{result_key, to_json, FrontendSpec, Row};
use xbc_store::Store;
use xbc_workload::standard_traces;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbc-serve-guards-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_until_live(endpoint: &Endpoint) {
    for _ in 0..500 {
        if ping(endpoint).is_ok() {
            return;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {endpoint}");
}

fn req(traces: &[&str], frontends: Vec<FrontendSpec>, insts: usize) -> SweepRequest {
    let traces = traces.iter().map(|t| (*t).to_owned()).collect();
    SweepRequest { traces, frontends, insts, priority: 0 }
}

/// `submit`, failing the test instead of hanging if no reply comes.
fn submit_within(endpoint: &Endpoint, request: SweepRequest) -> Result<SubmitOutcome, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    let endpoint = endpoint.clone();
    thread::spawn(move || {
        // The receiver is gone only if the test already failed.
        let _ = tx.send(submit(&endpoint, &request));
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("the daemon stopped answering")
}

/// Stores a made-up row for every cell of `names` x `frontends`, so a
/// grid of them is warm without simulating anything.
fn store_rows(store: &Store, names: &[&str], frontends: &[FrontendSpec], insts: usize) {
    let counters = FrontendMetrics {
        cycles: u64::MAX,
        delivery_cycles: u64::MAX / 3,
        structure_uops: u64::MAX / 2,
        ic_uops: 12_345,
        ..Default::default()
    };
    for t in standard_traces().iter().filter(|t| names.contains(&t.name)) {
        for fe in frontends {
            let mut row = Row::new(t.name, &t.suite.to_string(), *fe, insts, &counters);
            row.elapsed_ms = u64::MAX;
            store.store_result(&result_key(t, fe, insts), &to_json(&[row]));
        }
    }
}

/// Sends `request` on a fresh connection and reads the response up to
/// its trailer or the end of the stream, with each line's arrival time
/// since the send. A final line without a newline is a partial line.
fn raw_response(socket: &std::path::Path, request: &SweepRequest) -> Vec<(String, Duration)> {
    let mut conn = UnixStream::connect(socket).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello
    writeln!(conn, "{}", render_sweep_request(request)).unwrap();
    let t0 = Instant::now();
    let mut lines = Vec::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return lines,
            Ok(_) => lines.push((line.clone(), t0.elapsed())),
        }
        if line.starts_with("{\"type\":\"done\"") {
            return lines;
        }
    }
}

#[test]
fn unbuildable_geometries_are_refused_and_one_worker_keeps_serving() {
    let dir = scratch_dir("geometry");
    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1; // one panicked worker would wedge every cold cell
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    let bad = [
        FrontendSpec::Xbc { total_uops: 3, ways: 2, promotion: true },
        FrontendSpec::Xbc { total_uops: 32 * 1024, ways: 0, promotion: true },
        FrontendSpec::Xbc { total_uops: 32 * 1024, ways: 17, promotion: false },
        FrontendSpec::Tc { total_uops: 32 * 1024, ways: 0 },
        FrontendSpec::Tc { total_uops: 0, ways: 4 },
        FrontendSpec::UopCache { total_uops: 0 },
        FrontendSpec::Bbtc { total_uops: 0 },
        // A multiple of every set size, but far too large to allocate.
        FrontendSpec::Xbc { total_uops: 1 << 62, ways: 2, promotion: true },
        FrontendSpec::Tc { total_uops: (xbc_uarch::MAX_TOTAL_UOPS + 1) * 4, ways: 4 },
    ];
    for (i, spec) in bad.into_iter().enumerate() {
        let err = submit_within(&endpoint, req(&["spec.gcc"], vec![FrontendSpec::Ic, spec], 2_000))
            .expect_err("an unbuildable geometry is refused");
        assert!(err.contains("bad frontend"), "{spec:?}: {err}");
        // The daemon is uncached, so this cell is simulated by the one
        // worker: it must still be alive.
        let good = FrontendSpec::Xbc { total_uops: 4096 * (i + 1), ways: 2, promotion: true };
        let out = submit_within(&endpoint, req(&["spec.gcc"], vec![good], 2_000))
            .unwrap_or_else(|e| panic!("valid cold grid after {spec:?}: {e}"));
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.bench.simulated_cells, 1);
    }

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_panic_in_a_cell_fails_its_request_and_requeues_the_cells_waiting_on_it() {
    let dir = scratch_dir("panic");
    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let faults = Arc::new(FaultInjector::new());
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 2;
    config.faults = Some(Arc::clone(&faults));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    // Two clients want the same cold cell. Whichever leads it panics
    // after its simulation; the other's cell waits on that flight and
    // goes back to the queue, to be led again.
    faults.panic_next_cells(1);
    let fe = FrontendSpec::Xbc { total_uops: 4096, ways: 2, promotion: true };
    let cell = req(&["spec.gcc"], vec![fe], 200_000);
    let (a, b) = thread::scope(|s| {
        let a = s.spawn(|| submit_within(&endpoint, cell.clone()));
        let b = s.spawn(|| submit_within(&endpoint, cell.clone()));
        (a.join().unwrap(), b.join().unwrap())
    });
    let (failed, served) = match (a, b) {
        (Err(e), Ok(out)) | (Ok(out), Err(e)) => (e, out),
        other => panic!("exactly one request fails: {other:?}"),
    };
    assert!(failed.contains("panicked") && failed.contains("injected"), "{failed}");
    assert_eq!(served.rows.len(), 1);
    assert_eq!(served.bench.simulated_cells, 1, "the waiting cell was led again");
    assert!(served.sched.unwrap().retried_cells >= 1, "and it went through the queue");

    // Both workers are still alive.
    let two = req(&["spec.gcc", "games.quake"], vec![fe], 2_000);
    let out = submit_within(&endpoint, two).expect("a cold grid after the panic");
    assert_eq!(out.bench.simulated_cells, 2);

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_request_line_is_an_error_not_a_crash() {
    let dir = scratch_dir("nesting");
    let socket = dir.join("d.sock");
    let endpoint = Endpoint::unix(&socket);
    let config = ServeConfig::new(endpoint.clone());
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    // 200,000 open brackets: well under the request-line cap, and far
    // deeper than a connection thread's stack could recurse.
    let mut conn = UnixStream::connect(&socket).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello
    writeln!(conn, "{}", "[".repeat(200_000)).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("{\"type\":\"error\"") && line.contains("nesting"), "{line}");
    // The connection and the daemon both live on.
    writeln!(conn, "{{\"type\":\"ping\"}}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("pong"), "{line}");
    ping(&endpoint).expect("the daemon still answers");

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_client_that_stops_reading_is_dropped_at_the_write_timeout() {
    let dir = scratch_dir("stall");
    let socket = dir.join("d.sock");
    let endpoint = Endpoint::unix(&socket);
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());
    let traces = standard_traces();
    let names: Vec<&str> = traces.iter().map(|t| t.name).collect();
    let insts = 300_000;
    let frontends: Vec<FrontendSpec> = (1..=40)
        .map(|k| FrontendSpec::Xbc { total_uops: 32 * k, ways: 2, promotion: k % 2 == 0 })
        .collect();
    // Store rows for every cell but the last trace's: the response is
    // ~840 lines of ~500 bytes, more than a Unix socket buffers, and
    // its cold cells come last, so the stream stalls on the socket with
    // the last trace's cells still queued behind one worker.
    store_rows(&store, &names[..names.len() - 1], &frontends, insts);

    let timeout = Duration::from_millis(300);
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1;
    config.store = Some(Arc::clone(&store));
    config.write_timeout = Some(timeout);
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    // The stalled client sends its grid and never reads the response.
    let mut stalled = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stalled.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello
    writeln!(stalled, "{}", render_sweep_request(&req(&names, frontends.clone(), insts))).unwrap();
    let t0 = Instant::now();

    // Other clients are served meanwhile; once the daemon gives up on
    // the stalled one, their trailers show its queued cells cancelled.
    let warm = req(&names[..1], frontends[..1].to_vec(), insts);
    let sched = loop {
        let out = submit(&endpoint, &warm).expect("a warm grid is served during the stall");
        assert_eq!(out.bench.cached_cells, 1);
        let sched = out.sched.expect("sched snapshot");
        if sched.cancelled_cells > 0 {
            break sched;
        }
        assert!(t0.elapsed() < Duration::from_secs(60), "the daemon never gave up: {sched:?}");
        thread::sleep(Duration::from_millis(20));
    };
    assert!(t0.elapsed() >= timeout, "gave up before the write timeout");
    assert_eq!(sched.queue_depth, 0, "no cell of the dropped client stays queued: {sched:?}");

    // The daemon closed the stalled stream partway: what was buffered
    // reads back, then end of stream, with no `done` trailer.
    stalled.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut rows = 0;
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        assert!(line.starts_with("{\"type\":\"row\""), "only rows before the cut: {line}");
        rows += 1;
    }
    assert!(rows > 0 && rows < names.len() * frontends.len(), "{rows} rows arrived");

    // And a cold grid still gets the one worker.
    let cold = FrontendSpec::Xbc { total_uops: 4096, ways: 2, promotion: true };
    let out = submit(&endpoint, &req(&names[..1], vec![cold], 2_000)).unwrap();
    assert_eq!(out.bench.simulated_cells, 1);

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn row_faults_act_at_their_row_when_rows_are_written_together() {
    let dir = scratch_dir("faults");
    let socket = dir.join("d.sock");
    let endpoint = Endpoint::unix(&socket);
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());
    let frontends: Vec<FrontendSpec> =
        (1..=8).map(|k| FrontendSpec::Bbtc { total_uops: 4096 * k }).collect();
    let insts = 1_000;
    store_rows(&store, &["spec.gcc"], &frontends, insts);
    let faults = Arc::new(FaultInjector::new());
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1;
    config.store = Some(store);
    config.faults = Some(Arc::clone(&faults));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);
    // Every row of this grid is ready at once, the case where rows are
    // written together.
    let grid = req(&["spec.gcc"], frontends.clone(), insts);
    let is_row = |l: &str| l.starts_with("{\"type\":\"row\"") && l.ends_with('\n');

    for k in [0, 3, 7] {
        faults.reset();
        faults.drop_connection_after(k);
        let lines = raw_response(&socket, &grid);
        assert_eq!(lines.len() as u64, k, "drop after {k} rows: {lines:?}");
        assert!(lines.iter().all(|(l, _)| is_row(l)));

        faults.reset();
        faults.truncate_after(k);
        let lines = raw_response(&socket, &grid);
        assert_eq!(lines.len() as u64, k + 1, "truncate after {k} rows: {lines:?}");
        let (partial, rows) = lines.split_last().unwrap();
        assert!(rows.iter().all(|(l, _)| is_row(l)));
        assert!(!partial.0.ends_with('\n') && partial.0.len() > 10, "half a row: {partial:?}");
    }

    // A delay before each row: every row leaves before the next delay,
    // not with the trailer.
    let delay = 60;
    faults.reset();
    faults.delay_rows(delay);
    let lines = raw_response(&socket, &grid);
    faults.reset();
    assert_eq!(lines.len(), frontends.len() + 1, "all rows, then the trailer");
    let first_row = lines[0].1;
    let trailer = lines.last().unwrap().1;
    assert!(
        first_row + Duration::from_millis(delay * 5) <= trailer,
        "row 0 waited for later rows: at {first_row:?}, trailer at {trailer:?}"
    );

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_rows_leave_as_their_cells_finish() {
    let dir = scratch_dir("cold");
    let socket = dir.join("d.sock");
    let endpoint = Endpoint::unix(&socket);
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1; // uncached: the cells finish one after another
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    let frontends: Vec<FrontendSpec> = (1..=4)
        .map(|k| FrontendSpec::Xbc { total_uops: 4096 * k, ways: 2, promotion: true })
        .collect();
    let lines = raw_response(&socket, &req(&["spec.gcc"], frontends, 20_000));
    assert_eq!(lines.len(), 5, "four rows, then the trailer: {lines:?}");
    // Waiting for a cell sends the rows before it: row 0 does not wait
    // for the last three cells to be simulated.
    let (first_row, trailer) = (lines[0].1, lines[4].1);
    assert!(
        first_row + Duration::from_millis(1) < trailer,
        "row 0 at {first_row:?} went out with the trailer at {trailer:?}"
    );

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
