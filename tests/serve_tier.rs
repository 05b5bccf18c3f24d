//! The daemon's memory tier and its non-blocking cell dedup, against a
//! live daemon.
//!
//! Warm rows served from memory must be byte-identical to a one-shot
//! `Sweep` of the same store, and the store must stay the source of
//! truth: a deleted entry, or one rewritten in place with a body that
//! fails its CRC, misses the tier and re-simulates exactly that cell.
//! The tier never holds more than `TIER_ROWS` rows. Two identical cold
//! requests to an uncached daemon — no store to fall back on — simulate
//! each distinct cell once: a cell whose key is already being simulated
//! waits for that row instead of simulating it again later.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use xbc_frontend::FrontendMetrics;
use xbc_serve::protocol::SweepRequest;
use xbc_serve::{ping, shutdown, submit, Endpoint, ServeConfig, SubmitOutcome, TIER_ROWS};
use xbc_sim::{result_key, to_json, FrontendSpec, Row, Sweep};
use xbc_store::{fnv1a64, Store, SETTLE};
use xbc_workload::{standard_traces, TraceSpec};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbc-serve-tier-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
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

fn req(traces: &[TraceSpec], frontends: &[FrontendSpec], insts: usize) -> SweepRequest {
    SweepRequest {
        traces: traces.iter().map(|t| t.name.to_owned()).collect(),
        frontends: frontends.to_vec(),
        insts,
        priority: 0,
    }
}

/// Where the store keeps the row of one cell.
fn entry(store: &Store, spec: &TraceSpec, fe: &FrontendSpec, insts: usize) -> PathBuf {
    let key = result_key(spec, fe, insts);
    store.root().join("results").join(format!("{:016x}.xbr", fnv1a64(key.as_bytes())))
}

/// Waits until every entry written so far can be remembered.
fn settle() {
    thread::sleep(SETTLE + Duration::from_millis(20));
}

/// The rows a one-shot sweep of the grid reads from `store`.
fn one_shot(
    store: &Arc<Store>,
    traces: &[TraceSpec],
    fes: &[FrontendSpec],
    insts: usize,
) -> String {
    let mut sweep = Sweep::new(traces.to_vec(), fes.to_vec(), insts).with_store(Arc::clone(store));
    sweep.progress = false;
    to_json(&sweep.run())
}

fn memory_cells(out: &SubmitOutcome) -> u64 {
    out.tier.expect("a cached daemon reports its tier").memory_cells
}

#[test]
fn warm_rows_come_from_memory_until_their_entry_changes() {
    const INSTS: usize = 3_000;
    let dir = scratch_dir("warm");
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let fes = [FrontendSpec::Ic, FrontendSpec::Xbc { total_uops: 8192, ways: 2, promotion: true }];
    let cells = traces.len() * fes.len();
    let expected = one_shot(&store, &traces, &fes, INSTS);
    settle();

    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 2;
    config.store = Some(Arc::clone(&store));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);
    let grid = req(&traces, &fes, INSTS);

    // The first request reads every row from disk, the second from
    // memory; both are the one-shot rows, byte for byte.
    let first = submit(&endpoint, &grid).unwrap();
    assert_eq!(memory_cells(&first), 0);
    assert_eq!(first.store.unwrap().result_hits, cells as u64);
    let second = submit(&endpoint, &grid).unwrap();
    assert_eq!(memory_cells(&second), cells as u64, "{:?}", second.tier);
    assert_eq!(second.store.unwrap().result_hits, 0, "memory hits read no entry");
    for out in [&first, &second] {
        assert_eq!(out.bench.cached_cells, cells);
        assert_eq!(to_json(&out.rows), expected, "warm rows must match a one-shot sweep");
    }

    // A deleted entry re-simulates exactly its cell.
    fs::remove_file(entry(&store, &traces[0], &fes[1], INSTS)).unwrap();
    let out = submit(&endpoint, &grid).unwrap();
    assert_eq!(out.bench.simulated_cells, 1, "{:?}", out.bench);
    assert_eq!(memory_cells(&out), cells as u64 - 1);
    assert_eq!(to_json(&out.rows), one_shot(&store, &traces, &fes, INSTS));

    // The re-simulated row enters the tier on its first settled read.
    settle();
    submit(&endpoint, &grid).unwrap();
    let out = submit(&endpoint, &grid).unwrap();
    assert_eq!(memory_cells(&out), cells as u64);

    // An entry rewritten in place, same length, with a body that fails
    // its CRC: the tier misses it, the store evicts it, the cell
    // re-simulates.
    let path = entry(&store, &traces[1], &fes[0], INSTS);
    let mut raw = fs::read(&path).unwrap();
    *raw.last_mut().unwrap() ^= 0x20;
    fs::write(&path, &raw).unwrap();
    let out = submit(&endpoint, &grid).unwrap();
    let delta = out.store.unwrap();
    assert_eq!(delta.corrupt_entries, 1, "{delta:?}");
    assert_eq!(out.bench.simulated_cells, 1, "{:?}", out.bench);
    assert_eq!(memory_cells(&out), cells as u64 - 1);
    assert_eq!(to_json(&out.rows), one_shot(&store, &traces, &fes, INSTS));

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_tier_holds_at_most_its_cap() {
    const INSTS: usize = 1_000;
    let dir = scratch_dir("cap");
    let store = Arc::new(Store::open(dir.join("cache")).unwrap());
    let traces = standard_traces();
    // One more frontend column than fills the tier.
    let columns = TIER_ROWS / traces.len() + 1;
    let fes: Vec<FrontendSpec> = (1..=columns)
        .map(|k| FrontendSpec::Xbc { total_uops: 32 * k, ways: 2, promotion: true })
        .collect();
    let m = FrontendMetrics { cycles: 1_000, structure_uops: 2_000, ..Default::default() };
    for t in &traces {
        for fe in &fes {
            let row = Row::new(t.name, &t.suite.to_string(), *fe, INSTS, &m);
            store.store_result(&result_key(t, fe, INSTS), &to_json(&[row]));
        }
    }
    let cells = traces.len() * fes.len();
    assert!(cells > TIER_ROWS);
    settle();

    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 1;
    config.store = Some(Arc::clone(&store));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    let grid = req(&traces, &fes, INSTS);
    for round in 0..2 {
        let out = submit(&endpoint, &grid).unwrap();
        assert_eq!(out.bench.cached_cells, cells);
        assert_eq!(out.rows.len(), cells);
        let tier = out.tier.unwrap();
        assert_eq!(tier.rows, TIER_ROWS as u64, "the tier fills to its cap and no further");
        if round == 1 {
            assert_eq!(tier.memory_cells, TIER_ROWS as u64, "a full tier serves what it holds");
        }
    }

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn identical_cold_requests_to_an_uncached_daemon_simulate_each_cell_once() {
    // Each cell runs long enough that the second request registers
    // while the first request's cells are still being simulated, and
    // every cell gets its own worker: no cell can be popped after its
    // twin finished.
    const INSTS: usize = 200_000;
    let dir = scratch_dir("uncached");
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let fes = [FrontendSpec::Xbc { total_uops: 4096, ways: 2, promotion: true }];
    let distinct = traces.len() * fes.len();
    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 2 * distinct;
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    wait_until_live(&endpoint);

    let grid = req(&traces, &fes, INSTS);
    let outs: Vec<SubmitOutcome> = thread::scope(|s| {
        let handles: Vec<_> =
            (0..2).map(|_| s.spawn(|| submit(&endpoint, &grid).unwrap())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let simulated: usize = outs.iter().map(|o| o.bench.simulated_cells).sum();
    let deduped: usize = outs.iter().map(|o| o.bench.deduped_cells).sum();
    assert_eq!(simulated, distinct, "{:?}", outs.iter().map(|o| &o.bench).collect::<Vec<_>>());
    assert_eq!(deduped, distinct);
    assert!(outs.iter().all(|o| o.tier.is_none()), "no store, no tier");
    assert_eq!(to_json(&outs[0].rows), to_json(&outs[1].rows), "both get the leaders' rows");

    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    fs::remove_dir_all(&dir).ok();
}
