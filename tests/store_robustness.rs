//! Exhaustive single-byte corruption sweep over the on-disk store formats.
//!
//! For a small cached `XBT1` trace entry and an `XBR1` result entry, flip
//! every byte of the file in turn and verify that the store (a) never
//! panics, (b) detects the corruption, logs it, evicts the entry, and
//! reports a miss, and (c) regenerates a byte-identical replacement. This
//! pins the whole corruption-handling surface — magic, header fields,
//! varint payload, CRC trailer — not just one lucky offset.
//!
//! The streamed replay path gets the same sweep: a sweep cell or a daemon
//! cell replays a stored trace in one decode pass and judges the entry
//! only after the replay, so every flip must still end in an evicted,
//! regenerated entry and the clean row.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use xbc_serve::protocol::SweepRequest;
use xbc_serve::{ping, shutdown, submit, Endpoint, ServeConfig};
use xbc_sim::{result_key, to_json, FrontendSpec, Row, Sweep};
use xbc_store::Store;
use xbc_workload::{standard_traces, TraceSpec};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xbc-robust-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The single file in a store subdirectory.
fn only_file(dir: &std::path::Path) -> PathBuf {
    let mut it = fs::read_dir(dir).unwrap();
    let path = it.next().expect("one cache file").unwrap().path();
    assert!(it.next().is_none(), "expected exactly one cache file");
    path
}

#[test]
fn every_single_byte_flip_in_a_trace_entry_is_caught() {
    let dir = scratch("trace-flips");
    let store = Store::open(&dir).unwrap();
    let spec = &standard_traces()[0];
    // Small on purpose: the sweep is O(file size) loads.
    let original = store.get_or_capture(spec, 40);
    let path = only_file(&dir.join("traces"));
    let pristine = fs::read(&path).unwrap();
    assert!(pristine.len() < 4096, "keep the exhaustive sweep cheap");

    for i in 0..pristine.len() {
        let mut raw = pristine.clone();
        raw[i] ^= 0xA5;
        fs::write(&path, &raw).unwrap();
        // Must be detected: a miss, never a panic, never wrong data.
        assert!(
            store.load_trace(spec, 40).is_none(),
            "flip at byte {i}/{} went undetected",
            pristine.len()
        );
        assert!(!path.exists(), "flip at byte {i}: corrupt entry must be deleted");
    }
    assert_eq!(store.stats().corrupt_entries, pristine.len() as u64);

    // Regeneration restores a byte-identical entry.
    let regenerated = store.get_or_capture(spec, 40);
    assert_eq!(regenerated.insts(), original.insts());
    assert_eq!(fs::read(&path).unwrap(), pristine, "regenerated entry must be byte-identical");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_byte_flip_in_a_result_entry_is_caught() {
    let dir = scratch("result-flips");
    let store = Store::open(&dir).unwrap();
    let key = "row|trace=spec.gcc|fe=xbc-32k|insts=1000|code=1";
    let body = "{\"miss_rate\":0.25,\"uops_per_cycle\":11.5}";
    store.store_result(key, body);
    let path = only_file(&dir.join("results"));
    let pristine = fs::read(&path).unwrap();

    for i in 0..pristine.len() {
        let mut raw = pristine.clone();
        raw[i] ^= 0xA5;
        fs::write(&path, &raw).unwrap();
        assert!(
            store.load_result(key).is_none(),
            "flip at byte {i}/{} went undetected",
            pristine.len()
        );
        assert!(!path.exists(), "flip at byte {i}: corrupt entry must be deleted");
    }
    assert_eq!(store.stats().corrupt_entries, pristine.len() as u64);

    // Regenerate and verify the store serves the true body again.
    store.store_result(key, body);
    assert_eq!(store.load_result(key).as_deref(), Some(body));
    assert_eq!(fs::read(&path).unwrap(), pristine, "rewritten entry must be byte-identical");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn undecodable_cached_row_is_evicted_and_regenerated() {
    // A result entry can pass the store's CRC yet fail to decode at the
    // sweep layer (e.g. a row written by an older schema). The sweep
    // must evict the stale entry — not just recompute around it — so the
    // next run replays a freshly written, decodable row.
    let dir = scratch("undecodable-row");
    let store = Arc::new(Store::open(&dir).unwrap());
    let traces: Vec<TraceSpec> = standard_traces().into_iter().take(2).collect();
    let frontends = vec![FrontendSpec::Ic, FrontendSpec::xbc_default()];
    let mut sweep =
        Sweep::new(traces.clone(), frontends.clone(), 2_000).with_store(Arc::clone(&store));
    sweep.progress = false;
    let fresh = sweep.run();
    assert_eq!(store.stats().result_misses, 4);

    // Forge a CRC-valid entry whose body is not a single-row array.
    let key = result_key(&traces[0], &frontends[1], 2_000);
    store.store_result(&key, "[]");
    let before = store.stats();
    let again = sweep.run();
    let after = store.stats();
    assert_eq!(after.corrupt_entries, before.corrupt_entries + 1, "stale entry must be evicted");
    for (f, a) in fresh.iter().zip(&again) {
        assert_eq!(f.cycles, a.cycles);
        assert_eq!(f.miss_rate, a.miss_rate);
    }

    // The recomputed cell was written back: a third run decodes all four
    // rows from cache with no further eviction and no simulation.
    let third = sweep.run();
    let done = store.stats();
    assert_eq!(done.corrupt_entries, after.corrupt_entries, "no repeat eviction");
    assert_eq!(done.result_hits, after.result_hits + 4);
    assert_eq!(done.trace_hits, after.trace_hits, "a fully cached run touches no trace");
    for (f, t) in fresh.iter().zip(&third) {
        assert_eq!(f.cycles, t.cycles);
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_at_every_length_is_caught() {
    // Complement of the flip sweep: drop the tail at every possible
    // length, including zero-length files.
    let dir = scratch("trunc-all");
    let store = Store::open(&dir).unwrap();
    let spec = &standard_traces()[1];
    store.get_or_capture(spec, 30);
    let path = only_file(&dir.join("traces"));
    let pristine = fs::read(&path).unwrap();

    for len in 0..pristine.len() {
        fs::write(&path, &pristine[..len]).unwrap();
        assert!(store.load_trace(spec, 30).is_none(), "truncation to {len} bytes went undetected");
    }
    fs::write(&path, &pristine).unwrap();
    assert!(store.load_trace(spec, 30).is_some(), "pristine entry must still load");
    fs::remove_dir_all(&dir).ok();
}

/// Rows as JSON with the wall-clock field zeroed: everything simulated.
fn simulated(rows: &[Row]) -> String {
    let mut rows = rows.to_vec();
    for r in &mut rows {
        r.elapsed_ms = 0;
    }
    to_json(&rows)
}

/// Deletes every cached row, so the next sweep or request simulates.
fn forget_rows(dir: &Path) {
    for e in fs::read_dir(dir.join("results")).unwrap() {
        fs::remove_file(e.unwrap().path()).unwrap();
    }
}

#[test]
fn every_single_byte_flip_in_a_streamed_trace_entry_is_caught() {
    let dir = scratch("stream-flips");
    let store = Arc::new(Store::open(&dir).unwrap());
    let spec = standard_traces()[0].clone();
    let insts = 40;
    let frontends = [
        FrontendSpec::Ic,
        FrontendSpec::UopCache { total_uops: 32 * 1024 },
        FrontendSpec::tc_default(),
        FrontendSpec::Bbtc { total_uops: 32 * 1024 },
        FrontendSpec::xbc_default(),
    ];
    let sweep_one = |fe: FrontendSpec| {
        let mut sweep =
            Sweep::new(vec![spec.clone()], vec![fe], insts).with_store(Arc::clone(&store));
        sweep.progress = false;
        sweep.run()
    };
    store.get_or_capture(&spec, insts);
    let path = only_file(&dir.join("traces"));
    let pristine = fs::read(&path).unwrap();
    assert!(pristine.len() < 4096, "keep the exhaustive sweep cheap");
    // Clean rows, streamed from the pristine entry.
    let hits = store.stats().trace_hits;
    let clean: Vec<Row> = frontends.iter().flat_map(|&fe| sweep_one(fe)).collect();
    assert_eq!(store.stats().trace_hits, hits + frontends.len() as u64, "clean cells stream");

    let endpoint = Endpoint::unix(dir.join("d.sock"));
    let mut config = ServeConfig::new(endpoint.clone());
    config.threads = 2;
    config.store = Some(Arc::clone(&store));
    let daemon = thread::spawn(move || xbc_serve::serve(&config));
    for _ in 0..500 {
        if ping(&endpoint).is_ok() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    let req = SweepRequest {
        traces: vec![spec.name.to_owned()],
        frontends: frontends.to_vec(),
        insts,
        priority: 0,
    };

    for i in 0..pristine.len() {
        let mut raw = pristine.clone();
        raw[i] ^= 0xA5;
        for (fe, want) in frontends.iter().zip(&clean) {
            forget_rows(&dir);
            fs::write(&path, &raw).unwrap();
            let before = store.stats();
            let got = sweep_one(*fe);
            assert_eq!(
                simulated(&got),
                simulated(std::slice::from_ref(want)),
                "flip at byte {i}: {} row differs from the clean row",
                fe.label()
            );
            let after = store.stats();
            assert_eq!(after.corrupt_entries, before.corrupt_entries + 1, "flip at byte {i}");
            assert_eq!(after.trace_hits, before.trace_hits, "flip at byte {i}: counted as a hit");
            assert_eq!(fs::read(&path).unwrap(), pristine, "flip at byte {i}: regenerated entry");
        }
        forget_rows(&dir);
        fs::write(&path, &raw).unwrap();
        let before = store.stats().corrupt_entries;
        let out = submit(&endpoint, &req).expect("daemon answers");
        assert_eq!(simulated(&out.rows), simulated(&clean), "flip at byte {i}: daemon rows");
        assert_eq!(store.stats().corrupt_entries, before + 1, "flip at byte {i}: daemon");
        assert_eq!(fs::read(&path).unwrap(), pristine, "flip at byte {i}: daemon regenerated");
    }
    shutdown(&endpoint).unwrap();
    daemon.join().unwrap().unwrap();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn trailing_bytes_after_a_trace_entry_are_caught() {
    let dir = scratch("trailing");
    let store = Arc::new(Store::open(&dir).unwrap());
    let spec = standard_traces()[1].clone();
    let original = store.get_or_capture(&spec, 500);
    let path = only_file(&dir.join("traces"));
    let pristine = fs::read(&path).unwrap();
    let mut padded = pristine.clone();
    padded.push(0);

    // Resident load: a miss, evicted, then regenerated byte-identical.
    fs::write(&path, &padded).unwrap();
    assert!(store.load_trace(&spec, 500).is_none(), "an appended byte went undetected");
    assert!(!path.exists());
    assert_eq!(store.get_or_capture(&spec, 500).insts(), original.insts());
    assert_eq!(fs::read(&path).unwrap(), pristine);

    // Streamed sweep cell: the clean row, the entry evicted and rewritten.
    let mut sweep = Sweep::new(vec![spec.clone()], vec![FrontendSpec::xbc_default()], 500)
        .with_store(Arc::clone(&store));
    sweep.progress = false;
    let clean = sweep.run();
    forget_rows(&dir);
    fs::write(&path, &padded).unwrap();
    let before = store.stats().corrupt_entries;
    assert_eq!(simulated(&sweep.run()), simulated(&clean));
    assert_eq!(store.stats().corrupt_entries, before + 1);
    assert_eq!(fs::read(&path).unwrap(), pristine, "regenerated entry must be byte-identical");
    fs::remove_dir_all(&dir).ok();
}
