//! Where a warm daemon request spends its time, per row and stage by
//! stage, on the warm grid shape `perfbench`'s `serve_mix` sends: 21
//! traces x 7 XBC sizes, every row cached.
//!
//! ```text
//! cargo run --release --example warm_breakdown -- [ROUNDS]
//! ```
//!
//! The daemon's connection thread probes the grid serially (result key,
//! then its memory tier: one `stat` of the entry and a lookup, or on a
//! miss a store read and row decode), then encodes the row lines and
//! writes them; the client decodes each line. Each stage is timed over
//! the whole grid, the best of ROUNDS (default 9) rounds, and printed in
//! µs per row. The memory-tier probe is printed beside the store read
//! and decode it replaces, and the JSON-tree decode (`Json::parse` +
//! `Row::from_json`) and one write per row beside the paths the daemon
//! and the client use, for comparison.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use xbc_frontend::FrontendMetrics;
use xbc_serve::protocol::{parse_row_line, push_row_line};
use xbc_serve::{Probe, RowTier};
use xbc_sim::json::Json;
use xbc_sim::{result_key, rows_from_json, to_json, FrontendSpec, Row};
use xbc_store::{Store, SETTLE};
use xbc_workload::standard_traces;

const INSTS: usize = 300_000;

/// Best time of `rounds` runs of `f`, in µs per row of `n`.
fn best(rounds: usize, n: usize, mut f: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6 / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Sends `chunks` through a Unix socket pair to a thread that drains
/// it; µs per row of `n`.
fn write_cost(rounds: usize, n: usize, chunks: &[&[u8]]) -> f64 {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    best(rounds, n, || {
        let (mut tx, mut rx) = UnixStream::pair().expect("socket pair");
        let drain = std::thread::spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            let mut got = 0;
            while got < total {
                got += rx.read(&mut buf).expect("read");
            }
        });
        for c in chunks {
            tx.write_all(c).expect("write");
        }
        drain.join().expect("drain thread");
    })
}

fn main() {
    let rounds: usize = std::env::args().nth(1).map_or(9, |v| v.parse().expect("ROUNDS"));
    let dir = std::env::temp_dir().join(format!("xbc-warm-breakdown-{}", std::process::id()));
    let store = Store::open(&dir).expect("open store");
    let traces = standard_traces();
    let frontends: Vec<FrontendSpec> = (1..=7)
        .map(|k| FrontendSpec::Xbc { total_uops: 4096 * k, ways: 2, promotion: true })
        .collect();
    let m = FrontendMetrics {
        cycles: 412_337,
        delivery_cycles: 301_771,
        structure_uops: 2_187_002,
        ic_uops: 143_119,
        cond_mispredicts: 9_345,
        ..Default::default()
    };
    let mut cells = Vec::new();
    for t in &traces {
        for fe in &frontends {
            let mut row = Row::new(t.name, &t.suite.to_string(), *fe, INSTS, &m);
            row.elapsed_ms = 37;
            store.store_result(&result_key(t, fe, INSTS), &to_json(&[row]));
            cells.push((t, *fe));
        }
    }
    let n = cells.len();

    let mut keys = Vec::new();
    let key = best(rounds, n, || {
        keys = cells.iter().map(|(t, fe)| result_key(t, fe, INSTS)).collect();
    });
    let mut bodies = Vec::new();
    let read = best(rounds, n, || {
        bodies = keys.iter().map(|k| store.load_result(k).expect("cached row")).collect();
    });
    let mut rows: Vec<Row> = Vec::new();
    let decode = best(rounds, n, || {
        rows = bodies.iter().map(|b| rows_from_json(b).expect("row").remove(0)).collect();
    });
    // Entries are remembered only once they are older than SETTLE.
    std::thread::sleep(SETTLE);
    let tier = RowTier::new();
    for k in &keys {
        tier.probe(&store, k);
    }
    let stat = best(rounds, n, || {
        for k in &keys {
            std::hint::black_box(store.result_identity(k).expect("entry"));
        }
    });
    let memory = best(rounds, n, || {
        for k in &keys {
            match tier.probe(&store, k) {
                Probe::Memory(row) => std::hint::black_box(row),
                other => panic!("expected a memory hit, got {other:?}"),
            };
        }
    });
    let decode_tree = best(rounds, n, || {
        for b in &bodies {
            let j = Json::parse(b).expect("row");
            std::hint::black_box(Row::from_json(&j.as_arr().expect("array")[0]).expect("row"));
        }
    });
    let mut wire = String::new();
    let encode = best(rounds, n, || {
        wire.clear();
        for (i, r) in rows.iter().enumerate() {
            push_row_line(&mut wire, i, r);
        }
    });
    let lines: Vec<&str> = wire.lines().collect();
    let batched: Vec<&[u8]> = wire.as_bytes().chunks(16 * 1024).collect();
    let write_batched = write_cost(rounds, n, &batched);
    // One write per row line and one per newline.
    let per_row: Vec<&[u8]> = lines.iter().flat_map(|l| [l.as_bytes(), b"\n"]).collect();
    let write_per_row = write_cost(rounds, n, &per_row);
    let client = best(rounds, n, || {
        for l in &lines {
            std::hint::black_box(parse_row_line(l).expect("row line"));
        }
    });
    let client_tree = best(rounds, n, || {
        for l in &lines {
            let j = Json::parse(l).expect("row line");
            std::hint::black_box(Row::from_json(j.get("row").expect("row")).expect("row"));
        }
    });
    std::fs::remove_dir_all(&dir).ok();

    println!("{n} warm rows, best of {rounds} rounds, µs per row");
    println!("  probe: result key                {key:>7.2}");
    println!("  probe: store read                {read:>7.2}");
    println!("  probe: row decode (tokens)       {decode:>7.2}   tree: {decode_tree:.2}");
    println!(
        "  probe: memory tier               {memory:>7.2}   (stat alone: {stat:.2}; \
         replaces read + decode: {:.2})",
        read + decode
    );
    println!("  encode row line                  {encode:>7.2}");
    println!(
        "  write (16 KiB batches)           {write_batched:>7.2}   per row: {write_per_row:.2}"
    );
    println!("  client row decode (tokens)       {client:>7.2}   tree: {client_tree:.2}");
    let wire_kib = wire.len() as f64 / 1024.0;
    println!("  response: {wire_kib:.1} KiB, {} row lines", lines.len());
}
