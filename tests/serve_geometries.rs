//! Every XBC geometry a daemon request can name in the benchmark's mixed
//! workload — 2 to 96 KiB in 1 KiB steps, promotion on and off, 2 ways —
//! replays all 21 standard traces without a panic, and the rows match the
//! ones pinned below. Most of these sizes give set counts that are not a
//! power of two, which the other sweeps never leave.
//!
//! Ignored by default (3,990 cells at 100k instructions); run it in a
//! release build:
//!
//! ```text
//! cargo test --release --test serve_geometries -- --ignored
//! ```

use xbc_sim::{rows_hash, FrontendSpec, Sweep};
use xbc_workload::standard_traces;

/// `rows_hash` of the sweep below.
const PINNED_ROWS_HASH: u64 = 0x6eaf_c371_9be6_c0fa;

#[test]
#[ignore = "3,990 cells at 100k instructions: run in a release build"]
fn every_requestable_xbc_geometry_replays_to_the_pinned_rows() {
    let fes: Vec<FrontendSpec> = (2..=96)
        .flat_map(|kib| {
            [true, false].map(|promotion| FrontendSpec::Xbc {
                total_uops: kib * 1024,
                ways: 2,
                promotion,
            })
        })
        .collect();
    assert_eq!(fes.len(), 190);
    let mut sweep = Sweep::new(standard_traces(), fes, 100_000);
    sweep.progress = false;
    let rows = sweep.run();
    assert_eq!(rows.len(), 21 * 190);
    let hash = rows_hash(&rows);
    assert_eq!(hash, PINNED_ROWS_HASH, "the rows changed: their hash is now {hash:#018x}");
}
