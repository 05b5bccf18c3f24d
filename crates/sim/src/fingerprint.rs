//! The simulator fingerprint that versions every cached result.
//!
//! A result key names the trace, the frontend configuration and the
//! instruction budget, but not the simulator that produced the row. A
//! hand-bumped version constant goes stale the first time someone forgets
//! it, and a store (or a daemon's memory tier) then serves old rows under
//! unchanged keys. [`SIM_FINGERPRINT`] replaces it: the row hash of a small
//! canary grid, pinned here and recomputed by a tier-1 test. Any change that
//! moves a canary row fails that test, which prints the new value;
//! committing the new value is what invalidates every stored result.
//!
//! The grid covers every frontend kind at two sizes, the XBC with promotion
//! on and off, the smallest associativity of the TC and the XBC, and XBC
//! sizes whose set counts are not powers of two (3, 5, 24 and 96 KiB, the
//! kind of column `serve_mix`-style requests ask for).

use crate::report::Row;
use crate::spec::FrontendSpec;
use crate::sweep::Sweep;
use xbc_store::fnv1a64;
use xbc_workload::{standard_traces, TraceSpec};

/// Row hash of the canary grid ([`canary_fingerprint`]) for the simulator
/// in this tree. Part of every result key.
pub const SIM_FINGERPRINT: u64 = 0x0ded_1d0f_9bbd_9800;

/// Instructions per canary trace.
const CANARY_INSTS: usize = 20_000;

/// The canary traces: the first standard trace of each suite.
pub fn canary_traces() -> Vec<TraceSpec> {
    standard_traces().into_iter().step_by(8).collect()
}

/// The canary frontend configurations.
pub fn canary_frontends() -> Vec<FrontendSpec> {
    let xbc = |kib: usize, ways: usize, promotion: bool| FrontendSpec::Xbc {
        total_uops: kib * 1024,
        ways,
        promotion,
    };
    let mut fes = vec![FrontendSpec::Ic];
    for kib in [8, 32] {
        let total_uops = kib * 1024;
        fes.push(FrontendSpec::UopCache { total_uops });
        fes.push(FrontendSpec::Bbtc { total_uops });
        fes.push(FrontendSpec::Tc { total_uops, ways: 4 });
        fes.push(xbc(kib, 2, true));
    }
    fes.push(xbc(32, 2, false));
    fes.push(FrontendSpec::Tc { total_uops: 8 * 1024, ways: 1 });
    fes.push(xbc(8, 1, true));
    fes.extend([3, 5, 24, 96].map(|kib| xbc(kib, 2, true)));
    fes
}

/// Hash of the simulated fields of `rows`, in order: every [`Row`] field
/// except the host timing `elapsed_ms`.
pub fn rows_hash(rows: &[Row]) -> u64 {
    let mut text = String::new();
    for r in rows {
        let mut r = r.clone();
        r.elapsed_ms = 0;
        text.push_str(&r.to_json(0));
    }
    fnv1a64(text.as_bytes())
}

/// Simulates the canary grid (uncached) and returns its [`rows_hash`]:
/// the value [`SIM_FINGERPRINT`] must hold.
pub fn canary_fingerprint(threads: usize) -> u64 {
    let mut sweep = Sweep::new(canary_traces(), canary_frontends(), CANARY_INSTS);
    sweep.threads = threads;
    sweep.progress = false;
    rows_hash(&sweep.run())
}
