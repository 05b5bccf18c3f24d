//! `SIM_FINGERPRINT`, the simulator version inside every result key, must
//! equal the row hash of the canary grid the simulator computes today.
//!
//! A change that moves any canary row fails here with the new value. If
//! the change is intended, commit that value as `SIM_FINGERPRINT`
//! (`crates/sim/src/fingerprint.rs`): every stored result then becomes
//! unreachable, so no store or daemon serves rows of the old simulator.

use xbc_sim::{canary_fingerprint, canary_frontends, canary_traces, SIM_FINGERPRINT};

#[test]
fn sim_fingerprint_matches_the_canary_grid() {
    let got = canary_fingerprint(0);
    assert_eq!(
        got, SIM_FINGERPRINT,
        "the canary grid's rows changed: set SIM_FINGERPRINT to {got:#018x} if that is intended"
    );
}

#[test]
fn canary_grid_covers_what_the_fingerprint_promises() {
    let fes = canary_frontends();
    assert_eq!(canary_traces().len(), 3);
    for fe in &fes {
        fe.check().unwrap_or_else(|e| panic!("{}: {e}", fe.label()));
    }
    let kinds: std::collections::HashSet<_> = fes.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), 5, "all five frontend kinds");
}
