//! Cross-crate integration tests: every frontend model replays the same
//! committed stream faithfully, deterministically, and with sane cycle
//! accounting.

use xbc::{XbcConfig, XbcFrontend};
use xbc_check::DiffHarness;
use xbc_frontend::{
    BbtcConfig, BbtcFrontend, Frontend, IcFrontend, IcFrontendConfig, TcConfig, TraceCacheFrontend,
    UopCacheConfig, UopCacheFrontend,
};
use xbc_workload::standard_traces;

fn all_frontends(total_uops: usize) -> Vec<Box<dyn Frontend>> {
    vec![
        Box::new(IcFrontend::new(IcFrontendConfig::default())),
        Box::new(UopCacheFrontend::new(UopCacheConfig { total_uops, ..Default::default() })),
        Box::new(TraceCacheFrontend::new(TcConfig { total_uops, ..Default::default() })),
        Box::new(BbtcFrontend::new(BbtcConfig { total_uops, ..Default::default() })),
        Box::new(XbcFrontend::new(XbcConfig { total_uops, ..Default::default() })),
    ]
}

#[test]
fn every_frontend_survives_the_differential_oracle_on_every_suite() {
    // Lockstep replay of EVERY standard trace through every frontend: the
    // harness checks stream equality, uop conservation, and the cycle
    // partition after every single cycle, and runs the structural audits
    // along the way — far stronger than the old end-of-run uop-count
    // comparison, so a short per-trace budget suffices.
    let harness = DiffHarness::new();
    for spec in standard_traces() {
        let trace = spec.capture(6_000);
        for fe in &mut all_frontends(8192) {
            let m = harness
                .run(&mut **fe, &trace, &trace)
                .unwrap_or_else(|d| panic!("{} diverged on {}:\n{d}", fe.name(), spec.name));
            assert_eq!(
                m.total_uops(),
                trace.uop_count(),
                "{} lost or duplicated uops on {}",
                fe.name(),
                spec.name
            );
        }
    }
}

#[test]
fn cycle_accounting_is_closed() {
    let trace = standard_traces()[8].capture(20_000);
    for fe in &mut all_frontends(8192) {
        let m = fe.run(&trace);
        assert_eq!(
            m.cycles,
            m.build_cycles + m.delivery_cycles + m.stall_cycles,
            "{}: cycles must partition into build/delivery/stall",
            fe.name()
        );
        assert!(m.cycles > 0);
    }
}

#[test]
fn frontends_are_deterministic() {
    let trace = standard_traces()[16].capture(15_000);
    for make in [0usize, 1, 2, 3] {
        let run = |i: usize| {
            let mut fes = all_frontends(4096);
            fes[i].run(&trace)
        };
        let a = run(make);
        let b = run(make);
        assert_eq!(a, b, "frontend {make} differs between identical runs");
    }
}

#[test]
fn structures_beat_the_plain_ic() {
    let trace = standard_traces()[0].capture(60_000);
    let mut ic = IcFrontend::new(IcFrontendConfig::default());
    let base = ic.run(&trace).overall_uops_per_cycle();
    for fe in &mut all_frontends(32 * 1024)[1..] {
        let upc = fe.run(&trace).overall_uops_per_cycle();
        assert!(
            upc > base,
            "{} ({upc:.2} uops/cyc) should outperform the raw IC ({base:.2})",
            fe.name()
        );
    }
}

#[test]
fn warm_restart_reuses_state() {
    // Frontend instances keep their caches across runs: the second replay
    // of the same trace must miss less.
    let trace = standard_traces()[0].capture(30_000);
    let mut fe = XbcFrontend::new(XbcConfig { total_uops: 32 * 1024, ..Default::default() });
    let cold = fe.run(&trace);
    let warm = fe.run(&trace);
    assert!(
        warm.uop_miss_rate() < cold.uop_miss_rate(),
        "warm {} vs cold {}",
        warm.uop_miss_rate(),
        cold.uop_miss_rate()
    );
}

#[test]
fn cached_sweep_rows_are_byte_identical_to_fresh() {
    use std::sync::Arc;
    use xbc_sim::{to_json, FrontendSpec, Sweep};
    use xbc_store::Store;

    let dir = std::env::temp_dir().join(format!("xbc-cross-frontend-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let traces: Vec<_> = standard_traces().into_iter().step_by(9).collect();
    let frontends = vec![FrontendSpec::tc_default(), FrontendSpec::xbc_default()];

    // Fresh: no store at all.
    let mut fresh_sweep = Sweep::new(traces.clone(), frontends.clone(), 8_000);
    fresh_sweep.progress = false;
    let fresh = fresh_sweep.run();

    // Cached: populate the store, then replay purely from it.
    let store = Arc::new(Store::open(&dir).unwrap());
    let mut cached_sweep = Sweep::new(traces, frontends, 8_000).with_store(Arc::clone(&store));
    cached_sweep.progress = false;
    cached_sweep.run();
    let replayed = cached_sweep.run();
    assert_eq!(store.stats().result_hits, replayed.len() as u64, "replay must be all hits");

    // Timing aside (wall clock is the one legitimately nondeterministic
    // field), the replayed rows serialize byte-for-byte like fresh ones.
    let strip = |rows: &[xbc_sim::Row]| {
        let mut rows = rows.to_vec();
        for r in &mut rows {
            r.elapsed_ms = 0;
        }
        to_json(&rows)
    };
    assert_eq!(strip(&fresh), strip(&replayed));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_replay_is_bit_identical_to_resident() {
    // The tentpole guarantee of the streaming oracle: replaying the XBT1
    // encoding through the bounded window produces the SAME metrics and
    // the SAME cycle-level event stream as the resident replay, for every
    // frontend on every standard trace. Bit-identical, not approximately
    // equal — the streaming path changes where instructions live, never
    // what the frontend observes.
    use xbc_obs::VecSink;
    use xbc_workload::TraceStream;

    for spec in standard_traces() {
        let trace = spec.capture(4_000);
        let mut encoded = Vec::new();
        trace.save(&mut encoded).unwrap();
        for (res_fe, str_fe) in all_frontends(8192).iter_mut().zip(&mut all_frontends(8192)) {
            let mut res_sink = VecSink::new();
            let m_res = res_fe.run_traced(&trace, &mut res_sink);
            let mut stream = TraceStream::new(encoded.as_slice()).unwrap();
            let mut str_sink = VecSink::new();
            let m_str = str_fe.run_streamed_traced(&mut stream, &mut str_sink);
            stream.finish().expect("encoded trace verifies");
            assert_eq!(
                m_res,
                m_str,
                "{} on {}: streamed metrics differ from resident",
                res_fe.name(),
                spec.name
            );
            assert_eq!(
                res_sink.events.len(),
                str_sink.events.len(),
                "{} on {}: event counts differ",
                res_fe.name(),
                spec.name
            );
            if let Some(i) =
                (0..res_sink.events.len()).find(|&i| res_sink.events[i] != str_sink.events[i])
            {
                panic!(
                    "{} on {}: event {} differs: resident {:?} vs streamed {:?}",
                    res_fe.name(),
                    spec.name,
                    i,
                    res_sink.events[i],
                    str_sink.events[i]
                );
            }
        }
    }
}

#[test]
fn checked_streamed_replay_matches_too() {
    // The verified replay loop (`run_checked_streamed`) over the same
    // streaming source: identical metrics, with every per-cycle
    // accounting identity asserted along the way.
    use xbc_obs::NullSink;
    use xbc_workload::TraceStream;

    let spec = &standard_traces()[0];
    let trace = spec.capture(6_000);
    let mut encoded = Vec::new();
    trace.save(&mut encoded).unwrap();
    for (res_fe, str_fe) in all_frontends(8192).iter_mut().zip(&mut all_frontends(8192)) {
        let resident = res_fe.run(&trace);
        let mut stream = TraceStream::new(encoded.as_slice()).unwrap();
        let checked =
            xbc_sim::run_checked_streamed(&mut **str_fe, &mut stream, spec.name, &mut NullSink);
        stream.finish().expect("encoded trace verifies");
        assert_eq!(resident, checked, "{} checked-streamed differs", res_fe.name());
    }
}

#[test]
fn xbc_redundancy_stays_negligible_across_suites() {
    for spec in standard_traces().iter().step_by(5) {
        let trace = spec.capture(40_000);
        let mut fe = XbcFrontend::new(XbcConfig::default());
        fe.run(&trace);
        let (stored, distinct) = fe.array().redundancy();
        let dup = (stored - distinct) as f64 / stored.max(1) as f64;
        assert!(dup < 0.05, "{}: {:.1}% duplicated uops", spec.name, 100.0 * dup);
    }
}
