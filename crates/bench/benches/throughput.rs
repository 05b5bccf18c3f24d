//! Performance benches of the simulator itself: how fast each frontend
//! model replays a trace, and the hot component operations.
//!
//! These measure *simulator* throughput (host-seconds per simulated uop),
//! not the simulated machine — the paper's metrics come from the `fig*`
//! binaries.
//!
//! The harness is in-tree (`harness = false`): each case runs a warmup
//! pass, then a fixed iteration budget, and reports median-of-runs
//! wall-clock plus derived throughput. Run with
//! `cargo bench -p xbc-bench`; pass `-- --json PATH` to also write the
//! frontend-replay numbers as a `xbc-throughput-bench-v1` document (the
//! artifact the `perf` CI gate diffs against `results/BENCH_throughput.json`).

use std::time::Instant;
use xbc::{BankMask, PromotionMode, XbPtr, XbcArray, XbcConfig, XbcFrontend};
use xbc_bench::bench_trace;
use xbc_frontend::{Frontend, IcFrontend, IcFrontendConfig, TcConfig, TraceCacheFrontend};
use xbc_isa::{decode, Addr, Inst};
use xbc_predict::{Gshare, GshareConfig};
use xbc_store::Store;
use xbc_workload::standard_traces;

const TRACE_INSTS: usize = 50_000;
const RUNS: usize = 5;

/// Times one batch of `iters` invocations of `f`, returning the
/// per-iteration time in seconds.
///
/// Timing is kept in `f64` seconds throughout: the old
/// `Duration / iters as u32` form truncated to whole nanoseconds *per
/// iteration*, which loses up to `iters` ns per sample — material for
/// the sub-10ns component cases.
fn sample<F: FnMut()>(iters: usize, f: &mut F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Times `iters` invocations of `f`, `RUNS` times, and returns the
/// *minimum* per-iteration time. Scheduler preemption and frequency
/// dips only ever add time, so on shared hosts the min is a far more
/// stable estimator of the code's cost than the median.
fn measure<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f(); // warmup
    (0..RUNS).map(|_| sample(iters, &mut f)).fold(f64::INFINITY, f64::min)
}

fn report(name: &str, secs_per_iter: f64, elements: Option<u64>) {
    match elements {
        Some(n) => {
            let rate = n as f64 / secs_per_iter / 1e6;
            println!("{name:<24} {:>12.2}us/iter {rate:>10.1} Muops/s", secs_per_iter * 1e6);
        }
        None => println!("{name:<24} {:>12.2}ns/iter", secs_per_iter * 1e9),
    }
}

/// One frontend-replay measurement destined for the JSON artifact.
struct Case {
    name: &'static str,
    secs_per_iter: f64,
    muops_per_sec: f64,
}

/// Serializes the replay measurements to the `BENCH_throughput.json`
/// schema. One line per frontend so shell gates can extract
/// `name`/`muops_per_sec` pairs with awk, mirroring the
/// `xbc-sweep-bench-v1` artifact's style.
fn to_json(trace_uops: u64, cases: &[Case]) -> String {
    let mut body = String::new();
    for (i, c) in cases.iter().enumerate() {
        let sep = if i + 1 < cases.len() { "," } else { "" };
        body.push_str(&format!(
            "    {{ \"name\": \"{}\", \"secs_per_iter\": {:e}, \"muops_per_sec\": {:.1} }}{}\n",
            c.name, c.secs_per_iter, c.muops_per_sec, sep
        ));
    }
    format!(
        "{{\n  \"schema\": \"xbc-throughput-bench-v1\",\n  \
         \"trace_insts\": {TRACE_INSTS},\n  \"trace_uops\": {trace_uops},\n  \
         \"runs\": {RUNS},\n  \"frontends\": [\n{body}  ]\n}}\n"
    )
}

fn frontends() -> (u64, Vec<Case>) {
    println!("frontend_replay ({TRACE_INSTS} insts per run)");
    let trace = bench_trace(TRACE_INSTS);
    let uops = trace.uop_count();
    let mut cases = Vec::new();
    let mut case = |name: &'static str, secs_per_iter: f64| {
        report(name, secs_per_iter, Some(uops));
        let muops_per_sec = uops as f64 / secs_per_iter / 1e6;
        cases.push(Case { name, secs_per_iter, muops_per_sec });
    };

    case(
        "ic",
        measure(3, || {
            let mut fe = IcFrontend::new(IcFrontendConfig::default());
            fe.run(&trace);
        }),
    );
    case(
        "tc_32k",
        measure(3, || {
            let mut fe = TraceCacheFrontend::new(TcConfig::default());
            fe.run(&trace);
        }),
    );
    case(
        "xbc_32k",
        measure(3, || {
            let mut fe = XbcFrontend::new(XbcConfig::default());
            fe.run(&trace);
        }),
    );
    case(
        "xbc_32k_nopromo",
        measure(3, || {
            let mut fe = XbcFrontend::new(XbcConfig {
                promotion: PromotionMode::Off,
                ..XbcConfig::default()
            });
            fe.run(&trace);
        }),
    );

    // The same trace replayed from its XBT1 store entry, the way sweeps
    // and the daemon replay: every iteration pays the store's validation
    // pass, the block decode and the streaming oracle window on top of
    // the XBC model, so a regression on the decode path shows here.
    let dir = std::env::temp_dir().join(format!("xbc-throughput-{}", std::process::id()));
    let store = Store::open(&dir).expect("create a scratch store");
    let spec = &standard_traces()[0]; // what `bench_trace` captures
    store.capture_to_store(spec, TRACE_INSTS, |_, _| {}).expect("capture the bench trace");
    case(
        "xbc_32k_streamed",
        measure(3, || {
            let mut stream = store.open_trace_stream(spec, TRACE_INSTS).expect("entry streams");
            let m = XbcFrontend::new(XbcConfig::default()).run_streamed(&mut stream);
            stream.finish().expect("the bench entry verifies");
            assert_eq!(m.total_uops(), uops, "streamed replay delivers the bench trace");
        }),
    );
    std::fs::remove_dir_all(&dir).ok();
    println!();
    (uops, cases)
}

fn components() {
    println!("components");

    // Array insert + fetch round trip.
    let cfg = XbcConfig { total_uops: 8192, ..XbcConfig::default() };
    let uops: Vec<_> = decode(&Inst::plain(Addr::new(0x100), 4, 4))
        .into_iter()
        .chain(decode(&Inst::plain(Addr::new(0x104), 4, 4)))
        .chain(decode(&Inst::plain(Addr::new(0x108), 4, 4)))
        .collect();
    let d = measure(200, || {
        let mut a = XbcArray::new(&cfg);
        for i in 0..64u64 {
            let ip = Addr::new(0x100 + i * 37);
            let mask = a.insert(ip, &uops, 0, BankMask::EMPTY, BankMask::EMPTY);
            let ptr = XbPtr::new(ip, Addr::new(0x100), mask, uops.len() as u8);
            let mut used = BankMask::EMPTY;
            let _ = a.fetch_one(&ptr, &mut used);
        }
    });
    report("array_insert_fetch", d, Some(64));

    // Predictor update throughput.
    let mut gs = Gshare::new(GshareConfig::default());
    let mut i = 0u64;
    let d = measure(500_000, || {
        i = i.wrapping_add(1);
        gs.update(Addr::new(0x4000 + (i % 256)), i.is_multiple_of(3));
    });
    report("gshare_update", d, None);

    // Workload generation (program synthesis + execution).
    let d = measure(3, || {
        bench_trace(10_000).uop_count();
    });
    report("trace_capture_10k", d, Some(10_000));
    println!();
}

/// The observability guard: tracing must be zero-cost when disabled.
///
/// The untraced entry point (`run`) monomorphizes the probe over
/// `NullSink`, so its emit calls compile away; `run_traced` with a
/// `&mut dyn EventSink` NullSink is the *worst case* for a disabled
/// sink (virtual dispatch survives). Both are measured against the
/// same workload in the same process, so the ratio is host-independent.
/// The guard trips when even the dyn-dispatch ceiling exceeds the
/// budget — the monomorphized disabled path is strictly cheaper.
fn obs_overhead() {
    println!("obs_overhead ({TRACE_INSTS} insts per run)");
    let trace = bench_trace(TRACE_INSTS);
    let uops = trace.uop_count();

    // The two arms are sampled *interleaved* (A B A B ...) so a host
    // slowdown mid-bench hits both equally instead of skewing the ratio.
    let mut run_untraced = || {
        let mut fe = XbcFrontend::new(XbcConfig::default());
        fe.run(&trace);
    };
    let mut run_null = || {
        let mut fe = XbcFrontend::new(XbcConfig::default());
        let mut sink = xbc_obs::NullSink;
        fe.run_traced(&trace, &mut sink);
    };
    run_untraced();
    run_null();
    let (mut untraced, mut null_traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..RUNS {
        untraced = untraced.min(sample(5, &mut run_untraced));
        null_traced = null_traced.min(sample(5, &mut run_null));
    }
    report("xbc_untraced", untraced, Some(uops));
    report("xbc_null_dyn_sink", null_traced, Some(uops));

    let ratio = null_traced / untraced;
    println!("null-sink overhead ceiling: {:+.2}%", 100.0 * (ratio - 1.0));
    // 2% budget — the allocation-free delivery loop is ~1.4x faster than
    // when the original 1% budget was set, so the same dyn-dispatch emit
    // cost is a larger fraction — plus a 3% noise allowance for shared
    // single-vCPU CI hosts. A real regression on the emit path (an
    // allocation, a format!, an un-inlined probe) lands far above this.
    assert!(
        ratio < 1.05,
        "disabled tracing must stay under the 2% overhead budget \
         (measured {:.2}% even through dyn dispatch)",
        100.0 * (ratio - 1.0)
    );
    println!();
}

fn main() {
    // `cargo bench -p xbc-bench -- --json PATH` forwards everything after
    // `--` to us verbatim; cargo itself may also prepend `--bench`.
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json requires a PATH").clone());

    let (uops, cases) = frontends();
    components();
    obs_overhead();

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(uops, &cases)).expect("write --json output");
        println!("wrote {path}");
    }
}
