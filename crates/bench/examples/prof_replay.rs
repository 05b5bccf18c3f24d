//! Streamed XBC replay throughput: the `replay` benchmark's hot loop
//! without the store around it, for host-side profiling and quick A/B
//! checks of the XBC cell.
//!
//! Captures `traces` standard traces (every third, starting with
//! `spec.compress`) at `insts` instructions into in-memory XBT1 bytes,
//! then replays each `reps` times through `FrontendSpec::Xbc{32768, 2,
//! true}` from a `TraceStream`, exactly as a stored replay does. Prints
//! Muops/s over the replays and a digest of every `FrontendMetrics`, so
//! two builds can be checked for identical results as well as timed. On
//! Linux it also prints Muops/s per second on the CPU (from
//! `/proc/thread-self/schedstat`), which time stolen by other tenants of a
//! shared host does not inflate.
//!
//! ```text
//! cargo run --release -p xbc-bench --example prof_replay -- [insts] [traces] [reps]
//! ```

use xbc_sim::FrontendSpec;
use xbc_workload::{standard_traces, TraceStream};

fn arg(i: usize, default: usize) -> usize {
    std::env::args().nth(i).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Nanoseconds this thread has run on a CPU, where the kernel reports it.
fn cpu_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

fn main() {
    let insts = arg(1, 1_000_000);
    let n_traces = arg(2, 7);
    let reps = arg(3, 3);
    let fe = FrontendSpec::Xbc { total_uops: 32 * 1024, ways: 2, promotion: true };
    let encoded: Vec<Vec<u8>> = standard_traces()
        .iter()
        .step_by(3)
        .take(n_traces)
        .map(|spec| {
            let mut bytes = Vec::new();
            spec.capture(insts).save(&mut bytes).expect("in-memory save");
            bytes
        })
        .collect();
    let mut digest = String::new();
    let (mut uops, mut secs, mut cpu) = (0u64, 0f64, 0u64);
    for rep in 0..reps {
        for bytes in &encoded {
            let mut stream = TraceStream::new(bytes.as_slice()).expect("valid trace");
            let (t0, c0) = (std::time::Instant::now(), cpu_ns());
            let m = fe.instantiate().run_streamed(&mut stream);
            secs += t0.elapsed().as_secs_f64();
            cpu += cpu_ns().zip(c0).map_or(0, |(c1, c0)| c1 - c0);
            stream.finish().expect("intact trace");
            uops += m.total_uops();
            if rep == 0 {
                digest.push_str(&format!("{m:?}"));
            }
        }
    }
    println!(
        "{} traces x {insts} insts x {reps} reps: {:.1} Muops/s, {:.1} Muops/s on CPU; \
         metrics digest {:#018x}",
        encoded.len(),
        uops as f64 / secs / 1e6,
        uops as f64 / (cpu as f64 / 1e9) / 1e6,
        xbc_store::fnv1a64(digest.as_bytes())
    );
}
