//! Proof that streamed replay holds peak host memory at O(window), not
//! O(trace) (DESIGN.md §13).
//!
//! A byte-tracking `#[global_allocator]` wraps the system allocator and
//! maintains a live-bytes counter plus a high-water mark. The test
//! captures the same hot loop at two lengths (4× apart), serializes
//! each to XBT1 bytes, drops the resident copy, and replays the
//! encoding through `run_streamed`. The peak live-byte delta must (a)
//! not grow with trace length and (b) stay far below the resident
//! footprint the streaming path exists to avoid.
//!
//! Lives in `tests/` (its own crate) because the lib crates forbid
//! `unsafe` and a `GlobalAlloc` impl requires it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

use xbc::{XbcConfig, XbcFrontend};
use xbc_frontend::{Frontend, DEFAULT_STREAM_WINDOW};
use xbc_isa::{Addr, BranchKind, Inst};
use xbc_workload::{CondBehavior, DynInst, ProgramBuilder, Trace, TraceStream};

/// Tracks live heap bytes and the high-water mark. `dealloc` of memory
/// allocated before a `reset_peak` can push LIVE below the later
/// baseline; all measurements here are deltas against a baseline taken
/// immediately before the measured region, which sidesteps that.
struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn bump(n: u64) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            bump(layout.size() as u64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                bump((new_size - layout.size()) as u64);
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// The same tight always-taken loop the allocation-free delivery test
/// uses: captures fast at any length and keeps the XBC in delivery
/// mode, so replay cost is dominated by the oracle window itself.
fn hot_loop(n_insts: usize) -> Trace {
    let mut b = ProgramBuilder::new();
    for i in 0..6u64 {
        b.push(Inst::plain(Addr::new(0x100 + i), 1, 2));
    }
    b.push_cond(
        Inst::new(Addr::new(0x106), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x100))),
        CondBehavior::Bernoulli { p_taken: 1.0 },
    );
    b.push(Inst::new(Addr::new(0x108), 1, 1, BranchKind::Return, None));
    let p = b.build(Addr::new(0x100), 1);
    Trace::capture("hot-loop", &p, 0, n_insts)
}

/// Serializes a hot loop of `n_insts` and returns the XBT1 bytes. The
/// resident `Trace` is dropped before returning, so the replay below
/// starts from encoded bytes only — exactly the daemon's streaming
/// path, minus the file descriptor.
fn encoded_hot_loop(n_insts: usize) -> Vec<u8> {
    let trace = hot_loop(n_insts);
    let mut buf = Vec::new();
    trace.save(&mut buf).unwrap();
    buf
}

/// Replays `encoded` through a fresh small XBC and returns the peak
/// live-byte delta observed during the replay (stream construction
/// included — the decode buffers are part of the cost being bounded).
fn streamed_peak(encoded: &[u8]) -> u64 {
    let mut fe = XbcFrontend::new(XbcConfig { total_uops: 4096, ..Default::default() });
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let mut stream = TraceStream::new(encoded).unwrap();
    let m = fe.run_streamed(&mut stream);
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    stream.finish().expect("encoded trace verifies");
    assert!(m.total_uops() > 0);
    peak
}

#[test]
fn streamed_replay_memory_is_o_window_not_o_trace() {
    let short_insts = 200_000;
    let long_insts = 4 * short_insts;
    let short = encoded_hot_loop(short_insts);
    let long = encoded_hot_loop(long_insts);

    let peak_short = streamed_peak(&short);
    let peak_long = streamed_peak(&long);

    // (a) Peak does not scale with trace length. A resident replay of
    // the 4× trace would add ~3 × short_insts × sizeof(DynInst) bytes
    // over the short one; the streamed replay must add none of that.
    // Allow generous slack for allocator rounding and warm-path noise.
    let resident_growth = (long_insts - short_insts) * size_of::<DynInst>();
    let growth = peak_long.saturating_sub(peak_short);
    assert!(
        growth < resident_growth as u64 / 8,
        "peak grew by {growth} bytes between {short_insts} and {long_insts} insts \
         (resident replay would grow ~{resident_growth}) — window is leaking"
    );

    // (b) Peak stays in the neighbourhood of the window, far below the
    // resident footprint. The bound covers the oracle's window buffer,
    // the XBT1 decode buffers, and the (small, warm) frontend state.
    let window_bytes = DEFAULT_STREAM_WINDOW * size_of::<DynInst>();
    let resident_bytes = long_insts * size_of::<DynInst>();
    let ceiling = (4 * window_bytes) as u64 + 4 * 1024 * 1024;
    assert!(
        peak_long < ceiling,
        "streamed peak {peak_long} bytes exceeds the O(window) ceiling {ceiling} \
         (window buffer is {window_bytes} bytes)"
    );
    assert!(
        (peak_long as usize) < resident_bytes / 4,
        "streamed peak {peak_long} is not meaningfully below the resident \
         footprint {resident_bytes}"
    );
}
