//! Proof that the XBC's steady-state delivery path — and the build-mode
//! fill paths of the XBC and the uop cache — never touch the heap
//! (DESIGN.md §12).
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! warms an `XbcFrontend` on a hot loop until it settles into delivery
//! mode (builds done, XB promoted/merged, assembly memo populated), then
//! asserts the allocation counter does not move across thousands of
//! further delivery cycles. Any `Vec`/`Box`/clone creeping back into the
//! fetch → lookup → assemble → deliver loop fails this test
//! deterministically — unlike the throughput gate, which only catches it
//! once it costs enough to clear the noise tolerance. The build-mode
//! tests do the same over a loop too big for a tiny structure, so every
//! pass misses and rebuilds: the fill unit's block buffers must be
//! recycled, not reallocated per block.
//!
//! This lives in `tests/` (its own crate) because `xbc` itself forbids
//! `unsafe`, and a `GlobalAlloc` impl requires it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xbc::{XbcConfig, XbcFrontend};
use xbc_frontend::{Frontend, FrontendMetrics, OracleStream, UopCacheConfig, UopCacheFrontend};
use xbc_isa::{Addr, BranchKind, Inst};
use xbc_workload::{CondBehavior, ProgramBuilder, Trace};

/// Counts every allocation and reallocation made by the current thread
/// (tests run in parallel, so a process-wide count would see the other
/// tests' allocations); frees are uncounted (a cycle that frees
/// something must have allocated it earlier).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A tight always-taken loop: after one build pass the XBC serves it
/// from the array forever — the pure steady state.
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

#[test]
fn delivery_steady_state_is_allocation_free() {
    let trace = hot_loop(60_000);
    let mut fe = XbcFrontend::new(XbcConfig::default());
    let mut metrics = FrontendMetrics::default();
    let mut oracle = OracleStream::new(&trace);

    // Warm-up: build the XB, let promotion settle, populate the assembly
    // memo and the frontend's reusable buffers. Generously longer than
    // the handful of cycles the loop actually needs.
    let mut steps = 0usize;
    while fe.mode_label() != "delivery" || steps < 5_000 {
        assert!(!oracle.done(), "trace drained before reaching steady state");
        fe.step(&mut oracle, &mut metrics);
        steps += 1;
    }

    let before = allocations();
    for _ in 0..2_000 {
        assert!(!oracle.done(), "trace drained mid-measurement");
        fe.step(&mut oracle, &mut metrics);
        assert_eq!(fe.mode_label(), "delivery", "steady state must hold for the measurement");
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "steady-state delivery cycles performed {delta} heap allocations");
}

/// A loop of `body` one-uop instructions closed by an always-taken
/// branch: far bigger than a tiny structure, so every pass rebuilds it.
fn big_loop(body: u64, n_insts: usize) -> Trace {
    let mut b = ProgramBuilder::new();
    for i in 0..body {
        b.push(Inst::plain(Addr::new(0x1000 + 2 * i), 2, 1));
    }
    let end = 0x1000 + 2 * body;
    b.push_cond(
        Inst::new(Addr::new(end), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x1000))),
        CondBehavior::Bernoulli { p_taken: 1.0 },
    );
    b.push(Inst::new(Addr::new(end + 2), 1, 1, BranchKind::Return, None));
    let p = b.build(Addr::new(0x1000), 1);
    Trace::capture("big-loop", &p, 0, n_insts)
}

/// Steps `fe` through a warm-up, then counts heap allocations over
/// `measured` further steps. Returns the count and how many of the
/// measured steps ran in build mode.
fn allocations_after_warmup(fe: &mut dyn Frontend, trace: &Trace, measured: usize) -> (u64, usize) {
    let mut metrics = FrontendMetrics::default();
    let mut oracle = OracleStream::new(trace);
    for _ in 0..20_000 {
        assert!(!oracle.done(), "trace drained before reaching steady state");
        fe.step(&mut oracle, &mut metrics);
    }
    let mut build_steps = 0;
    let before = allocations();
    for _ in 0..measured {
        assert!(!oracle.done(), "trace drained mid-measurement");
        build_steps += usize::from(fe.mode_label() == "build");
        fe.step(&mut oracle, &mut metrics);
    }
    (allocations() - before, build_steps)
}

/// Debug and `check` builds audit the array after every install, and the
/// audits build their diagnostics (census maps, messages) on the heap by
/// design; the claim is about the simulation itself, so it is checked
/// where the audits are compiled out (`cargo test --release`).
#[test]
#[cfg_attr(
    any(debug_assertions, feature = "check"),
    ignore = "install audits allocate; run with --release"
)]
fn xbc_build_mode_is_allocation_free() {
    let trace = big_loop(96, 200_000);
    // 4 sets x 4 banks x 1 way x 4 uops: 64 uops against a 97-uop loop.
    let mut fe = XbcFrontend::new(XbcConfig { total_uops: 64, ways: 1, ..XbcConfig::default() });
    let (delta, build_steps) = allocations_after_warmup(&mut fe, &trace, 4_000);
    assert!(build_steps > 3_000, "only {build_steps} of 4000 steps were build cycles");
    assert_eq!(delta, 0, "warmed XBC build cycles performed {delta} heap allocations");
}

#[test]
fn uop_cache_build_mode_is_allocation_free() {
    let trace = big_loop(96, 200_000);
    // 16 one-instruction entries against a 97-instruction loop.
    let mut fe =
        UopCacheFrontend::new(UopCacheConfig { total_uops: 64, ..UopCacheConfig::default() });
    let (delta, build_steps) = allocations_after_warmup(&mut fe, &trace, 4_000);
    assert!(build_steps > 3_000, "only {build_steps} of 4000 steps were build cycles");
    assert_eq!(delta, 0, "warmed uop-cache build cycles performed {delta} heap allocations");
}
