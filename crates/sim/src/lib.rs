//! # xbc-sim — trace-driven simulation driver and sweep engine
//!
//! The experiment layer of the XBC reproduction:
//!
//! * [`FrontendSpec`] — serializable frontend configurations
//!   (IC / uop-cache / trace-cache / XBC at any size),
//! * [`Sweep`] — parallel (trace × frontend) grids where every
//!   configuration replays the identical committed path; scheduling is
//!   cell-level, so a grid of N configurations over M traces keeps
//!   `min(threads, N×M)` workers busy,
//! * [`ColdRun`] / [`plan_cells`] / [`cached_row`] — the cold-cell step
//!   the sweep and the `xbc-serve` daemon share: plan a grid's missing
//!   cells, read a cached row, resolve and replay a missing cell,
//! * [`SweepBench`] — per-run scheduler accounting (wall time,
//!   capture/sim split, worker utilization), emitted via `--bench-json`,
//! * [`Row`] / [`pivot_table`] / [`to_json`] — result collection and the
//!   table rendering used by the figure-regeneration binaries,
//! * [`HarnessArgs`] — the common CLI of those binaries.
//!
//! # Example
//!
//! ```
//! use xbc_sim::{FrontendSpec, Sweep, average_miss_rate};
//! use xbc_workload::standard_traces;
//!
//! let traces = standard_traces().into_iter().take(2).collect();
//! let sweep = Sweep::new(
//!     traces,
//!     vec![FrontendSpec::Tc { total_uops: 8192, ways: 4 },
//!          FrontendSpec::Xbc { total_uops: 8192, ways: 2, promotion: true }],
//!     10_000,
//! );
//! let rows = sweep.run();
//! assert_eq!(rows.len(), 4);
//! println!("avg miss {:.2}%", 100.0 * average_miss_rate(&rows));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod cell;
mod cli;
mod inspect;
mod report;
mod spec;
mod sweep;

pub use bench::{SweepBench, WorkerStat};
pub use cell::{cached_row, plan_cells, replay_stored, Cell, ColdRun};
pub use cli::HarnessArgs;
pub use inspect::render_inspect;
pub use report::{average_bandwidth, average_miss_rate, pivot_table, rows_from_json, to_json, Row};
pub use spec::FrontendSpec;
pub use sweep::{
    map_traces_parallel, resolve_threads, result_key, run_checked, run_checked_oracle,
    run_checked_streamed, run_checked_traced, sweep_custom, CustomRow, Sweep, CODE_VERSION,
};
/// The in-tree JSON parser (now hosted by `xbc-obs`; re-exported here
/// for the sim-layer consumers that grew up with `xbc_sim::json`).
pub use xbc_obs::json;
