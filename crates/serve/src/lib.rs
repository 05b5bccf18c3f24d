//! # xbc-serve — long-running sweep service
//!
//! A daemon that keeps one [`xbc_store::Store`] and one worker pool warm
//! across many sweep requests, plus the matching client:
//!
//! * [`protocol`] — the `xbc-serve-v1` JSONL wire protocol (requests,
//!   row/trailer lines, and the compact serializers they use),
//! * [`Endpoint`] — the transport address: a Unix-domain socket path or
//!   a TCP `host:port` (the protocol is identical over both),
//! * [`serve`] / [`Server`] / [`ServeConfig`] — the daemon: an accept
//!   loop feeding (trace × frontend) cells onto a shared fair scheduler
//!   (priority classes, round-robin across clients within a class, the
//!   same cell model as `xbc_sim::Sweep`), with daemon-wide
//!   single-flight dedup of concurrently requested cells and captures,
//! * [`RowTier`] — the daemon's memory tier: decoded cached rows, served
//!   while their store entry is unchanged,
//! * [`submit`] / [`ping`] / [`shutdown`] — the client side, used by
//!   `xbcsim submit`,
//! * [`faults`] (under the `check` feature) — deterministic
//!   fault-injection triggers for the daemon's failure paths: worker
//!   deaths mid-cell, dropped/delayed/truncated response streams.
//!
//! Replay inside the daemon is *streaming-first*: a cell whose trace is
//! already in the store replays it through the bounded-window oracle
//! (`Frontend::run_streamed`), so daemon memory stays O(window) per
//! worker however long the traces are. The first cell of a trace not yet
//! captured simulates live off the trace's streamed capture into the
//! store, so every later cell streams. The cell path is `xbc_sim`'s
//! cold-cell step, the one `xbc_sim::Sweep` runs.
//!
//! Rows served for a warm store are **byte-identical** to a one-shot
//! `xbcsim sweep` of the same grid: cached rows are replayed verbatim
//! (original `elapsed_ms` included), and the row JSON is a fixed point
//! of parse → re-encode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod daemon;
#[cfg(feature = "check")]
pub mod faults;
pub mod protocol;
mod scheduler;
mod tier;
mod transport;

pub use client::{ping, shutdown, submit, SubmitOutcome};
pub use daemon::{serve, ServeConfig, Server};
pub use scheduler::{ClientCells, SchedStats};
pub use tier::{Probe, RowTier, TIER_ROWS};
pub use transport::Endpoint;

#[cfg(feature = "check")]
pub use faults::FaultInjector;
