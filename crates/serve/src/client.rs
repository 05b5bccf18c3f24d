//! The client side of the `xbc-serve-v1` protocol (`xbcsim submit`).

use crate::protocol::{self, SweepRequest, TierStats};
use crate::scheduler::SchedStats;
use crate::transport::{self, Conn, Endpoint};
use std::io::{BufRead, BufReader, Write};
use xbc_sim::json::Json;
use xbc_sim::{Row, SweepBench};
use xbc_store::StoreStats;

/// Everything one sweep submission returns.
#[derive(Clone, Debug)]
pub struct SubmitOutcome {
    /// Result rows in deterministic trace-major, frontend-minor order —
    /// the same order (and, for a warm store, the same bytes once
    /// re-encoded) as a one-shot `Sweep` of the grid.
    pub rows: Vec<Row>,
    /// The daemon's per-request scheduler accounting.
    pub bench: SweepBench,
    /// Store-counter delta over the request (`None` when the daemon
    /// runs uncached). The store is shared across clients, so this
    /// includes concurrent requests' activity.
    pub store: Option<StoreStats>,
    /// The daemon's queue snapshot at completion time (`None` from
    /// pre-scheduler daemons).
    pub sched: Option<SchedStats>,
    /// How the daemon's memory tier served the request (`None` when it
    /// runs uncached, or predates the tier).
    pub tier: Option<TierStats>,
}

/// Opens a connection and consumes the server hello. A daemon at its
/// connection cap answers with an `error` line instead of a hello; that
/// message comes back as the `Err`.
fn connect(endpoint: &Endpoint) -> Result<(BufReader<Conn>, Conn), String> {
    let conn = transport::connect(endpoint)
        .map_err(|e| format!("connect {endpoint}: {e} (is the daemon running?)"))?;
    let out = conn.try_clone().map_err(|e| format!("clone connection: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut hello = String::new();
    reader.read_line(&mut hello).map_err(|e| format!("read hello: {e}"))?;
    let j = Json::parse(hello.trim()).map_err(|e| format!("malformed hello: {e}"))?;
    if j.get("type").and_then(Json::as_str) == Some("error") {
        return Err(j
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("server refused the connection")
            .to_owned());
    }
    match j.get("schema").and_then(Json::as_str) {
        Some(protocol::SCHEMA) => Ok((reader, out)),
        Some(other) => Err(format!("server speaks {other:?}, expected {:?}", protocol::SCHEMA)),
        None => Err("server hello carries no schema".into()),
    }
}

fn send_line(out: &mut Conn, line: &str) -> Result<(), String> {
    writeln!(out, "{line}").and_then(|()| out.flush()).map_err(|e| format!("send request: {e}"))
}

/// Reads one response line into `line` (cleared first).
fn read_line(reader: &mut BufReader<Conn>, line: &mut String) -> Result<(), String> {
    line.clear();
    let n = reader.read_line(line).map_err(|e| format!("read response: {e}"))?;
    if n == 0 {
        return Err("server closed the connection mid-response".into());
    }
    Ok(())
}

fn parse_response(line: &str) -> Result<Json, String> {
    Json::parse(line.trim()).map_err(|e| format!("malformed response line: {e}"))
}

fn read_response_line(reader: &mut BufReader<Conn>) -> Result<Json, String> {
    let mut line = String::new();
    read_line(reader, &mut line)?;
    parse_response(&line)
}

/// Liveness probe: sends `ping`, expects `pong`.
///
/// # Errors
///
/// Returns a message describing the connection or protocol failure.
pub fn ping(endpoint: &Endpoint) -> Result<(), String> {
    let (mut reader, mut out) = connect(endpoint)?;
    send_line(&mut out, "{\"type\":\"ping\"}")?;
    let j = read_response_line(&mut reader)?;
    match j.get("type").and_then(Json::as_str) {
        Some("pong") => Ok(()),
        other => Err(format!("expected pong, got {other:?}")),
    }
}

/// Asks the daemon to shut down gracefully. Returns the number of cells
/// (queued or running) the daemon reported it would drain — active
/// sweeps keep streaming until their rows are out.
///
/// # Errors
///
/// Returns a message describing the connection or protocol failure.
pub fn shutdown(endpoint: &Endpoint) -> Result<u64, String> {
    let (mut reader, mut out) = connect(endpoint)?;
    send_line(&mut out, "{\"type\":\"shutdown\"}")?;
    let j = read_response_line(&mut reader)?;
    match j.get("type").and_then(Json::as_str) {
        Some("bye") => Ok(j.get("draining").and_then(Json::as_u64).unwrap_or(0)),
        other => Err(format!("expected bye, got {other:?}")),
    }
}

/// Submits a sweep grid and collects the full response: rows stream in
/// index order (the protocol guarantees it; this client enforces it)
/// followed by the `done` trailer. Row lines are decoded without a JSON
/// tree ([`protocol::parse_row_line`]); the other lines build one.
///
/// # Errors
///
/// Returns the server's `error` message, or a description of any
/// connection/protocol failure.
pub fn submit(endpoint: &Endpoint, req: &SweepRequest) -> Result<SubmitOutcome, String> {
    let (mut reader, mut out) = connect(endpoint)?;
    send_line(&mut out, &protocol::render_sweep_request(req))?;
    let mut rows: Vec<Row> = Vec::new();
    let mut line = String::new();
    loop {
        read_line(&mut reader, &mut line)?;
        let row_line = protocol::parse_row_line(line.trim())
            .map_err(|e| format!("malformed response line: {e}"))?;
        if let Some((index, row)) = row_line {
            if index != rows.len() {
                return Err(format!(
                    "rows out of order: got index {index}, expected {}",
                    rows.len()
                ));
            }
            rows.push(row);
            continue;
        }
        let j = parse_response(&line)?;
        match j.get("type").and_then(Json::as_str) {
            Some("done") => {
                let declared =
                    j.get("rows").and_then(Json::as_usize).ok_or("done line missing rows")?;
                if declared != rows.len() {
                    return Err(format!(
                        "done declares {declared} rows but {} arrived",
                        rows.len()
                    ));
                }
                let bench =
                    protocol::bench_from_json(j.get("bench").ok_or("done line missing bench")?)?;
                let store = match j.get("store") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(protocol::stats_from_json(s)?),
                };
                let sched = match j.get("sched") {
                    None | Some(Json::Null) => None,
                    Some(s) => Some(protocol::sched_from_json(s)?),
                };
                let tier = match j.get("tier") {
                    None | Some(Json::Null) => None,
                    Some(t) => Some(protocol::tier_from_json(t)?),
                };
                return Ok(SubmitOutcome { rows, bench, store, sched, tier });
            }
            Some("error") => {
                return Err(j
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified server error")
                    .to_owned());
            }
            other => return Err(format!("unexpected response type {other:?}")),
        }
    }
}
