//! The `xbc-serve-v1` wire protocol.
//!
//! JSONL over a Unix-domain or TCP socket (the protocol never cares
//! which — see [`crate::transport`]): every message is one JSON object
//! on one line. The conversation is strictly client-driven:
//!
//! ```text
//! server → {"schema":"xbc-serve-v1","type":"hello","threads":8}
//! client → {"type":"ping"}
//! server → {"type":"pong"}
//! client → {"type":"sweep","traces":["spec.gcc"],"frontends":[{"kind":"ic"}],"insts":20000,"priority":0}
//! server → {"type":"row","index":0,"row":{...}}         (index order 0..rows-1)
//! server → {"type":"done","rows":1,"bench":{...},"store":{...},"sched":{...},"tier":{...}}
//! client → {"type":"shutdown"}
//! server → {"type":"bye","draining":3}                  (daemon drains 3 cells, then exits)
//! ```
//!
//! `priority` is optional on the wire (default 0); higher classes are
//! dispatched first, and within a class the daemon round-robins across
//! clients. The `done` trailer's `sched` object snapshots the daemon's
//! queue (depth, per-client cell counts, dedup/retry counters); its
//! `tier` object says how many of the request's cached cells came from
//! the daemon's memory tier, and how many rows the tier holds.
//!
//! Errors come back as `{"type":"error","message":"..."}` and leave the
//! connection usable for the next request.
//!
//! Wire rows are written by the one row encoder, `xbc_sim::Row::write_json`,
//! in its single-line layout: the *same values, in the same field order,
//! with the same `f64` shortest-roundtrip formatting* as the stored
//! pretty form — only the whitespace differs. A client that parses wire
//! rows and re-encodes them with `xbc_sim::to_json` gets output
//! byte-identical to a one-shot `xbcsim sweep --json` of the same grid
//! (given the same store), which is what the CI serve gate diffs. Row
//! lines are read back without a JSON tree ([`parse_row_line`]).
//!
//! Every frontend spec in a sweep request is checked
//! (`FrontendSpec::check`) when the line is parsed, so a geometry the
//! simulator cannot build is an `error` reply, never a worker panic.

use crate::scheduler::{ClientCells, SchedStats};
use xbc_sim::json::{escape, push_u64, Json, Reader, Token};
use xbc_sim::{FrontendSpec, Row, SweepBench, WorkerStat};
use xbc_store::StoreStats;

/// Protocol schema identifier, announced in the hello line.
pub const SCHEMA: &str = "xbc-serve-v1";

/// One sweep request: a (trace × frontend) grid at a fixed instruction
/// budget — the same cell model as `xbc_sim::Sweep`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRequest {
    /// Standard-trace names (see `xbcsim list`).
    pub traces: Vec<String>,
    /// Frontend configurations, one column per entry.
    pub frontends: Vec<FrontendSpec>,
    /// Dynamic instructions per trace.
    pub insts: usize,
    /// Scheduling class: queued cells of a higher class always dispatch
    /// before lower ones; equal classes round-robin. Default 0.
    pub priority: u32,
}

/// A parsed client request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; the server answers `pong`.
    Ping,
    /// Graceful daemon shutdown; the server answers `bye`, drains
    /// queued work, and exits.
    Shutdown,
    /// A sweep grid; the server streams `row` lines then one `done`.
    Sweep(SweepRequest),
}

/// The server's greeting, sent once per connection.
pub fn hello_line(threads: usize) -> String {
    format!("{{\"schema\":\"{SCHEMA}\",\"type\":\"hello\",\"threads\":{threads}}}")
}

/// Reply to [`Request::Ping`].
pub fn pong_line() -> String {
    "{\"type\":\"pong\"}".to_owned()
}

/// Reply to [`Request::Shutdown`]: `draining` counts the cells (queued
/// or running) the daemon will finish streaming before it exits.
pub fn bye_line(draining: u64) -> String {
    format!("{{\"type\":\"bye\",\"draining\":{draining}}}")
}

/// An error reply; the connection stays open.
pub fn error_line(msg: &str) -> String {
    format!("{{\"type\":\"error\",\"message\":\"{}\"}}", escape(msg))
}

/// Serializes a sweep request as its wire line.
pub fn render_sweep_request(req: &SweepRequest) -> String {
    let traces: Vec<String> = req.traces.iter().map(|t| format!("\"{}\"", escape(t))).collect();
    let fes: Vec<String> = req.frontends.iter().map(FrontendSpec::to_json).collect();
    format!(
        "{{\"type\":\"sweep\",\"traces\":[{}],\"frontends\":[{}],\"insts\":{},\"priority\":{}}}",
        traces.join(","),
        fes.join(","),
        req.insts,
        req.priority
    )
}

/// Parses one client request line.
///
/// # Errors
///
/// Returns a message naming the malformed or missing field; the caller
/// reports it via [`error_line`] and keeps the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = Json::parse(line)?;
    match j.get("type").and_then(Json::as_str) {
        Some("ping") => Ok(Request::Ping),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("sweep") => {
            let traces = j
                .get("traces")
                .and_then(Json::as_arr)
                .ok_or("sweep request missing traces")?
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "trace names must be strings".to_owned())
                })
                .collect::<Result<Vec<_>, _>>()?;
            let frontends = j
                .get("frontends")
                .and_then(Json::as_arr)
                .ok_or("sweep request missing frontends")?
                .iter()
                .map(|j| {
                    let spec = FrontendSpec::from_json(j)?;
                    spec.check().map_err(|e| format!("bad frontend {}: {e}", spec.label()))?;
                    Ok(spec)
                })
                .collect::<Result<Vec<_>, String>>()?;
            let insts =
                j.get("insts").and_then(Json::as_usize).ok_or("sweep request missing insts")?;
            let priority = match j.get("priority") {
                None => 0,
                Some(p) => {
                    u32::try_from(p.as_u64().ok_or("priority must be a non-negative integer")?)
                        .map_err(|_| "priority exceeds u32 range".to_owned())?
                }
            };
            Ok(Request::Sweep(SweepRequest { traces, frontends, insts, priority }))
        }
        Some(other) => Err(format!("unknown request type {other:?}")),
        None => Err("request missing type".into()),
    }
}

/// Appends one `row` line of a sweep response, newline included, to
/// `out`.
pub fn push_row_line(out: &mut String, index: usize, row: &Row) {
    out.push_str("{\"type\":\"row\",\"index\":");
    push_u64(out, index as u64);
    out.push_str(",\"row\":");
    row.write_json(out, None);
    out.push_str("}\n");
}

/// Reads a response line if it is a `row` line, straight from the
/// tokens: `Ok(Some((index, row)))` for a row line, `Ok(None)` for any
/// other well-formed line (read those with `Json::parse`). Accepts
/// exactly what the tree path accepts — the first `type` member is
/// `"row"`, the first `index` a `usize`, the first `row` a row per
/// `Row::from_json` — in any member order.
///
/// # Errors
///
/// Returns a message for a malformed line, or for a row line whose
/// `index` or `row` is missing or bad.
pub fn parse_row_line(line: &str) -> Result<Option<(usize, Row)>, String> {
    let mut r = Reader::new(line);
    let head = r.value()?;
    if head != Token::Obj {
        r.skip(head)?;
        r.end()?;
        return Ok(None);
    }
    let (mut ty, mut index, mut row) = (None, None, None);
    let mut first = true;
    while let Some(k) = r.next_key(first)? {
        first = false;
        match &*k {
            "type" if ty.is_none() => ty = Some(r.str_value()?),
            "index" if index.is_none() => index = Some(r.num_value()?),
            "row" if row.is_none() => row = Some(Row::read_json(&mut r)?),
            _ => r.skip_value()?,
        }
    }
    r.end()?;
    if ty.flatten().as_deref() != Some("row") {
        return Ok(None);
    }
    let index = index.flatten().ok_or("row line missing index")?;
    let row = row.ok_or("row line missing row")??;
    Ok(Some((index, row)))
}

/// Serializes a [`SweepBench`] as a single-line JSON object (the wire
/// form of the `xbc-sweep-bench-v1` schema; derived rates are omitted —
/// [`bench_from_json`] recomputes them).
pub fn bench_to_compact_json(b: &SweepBench) -> String {
    let workers: Vec<String> = b
        .workers
        .iter()
        .map(|w| format!("{{\"cells\":{},\"busy_ms\":{}}}", w.cells, w.busy_ms))
        .collect();
    format!(
        "{{\"schema\":\"xbc-sweep-bench-v1\",\"threads\":{},\"traces\":{},\"frontends\":{},\
         \"total_cells\":{},\"cached_cells\":{},\"simulated_cells\":{},\"deduped_cells\":{},\
         \"captures\":{},\"capture_ms\":{},\"sim_ms\":{},\
         \"overlapped_cells\":{},\"overlap_ms\":{},\"wall_ms\":{},\"workers\":[{}]}}",
        b.threads,
        b.traces,
        b.frontends,
        b.total_cells,
        b.cached_cells,
        b.simulated_cells,
        b.deduped_cells,
        b.captures,
        b.capture_ms,
        b.sim_ms,
        b.overlapped_cells,
        b.overlap_ms,
        b.wall_ms,
        workers.join(","),
    )
}

/// Reconstructs a [`SweepBench`] from a parsed JSON object — accepts
/// both the compact wire form and the multi-line `SweepBench::to_json`
/// artifact (derived-rate fields, when present, are ignored).
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn bench_from_json(j: &Json) -> Result<SweepBench, String> {
    fn u64_field(j: &Json, k: &str) -> Result<u64, String> {
        j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("bench missing {k}"))
    }
    fn usize_field(j: &Json, k: &str) -> Result<usize, String> {
        j.get(k).and_then(Json::as_usize).ok_or_else(|| format!("bench missing {k}"))
    }
    let workers = j
        .get("workers")
        .and_then(Json::as_arr)
        .ok_or("bench missing workers")?
        .iter()
        .map(|w| {
            Ok(WorkerStat { cells: usize_field(w, "cells")?, busy_ms: u64_field(w, "busy_ms")? })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SweepBench {
        threads: usize_field(j, "threads")?,
        traces: usize_field(j, "traces")?,
        frontends: usize_field(j, "frontends")?,
        total_cells: usize_field(j, "total_cells")?,
        cached_cells: usize_field(j, "cached_cells")?,
        simulated_cells: usize_field(j, "simulated_cells")?,
        // Optional: absent in pre-dedup bench artifacts.
        deduped_cells: j.get("deduped_cells").and_then(Json::as_usize).unwrap_or(0),
        captures: u64_field(j, "captures")?,
        capture_ms: u64_field(j, "capture_ms")?,
        sim_ms: u64_field(j, "sim_ms")?,
        // Optional: absent in pre-streaming bench artifacts.
        overlapped_cells: j.get("overlapped_cells").and_then(Json::as_usize).unwrap_or(0),
        overlap_ms: j.get("overlap_ms").and_then(Json::as_u64).unwrap_or(0),
        wall_ms: u64_field(j, "wall_ms")?,
        workers,
    })
}

/// Serializes a [`StoreStats`] snapshot (or delta) as a single-line
/// JSON object.
pub fn stats_to_compact_json(s: &StoreStats) -> String {
    format!(
        "{{\"trace_hits\":{},\"trace_misses\":{},\"result_hits\":{},\"result_misses\":{},\
         \"bytes_read\":{},\"bytes_written\":{},\"corrupt_entries\":{}}}",
        s.trace_hits,
        s.trace_misses,
        s.result_hits,
        s.result_misses,
        s.bytes_read,
        s.bytes_written,
        s.corrupt_entries,
    )
}

/// Reconstructs a [`StoreStats`] from a parsed JSON object.
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn stats_from_json(j: &Json) -> Result<StoreStats, String> {
    fn u64_field(j: &Json, k: &str) -> Result<u64, String> {
        j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("store stats missing {k}"))
    }
    Ok(StoreStats {
        trace_hits: u64_field(j, "trace_hits")?,
        trace_misses: u64_field(j, "trace_misses")?,
        result_hits: u64_field(j, "result_hits")?,
        result_misses: u64_field(j, "result_misses")?,
        bytes_read: u64_field(j, "bytes_read")?,
        bytes_written: u64_field(j, "bytes_written")?,
        corrupt_entries: u64_field(j, "corrupt_entries")?,
    })
}

/// Counter delta `after - before` of two snapshots of one store. The
/// store is shared by every client of the daemon, so a per-request
/// delta includes any concurrently-served requests' activity — it is a
/// "what the store did while your request ran" figure, not an exact
/// per-request attribution.
pub fn stats_delta(before: &StoreStats, after: &StoreStats) -> StoreStats {
    StoreStats {
        trace_hits: after.trace_hits.saturating_sub(before.trace_hits),
        trace_misses: after.trace_misses.saturating_sub(before.trace_misses),
        result_hits: after.result_hits.saturating_sub(before.result_hits),
        result_misses: after.result_misses.saturating_sub(before.result_misses),
        bytes_read: after.bytes_read.saturating_sub(before.bytes_read),
        bytes_written: after.bytes_written.saturating_sub(before.bytes_written),
        corrupt_entries: after.corrupt_entries.saturating_sub(before.corrupt_entries),
    }
}

/// The daemon's memory tier as one request saw it (see the `done`
/// trailer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// The request's cached cells served from memory, without a store
    /// read; the rest of its `cached_cells` were read from disk.
    pub memory_cells: u64,
    /// Rows the tier held when the request finished.
    pub rows: u64,
}

/// Reconstructs a [`TierStats`] from a parsed JSON object.
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn tier_from_json(j: &Json) -> Result<TierStats, String> {
    let field = |k: &str| j.get(k).and_then(Json::as_u64).ok_or(format!("tier stats missing {k}"));
    Ok(TierStats { memory_cells: field("memory_cells")?, rows: field("rows")? })
}

/// Serializes a [`SchedStats`] queue snapshot as a single-line JSON
/// object.
pub fn sched_to_compact_json(s: &SchedStats) -> String {
    let clients: Vec<String> = s
        .clients
        .iter()
        .map(|c| {
            format!(
                "{{\"client\":{},\"priority\":{},\"queued\":{}}}",
                c.client, c.priority, c.queued
            )
        })
        .collect();
    format!(
        "{{\"queue_depth\":{},\"enqueued_cells\":{},\"completed_cells\":{},\
         \"deduped_cells\":{},\"retried_cells\":{},\"cancelled_cells\":{},\"clients\":[{}]}}",
        s.queue_depth,
        s.enqueued_cells,
        s.completed_cells,
        s.deduped_cells,
        s.retried_cells,
        s.cancelled_cells,
        clients.join(","),
    )
}

/// Reconstructs a [`SchedStats`] from a parsed JSON object.
///
/// # Errors
///
/// Returns a message naming the missing or malformed field.
pub fn sched_from_json(j: &Json) -> Result<SchedStats, String> {
    fn u64_field(j: &Json, k: &str) -> Result<u64, String> {
        j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("sched stats missing {k}"))
    }
    let clients = j
        .get("clients")
        .and_then(Json::as_arr)
        .ok_or("sched stats missing clients")?
        .iter()
        .map(|c| {
            Ok(ClientCells {
                client: u64_field(c, "client")?,
                priority: u32::try_from(u64_field(c, "priority")?)
                    .map_err(|_| "client priority exceeds u32 range".to_owned())?,
                queued: u64_field(c, "queued")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SchedStats {
        queue_depth: u64_field(j, "queue_depth")?,
        enqueued_cells: u64_field(j, "enqueued_cells")?,
        completed_cells: u64_field(j, "completed_cells")?,
        deduped_cells: u64_field(j, "deduped_cells")?,
        retried_cells: u64_field(j, "retried_cells")?,
        cancelled_cells: u64_field(j, "cancelled_cells")?,
        clients,
    })
}

/// The `done` trailer closing a sweep response. `store` and `tier` are
/// `null` when the daemon runs uncached; `sched` is the daemon's queue
/// snapshot at completion time (older daemons omitted it and `tier`, so
/// readers treat both as optional).
pub fn done_line(
    rows: usize,
    bench: &SweepBench,
    store: Option<&StoreStats>,
    sched: Option<&SchedStats>,
    tier: Option<&TierStats>,
) -> String {
    let store = match store {
        Some(s) => stats_to_compact_json(s),
        None => "null".to_owned(),
    };
    let sched = match sched {
        Some(s) => sched_to_compact_json(s),
        None => "null".to_owned(),
    };
    let tier = match tier {
        Some(t) => format!("{{\"memory_cells\":{},\"rows\":{}}}", t.memory_cells, t.rows),
        None => "null".to_owned(),
    };
    format!(
        "{{\"type\":\"done\",\"rows\":{rows},\"bench\":{},\"store\":{},\"sched\":{},\"tier\":{}}}",
        bench_to_compact_json(bench),
        store,
        sched,
        tier
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_frontend::FrontendMetrics;

    fn sample_row() -> Row {
        let m = FrontendMetrics {
            cycles: 1000,
            delivery_cycles: 600,
            structure_uops: 4000,
            ic_uops: 2000,
            ..Default::default()
        };
        let mut r = Row::new("spec.gcc", "spec", FrontendSpec::xbc_default(), 5000, &m);
        r.elapsed_ms = 17;
        r
    }

    #[test]
    fn request_roundtrip() {
        let req = SweepRequest {
            traces: vec!["spec.gcc".into(), "games.quake".into()],
            frontends: vec![
                FrontendSpec::Ic,
                FrontendSpec::Xbc { total_uops: 8192, ways: 2, promotion: true },
            ],
            insts: 20_000,
            priority: 3,
        };
        let line = render_sweep_request(&req);
        assert!(!line.contains('\n'));
        match parse_request(&line).unwrap() {
            Request::Sweep(back) => assert_eq!(back, req),
            other => panic!("parsed {other:?}"),
        }
        assert_eq!(parse_request("{\"type\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"type\":\"shutdown\"}").unwrap(), Request::Shutdown);
        assert!(parse_request("{\"type\":\"zap\"}").is_err());
        assert!(parse_request("{}").is_err());
        assert!(parse_request("{\"type\":\"sweep\"}").is_err());
    }

    #[test]
    fn priority_defaults_to_zero_and_rejects_garbage() {
        let line = "{\"type\":\"sweep\",\"traces\":[\"spec.gcc\"],\
                    \"frontends\":[{\"kind\":\"ic\"}],\"insts\":100}";
        match parse_request(line).unwrap() {
            Request::Sweep(req) => assert_eq!(req.priority, 0),
            other => panic!("parsed {other:?}"),
        }
        let bad = line.replace(",\"insts\":100", ",\"insts\":100,\"priority\":\"high\"");
        assert!(parse_request(&bad).unwrap_err().contains("priority"));
    }

    #[test]
    fn row_line_is_single_line_and_exact() {
        let row = sample_row();
        let mut line = String::new();
        push_row_line(&mut line, 3, &row);
        let line = line.strip_suffix('\n').expect("newline-terminated");
        assert!(!line.contains('\n'));
        let j = Json::parse(line).unwrap();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("row"));
        assert_eq!(j.get("index").and_then(Json::as_usize), Some(3));
        let back = Row::from_json(j.get("row").unwrap()).unwrap();
        // The wire row re-encodes (via the sim serializer) byte-identically
        // to the original — the fixed point the CI serve gate relies on.
        assert_eq!(
            xbc_sim::to_json(std::slice::from_ref(&back)),
            xbc_sim::to_json(std::slice::from_ref(&row))
        );
        let (index, typed) = parse_row_line(line).unwrap().expect("a row line");
        assert_eq!(index, 3);
        assert_eq!(xbc_sim::to_json(&[typed]), xbc_sim::to_json(&[back]));
        // Other line types are left to the tree reader.
        assert_eq!(parse_row_line(&pong_line()).unwrap().map(|(i, _)| i), None);
        assert!(parse_row_line("{\"type\":\"row\",\"index\":0}").is_err());
    }

    #[test]
    fn sweep_requests_with_unbuildable_geometry_are_refused() {
        let line = |fe: &str| {
            format!("{{\"type\":\"sweep\",\"traces\":[\"spec.gcc\"],\"frontends\":[{fe}],\"insts\":100}}")
        };
        for bad in [
            "{\"kind\":\"xbc\",\"total_uops\":3,\"ways\":2,\"promotion\":true}",
            "{\"kind\":\"xbc\",\"total_uops\":32768,\"ways\":0,\"promotion\":true}",
            "{\"kind\":\"xbc\",\"total_uops\":32768,\"ways\":17,\"promotion\":true}",
            "{\"kind\":\"tc\",\"total_uops\":32768,\"ways\":0}",
            "{\"kind\":\"tc\",\"total_uops\":0,\"ways\":4}",
            "{\"kind\":\"uop\",\"total_uops\":0}",
            "{\"kind\":\"bbtc\",\"total_uops\":0}",
        ] {
            let err = parse_request(&line(bad)).expect_err(bad);
            assert!(err.contains("bad frontend"), "{bad}: {err}");
        }
        assert!(parse_request(&line(&FrontendSpec::xbc_default().to_json())).is_ok());
    }

    #[test]
    fn bench_roundtrip_compact_and_artifact() {
        let bench = SweepBench {
            threads: 4,
            traces: 2,
            frontends: 3,
            total_cells: 6,
            cached_cells: 1,
            simulated_cells: 3,
            deduped_cells: 2,
            captures: 2,
            capture_ms: 30,
            sim_ms: 970,
            overlapped_cells: 1,
            overlap_ms: 15,
            wall_ms: 500,
            workers: vec![WorkerStat { cells: 5, busy_ms: 490 }],
        };
        let compact = bench_to_compact_json(&bench);
        assert!(!compact.contains('\n'));
        let back = bench_from_json(&Json::parse(&compact).unwrap()).unwrap();
        assert_eq!(back.total_cells, 6);
        assert_eq!(back.deduped_cells, 2);
        assert_eq!(back.overlapped_cells, 1);
        assert_eq!(back.overlap_ms, 15);
        assert_eq!(back.workers, bench.workers);
        // The multi-line artifact form parses through the same reader.
        let art = bench_from_json(&Json::parse(&bench.to_json()).unwrap()).unwrap();
        assert_eq!(art.simulated_cells, 3);
        assert_eq!(art.wall_ms, 500);
        assert_eq!(art.overlap_ms, 15);
        // Pre-dedup / pre-streaming artifacts (missing fields) still parse.
        let legacy = compact
            .replace(",\"deduped_cells\":2", "")
            .replace(",\"overlapped_cells\":1,\"overlap_ms\":15", "");
        let old = bench_from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(old.deduped_cells, 0);
        assert_eq!(old.overlapped_cells, 0);
        assert_eq!(old.overlap_ms, 0);
    }

    #[test]
    fn sched_roundtrip() {
        let stats = SchedStats {
            queue_depth: 4,
            enqueued_cells: 10,
            completed_cells: 6,
            deduped_cells: 2,
            retried_cells: 1,
            cancelled_cells: 0,
            clients: vec![
                ClientCells { client: 1, priority: 0, queued: 3 },
                ClientCells { client: 2, priority: 5, queued: 1 },
            ],
        };
        let compact = sched_to_compact_json(&stats);
        assert!(!compact.contains('\n'));
        let back = sched_from_json(&Json::parse(&compact).unwrap()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn stats_roundtrip_and_delta() {
        let before =
            StoreStats { trace_hits: 1, result_hits: 2, bytes_read: 100, ..Default::default() };
        let after = StoreStats {
            trace_hits: 3,
            trace_misses: 1,
            result_hits: 2,
            result_misses: 4,
            bytes_read: 900,
            bytes_written: 50,
            corrupt_entries: 0,
        };
        let d = stats_delta(&before, &after);
        assert_eq!(d.trace_hits, 2);
        assert_eq!(d.result_hits, 0);
        assert_eq!(d.bytes_read, 800);
        let back = stats_from_json(&Json::parse(&stats_to_compact_json(&d)).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn done_line_shape() {
        let line = done_line(
            6,
            &SweepBench::default(),
            Some(&StoreStats::default()),
            Some(&SchedStats::default()),
            Some(&TierStats { memory_cells: 4, rows: 9 }),
        );
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("done"));
        assert_eq!(j.get("rows").and_then(Json::as_usize), Some(6));
        assert!(bench_from_json(j.get("bench").unwrap()).is_ok());
        assert!(stats_from_json(j.get("store").unwrap()).is_ok());
        assert!(sched_from_json(j.get("sched").unwrap()).is_ok());
        assert_eq!(
            tier_from_json(j.get("tier").unwrap()),
            Ok(TierStats { memory_cells: 4, rows: 9 })
        );
        let uncached = done_line(0, &SweepBench::default(), None, None, None);
        let j = Json::parse(&uncached).unwrap();
        assert_eq!(j.get("store"), Some(&Json::Null));
        assert_eq!(j.get("sched"), Some(&Json::Null));
        assert_eq!(j.get("tier"), Some(&Json::Null));
    }

    #[test]
    fn bye_line_reports_drain_count() {
        let j = Json::parse(&bye_line(7)).unwrap();
        assert_eq!(j.get("type").and_then(Json::as_str), Some("bye"));
        assert_eq!(j.get("draining").and_then(Json::as_u64), Some(7));
    }
}
