//! `xbcsim` — command-line driver for the XBC reproduction.
//!
//! ```text
//! xbcsim list
//! xbcsim run   --frontend xbc --size 32768 --trace spec.gcc --inst 500000 [--stream on] [--trace-events ev.jsonl]
//! xbcsim run   --frontend tc  --from trace.xbt --stream on
//! xbcsim sweep --frontends tc,xbc --sizes 8192,32768 --inst 200000 [--traces a,b] [--json out.json] [--bench-json BENCH_sweep.json] [--threads N] [--cache DIR|off] [--trace-events ev.jsonl]
//! xbcsim serve --socket target/xbcsim.sock [--threads N] [--cache DIR|off] [--conn-cap N] [--idle-timeout-ms N]
//! xbcsim serve --listen 0.0.0.0:7700 [--threads N] [--cache DIR|off]
//! xbcsim submit --socket target/xbcsim.sock --frontends tc,xbc --sizes 8192 --inst 200000 [--priority N] [--json out.json] [--bench-json FILE]
//! xbcsim submit --connect host:7700 --frontends tc,xbc --sizes 8192 --inst 200000
//! xbcsim submit --socket target/xbcsim.sock --ping on | --shutdown on
//! xbcsim inspect --events ev.jsonl
//! xbcsim capture --trace sys.access --insts 1000000000 --out trace.xbt
//! xbcsim dot --trace spec.gcc --function 3 > f3.dot
//! ```

use std::fs::File;
use std::io::BufReader;
use std::process::exit;
use xbc_serve::protocol::SweepRequest;
use xbc_serve::Endpoint;
use xbc_sim::{pivot_table, FrontendSpec, Row, Sweep};
use xbc_workload::{function_dot, standard_traces, Trace, TraceStream};

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!("  xbcsim list");
    eprintln!("  xbcsim run --frontend ic|uopcache|bbtc|tc|xbc [--size N] [--check on] [--stream on] [--trace-events FILE] (--trace NAME --inst N | --from FILE)");
    eprintln!("  xbcsim sweep [--frontends tc,xbc] [--sizes 8192,32768] [--traces a,b] [--inst N] [--json FILE] [--bench-json FILE] [--threads N] [--cache DIR|off] [--check on] [--trace-events FILE]");
    eprintln!("  xbcsim serve [--socket PATH | --listen HOST:PORT] [--threads N] [--cache DIR|off] [--conn-cap N] [--idle-timeout-ms N]");
    eprintln!("  xbcsim submit [--socket PATH | --connect HOST:PORT] [--frontends tc,xbc] [--sizes 8192,32768] [--traces a,b] [--inst N] [--priority N] [--json FILE] [--bench-json FILE] [--ping on] [--shutdown on]");
    eprintln!("  xbcsim inspect --events FILE   (render an xbc-events-v1 stream)");
    eprintln!("  xbcsim capture --trace NAME --insts N --out FILE   (streamed; N may exceed 1e9)");
    eprintln!("  xbcsim dot --trace NAME [--function K]   (DOT CFG to stdout)");
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

/// Tiny flag parser: `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            if !k.starts_with("--") {
                fail(&format!("unexpected argument: {k}"));
            }
            let v = it.next().unwrap_or_else(|| fail(&format!("{k} needs a value")));
            out.push((k[2..].to_owned(), v.clone()));
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, key: &str, default: usize) -> usize {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| fail(&format!("bad --{key}: {v}"))),
        }
    }

    fn get_bool(&self, key: &str, default: bool) -> bool {
        match self.get(key) {
            None => default,
            Some("true" | "on" | "1") => true,
            Some("false" | "off" | "0") => false,
            Some(v) => fail(&format!("bad --{key}: {v} (want on|off)")),
        }
    }
}

fn frontend_spec(kind: &str, size: usize) -> FrontendSpec {
    match kind {
        "ic" => FrontendSpec::Ic,
        "uopcache" => FrontendSpec::UopCache { total_uops: size },
        "bbtc" => FrontendSpec::Bbtc { total_uops: size },
        "tc" => FrontendSpec::Tc { total_uops: size, ways: 4 },
        "xbc" => FrontendSpec::Xbc { total_uops: size, ways: 2, promotion: true },
        other => fail(&format!("unknown frontend: {other}")),
    }
}

fn load_trace_by_name(name: &str, insts: usize) -> Trace {
    let spec = standard_traces()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| fail(&format!("unknown trace: {name} (see `xbcsim list`)")));
    spec.capture(insts)
}

/// Resolves the cache-directory convention shared by `sweep` and
/// `serve`: `--cache DIR`, else `$XBC_CACHE_DIR`, else
/// `target/xbc-cache`; `--cache off` disables the store.
fn resolve_cache(flags: &Flags) -> Option<String> {
    let cache = flags
        .get("cache")
        .map(str::to_owned)
        .or_else(|| std::env::var("XBC_CACHE_DIR").ok())
        .unwrap_or_else(|| "target/xbc-cache".to_owned());
    (cache != "off").then_some(cache)
}

/// The grid shared by `sweep` and `submit`: trace names, frontend
/// specs (kinds × sizes), and the instruction budget.
fn resolve_grid(flags: &Flags) -> (Vec<String>, Vec<FrontendSpec>, usize) {
    let all = standard_traces();
    let traces: Vec<String> = match flags.get("traces") {
        None => all.iter().map(|t| t.name.to_owned()).collect(),
        Some(list) => list
            .split(',')
            .map(|name| {
                all.iter()
                    .find(|t| t.name == name)
                    .map(|t| t.name.to_owned())
                    .unwrap_or_else(|| fail(&format!("unknown trace: {name}")))
            })
            .collect(),
    };
    let kinds: Vec<&str> = flags.get("frontends").unwrap_or("tc,xbc").split(',').collect();
    let sizes: Vec<usize> = flags
        .get("sizes")
        .unwrap_or("8192,32768")
        .split(',')
        .map(|s| s.parse().unwrap_or_else(|_| fail(&format!("bad size: {s}"))))
        .collect();
    let mut frontends = Vec::new();
    for &size in &sizes {
        for kind in &kinds {
            frontends.push(frontend_spec(kind, size));
        }
    }
    (traces, frontends, flags.get_usize("inst", 200_000))
}

fn cmd_list() {
    println!("{:<18} {:>10} {:>10} {:>6}", "trace", "suite", "functions", "seed");
    for t in standard_traces() {
        println!("{:<18} {:>10} {:>10} {:>6}", t.name, t.suite.to_string(), t.functions, t.seed);
    }
}

/// `run --stream on`: replay through the bounded-window oracle instead
/// of a resident `Trace`. `--from FILE` streams straight off the file
/// (host memory stays O(window) however big it is); `--trace NAME`
/// captures, encodes to the XBT1 wire format in memory, and streams
/// that — same replay path, demonstrating metric equivalence.
fn cmd_run_streamed(flags: &Flags, spec: &FrontendSpec, check: bool) {
    let input: Box<dyn std::io::Read> = if let Some(path) = flags.get("from") {
        Box::new(BufReader::new(
            File::open(path).unwrap_or_else(|e| fail(&format!("open {path}: {e}"))),
        ))
    } else {
        let name = flags.get("trace").unwrap_or_else(|| fail("run needs --trace or --from"));
        let trace = load_trace_by_name(name, flags.get_usize("inst", 500_000));
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap_or_else(|e| fail(&format!("encode {name}: {e}")));
        Box::new(std::io::Cursor::new(buf))
    };
    let mut stream = TraceStream::new(input).unwrap_or_else(|e| fail(&format!("open stream: {e}")));
    let name = stream.name().to_owned();
    let mut fe = spec.instantiate();
    let mut traced = flags.get("trace-events").map(|path| (path, xbc_obs::VecSink::new()));
    let m = match (&mut traced, check) {
        (Some((_, sink)), true) => {
            xbc_sim::run_checked_streamed(&mut *fe, &mut stream, &name, sink)
        }
        (Some((_, sink)), false) => fe.run_streamed_traced(&mut stream, sink),
        (None, true) => {
            xbc_sim::run_checked_streamed(&mut *fe, &mut stream, &name, &mut xbc_obs::NullSink)
        }
        (None, false) => fe.run_streamed(&mut stream),
    };
    // Nothing computed from the stream is reported before its verdict.
    if let Err(e) = stream.finish() {
        fail(&format!("stream {name}: {e}"));
    }
    if let Some((path, sink)) = traced {
        let mut out = String::new();
        xbc_obs::jsonl::write_section(&mut out, &spec.label(), &name, &sink.events);
        std::fs::write(path, out).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("wrote {path} ({} events)", sink.events.len());
    }
    println!("{} on {} (streamed, {} uops):", spec.label(), name, m.total_uops());
    println!("{m}");
}

fn cmd_run(flags: &Flags) {
    let kind = flags.get("frontend").unwrap_or("xbc");
    let size = flags.get_usize("size", 32 * 1024);
    let spec = frontend_spec(kind, size);
    let check = flags.get_bool("check", false);
    if flags.get_bool("stream", false) {
        cmd_run_streamed(flags, &spec, check);
        return;
    }
    let trace = if let Some(path) = flags.get("from") {
        let f = File::open(path).unwrap_or_else(|e| fail(&format!("open {path}: {e}")));
        Trace::load(f).unwrap_or_else(|e| fail(&format!("load {path}: {e}")))
    } else {
        let name = flags.get("trace").unwrap_or_else(|| fail("run needs --trace or --from"));
        load_trace_by_name(name, flags.get_usize("inst", 500_000))
    };
    let mut fe = spec.instantiate();
    let m = if let Some(path) = flags.get("trace-events") {
        let mut sink = xbc_obs::VecSink::new();
        let m = if check {
            xbc_sim::run_checked_traced(&mut *fe, &trace, trace.name(), &mut sink)
        } else {
            fe.run_traced(&trace, &mut sink)
        };
        let mut out = String::new();
        xbc_obs::jsonl::write_section(&mut out, &spec.label(), trace.name(), &sink.events);
        std::fs::write(path, out).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("wrote {path} ({} events)", sink.events.len());
        m
    } else if check {
        // Verified replay: per-cycle accounting identities + structural
        // audit, same metrics as the plain run.
        xbc_sim::run_checked(&mut *fe, &trace, trace.name())
    } else {
        fe.run(&trace)
    };
    println!("{} on {} ({} uops):", spec.label(), trace.name(), trace.uop_count());
    println!("{m}");
}

fn cmd_inspect(flags: &Flags) {
    let path = flags.get("events").unwrap_or_else(|| fail("inspect needs --events FILE"));
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    match xbc_sim::render_inspect(&text) {
        Ok(report) => print!("{report}"),
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn print_rows(rows: &[Row]) {
    println!("{}", pivot_table(rows, "uop miss rate (%)", |r| 100.0 * r.miss_rate));
    println!("{}", pivot_table(rows, "delivery bandwidth (uops/cycle)", |r| r.bandwidth));
}

fn write_artifacts(flags: &Flags, rows: &[Row], bench_json: &str) {
    if let Some(path) = flags.get("json") {
        std::fs::write(path, xbc_sim::to_json(rows))
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(path) = flags.get("bench-json") {
        std::fs::write(path, bench_json).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

fn cmd_sweep(flags: &Flags) {
    let (trace_names, frontends, insts) = resolve_grid(flags);
    let all = standard_traces();
    let traces: Vec<_> = trace_names
        .iter()
        .map(|name| all.iter().find(|t| t.name == *name).cloned().expect("resolved above"))
        .collect();
    let mut sweep = Sweep::new(traces, frontends, insts);
    sweep.threads = flags.get_usize("threads", 0);
    sweep.check = flags.get_bool("check", false);
    sweep.trace_events = flags.get("trace-events").map(str::to_owned);
    if let Some(cache) = resolve_cache(flags) {
        match xbc_store::Store::open(&cache) {
            Ok(store) => sweep = sweep.with_store(std::sync::Arc::new(store)),
            Err(e) => eprintln!("[xbc-store] cannot open {cache}: {e}; running uncached"),
        }
    }
    let (rows, bench): (Vec<Row>, _) = sweep.run_with_bench();
    print_rows(&rows);
    write_artifacts(flags, &rows, &bench.to_json());
}

/// The rendezvous convention shared by `serve` and `submit`:
/// `--listen`/`--connect HOST:PORT` picks TCP, `--socket PATH` (default
/// `target/xbcsim.sock`) a Unix-domain socket.
fn endpoint(flags: &Flags, tcp_flag: &str) -> Endpoint {
    match flags.get(tcp_flag) {
        Some(addr) => {
            if flags.get("socket").is_some() {
                fail(&format!("--socket and --{tcp_flag} are mutually exclusive"));
            }
            Endpoint::tcp(addr)
        }
        None => Endpoint::unix(flags.get("socket").unwrap_or("target/xbcsim.sock")),
    }
}

fn cmd_serve(flags: &Flags) {
    let store = resolve_cache(flags).and_then(|cache| match xbc_store::Store::open(&cache) {
        Ok(store) => Some(std::sync::Arc::new(store)),
        Err(e) => {
            eprintln!("[xbc-store] cannot open {cache}: {e}; serving uncached");
            None
        }
    });
    let mut config = xbc_serve::ServeConfig::new(endpoint(flags, "listen"));
    config.threads = flags.get_usize("threads", 0);
    config.store = store;
    config.progress = true;
    config.max_connections = flags.get_usize("conn-cap", 64);
    let idle_ms = flags.get_usize("idle-timeout-ms", 0);
    config.idle_timeout = (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms as u64));
    if let Err(e) = xbc_serve::serve(&config) {
        fail(&format!("serve: {e}"));
    }
}

fn cmd_submit(flags: &Flags) {
    let endpoint = endpoint(flags, "connect");
    if flags.get_bool("ping", false) {
        match xbc_serve::ping(&endpoint) {
            Ok(()) => println!("pong from {endpoint}"),
            Err(e) => fail(&e),
        }
        return;
    }
    if flags.get_bool("shutdown", false) {
        match xbc_serve::shutdown(&endpoint) {
            Ok(draining) => {
                println!("daemon at {endpoint} shutting down ({draining} cells draining)");
            }
            Err(e) => fail(&e),
        }
        return;
    }
    let (traces, frontends, insts) = resolve_grid(flags);
    let priority = flags.get_usize("priority", 0);
    let priority =
        u32::try_from(priority).unwrap_or_else(|_| fail(&format!("bad --priority: {priority}")));
    let req = SweepRequest { traces, frontends, insts, priority };
    let outcome = xbc_serve::submit(&endpoint, &req).unwrap_or_else(|e| fail(&e));
    print_rows(&outcome.rows);
    write_artifacts(flags, &outcome.rows, &outcome.bench.to_json());
    if let Some(stats) = &outcome.store {
        eprintln!("[xbc-serve] store delta: {stats}");
    }
    if let Some(tier) = &outcome.tier {
        eprintln!(
            "[xbc-serve] memory tier: {} of {} cached cells served from memory ({} rows held)",
            tier.memory_cells, outcome.bench.cached_cells, tier.rows
        );
    }
    if let Some(sched) = &outcome.sched {
        eprintln!(
            "[xbc-serve] queue depth {} ({} enqueued, {} completed, {} deduped, {} retried, {} cancelled)",
            sched.queue_depth,
            sched.enqueued_cells,
            sched.completed_cells,
            sched.deduped_cells,
            sched.retried_cells,
            sched.cancelled_cells,
        );
    }
    eprintln!("[xbc-serve] {}", outcome.bench);
}

/// `capture` encodes straight to the XBT1 file through the chunked
/// streaming encoder: peak memory stays O(chunk) however large
/// `--insts` is, so giga-instruction captures (`--insts 1000000000` and
/// beyond) need no more RAM than a toy one. The bytes written are
/// identical to a resident capture-then-save.
fn cmd_capture(flags: &Flags) {
    let name = flags.get("trace").unwrap_or_else(|| fail("capture needs --trace"));
    let out = flags.get("out").unwrap_or_else(|| fail("capture needs --out"));
    // `--insts` is the documented spelling; `--inst` still works for
    // symmetry with `run`/`sweep`.
    let insts = match flags.get("insts") {
        Some(_) => flags.get_usize("insts", 0),
        None => flags.get_usize("inst", 100_000),
    };
    if insts == 0 {
        fail("capture needs --insts > 0");
    }
    let spec = standard_traces()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| fail(&format!("unknown trace: {name} (see `xbcsim list`)")));
    let f = File::create(out).unwrap_or_else(|e| fail(&format!("create {out}: {e}")));
    let mut w = std::io::BufWriter::new(f);
    let t0 = std::time::Instant::now();
    // Progress on stderr every ~1% (at least every 8M insts), so a
    // multi-minute giga-capture is visibly alive.
    let tick = (insts as u64 / 100).max(8 * 1024 * 1024);
    let mut next_tick = tick;
    let stats = spec
        .capture_streamed(insts, &mut w, |_chunk, done| {
            if done >= next_tick && done < insts as u64 {
                next_tick = (done / tick + 1) * tick;
                let secs = t0.elapsed().as_secs_f64();
                eprintln!(
                    "[capture] {done}/{insts} insts ({:.0}%, {:.1} Minsts/s)",
                    100.0 * done as f64 / insts as f64,
                    done as f64 / secs.max(1e-9) / 1e6,
                );
            }
        })
        .unwrap_or_else(|e| fail(&format!("capture {name}: {e}")));
    use std::io::Write as _;
    w.flush().unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "wrote {out}: {} insts, {} uops ({:.1} Minsts/s)",
        stats.insts,
        stats.uops,
        stats.insts as f64 / secs.max(1e-9) / 1e6,
    );
}

fn cmd_dot(flags: &Flags) {
    let name = flags.get("trace").unwrap_or_else(|| fail("dot needs --trace"));
    let k = flags.get_usize("function", 1);
    let spec = standard_traces()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| fail(&format!("unknown trace: {name}")));
    let program = spec.program();
    let entries = program.function_entries();
    if k >= entries.len() {
        fail(&format!("--function {k} out of range (program has {} functions)", entries.len()));
    }
    print!("{}", function_dot(&program, entries[k]));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let flags = Flags::parse(&args[1..]);
    match cmd.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&flags),
        "sweep" => cmd_sweep(&flags),
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags),
        "inspect" => cmd_inspect(&flags),
        "capture" => cmd_capture(&flags),
        "dot" => cmd_dot(&flags),
        _ => usage(),
    }
}
