//! The repository's benchmark: end-to-end and per-layer performance of
//! the XBC reproduction on three workloads (see `workloads.rs`).
//!
//! ```text
//! perfbench --workload replay|sweep_cold|serve_mix [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --stability K [--workload NAME]... [--seconds S] [--sets N] [--first-seed N]
//! ```
//!
//! A run prints a human-readable report and, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! traced phase runs instead and the metrics are the per-layer ones. A
//! failed output check makes the exit code 1.
//!
//! `--stability K` runs each workload K times (seeds `first-seed ..`) as
//! child processes and prints each end-to-end metric's median, quartiles
//! and spread against the bound in `BENCHMARK.json`; `--sets 2` runs a
//! second K runs on the next K seeds and checks that its median is not
//! worse than the first set's by more than the bound.

mod expected;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use report::Doc;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Workload};
use xbc_sim::json::Json;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    stability: Option<usize>,
    sets: usize,
    first_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        stability: None,
        sets: 1,
        first_seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workloads
                    .push(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse::<f64>().map_err(|e| format!("--seconds {v:?}: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--stability" => a.stability = Some(num(value()?)? as usize),
            "--sets" => a.sets = num(value()?)? as usize,
            "--first-seed" => a.first_seed = num(value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.stability.is_none() && a.workloads.len() != 1 {
        return Err("name exactly one --workload".into());
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.stability {
        Some(k) => stability(&args, k),
        None => run_once(&args),
    }
}

fn run_once(args: &Args) -> ExitCode {
    let w = args.workloads[0];
    let root = PathBuf::from(".bench_work");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: root.join(format!("{}-{}", w.name(), std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let result = if args.trace { workloads::run_traced(w, &ctx) } else { workloads::run(w, &ctx) };
    std::fs::remove_dir_all(&ctx.work).ok();
    std::fs::remove_dir(&root).ok();
    println!(
        "workload {} seed {} seconds {} trace {} (host parallelism {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &result.lines {
        println!("{line}");
    }
    const SHOWN: usize = 20;
    for e in result.errors.iter().take(SHOWN) {
        println!("CHECK FAILED: {e}");
        eprintln!("perfbench: check failed: {e}");
    }
    if result.errors.len() > SHOWN {
        println!("CHECK FAILED: ... and {} more", result.errors.len() - SHOWN);
    }
    println!(
        "fail_ratio = {} ({} failed / {} attempted)",
        result.tally.fail_ratio(),
        result.tally.failed,
        result.tally.attempted
    );
    let doc = Doc {
        correct: result.errors.is_empty() && result.tally.failed == 0,
        attempted: result.tally.attempted,
        failed: result.tally.failed,
        metrics: result.metrics,
    };
    println!("{}", doc.to_json());
    if doc.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// (better, bound) of each end-to-end metric in `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, (String, f64)> {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let Ok(j) = Json::parse(&text) else { return BTreeMap::new() };
    let list = j.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]);
    list.iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                (m.get("better")?.as_str()?.to_owned(), m.get("bound")?.as_f64()?),
            ))
        })
        .collect()
}

/// One child run; its metrics, or why it failed.
fn child_run(w: Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let j =
        Json::parse(last).map_err(|e| format!("{e}: {}", String::from_utf8_lossy(&out.stderr)))?;
    if !out.status.success() || j.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run failed ({}): {stdout}", out.status));
    }
    let Some(Json::Obj(metrics)) = j.get("metrics") else { return Err("no metrics".into()) };
    Ok(metrics.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect())
}

fn stability(args: &Args, k: usize) -> ExitCode {
    let bounds = bounds();
    let mut flagged = false;
    for &w in &args.workloads {
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = Vec::new();
        for set in 0..args.sets {
            let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            for i in 0..k {
                let seed = args.first_seed + (set * k + i) as u64;
                match child_run(w, seed, args.seconds) {
                    Ok(m) => {
                        for (name, v) in m {
                            values.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        println!("{} set {set} seed {seed}: {e}", w.name());
                        flagged = true;
                    }
                }
            }
            sets.push(values);
        }
        println!("== {} ({k} runs per set, {} s each)", w.name(), args.seconds);
        for name in sets[0].keys() {
            let (better, bound) = bounds.get(name).cloned().unwrap_or(("?".into(), f64::NAN));
            let mut medians = Vec::new();
            for (set, values) in sets.iter().enumerate() {
                let Some(vals) = values.get(name).filter(|v| v.len() >= 2) else { continue };
                let (q1, q3) = stats::quartiles(vals);
                let med = stats::median(vals);
                let spread = stats::spread(vals);
                // The spread of set-up time is reported, not gated.
                let over = spread > bound && name != "setup_s";
                flagged |= over;
                println!(
                    "{name:<18} set {set}: median {med:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  spread {:>6.2}%  bound {:>5.1}%{}",
                    spread * 100.0,
                    bound * 100.0,
                    if over {
                        "  SPREAD EXCEEDS BOUND"
                    } else if spread > bound / 3.0 {
                        "  (above bound/3)"
                    } else {
                        ""
                    }
                );
                let raw: Vec<String> = vals.iter().map(|v| format!("{v:.4}")).collect();
                println!("{:<18}        runs: {}", "", raw.join(" "));
                medians.push(med);
            }
            if let [first, second, ..] = medians[..] {
                let worse = if better == "higher" {
                    (first - second) / first
                } else {
                    (second - first) / first
                };
                let bad = worse > bound;
                flagged |= bad;
                println!(
                    "{name:<18} set 1 median is {:+.2}% worse than set 0{}",
                    worse * 100.0,
                    if bad { "  REGRESSION BEYOND BOUND" } else { "" }
                );
            }
        }
    }
    if flagged {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
