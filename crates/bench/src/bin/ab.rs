//! A/B driver for the repository benchmark (`BENCHMARK.json`): builds a
//! base revision's perfbench beside the working tree's and runs them in
//! alternating pairs on shared seeds, then reports per metric each side's
//! median and quartiles, the median of the per-pair ratios, the pairs won
//! and a bootstrap 95% interval of that median ratio.
//!
//! ```text
//! ab --base REV --workload NAME
//!    [--pairs 10] [--seconds 20] [--first-seed 1001] [--work target/ab] [--out PATH]
//! ```
//!
//! The base is exported with `git archive REV` into `<work>/base` (a plain
//! copy: nothing is registered in `.git`, and a killed run leaves nothing
//! behind but files). Each side is built once with `cargo build --release
//! --offline` of its own `perfbench/Cargo.toml`, before any run is timed.
//! Pair `i` runs seed `first-seed + i` on both sides, base first in even
//! pairs and head first in odd ones, each run in a fresh working
//! directory. A run that exits non-zero or does not report `"correct":
//! true` is counted, and its pair is left out of the statistics. The
//! table goes to stdout and, as JSON, to `--out` (default
//! `results/BENCH_ab_<workload>.json`).
//!
//! On a shared host speed drifts over minutes, so only the pairing makes
//! two builds comparable: never compare numbers from separate batches,
//! and never run anything else heavy during a batch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use xbc_sim::json::Json;
use xbc_workload::Rng64;

/// Bootstrap resamples of the pairs.
const RESAMPLES: usize = 10_000;

struct Args {
    base: String,
    workload: String,
    pairs: usize,
    seconds: f64,
    first_seed: u64,
    work: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        base: String::new(),
        workload: String::new(),
        pairs: 10,
        seconds: 20.0,
        first_seed: 1001,
        work: PathBuf::from("target/ab"),
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--base" => a.base = value,
            "--workload" => a.workload = value,
            "--pairs" => a.pairs = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--first-seed" => a.first_seed = value.parse().map_err(|e| bad(&e))?,
            "--work" => a.work = PathBuf::from(value),
            "--out" => a.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err("name a --workload".into());
    }
    if a.base.is_empty() {
        return Err("name a --base revision".into());
    }
    if a.pairs == 0 {
        return Err("--pairs must be positive".into());
    }
    Ok(a)
}

/// Runs `cmd`, failing with its name if it cannot start or exits non-zero.
fn run(cmd: &mut Command) -> Result<(), String> {
    let status = cmd.status().map_err(|e| format!("{cmd:?}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{cmd:?} exited with {status}"))
    }
}

/// Exports `rev` into `dir` with `git archive`, replacing what was there.
fn export(rev: &str, dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut archive = Command::new("git")
        .args(["archive", "--format=tar", rev])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar = archive.stdout.take().expect("piped stdout");
    run(Command::new("tar").arg("-x").arg("-C").arg(dir).stdin(tar))?;
    let status = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !status.success() {
        return Err(format!("git archive {rev} exited with {status}"));
    }
    Ok(())
}

/// Builds the perfbench of the checkout at `dir`; returns its binary.
fn build(dir: &Path) -> Result<PathBuf, String> {
    let manifest = dir.join("perfbench/Cargo.toml");
    run(Command::new("cargo")
        .args(["build", "--quiet", "--release", "--offline", "--manifest-path"])
        .arg(&manifest))?;
    let bin = dir.join("perfbench/target/release/xbc-perfbench");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("no binary at {}", bin.display()))
    }
}

/// One perfbench run: its metrics, or why it does not count.
fn measure(bin: &Path, work: &Path, a: &Args, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    if work.exists() {
        std::fs::remove_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    }
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let out = Command::new(bin)
        .args(["--workload", &a.workload, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .current_dir(work)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    std::fs::remove_dir_all(work).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let doc = Json::parse(last).map_err(|e| format!("last line is not JSON: {e}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("did not report \"correct\": true".into());
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("no metrics object".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// The end-to-end metrics `BENCHMARK.json` declares: name → higher is better.
fn directions(benchmark: &Path) -> Result<BTreeMap<String, bool>, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = Json::parse(&text)?;
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", benchmark.display()));
    };
    Ok(metrics
        .iter()
        .filter_map(|m| {
            Some((m.get("name")?.as_str()?.to_owned(), m.get("better")?.as_str()? == "higher"))
        })
        .collect())
}

/// The `q`-quantile of `v` by linear interpolation (`v` non-empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Bootstrap 95% interval of the median of `ratios`.
fn bootstrap(ratios: &[f64], seed: u64) -> (f64, f64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let n = ratios.len();
    let medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            let sample: Vec<f64> = (0..n).map(|_| ratios[rng.uniform(n as u64) as usize]).collect();
            quantile(&sample, 0.5)
        })
        .collect();
    (quantile(&medians, 0.025), quantile(&medians, 0.975))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ab: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = ab(&a) {
        eprintln!("ab: {e}");
        std::process::exit(1);
    }
}

fn ab(a: &Args) -> Result<(), String> {
    let head_dir = std::env::current_dir().map_err(|e| e.to_string())?;
    let base_dir = head_dir.join(&a.work).join("base");
    eprintln!("ab: exporting {} into {}", a.base, base_dir.display());
    export(&a.base, &base_dir)?;
    let better_higher = directions(&head_dir.join("BENCHMARK.json"))?;
    eprintln!("ab: building base and head perfbench");
    let bins = [build(&base_dir)?, build(&head_dir)?];
    let runs = head_dir.join(&a.work).join("runs");

    // Per pair: the metrics of base and head, or the reason it is out.
    let mut pairs: Vec<[BTreeMap<String, f64>; 2]> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for i in 0..a.pairs {
        let seed = a.first_seed + i as u64;
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut got: [Option<BTreeMap<String, f64>>; 2] = [None, None];
        for side in order {
            let name = ["base", "head"][side];
            match measure(&bins[side], &runs.join(format!("{name}-{i}")), a, seed) {
                Ok(m) => got[side] = Some(m),
                Err(e) => failures.push(format!("pair {i} (seed {seed}) {name}: {e}")),
            }
        }
        match got {
            [Some(base), Some(head)] => {
                eprintln!(
                    "ab: pair {i} seed {seed}: {}",
                    better_higher
                        .keys()
                        .filter_map(|k| Some(format!("{k} {:.4}", head.get(k)? / base.get(k)?)))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                pairs.push([base, head]);
            }
            _ => eprintln!("ab: pair {i} seed {seed} left out"),
        }
    }
    std::fs::remove_dir_all(&runs).ok();
    if pairs.is_empty() {
        return Err(format!("no complete pair: {}", failures.join("; ")));
    }

    println!(
        "{} — {} pairs at {} s (seeds {}..{}), base {} vs head {}",
        a.workload,
        pairs.len(),
        a.seconds,
        a.first_seed,
        a.first_seed + a.pairs as u64 - 1,
        a.base,
        head_dir.display()
    );
    println!(
        "{:<18} {:>28} {:>28} {:>8} {:>6} {:>17}",
        "metric", "base median [q1, q3]", "head median [q1, q3]", "ratio", "wins", "95% interval"
    );
    let mut rows = Vec::new();
    for (k, (name, &higher)) in better_higher.iter().enumerate() {
        let both: Vec<(f64, f64)> =
            pairs.iter().filter_map(|[b, h]| Some((*b.get(name)?, *h.get(name)?))).collect();
        // A metric a workload reports as 0 (say, cold requests on
        // `replay`'s warm side) has no ratio to speak of.
        let ratios: Vec<f64> = both.iter().filter(|(b, _)| *b > 0.0).map(|(b, h)| h / b).collect();
        if both.is_empty() || ratios.is_empty() {
            continue;
        }
        let base: Vec<f64> = both.iter().map(|p| p.0).collect();
        let head: Vec<f64> = both.iter().map(|p| p.1).collect();
        let wins = both.iter().filter(|(b, h)| if higher { h > b } else { h < b }).count();
        let ratio = quantile(&ratios, 0.5);
        let (lo, hi) = bootstrap(&ratios, a.first_seed ^ k as u64);
        let q = |v: &[f64]| (quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75));
        let (bm, b1, b3) = q(&base);
        let (hm, h1, h3) = q(&head);
        println!(
            "{name:<18} {:>28} {:>28} {ratio:>8.4} {:>6} {:>17}",
            format!("{bm:.4} [{b1:.4}, {b3:.4}]"),
            format!("{hm:.4} [{h1:.4}, {h3:.4}]"),
            format!("{wins}/{}", both.len()),
            format!("[{lo:.4}, {hi:.4}]")
        );
        rows.push(format!(
            concat!(
                "    {{\"metric\": \"{}\", \"better\": \"{}\", \"pairs\": {}, ",
                "\"base\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}, ",
                "\"head\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}, ",
                "\"median_ratio\": {}, \"wins\": {}, \"ci95\": [{}, {}]}}"
            ),
            name,
            if higher { "higher" } else { "lower" },
            both.len(),
            json_num(bm),
            json_num(b1),
            json_num(b3),
            base.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(", "),
            json_num(hm),
            json_num(h1),
            json_num(h3),
            head.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(", "),
            json_num(ratio),
            wins,
            json_num(lo),
            json_num(hi)
        ));
    }
    for f in &failures {
        println!("failed: {f}");
    }
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("results/BENCH_ab_{}.json", a.workload)));
    let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let doc = format!(
        concat!(
            "{{\n  \"schema\": \"xbc-ab-v1\",\n  \"workload\": {},\n  \"base\": {},\n",
            "  \"seconds\": {},\n  \"first_seed\": {},\n  \"pairs\": {},\n",
            "  \"failures\": [{}],\n  \"metrics\": [\n{}\n  ]\n}}\n"
        ),
        quoted(&a.workload),
        quoted(&a.base),
        a.seconds,
        a.first_seed,
        pairs.len(),
        failures.iter().map(|f| quoted(f)).collect::<Vec<_>>().join(", "),
        rows.join(",\n")
    );
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("ab: wrote {}", out.display());
    Ok(())
}
