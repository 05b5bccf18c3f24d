//! The benchmark's own arithmetic: latency percentiles, run-to-run
//! quartiles, failure tallies and span self time. Everything here is
//! pure so the unit tests at the bottom pin it down.

/// Percentiles the latency report may fall back to, lowest first.
pub const LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// A percentile is trusted only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products like 0.9 * 100 from rounding up a rank.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (in `0..=1`) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A latency class summarized for the report.
#[derive(Clone, Debug, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// The highest trusted percentile and its value (see
    /// [`highest_supported`]).
    pub tail: Option<(f64, f64)>,
}

impl Latency {
    /// Summarizes `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        Some(Latency {
            n,
            p50: percentile(&s, 0.5),
            p90: percentile(&s, 0.9),
            tail: highest_supported(n).map(|p| (p, percentile(&s, p))),
        })
    }

    /// One report line per percentile, each with its sample count.
    pub fn describe(&self, name: &str, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(
                "highest percentile with >={MIN_BEYOND} beyond: p{} = {v:.4} {unit}",
                pct(p)
            ),
            None => format!("no percentile has >={MIN_BEYOND} samples beyond it"),
        };
        format!(
            "{name}_p50 = {:.4} {unit} (n={}, {} beyond)\n{name}_p90 = {:.4} {unit} (n={}, {} beyond; {tail})",
            self.p50,
            self.n,
            beyond(self.n, 0.5),
            self.p90,
            self.n,
            beyond(self.n, 0.9),
        )
    }
}

/// `0.999` → `"99.9"`, `0.5` → `"50"`.
fn pct(p: f64) -> String {
    let s = format!("{:.1}", p * 100.0);
    s.strip_suffix(".0").map(str::to_owned).unwrap_or(s)
}

/// Median as Python's `statistics.median` computes it. `values` must be
/// non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them. `values` needs at least two entries.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len() as i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread that each metric's bound in `BENCHMARK.json` limits.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// How one attempted operation (a sweep cell, or a daemon request)
/// ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Completed, and its rows passed the check.
    Ok,
    /// The program returned an error.
    Errored,
    /// The daemon refused the connection (e.g. at its connection cap).
    Refused,
    /// Completed, but a row failed the output check.
    Mismatch,
}

/// Failure accounting: every attempted op counts once; anything but
/// [`Outcome::Ok`] counts as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed the output check.
    pub failed: u64,
}

impl Tally {
    /// Records `n` ops that all ended as `outcome`.
    pub fn record(&mut self, outcome: Outcome, n: u64) {
        self.attempted += n;
        if outcome != Outcome::Ok {
            self.failed += n;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed / attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Classifies a daemon client error message: a connection the daemon
/// turned away is refused, anything else errored.
pub fn classify_error(message: &str) -> Outcome {
    if message.contains("at capacity") {
        Outcome::Refused
    } else {
        Outcome::Errored
    }
}

/// Self time of a span over `[start, end)`: its length minus the part
/// of it that its children cover. Children may overlap each other (two
/// worker threads under one request) or stick out of the parent; only
/// their union inside the parent counts.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(c0, c1)| (c0.max(p0), c1.min(p1)))
        .filter(|(c0, c1)| c0 < c1)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (c0, c1) in clipped {
        run = match run {
            Some((r0, r1)) if c0 <= r1 => Some((r0, r1.max(c1))),
            Some((r0, r1)) => {
                covered += r1 - r0;
                Some((c0, c1))
            }
            None => Some((c0, c1)),
        };
    }
    if let Some((r0, r1)) = run {
        covered += r1 - r0;
    }
    (p1 - p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(40), Some(0.75));
        assert_eq!(highest_supported(99), Some(0.75));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in [20, 40, 100, 1000, 10_000] {
            let p = highest_supported(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        let l = Latency::of(&s.iter().rev().copied().collect::<Vec<_>>()).unwrap();
        assert_eq!((l.n, l.p50, l.p90), (100, 50.0, 90.0));
        assert_eq!(l.tail, Some((0.9, 90.0)));
        let text = l.describe("warm_req_ms", "ms");
        assert!(text.contains("n=100") && text.contains("10 beyond"), "{text}");
        assert!(Latency::of(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn errored_and_refused_requests_count_as_failed() {
        let mut t = Tally::default();
        t.record(Outcome::Ok, 5);
        t.record(classify_error("server at capacity (2 connections); retry later"), 1);
        t.record(classify_error("server closed the connection mid-response"), 1);
        t.record(Outcome::Mismatch, 1);
        assert_eq!(classify_error("server at capacity (1 connections)"), Outcome::Refused);
        assert_eq!(classify_error("connect: refused"), Outcome::Errored);
        assert_eq!(t, Tally { attempted: 8, failed: 3 });
        assert_eq!(t.fail_ratio(), 3.0 / 8.0);
        let mut u = Tally::default();
        assert_eq!(u.fail_ratio(), 0.0);
        u.merge(t);
        assert_eq!(u, t);
    }

    #[test]
    fn self_time_subtracts_covered_part_only() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Two disjoint children covering 30 + 20.
        assert_eq!(self_time((0, 100), &[(10, 40), (60, 80)]), 50);
        // Overlapping children count their union once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50), (45, 60)]), 50);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        // A child outside the parent does not count.
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        // Fully covered.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }
}
