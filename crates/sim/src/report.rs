//! Result rows and table rendering.

use crate::json::{escape_into, push_u64, Json, Reader, Token};
use crate::spec::FrontendSpec;
use std::fmt::Write as _;
use xbc_frontend::FrontendMetrics;

/// A row's members in encoding order, for both the encoder and the
/// decoder: two names, the spec, then the numbers (`f64` at 6..9,
/// integers elsewhere).
const FIELDS: [&str; 15] = [
    "trace",
    "suite",
    "frontend",
    "insts",
    "uops",
    "cycles",
    "miss_rate",
    "bandwidth",
    "uops_per_cycle",
    "cond_mispredicts",
    "target_mispredicts",
    "delivery_to_build",
    "bank_conflict_uops",
    "promotions",
    "elapsed_ms",
];

/// One (trace × frontend) simulation result.
#[derive(Clone, Debug)]
pub struct Row {
    /// Trace name (e.g. `"spec.gcc"`).
    pub trace: String,
    /// Suite name.
    pub suite: String,
    /// Frontend configuration.
    pub frontend: FrontendSpec,
    /// Dynamic instructions replayed.
    pub insts: usize,
    /// Total uops delivered.
    pub uops: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// The paper's uop miss rate (fraction of uops from the IC).
    pub miss_rate: f64,
    /// The paper's delivery bandwidth (structure uops per delivery cycle).
    pub bandwidth: f64,
    /// Overall uops per cycle.
    pub uops_per_cycle: f64,
    /// Conditional mispredictions.
    pub cond_mispredicts: u64,
    /// Target (indirect/return/mis-fetch) mispredictions.
    pub target_mispredicts: u64,
    /// Delivery→build transitions.
    pub delivery_to_build: u64,
    /// Uop-slots lost to bank conflicts (XBC only).
    pub bank_conflict_uops: u64,
    /// Branch promotions (XBC only).
    pub promotions: u64,
    /// Wall-clock milliseconds spent producing this row (capture share +
    /// simulation). For cache hits this is the *original* cost, not the
    /// (near-zero) lookup cost.
    pub elapsed_ms: u64,
}

impl Row {
    /// Builds a row from raw metrics.
    pub fn new(
        trace: &str,
        suite: &str,
        frontend: FrontendSpec,
        insts: usize,
        m: &FrontendMetrics,
    ) -> Self {
        Row {
            trace: trace.to_owned(),
            suite: suite.to_owned(),
            frontend,
            insts,
            uops: m.total_uops(),
            cycles: m.cycles,
            miss_rate: m.uop_miss_rate(),
            bandwidth: m.delivery_bandwidth(),
            uops_per_cycle: m.overall_uops_per_cycle(),
            cond_mispredicts: m.cond_mispredicts,
            target_mispredicts: m.target_mispredicts,
            delivery_to_build: m.delivery_to_build,
            bank_conflict_uops: m.bank_conflict_uops,
            promotions: m.promotions,
            elapsed_ms: 0,
        }
    }

    /// Serializes this row as a JSON object, indented by `indent` spaces.
    ///
    /// Field order is fixed, `f64` fields use Rust's shortest-roundtrip
    /// formatting, and `u64` counters stay integral — so the encoding is
    /// deterministic and `from_json` recovers the exact row.
    pub fn to_json(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write_json(&mut out, Some(indent));
        out
    }

    /// Appends this row as one JSON object to `out`: with `Some(indent)`
    /// the multi-line layout of [`Row::to_json`], with `None` the
    /// single-line wire layout. Both carry the same fields in the same
    /// order with the same value text; only whitespace differs.
    pub fn write_json(&self, out: &mut String, indent: Option<usize>) {
        // Writes the separator and the name of the next member of FIELDS.
        let mut next = 0;
        let mut key = |out: &mut String| {
            if next > 0 {
                out.push(',');
            }
            if let Some(n) = indent {
                out.push('\n');
                pad(out, n + 2);
            }
            out.push('"');
            out.push_str(FIELDS[next]);
            out.push_str(if indent.is_some() { "\": " } else { "\":" });
            next += 1;
        };
        out.push('{');
        for name in [&self.trace, &self.suite] {
            key(out);
            out.push('"');
            escape_into(out, name);
            out.push('"');
        }
        key(out);
        self.frontend.write_json(out);
        for v in [self.insts as u64, self.uops, self.cycles] {
            key(out);
            push_u64(out, v);
        }
        for v in [self.miss_rate, self.bandwidth, self.uops_per_cycle] {
            key(out);
            let _ = write!(out, "{v}");
        }
        for v in [
            self.cond_mispredicts,
            self.target_mispredicts,
            self.delivery_to_build,
            self.bank_conflict_uops,
            self.promotions,
            self.elapsed_ms,
        ] {
            key(out);
            push_u64(out, v);
        }
        if let Some(n) = indent {
            out.push('\n');
            pad(out, n);
        }
        out.push('}');
    }

    /// Reconstructs a row from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(j: &Json) -> Result<Row, String> {
        fn str_field(j: &Json, k: &str) -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("row missing {k}"))
        }
        fn u64_field(j: &Json, k: &str) -> Result<u64, String> {
            j.get(k).and_then(Json::as_u64).ok_or_else(|| format!("row missing {k}"))
        }
        fn f64_field(j: &Json, k: &str) -> Result<f64, String> {
            j.get(k).and_then(Json::as_f64).ok_or_else(|| format!("row missing {k}"))
        }
        Ok(Row {
            trace: str_field(j, "trace")?,
            suite: str_field(j, "suite")?,
            frontend: FrontendSpec::from_json(j.get("frontend").ok_or("row missing frontend")?)?,
            insts: j.get("insts").and_then(Json::as_usize).ok_or("row missing insts")?,
            uops: u64_field(j, "uops")?,
            cycles: u64_field(j, "cycles")?,
            miss_rate: f64_field(j, "miss_rate")?,
            bandwidth: f64_field(j, "bandwidth")?,
            uops_per_cycle: f64_field(j, "uops_per_cycle")?,
            cond_mispredicts: u64_field(j, "cond_mispredicts")?,
            target_mispredicts: u64_field(j, "target_mispredicts")?,
            delivery_to_build: u64_field(j, "delivery_to_build")?,
            bank_conflict_uops: u64_field(j, "bank_conflict_uops")?,
            promotions: u64_field(j, "promotions")?,
            elapsed_ms: u64_field(j, "elapsed_ms")?,
        })
    }

    /// Reads one row object from `r` without building a tree.
    ///
    /// Accepts exactly what [`Row::from_json`] accepts from the same
    /// text, with the same values: members in any order, unknown members
    /// skipped, and the first of two members with one name deciding (as
    /// [`Json::get`] does). The outer `Err` is malformed JSON, after
    /// which `r` is unusable; the inner `Err` is well-formed JSON that is
    /// not a row, read to its end so the caller can go on.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed input.
    pub fn read_json(r: &mut Reader<'_>) -> Result<Result<Row, String>, String> {
        let head = r.value()?;
        if head != Token::Obj {
            r.skip(head)?;
            return Ok(Err("row is not an object".into()));
        }
        // Each slot is `None` until its first member, then that
        // member's value, `None` inside when it has the wrong type.
        // Numbers keep their literal until the row is assembled.
        let (mut trace, mut suite, mut frontend) = (None, None, None);
        let mut nums: [Option<Option<&str>>; 12] = [None; 12];
        let mut next = 0;
        let mut first = true;
        while let Some(k) = r.next_key(first)? {
            first = false;
            // Members usually come in encoding order: try the next
            // field's name before searching.
            let field = if FIELDS.get(next) == Some(&&*k) {
                Some(next)
            } else {
                FIELDS.iter().position(|f| *f == k)
            };
            next = field.map_or(next, |i| i + 1);
            match field {
                Some(0) if trace.is_none() => trace = Some(r.str_value()?),
                Some(1) if suite.is_none() => suite = Some(r.str_value()?),
                Some(2) if frontend.is_none() => frontend = Some(FrontendSpec::read_json(r)?),
                Some(i @ 3..) if nums[i - 3].is_none() => {
                    nums[i - 3] = Some(match r.value()? {
                        Token::Num(n) => Some(n),
                        head => {
                            r.skip(head)?;
                            None
                        }
                    });
                }
                _ => r.skip_value()?,
            }
        }
        let missing = |i: usize| format!("row missing {}", FIELDS[i]);
        let num = |i: usize| nums[i - 3].flatten().ok_or_else(|| missing(i));
        let int = |i: usize| num(i)?.parse::<u64>().map_err(|_| missing(i));
        let float = |i: usize| num(i)?.parse::<f64>().map_err(|_| missing(i));
        let row = || -> Result<Row, String> {
            Ok(Row {
                trace: trace.flatten().ok_or_else(|| missing(0))?.into_owned(),
                suite: suite.flatten().ok_or_else(|| missing(1))?.into_owned(),
                frontend: frontend.ok_or_else(|| missing(2))??,
                insts: num(3)?.parse::<usize>().map_err(|_| missing(3))?,
                uops: int(4)?,
                cycles: int(5)?,
                miss_rate: float(6)?,
                bandwidth: float(7)?,
                uops_per_cycle: float(8)?,
                cond_mispredicts: int(9)?,
                target_mispredicts: int(10)?,
                delivery_to_build: int(11)?,
                bank_conflict_uops: int(12)?,
                promotions: int(13)?,
                elapsed_ms: int(14)?,
            })
        };
        Ok(row())
    }
}

/// Uop-weighted average miss rate over a set of rows.
pub fn average_miss_rate(rows: &[Row]) -> f64 {
    let total: u64 = rows.iter().map(|r| r.uops).sum();
    if total == 0 {
        return 0.0;
    }
    rows.iter().map(|r| r.miss_rate * r.uops as f64).sum::<f64>() / total as f64
}

/// Delivery-cycle-weighted average bandwidth over a set of rows.
pub fn average_bandwidth(rows: &[Row]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.bandwidth).sum::<f64>() / rows.len() as f64
}

/// Renders a fixed-width table: one row per trace, one column per frontend
/// label, cell = `select(row)`. Frontends appear in first-seen order.
pub fn pivot_table<F>(rows: &[Row], title: &str, select: F) -> String
where
    F: Fn(&Row) -> f64,
{
    let mut frontends: Vec<String> = Vec::new();
    let mut traces: Vec<String> = Vec::new();
    for r in rows {
        let label = r.frontend.label();
        if !frontends.contains(&label) {
            frontends.push(label);
        }
        if !traces.contains(&r.trace) {
            traces.push(r.trace.clone());
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<18}", "trace"));
    for f in &frontends {
        out.push_str(&format!("{f:>14}"));
    }
    out.push('\n');
    for t in &traces {
        out.push_str(&format!("{t:<18}"));
        for f in &frontends {
            let cell = rows
                .iter()
                .find(|r| &r.trace == t && r.frontend.label() == *f)
                .map(|r| format!("{:>14.3}", select(r)))
                .unwrap_or_else(|| format!("{:>14}", "-"));
            out.push_str(&cell);
        }
        out.push('\n');
    }
    // Column averages.
    out.push_str(&format!("{:<18}", "AVG"));
    for f in &frontends {
        let sel: Vec<&Row> = rows.iter().filter(|r| r.frontend.label() == *f).collect();
        let avg = if sel.is_empty() {
            0.0
        } else {
            sel.iter().map(|r| select(r)).sum::<f64>() / sel.len() as f64
        };
        out.push_str(&format!("{avg:>14.3}"));
    }
    out.push('\n');
    out
}

/// Serializes rows as pretty JSON (for EXPERIMENTS.md regeneration and
/// the xbc-store result cache).
pub fn to_json(rows: &[Row]) -> String {
    if rows.is_empty() {
        return "[]".to_owned();
    }
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        r.write_json(&mut out, Some(2));
    }
    out.push_str("\n]");
    out
}

/// Parses rows previously written by [`to_json`], reading each row
/// straight from the tokens ([`Row::read_json`]).
///
/// # Errors
///
/// Returns a message describing the first malformed row or field.
pub fn rows_from_json(s: &str) -> Result<Vec<Row>, String> {
    let mut r = Reader::new(s);
    if r.value()? != Token::Arr {
        return Err("expected a JSON array of rows".into());
    }
    let mut rows = Vec::new();
    while r.next_item(rows.is_empty())? {
        rows.push(Row::read_json(&mut r)??);
    }
    r.end()?;
    Ok(rows)
}

/// Appends `n` spaces to `out`.
fn pad(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n(' ', n));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(trace: &str, spec: FrontendSpec, miss: f64, uops: u64) -> Row {
        Row {
            trace: trace.into(),
            suite: "s".into(),
            frontend: spec,
            insts: 100,
            uops,
            cycles: 10,
            miss_rate: miss,
            bandwidth: 6.0,
            uops_per_cycle: 2.0,
            cond_mispredicts: 0,
            target_mispredicts: 0,
            delivery_to_build: 0,
            bank_conflict_uops: 0,
            promotions: 0,
            elapsed_ms: 0,
        }
    }

    #[test]
    fn weighted_average() {
        let rows = vec![row("a", FrontendSpec::Ic, 0.1, 100), row("b", FrontendSpec::Ic, 0.3, 300)];
        assert!((average_miss_rate(&rows) - 0.25).abs() < 1e-12);
        assert_eq!(average_miss_rate(&[]), 0.0);
    }

    #[test]
    fn table_layout() {
        let rows = vec![
            row("a", FrontendSpec::tc_default(), 0.5, 1),
            row("a", FrontendSpec::xbc_default(), 0.25, 1),
            row("b", FrontendSpec::tc_default(), 0.1, 1),
        ];
        let t = pivot_table(&rows, "demo", |r| r.miss_rate);
        assert!(t.contains("tc-32k"));
        assert!(t.contains("xbc-32k"));
        assert!(t.contains("0.500"));
        assert!(t.contains("0.250"));
        assert!(t.lines().last().unwrap().starts_with("AVG"));
        // Missing cell renders a dash.
        assert!(t.contains('-'));
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut r = row("spec.gcc", FrontendSpec::xbc_default(), 1.0 / 3.0, 12_345);
        r.elapsed_ms = 42;
        let rows = vec![r, row("a", FrontendSpec::Ic, 0.5, 10)];
        let json = to_json(&rows);
        let back = rows_from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].trace, "spec.gcc");
        assert_eq!(back[0].frontend, FrontendSpec::xbc_default());
        assert_eq!(back[0].miss_rate, rows[0].miss_rate);
        assert_eq!(back[0].elapsed_ms, 42);
        // Re-encoding the parsed rows is byte-identical: the format is a
        // fixed point, which is what lets cached and fresh sweeps agree.
        assert_eq!(to_json(&back), json);
        assert_eq!(to_json(&[]), "[]");
        assert!(rows_from_json("{\"not\":\"rows\"}").is_err());
    }
}
