//! Equivalence of the tree-free row codec with the tree path.
//!
//! Result rows are decoded straight from the JSON tokens
//! (`Row::read_json`, behind `rows_from_json` and
//! `protocol::parse_row_line`) and encoded by one appending encoder
//! (`Row::write_json`). The tree path — `Json::parse` then
//! `Row::from_json` — is the reference for decoding: on seeded rows of
//! every frontend kind, with escaped and non-ASCII names, extreme `f64`
//! values and `u64::MAX` counters, every truncation, every single-bit
//! flip and every substitution of a grammar or number byte in a stored
//! body and in a wire row line must decode to the same row (bit for
//! bit) or fail on both paths. Permuted,
//! unknown and duplicate members must be read the way `Json::get` reads
//! them. The `format!`-based encoders the codec replaced are kept below
//! as the reference for the encoded bytes.

use xbc_serve::protocol::{parse_row_line, push_row_line};
use xbc_sim::json::{escape, Json};
use xbc_sim::{rows_from_json, to_json, FrontendSpec, Row};
use xbc_workload::Rng64;

const NAMES: &[&str] = &[
    "spec.gcc",
    "games.quake",
    "q\"uote\\back\nnl\ttab\u{1}ctl",
    "ünïcödé—語😀",
    "",
    "/slash\u{7f}\u{1f}",
];

const FLOATS: &[f64] = &[0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.0 / 3.0, 0.1, 7.75];

fn spec(rng: &mut Rng64) -> FrontendSpec {
    let size = [0usize, 4096, 32 * 1024, usize::MAX][rng.gen_range(0usize..4)];
    let ways = rng.gen_range(0usize..5);
    match rng.gen_range(0u32..6) {
        0 => FrontendSpec::Ic,
        1 => FrontendSpec::UopCache { total_uops: size },
        2 => FrontendSpec::Bbtc { total_uops: size },
        3 => FrontendSpec::Tc { total_uops: size, ways },
        4 => FrontendSpec::Xbc { total_uops: size, ways, promotion: true },
        _ => FrontendSpec::Xbc { total_uops: size, ways, promotion: false },
    }
}

fn count(rng: &mut Rng64) -> u64 {
    match rng.gen_range(0u32..4) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.gen_range(0u64..1000),
        _ => rng.next_u64(),
    }
}

fn float(rng: &mut Rng64) -> f64 {
    if rng.gen_range(0u32..3) == 0 {
        f64::from_bits(rng.next_u64() >> 2) // finite, positive
    } else {
        FLOATS[rng.gen_range(0..FLOATS.len())]
    }
}

fn row(seed: u64) -> Row {
    let mut rng = Rng64::seed_from_u64(seed);
    Row {
        trace: NAMES[rng.gen_range(0..NAMES.len())].to_owned(),
        suite: NAMES[rng.gen_range(0..NAMES.len())].to_owned(),
        frontend: spec(&mut rng),
        insts: count(&mut rng) as usize,
        uops: count(&mut rng),
        cycles: count(&mut rng),
        miss_rate: float(&mut rng),
        bandwidth: float(&mut rng),
        uops_per_cycle: float(&mut rng),
        cond_mispredicts: count(&mut rng),
        target_mispredicts: count(&mut rng),
        delivery_to_build: count(&mut rng),
        bank_conflict_uops: count(&mut rng),
        promotions: count(&mut rng),
        elapsed_ms: count(&mut rng),
    }
}

/// Every field equal, `f64`s bit for bit.
fn same(a: &Row, b: &Row) -> bool {
    a.trace == b.trace
        && a.suite == b.suite
        && a.frontend == b.frontend
        && a.insts == b.insts
        && a.uops == b.uops
        && a.cycles == b.cycles
        && a.miss_rate.to_bits() == b.miss_rate.to_bits()
        && a.bandwidth.to_bits() == b.bandwidth.to_bits()
        && a.uops_per_cycle.to_bits() == b.uops_per_cycle.to_bits()
        && a.cond_mispredicts == b.cond_mispredicts
        && a.target_mispredicts == b.target_mispredicts
        && a.delivery_to_build == b.delivery_to_build
        && a.bank_conflict_uops == b.bank_conflict_uops
        && a.promotions == b.promotions
        && a.elapsed_ms == b.elapsed_ms
}

/// The tree path for a stored body.
fn tree_rows(s: &str) -> Result<Vec<Row>, String> {
    let doc = Json::parse(s)?;
    doc.as_arr().ok_or("not an array")?.iter().map(Row::from_json).collect()
}

/// The tree path for a response line, as the client read it before:
/// `Some` for a row line, `None` for another line type.
fn tree_row_line(s: &str) -> Result<Option<(usize, Row)>, String> {
    let j = Json::parse(s)?;
    if j.get("type").and_then(Json::as_str) != Some("row") {
        return Ok(None);
    }
    let index = j.get("index").and_then(Json::as_usize).ok_or("missing index")?;
    Ok(Some((index, Row::from_json(j.get("row").ok_or("missing row")?)?)))
}

fn check_body(body: &str) {
    match (rows_from_json(body), tree_rows(body)) {
        (Ok(a), Ok(b)) => assert!(
            a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same(x, y)),
            "rows differ on {body:?}"
        ),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("verdicts differ on {body:?}: typed {:?} tree {:?}", a.is_ok(), b.is_ok()),
    }
}

fn check_line(line: &str) {
    match (parse_row_line(line), tree_row_line(line)) {
        (Ok(None), Ok(None)) | (Err(_), Err(_)) => {}
        (Ok(Some((i, a))), Ok(Some((j, b)))) => {
            assert!(i == j && same(&a, &b), "rows differ on {line:?}")
        }
        (a, b) => panic!("verdicts differ on {line:?}: typed {a:?} tree {b:?}"),
    }
}

/// Every char-boundary prefix, every UTF-8-valid single-bit flip, and
/// every byte replaced by each byte that JSON's grammar or a number
/// literal gives a meaning to.
fn damage(doc: &str, check: fn(&str)) -> usize {
    let mut n = 0;
    for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
        check(&doc[..cut]);
        n += 1;
    }
    for at in 0..doc.len() {
        let flips = (0..8).map(|bit| doc.as_bytes()[at] ^ (1 << bit));
        for byte in flips.chain(*b"\"\\{}[],: .eE+-0") {
            let mut bytes = doc.as_bytes().to_vec();
            bytes[at] = byte;
            if let Ok(damaged) = String::from_utf8(bytes) {
                check(&damaged);
                n += 1;
            }
        }
    }
    n
}

fn wire_line(index: usize, r: &Row) -> String {
    let mut line = String::new();
    push_row_line(&mut line, index, r);
    line.pop(); // the newline
    line
}

#[test]
fn encoder_bytes_match_the_format_based_encoders() {
    for seed in 0..300 {
        let r = row(seed);
        let rows = [r.clone(), row(seed + 1000)];
        assert_eq!(to_json(&rows), reference::rows_to_json(&rows), "seed {seed}");
        for indent in [0, 2, 5] {
            assert_eq!(r.to_json(indent), reference::row_to_json(&r, indent), "seed {seed}");
        }
        assert_eq!(r.frontend.to_json(), reference::spec_to_json(&r.frontend), "seed {seed}");
        let mut wire = String::new();
        push_row_line(&mut wire, seed as usize, &r);
        let want = format!(
            "{{\"type\":\"row\",\"index\":{seed},\"row\":{}}}\n",
            reference::row_to_compact_json(&r)
        );
        assert_eq!(wire, want, "seed {seed}");
        // Both decoders read the encoder's output back exactly.
        let body = to_json(std::slice::from_ref(&r));
        assert!(same(&rows_from_json(&body).unwrap()[0], &r), "seed {seed}");
        let (index, back) = parse_row_line(wire.trim_end()).unwrap().expect("a row line");
        assert!(index == seed as usize && same(&back, &r), "seed {seed}");
    }
    assert_eq!(to_json(&[]), "[]");
}

#[test]
fn every_truncation_and_byte_flip_decodes_as_the_tree_does() {
    let mut checked = 0;
    for seed in 0..6 {
        let r = row(seed);
        checked += damage(&to_json(std::slice::from_ref(&r)), check_body);
        checked += damage(&wire_line(seed as usize, &r), check_line);
    }
    assert!(checked > 80_000, "too few variants checked: {checked}");
}

/// Members of one row as `("key":, value text)` pairs in encoding
/// order.
fn members(r: &Row) -> Vec<(String, String)> {
    let s = |v: &str| format!("\"{}\"", escape(v));
    [
        ("trace", s(&r.trace)),
        ("suite", s(&r.suite)),
        ("frontend", r.frontend.to_json()),
        ("insts", r.insts.to_string()),
        ("uops", r.uops.to_string()),
        ("cycles", r.cycles.to_string()),
        ("miss_rate", r.miss_rate.to_string()),
        ("bandwidth", r.bandwidth.to_string()),
        ("uops_per_cycle", r.uops_per_cycle.to_string()),
        ("cond_mispredicts", r.cond_mispredicts.to_string()),
        ("target_mispredicts", r.target_mispredicts.to_string()),
        ("delivery_to_build", r.delivery_to_build.to_string()),
        ("bank_conflict_uops", r.bank_conflict_uops.to_string()),
        ("promotions", r.promotions.to_string()),
        ("elapsed_ms", r.elapsed_ms.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (format!("\"{k}\":"), v))
    .collect()
}

#[test]
fn member_order_unknown_and_duplicate_members_read_as_the_tree_does() {
    const JUNK: &[&str] = &[
        "null",
        "true",
        "-1.5e3",
        "\"x\\u00e9\\\"\"",
        "[1, [2, {\"a\": []}], \"s\"]",
        "{\"kind\": \"xbc\", \"n\": {}}",
        "18446744073709551616",
        "\"0.5\"",
        "{}",
    ];
    let mut checked = 0;
    for seed in 0..200u64 {
        let mut rng = Rng64::seed_from_u64(0xC0DEC + seed);
        let r = row(seed);
        let mut m = members(&r);
        // Shuffle the members.
        for i in (1..m.len()).rev() {
            let j = rng.gen_range(0..=i);
            m.swap(i, j);
        }
        // Unknown members, duplicates with junk or valid values before
        // or after the original, and escaped spellings of real keys.
        for _ in 0..rng.gen_range(0usize..4) {
            let at = rng.gen_range(0..=m.len());
            let junk = JUNK[rng.gen_range(0..JUNK.len())].to_owned();
            let key = match rng.gen_range(0u32..4) {
                0 => "\"unknown\":".to_owned(),
                1 => m[rng.gen_range(0..m.len())].0.clone(),
                2 => "\"tr\\u0061ce\":".to_owned(),
                _ => "\"frontend\":".to_owned(),
            };
            m.insert(at, (key, junk));
        }
        if rng.gen_range(0u32..3) == 0 {
            let i = rng.gen_range(0..m.len());
            let dup = m[i].clone();
            m.insert(rng.gen_range(0..=m.len()), dup);
        }
        let ws = [" ", "", "\n  ", "\t"][rng.gen_range(0usize..4)];
        let body: Vec<String> = m.iter().map(|(k, v)| format!("{k}{ws}{v}")).collect();
        let obj = format!("{{{ws}{}{ws}}}", body.join(&format!(",{ws}")));
        check_body(&format!("[{ws}{obj}{ws}]"));
        check_line(&format!("{{\"index\":{seed},\"row\":{obj},\"type\":\"row\"}}"));
        check_line(&format!("{{\"type\":\"done\",\"row\":{obj}}}"));
        check_line(&format!("{{\"type\":\"done\",\"index\":1,\"type\":\"row\",\"row\":{obj}}}"));
        check_line(&format!("{{\"type\":\"row\",\"index\":\"1\",\"index\":2,\"row\":{obj}}}"));
        // A nested spec with its members permuted and padded.
        let spec = r.frontend.to_json();
        let spec_members = &spec[1..spec.len() - 1];
        let mut parts: Vec<&str> = spec_members.split(',').collect();
        parts.reverse();
        parts.push("\"kind\":\"zap\"");
        let permuted = obj.replace(&spec, &format!("{{{}}}", parts.join(",")));
        check_body(&format!("[{permuted}]"));
        checked += 5;
    }
    // Non-row shapes: both paths refuse them the same way.
    for doc in ["[]", "[1]", "{}", "[{}]", "[[]]", "[null]", " [ ] "] {
        check_body(doc);
    }
    for line in ["{}", "[]", "{\"type\":\"row\"}", "{\"type\":\"row\",\"index\":0,\"row\":{}}", "1"]
    {
        check_line(line);
    }
    assert!(checked >= 1000);
}

/// The `format!`-based encoders the appending encoder replaced, kept
/// verbatim apart from names as the reference for its bytes.
mod reference {
    use xbc_sim::json::escape;
    use xbc_sim::{FrontendSpec, Row};

    pub fn spec_to_json(s: &FrontendSpec) -> String {
        match *s {
            FrontendSpec::Ic => "{\"kind\":\"ic\"}".to_owned(),
            FrontendSpec::UopCache { total_uops } => {
                format!("{{\"kind\":\"uop\",\"total_uops\":{total_uops}}}")
            }
            FrontendSpec::Bbtc { total_uops } => {
                format!("{{\"kind\":\"bbtc\",\"total_uops\":{total_uops}}}")
            }
            FrontendSpec::Tc { total_uops, ways } => {
                format!("{{\"kind\":\"tc\",\"total_uops\":{total_uops},\"ways\":{ways}}}")
            }
            FrontendSpec::Xbc { total_uops, ways, promotion } => format!(
                "{{\"kind\":\"xbc\",\"total_uops\":{total_uops},\"ways\":{ways},\"promotion\":{promotion}}}"
            ),
        }
    }

    pub fn row_to_json(r: &Row, indent: usize) -> String {
        let pad = " ".repeat(indent + 2);
        let fields = [
            ("trace", format!("\"{}\"", escape(&r.trace))),
            ("suite", format!("\"{}\"", escape(&r.suite))),
            ("frontend", spec_to_json(&r.frontend)),
            ("insts", r.insts.to_string()),
            ("uops", r.uops.to_string()),
            ("cycles", r.cycles.to_string()),
            ("miss_rate", format!("{}", r.miss_rate)),
            ("bandwidth", format!("{}", r.bandwidth)),
            ("uops_per_cycle", format!("{}", r.uops_per_cycle)),
            ("cond_mispredicts", r.cond_mispredicts.to_string()),
            ("target_mispredicts", r.target_mispredicts.to_string()),
            ("delivery_to_build", r.delivery_to_build.to_string()),
            ("bank_conflict_uops", r.bank_conflict_uops.to_string()),
            ("promotions", r.promotions.to_string()),
            ("elapsed_ms", r.elapsed_ms.to_string()),
        ];
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{pad}\"{k}\": {v}")).collect();
        format!("{{\n{}\n{}}}", body.join(",\n"), " ".repeat(indent))
    }

    pub fn rows_to_json(rows: &[Row]) -> String {
        if rows.is_empty() {
            return "[]".to_owned();
        }
        let body: Vec<String> = rows.iter().map(|r| format!("  {}", row_to_json(r, 2))).collect();
        format!("[\n{}\n]", body.join(",\n"))
    }

    pub fn row_to_compact_json(r: &Row) -> String {
        format!(
            "{{\"trace\":\"{}\",\"suite\":\"{}\",\"frontend\":{},\"insts\":{},\"uops\":{},\
             \"cycles\":{},\"miss_rate\":{},\"bandwidth\":{},\"uops_per_cycle\":{},\
             \"cond_mispredicts\":{},\"target_mispredicts\":{},\"delivery_to_build\":{},\
             \"bank_conflict_uops\":{},\"promotions\":{},\"elapsed_ms\":{}}}",
            escape(&r.trace),
            escape(&r.suite),
            spec_to_json(&r.frontend),
            r.insts,
            r.uops,
            r.cycles,
            r.miss_rate,
            r.bandwidth,
            r.uops_per_cycle,
            r.cond_mispredicts,
            r.target_mispredicts,
            r.delivery_to_build,
            r.bank_conflict_uops,
            r.promotions,
            r.elapsed_ms,
        )
    }
}
