//! Golden capture table: the `.xbt` bytes and `ExecStats` of every
//! standard trace at 20k instructions, pinned to recorded values.
//!
//! `tests/capture_identity.rs` proves streamed and resident capture agree
//! with each other; this test proves both still agree with the past. Any
//! change to the program generator, the executor or the encoder that
//! moves a single RNG draw or byte fails here, naming every trace that
//! differs and printing its replacement row. A deliberate generator
//! change must re-record [`GOLDEN`] on purpose (and regenerate every
//! figure under `results/`, whose numbers move with it).

use std::io::Cursor;

use xbc_store::fnv1a64;
use xbc_workload::{standard_traces, ExecStats};

/// Instructions captured per trace.
const INSTS: usize = 20_000;

/// One recorded capture: trace name, byte length and FNV-1a 64 hash of
/// the XBT1 file, then the executor's
/// `(insts, uops, elided_calls, wrapped_returns, interrupts)`.
type Golden = (&'static str, usize, u64, [u64; 5]);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("spec.compress", 49337, 0x1140e3c7b87d648f, [20000, 29932, 0, 0, 0]),
    ("spec.gcc", 49215, 0xb938cca49e5a3050, [20000, 31776, 0, 0, 0]),
    ("spec.go", 47882, 0x35b43ad481d34783, [20000, 28814, 0, 0, 0]),
    ("spec.ijpeg", 50067, 0x6743e40334dfe9c3, [20000, 29922, 0, 0, 0]),
    ("spec.li", 50865, 0x7913a36661bc48b3, [20000, 29184, 0, 0, 0]),
    ("spec.m88ksim", 49420, 0x4ece4246343b93bd, [20000, 31286, 0, 0, 0]),
    ("spec.perl", 48434, 0xc1bdf48a713b9362, [20000, 28171, 0, 0, 0]),
    ("spec.vortex", 49108, 0x223b7036fa386ac9, [20000, 30813, 0, 0, 0]),
    ("sys.winword", 50358, 0x96854107da7c64f2, [20000, 30159, 0, 0, 2]),
    ("sys.excel", 48270, 0xa3bbc32e5fc3dc0c, [20000, 28041, 0, 0, 3]),
    ("sys.powerpnt", 50151, 0xdfb0b09d2d3c622a, [20000, 30571, 0, 0, 3]),
    ("sys.access", 50041, 0xe0cc0bd415ee7472, [20000, 30782, 0, 0, 3]),
    ("sys.pagemaker", 48340, 0x8d6f9104d2fbe104, [20000, 30356, 0, 0, 2]),
    ("sys.coreldraw", 48225, 0xc59f6b8dce258241, [20000, 29962, 0, 0, 3]),
    ("sys.paradox", 51088, 0x42ebcd2f94d7d242, [20000, 31113, 0, 0, 3]),
    ("sys.freelance", 49967, 0x3bd3152f2b34d4bc, [20000, 30083, 0, 0, 3]),
    ("games.quake", 47531, 0x3154b6cca9b79e7d, [20000, 33184, 0, 0, 1]),
    ("games.hexen", 51092, 0x9d8c62e5da6cfbe2, [20000, 32764, 0, 0, 1]),
    ("games.monster", 49352, 0xbe5ddc2f8b6edd7f, [20000, 34633, 0, 0, 2]),
    ("games.jedi", 48134, 0x51ac99788bb26119, [20000, 32931, 0, 0, 1]),
    ("games.flightsim", 47815, 0xd654eabe574ee21a, [20000, 34531, 0, 0, 2]),
];

fn stats_row(s: ExecStats) -> [u64; 5] {
    [s.insts, s.uops, s.elided_calls, s.wrapped_returns, s.interrupts]
}

fn row_text(name: &str, bytes: &[u8], stats: [u64; 5]) -> String {
    format!("    ({name:?}, {}, 0x{:016x}, {stats:?}),", bytes.len(), fnv1a64(bytes))
}

#[test]
fn standard_captures_match_the_golden_table() {
    let specs = standard_traces();
    assert_eq!(GOLDEN.len(), specs.len(), "golden table must cover every standard trace");
    let mut mismatches = Vec::new();
    for (spec, &(name, len, hash, stats)) in specs.iter().zip(GOLDEN) {
        assert_eq!(spec.name, name, "golden table is out of suite order");

        let trace = spec.capture(INSTS);
        let mut resident = Vec::new();
        trace.save(&mut resident).unwrap();
        let resident_stats = stats_row(trace.exec_stats());

        let mut streamed = Vec::new();
        let streamed_stats =
            stats_row(spec.capture_streamed(INSTS, Cursor::new(&mut streamed), |_, _| {}).unwrap());

        for (path, bytes, got) in
            [("resident", &resident, resident_stats), ("streamed", &streamed, streamed_stats)]
        {
            if bytes.len() != len || fnv1a64(bytes) != hash || got != stats {
                mismatches.push(format!(
                    "{name} ({path}) differs; recorded row would now read:\n{}",
                    row_text(name, bytes, got)
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "captures moved off the golden table:\n{}",
        mismatches.join("\n")
    );
}
