//! Streamed capture is *byte-identical* to resident capture-then-save
//! for every trace in the standard suite (DESIGN.md §16).
//!
//! This is the contract everything downstream leans on: the
//! content-addressed store, the CRC-validated XBT1 reader, and the
//! byte-level dedup between a daemon's streamed capture and a sweep's
//! resident one all assume the two paths produce the same file. The
//! streaming encoder writes the header before the run's `ExecStats`
//! exist and backpatches them (combining the record CRC with
//! `crc32_combine`), so identity is asserted here over the whole suite
//! rather than trusted.

use std::io::Cursor;

use xbc_workload::{standard_traces, InstSource, TraceStream};

#[test]
fn streamed_capture_is_byte_identical_for_every_standard_trace() {
    const INSTS: usize = 20_000;
    for spec in standard_traces() {
        // Resident: capture into memory, then serialize.
        let resident = {
            let trace = spec.capture(INSTS);
            let mut buf = Vec::new();
            trace.save(&mut buf).unwrap();
            buf
        };

        // Streamed: encode chunks as they execute, never holding the
        // whole instruction vector; the chunk callback re-checks the
        // running instruction count on the way through.
        let mut streamed = Vec::new();
        let mut seen = 0u64;
        let stats = spec
            .capture_streamed(INSTS, Cursor::new(&mut streamed), |chunk, done| {
                seen += chunk.len() as u64;
                assert_eq!(seen, done, "{}: chunk totals drifted", spec.name);
            })
            .unwrap();
        assert_eq!(seen, INSTS as u64, "{}: chunks did not cover the capture", spec.name);
        assert_eq!(stats.insts, INSTS as u64, "{}: stats inst count", spec.name);

        assert_eq!(
            resident.len(),
            streamed.len(),
            "{}: streamed and resident encodings differ in length",
            spec.name
        );
        assert!(
            resident == streamed,
            "{}: streamed capture is not byte-identical to resident capture",
            spec.name
        );

        // And the bytes are a valid, CRC-clean XBT1 stream.
        let mut reader = TraceStream::new(&streamed[..]).unwrap();
        assert_eq!(reader.name(), spec.name);
        let mut n = 0u64;
        while let Some(d) = reader.next_inst() {
            assert!(d.uops() > 0);
            n += 1;
        }
        assert_eq!(n, INSTS as u64, "{}: decoded instruction count", spec.name);
        reader
            .finish()
            .unwrap_or_else(|e| panic!("{}: streamed capture fails to verify: {e}", spec.name));
    }
}
