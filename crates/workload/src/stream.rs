//! Streaming instruction sources.
//!
//! The paper's traces are 30M instructions; server-class follow-ups
//! (ROADMAP item 3) want billions. Holding a `Vec<DynInst>` per trace
//! caps what a host can replay, so the replay path also accepts an
//! [`InstSource`]: a pull-based producer of committed instructions that
//! the oracle cursor consumes through a bounded sliding window, keeping
//! host memory O(window) instead of O(trace).
//!
//! [`TraceStream`] adapts the `XBT1` streaming decoder
//! ([`crate::codec::TraceReader`]) into an `InstSource`, so a trace on
//! disk replays without ever being materialized. [`IterSource`] adapts
//! any in-memory iterator (tests, generators).
//!
//! The window refills in batches through [`InstSource::fill`]: a
//! `TraceStream` decodes a batch straight out of its read block and a
//! [`ChannelSource`] copies one from its current chunk, so the oracle
//! pays one dynamic call per batch instead of one per instruction.

use crate::codec::{TraceError, TraceReader};
use crate::exec::{DynInst, ExecStats};
use std::io::Read;
use std::sync::mpsc;

/// Chunk-queue depth of a capture/replay overlap channel (see
/// [`ChannelSource::bounded`]): small enough that a stalled consumer
/// backpressures the producer at O(chunks) memory, large enough that
/// neither side stalls on normal jitter.
pub const CHANNEL_DEPTH: usize = 4;

/// A pull-based producer of committed dynamic instructions.
///
/// The contract is exactly `Iterator<Item = DynInst>` minus the blanket
/// machinery: `next_inst` returns instructions in committed order and
/// `None` once — permanently — at end of stream. Sources are consumed
/// by `OracleStream::streaming` (in `xbc-frontend`), which buffers a
/// bounded lookahead window on top.
pub trait InstSource {
    /// The next committed instruction, or `None` at end of stream.
    fn next_inst(&mut self) -> Option<DynInst>;

    /// Appends up to `max` of the next committed instructions to `out`
    /// and returns how many it appended: the same sequence `next_inst`
    /// would yield, in batches. It may return fewer than `max` before the
    /// end of the stream, but returns 0 for `max > 0` only at the end.
    /// The default loops over `next_inst`.
    fn fill(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let start = out.len();
        while out.len() - start < max {
            match self.next_inst() {
                Some(d) => out.push(d),
                None => break,
            }
        }
        out.len() - start
    }

    /// Diagnostic name of the stream (trace name where known).
    fn source_name(&self) -> &str {
        "<stream>"
    }
}

/// Streams a serialized `XBT1` trace as an [`InstSource`], decoding out
/// of one read block — O(block) memory however long the trace is.
///
/// Every record is decoded with all its structural checks and the CRC
/// trailer is verified as the stream reaches it, so one pass both feeds
/// the replay and validates the bytes. The stream never panics on
/// corruption: the first record, CRC or I/O error ends it (the source
/// reports end of stream from then on) and is kept for
/// [`TraceStream::finish`], the verdict. Instructions yielded before the
/// error are unvalidated, so a replay's result may be published only
/// after `finish` returns `Ok` — the store's `replay_trace_stream` does
/// exactly that for every store-backed replay.
///
/// # Examples
///
/// ```
/// use xbc_workload::{standard_traces, InstSource, TraceStream};
///
/// let trace = standard_traces()[0].capture(500);
/// let mut buf = Vec::new();
/// trace.save(&mut buf).unwrap();
/// let mut stream = TraceStream::new(buf.as_slice()).unwrap();
/// assert_eq!(stream.name(), trace.name());
/// assert_eq!(stream.inst_count(), 500);
/// while stream.next_inst().is_some() {}
/// stream.finish().expect("intact trace");
/// ```
pub struct TraceStream<R: Read> {
    reader: TraceReader<R>,
    /// The error that ended the stream, held for [`TraceStream::finish`].
    error: Option<TraceError>,
}

impl<R: Read> TraceStream<R> {
    /// Opens a stream over serialized trace bytes, validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on a bad magic, malformed header or
    /// format-version mismatch.
    pub fn new(input: R) -> Result<Self, TraceError> {
        Ok(TraceStream { reader: TraceReader::new(input)?, error: None })
    }

    /// Trace name from the header.
    pub fn name(&self) -> &str {
        self.reader.name()
    }

    /// Dynamic instruction count declared in the header.
    pub fn inst_count(&self) -> u64 {
        self.reader.inst_count()
    }

    /// Executor statistics recorded at capture time.
    pub fn exec_stats(&self) -> ExecStats {
        self.reader.exec_stats()
    }

    /// The verdict on the whole stream: `Ok` if every record decoded and
    /// the CRC trailer matched. Decodes whatever the replay left unread
    /// first (normally nothing but the trailer).
    ///
    /// # Errors
    ///
    /// Returns the error that ended the stream early, or the one found
    /// in its unread rest: truncation, field corruption, CRC mismatch,
    /// trailing bytes or an I/O failure.
    pub fn finish(mut self) -> Result<(), TraceError> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.reader.skip_rest(),
        }
    }
}

impl<R: Read> InstSource for TraceStream<R> {
    fn next_inst(&mut self) -> Option<DynInst> {
        match self.reader.next()? {
            Ok(d) => Some(d),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    fn fill(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        let start = out.len();
        match self.reader.read_into(out, max) {
            Ok(n) => n,
            Err(e) => {
                // The reader is fused now: this batch's records are the
                // stream's last, and the next call returns 0.
                self.error = Some(e);
                out.len() - start
            }
        }
    }

    fn source_name(&self) -> &str {
        self.reader.name()
    }
}

/// Replays committed instructions from a bounded producer/consumer
/// channel fed by a live capture: the consumer half of capture/simulate
/// overlap. The producer (a streaming capture thread) sends each encoded
/// chunk through the channel as it is written to disk; the simulation
/// pulls instructions out the other end, so a cold cell's first replay
/// runs *while* its capture is still executing instead of after it.
///
/// # Panics
///
/// `next_inst` panics if the channel disconnects before `expected`
/// instructions have been yielded — the producer died mid-capture, and a
/// replay that has already consumed part of the stream cannot recover.
pub struct ChannelSource {
    rx: mpsc::Receiver<Box<[DynInst]>>,
    chunk: Box<[DynInst]>,
    pos: usize,
    name: String,
    expected: u64,
    yielded: u64,
}

impl ChannelSource {
    /// Creates a channel expecting exactly `expected` instructions and
    /// returns `(producer, consumer)`. The producer sends whole chunks
    /// (boxed so a send is a pointer move); the channel holds at most
    /// [`CHANNEL_DEPTH`] chunks, backpressuring a capture that outruns
    /// the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero.
    pub fn bounded(name: &str, expected: u64) -> (mpsc::SyncSender<Box<[DynInst]>>, Self) {
        assert!(expected > 0, "a channel source needs at least one instruction");
        let (tx, rx) = mpsc::sync_channel(CHANNEL_DEPTH);
        let src = ChannelSource {
            rx,
            chunk: Box::new([]),
            pos: 0,
            name: name.to_owned(),
            expected,
            yielded: 0,
        };
        (tx, src)
    }

    /// The not yet yielded rest of the current chunk, waiting for the
    /// next chunk when it is used up; empty once `expected` instructions
    /// have been yielded.
    fn pending(&mut self) -> &[DynInst] {
        if self.yielded == self.expected {
            return &[];
        }
        while self.pos == self.chunk.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.chunk = chunk;
                    self.pos = 0;
                }
                Err(_) => panic!(
                    "live capture of {:?} died after {} of {} instructions",
                    self.name, self.yielded, self.expected
                ),
            }
        }
        let left = (self.expected - self.yielded) as usize;
        let end = self.chunk.len().min(self.pos.saturating_add(left));
        &self.chunk[self.pos..end]
    }
}

impl InstSource for ChannelSource {
    fn next_inst(&mut self) -> Option<DynInst> {
        let d = *self.pending().first()?;
        self.pos += 1;
        self.yielded += 1;
        Some(d)
    }

    fn fill(&mut self, out: &mut Vec<DynInst>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let batch = self.pending();
        let n = batch.len().min(max);
        out.extend_from_slice(&batch[..n]);
        self.pos += n;
        self.yielded += n as u64;
        n
    }

    fn source_name(&self) -> &str {
        &self.name
    }
}

/// Adapts any in-memory instruction iterator into an [`InstSource`]
/// (resident replays, tests, synthetic generators).
///
/// # Examples
///
/// ```
/// use xbc_workload::{standard_traces, IterSource, InstSource};
///
/// let trace = standard_traces()[0].capture(10);
/// let mut src = IterSource::new(trace.insts().iter().copied());
/// assert!(src.next_inst().is_some());
/// ```
pub struct IterSource<I> {
    iter: I,
}

impl<I: Iterator<Item = DynInst>> IterSource<I> {
    /// Wraps `iter` as an instruction source.
    pub fn new(iter: I) -> Self {
        IterSource { iter }
    }
}

impl<I: Iterator<Item = DynInst>> InstSource for IterSource<I> {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.iter.next()
    }

    fn source_name(&self) -> &str {
        "<iter>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard_traces;

    #[test]
    fn trace_stream_yields_the_resident_sequence() {
        let trace = standard_traces()[1].capture(700);
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        let mut s = TraceStream::new(buf.as_slice()).unwrap();
        let mut got = Vec::new();
        while let Some(d) = s.next_inst() {
            got.push(d);
        }
        assert_eq!(got, trace.insts());
        assert_eq!(s.next_inst(), None, "a drained stream stays drained");
    }

    /// Every single-byte flip of a small trace either fails the header
    /// or ends the stream early or late with an `Err` verdict — never a
    /// panic, never an `Ok` — whether it is drained by `next_inst` or by
    /// `fill`, and a flipped stream never yields more than the header's
    /// count.
    #[test]
    fn trace_stream_reports_every_corruption_in_its_verdict() {
        let trace = standard_traces()[2].capture(60);
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x41;
            for by_fill in [false, true] {
                let Ok(mut s) = TraceStream::new(bad.as_slice()) else { continue };
                let count = s.inst_count();
                let got = if by_fill {
                    drain_by_fill(&mut s, &[7])
                } else {
                    std::iter::from_fn(|| s.next_inst()).collect()
                };
                assert!(got.len() as u64 <= count, "flip at {pos} yielded past the count");
                assert_eq!(s.next_inst(), None, "a stream stays ended after an error");
                assert!(s.finish().is_err(), "flip at byte {pos} passed the verdict");
            }
        }
    }

    #[test]
    fn trace_stream_verdict_covers_the_unread_rest() {
        let trace = standard_traces()[2].capture(400);
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        // A clean stream passes whether the replay drained it or not.
        TraceStream::new(buf.as_slice()).unwrap().finish().unwrap();
        let mut s = TraceStream::new(buf.as_slice()).unwrap();
        assert_eq!(drain_by_fill(&mut s, &[400]), trace.insts());
        s.finish().unwrap();
        // Corruption the replay never reached still fails the verdict.
        let last = buf.len() - 1;
        buf[last] ^= 1;
        let mut s = TraceStream::new(buf.as_slice()).unwrap();
        assert!(s.next_inst().is_some());
        assert!(s.finish().is_err());
        // So do bytes appended after the CRC trailer.
        buf[last] ^= 1;
        buf.push(0);
        let mut s = TraceStream::new(buf.as_slice()).unwrap();
        assert_eq!(drain_by_fill(&mut s, &[64]), trace.insts());
        assert!(s.finish().is_err(), "trailing byte passed the verdict");
    }

    #[test]
    fn channel_source_yields_the_produced_sequence() {
        let trace = standard_traces()[0].capture(300);
        let insts = trace.insts().to_vec();
        let (tx, mut src) = ChannelSource::bounded(trace.name(), insts.len() as u64);
        let feeder = std::thread::spawn(move || {
            for chunk in insts.chunks(64) {
                tx.send(chunk.to_vec().into_boxed_slice()).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(d) = src.next_inst() {
            got.push(d);
        }
        feeder.join().unwrap();
        assert_eq!(got, trace.insts());
        assert_eq!(src.next_inst(), None, "a drained channel source stays drained");
    }

    #[test]
    #[should_panic(expected = "died after")]
    fn channel_source_panics_on_producer_death() {
        let trace = standard_traces()[1].capture(100);
        let (tx, mut src) = ChannelSource::bounded("dying", 200);
        tx.send(trace.insts().to_vec().into_boxed_slice()).unwrap();
        drop(tx); // producer dies 100 insts short of the declared 200
        while src.next_inst().is_some() {}
    }

    /// Drains `src` with `fill` calls cycling through `sizes` until one
    /// returns 0, then checks it stays drained.
    fn drain_by_fill(src: &mut dyn InstSource, sizes: &[usize]) -> Vec<DynInst> {
        let mut got = Vec::new();
        for &max in sizes.iter().cycle() {
            let before = got.len();
            let n = src.fill(&mut got, max);
            assert_eq!(got.len() - before, n, "fill must report what it appended");
            assert!(n <= max, "fill appended {n} > max {max}");
            if n == 0 {
                break;
            }
        }
        assert_eq!(src.fill(&mut got, 3), 0, "a drained source stays drained");
        assert_eq!(src.next_inst(), None);
        got
    }

    const BATCHES: [&[usize]; 4] = [&[1], &[3, 7, 1000], &[4093, 1], &[usize::MAX]];

    #[test]
    fn trace_stream_fill_matches_next_inst() {
        // Long enough to cross read blocks.
        let trace = standard_traces()[3].capture(60_000);
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        for sizes in BATCHES {
            let mut s = TraceStream::new(buf.as_slice()).unwrap();
            assert_eq!(drain_by_fill(&mut s, sizes), trace.insts(), "batch sizes {sizes:?}");
        }
        // Batches and single pulls interleave on one stream.
        let mut s = TraceStream::new(buf.as_slice()).unwrap();
        let mut got = vec![s.next_inst().unwrap()];
        s.fill(&mut got, 999);
        got.push(s.next_inst().unwrap());
        got.extend(drain_by_fill(&mut s, &[5]));
        assert_eq!(got, trace.insts());
    }

    #[test]
    fn channel_source_fill_matches_next_inst() {
        let trace = standard_traces()[0].capture(3_000);
        for sizes in BATCHES {
            let insts = trace.insts().to_vec();
            let (tx, mut src) = ChannelSource::bounded(trace.name(), insts.len() as u64);
            let feeder = std::thread::spawn(move || {
                for chunk in insts.chunks(64) {
                    tx.send(chunk.to_vec().into_boxed_slice()).unwrap();
                }
            });
            assert_eq!(src.fill(&mut Vec::new(), 0), 0, "max 0 takes nothing");
            assert_eq!(drain_by_fill(&mut src, sizes), trace.insts(), "batch sizes {sizes:?}");
            feeder.join().unwrap();
        }
    }

    #[test]
    fn default_fill_matches_next_inst() {
        let trace = standard_traces()[0].capture(500);
        for sizes in BATCHES {
            let mut src = IterSource::new(trace.insts().iter().copied());
            assert_eq!(drain_by_fill(&mut src, sizes), trace.insts(), "batch sizes {sizes:?}");
        }
    }

    #[test]
    fn iter_source_drains_in_order() {
        let trace = standard_traces()[0].capture(50);
        let mut src = IterSource::new(trace.insts().iter().copied());
        for want in trace.insts() {
            assert_eq!(src.next_inst().as_ref(), Some(want));
        }
        assert_eq!(src.next_inst(), None);
    }
}
