//! Captured dynamic traces.
//!
//! The paper's methodology is trace-driven: a fixed dynamic instruction
//! stream is replayed through each frontend configuration so comparisons
//! see identical committed paths. [`Trace`] materializes a stream from the
//! executor once and hands out slices to any number of simulations.

use crate::codec::{Encoder, StreamEncoder, TraceError, TraceReader};
use crate::exec::{DynInst, ExecStats, Executor};
use crate::program::Program;
use std::fmt;
use std::io::{Read, Seek, Write};

/// Instructions per chunk of a streamed capture: the unit of buffering
/// between the executor and the encoder (and, when a replay is tee'd off
/// the capture, the granularity of the producer/consumer channel). Peak
/// live memory of `capture_streamed` is O(this), not O(trace).
pub const CAPTURE_CHUNK: usize = 8_192;

/// A named, captured dynamic instruction stream.
///
/// # Examples
///
/// ```
/// use xbc_workload::{ProgramGenerator, Trace, WorkloadProfile};
///
/// let program = ProgramGenerator::new(WorkloadProfile::default(), 1).generate();
/// let trace = Trace::capture("demo", &program, 1, 10_000);
/// assert_eq!(trace.inst_count(), 10_000);
/// assert!(trace.uop_count() >= 10_000); // every inst has ≥ 1 uop
/// ```
#[derive(Clone)]
pub struct Trace {
    name: String,
    insts: Vec<DynInst>,
    uops: u64,
    exec_stats: ExecStats,
    /// Lazily built uop prefix sums (`prefix[i]` = uops of `insts[..i]`),
    /// shared by every replay cursor over this trace. u64: a >4G-uop
    /// trace (~1G instructions at 4 uops each) overflows a u32 sum.
    uop_prefix: std::sync::OnceLock<Vec<u64>>,
}

/// Builds the uop prefix-sum table from per-instruction uop counts.
/// Factored out of [`Trace::uop_prefix`] so the u64 accumulator can be
/// regression-tested past the u32 ceiling without capturing a 4G-uop
/// trace.
fn uop_prefix_from(counts: impl Iterator<Item = u32>) -> Vec<u64> {
    let mut cum = Vec::with_capacity(counts.size_hint().0 + 1);
    let mut total = 0u64;
    cum.push(0);
    for c in counts {
        total += u64::from(c);
        cum.push(total);
    }
    cum
}

impl Trace {
    /// Runs the executor for `n_insts` dynamic instructions and records the
    /// committed path.
    ///
    /// # Panics
    ///
    /// Panics if `n_insts` is zero.
    pub fn capture(name: &str, program: &Program, seed: u64, n_insts: usize) -> Self {
        Self::capture_with_stickiness(name, program, seed, n_insts, 0.85)
    }

    /// Like [`Trace::capture`] but with explicit indirect-target
    /// stickiness (see [`Executor::with_stickiness`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_insts` is zero.
    pub fn capture_with_stickiness(
        name: &str,
        program: &Program,
        seed: u64,
        n_insts: usize,
        stickiness: f64,
    ) -> Self {
        Self::capture_with_options(name, program, seed, n_insts, stickiness, None)
    }

    /// Full-option capture: stickiness plus asynchronous-interrupt interval
    /// (see [`Executor::with_options`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_insts` is zero.
    pub fn capture_with_options(
        name: &str,
        program: &Program,
        seed: u64,
        n_insts: usize,
        stickiness: f64,
        interrupt_interval: Option<usize>,
    ) -> Self {
        assert!(n_insts > 0, "a trace needs at least one instruction");
        let mut exec = Executor::with_options(program, seed, stickiness, interrupt_interval);
        let mut insts = Vec::new();
        exec.fill(&mut insts, n_insts);
        let exec_stats = exec.stats();
        Trace {
            name: name.to_owned(),
            insts,
            uops: exec_stats.uops,
            exec_stats,
            uop_prefix: std::sync::OnceLock::new(),
        }
    }

    /// Streaming capture: runs the executor for `n_insts` dynamic
    /// instructions and encodes them to `writer` in [`CAPTURE_CHUNK`]
    /// batches as they are produced, never materializing the trace. The
    /// bytes written are identical to [`Trace::capture_with_options`]
    /// followed by [`Trace::save`] (CI asserts this for every standard
    /// trace), but peak live memory is O(chunk) instead of O(trace), so
    /// giga-instruction captures fit in a bounded footprint.
    ///
    /// `on_chunk` is invoked once per encoded chunk with the chunk's
    /// instructions and the running total captured so far — the hook for
    /// progress reporting and for tee'ing the stream into a live replay
    /// channel (see `ChannelSource`).
    ///
    /// Returns the capture's [`ExecStats`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    ///
    /// # Panics
    ///
    /// Panics if `n_insts` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn capture_streamed<W, F>(
        name: &str,
        program: &Program,
        seed: u64,
        n_insts: usize,
        stickiness: f64,
        interrupt_interval: Option<usize>,
        writer: W,
        mut on_chunk: F,
    ) -> Result<ExecStats, TraceError>
    where
        W: Write + Seek,
        F: FnMut(&[DynInst], u64),
    {
        assert!(n_insts > 0, "a trace needs at least one instruction");
        let mut exec = Executor::with_options(program, seed, stickiness, interrupt_interval);
        let mut enc = StreamEncoder::new(writer, name, n_insts as u64)?;
        let mut chunk: Vec<DynInst> = Vec::with_capacity(CAPTURE_CHUNK.min(n_insts));
        let mut done = 0u64;
        while done < n_insts as u64 {
            let take = CAPTURE_CHUNK.min(n_insts - done as usize);
            chunk.clear();
            exec.fill(&mut chunk, take);
            for d in &chunk {
                enc.record(d)?;
            }
            done += take as u64;
            on_chunk(&chunk, done);
        }
        let stats = exec.stats();
        enc.finish(stats)?;
        Ok(stats)
    }

    /// Builds a trace directly from a committed instruction sequence (the
    /// uop count is recomputed; executor statistics are zeroed). This is
    /// the mutation entry point for checkers: `xbc-check` injects
    /// divergences by editing one [`DynInst`] of a captured stream.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty.
    pub fn from_parts(name: &str, insts: Vec<DynInst>) -> Self {
        assert!(!insts.is_empty(), "a trace needs at least one instruction");
        let uops = insts.iter().map(|d| d.uops() as u64).sum();
        Trace {
            name: name.to_owned(),
            insts,
            uops,
            exec_stats: ExecStats::default(),
            uop_prefix: std::sync::OnceLock::new(),
        }
    }

    /// Trace name (e.g. `"spec.gcc"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The committed dynamic instructions, in order.
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// Number of dynamic instructions.
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Number of dynamic uops.
    pub fn uop_count(&self) -> u64 {
        self.uops
    }

    /// Uop prefix sums over the committed stream: `prefix()[i]` is the
    /// total uop count of `insts()[..i]` (so the slice is one longer than
    /// the trace). Built on first use and cached, so replay cursors that
    /// resolve uop windows against instruction boundaries share one dense
    /// table instead of re-walking the instruction records.
    pub fn uop_prefix(&self) -> &[u64] {
        self.uop_prefix.get_or_init(|| uop_prefix_from(self.insts.iter().map(|d| d.uops())))
    }

    /// Executor corner-case statistics from the capture.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec_stats
    }

    /// Iterates over the dynamic instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInst> {
        self.insts.iter()
    }

    /// Serializes the trace in the compact `XBT1` binary format (varint
    /// deltas, CRC32 trailer — see [`crate::codec`]). Interchange format
    /// for the `xbcsim capture` / `xbcsim run --from` workflow and the
    /// on-disk unit of `xbc-store`'s trace cache.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), TraceError> {
        let mut enc = Encoder::new(writer, &self.name, self.insts.len() as u64, self.exec_stats)?;
        for d in &self.insts {
            enc.record(d)?;
        }
        enc.finish()
    }

    /// Deserializes a trace previously written by [`Trace::save`],
    /// verifying the CRC trailer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failure, corruption (bad magic,
    /// truncation, CRC mismatch, out-of-range fields), a format-version
    /// mismatch, or an empty instruction stream.
    pub fn load<R: Read>(reader: R) -> Result<Self, TraceError> {
        let mut r = TraceReader::new(reader)?;
        let name = r.name().to_owned();
        let exec_stats = r.exec_stats();
        // Cap the preallocation: the count field is read before the CRC is
        // verified, so a corrupted header must not turn into a huge
        // allocation — the reader streams and detects the lie itself.
        let mut insts = Vec::with_capacity((r.inst_count() as usize).min(1 << 20));
        r.read_into(&mut insts, usize::MAX)?;
        let uops = insts.iter().map(|d| d.uops() as u64).sum();
        if insts.is_empty() {
            return Err(TraceError::Corrupt("trace file contains no instructions".into()));
        }
        Ok(Trace { name, insts, uops, exec_stats, uop_prefix: std::sync::OnceLock::new() })
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("name", &self.name)
            .field("insts", &self.insts.len())
            .field("uops", &self.uops)
            .finish()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInst;
    type IntoIter = std::slice::Iter<'a, DynInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramGenerator, WorkloadProfile};

    fn program() -> Program {
        ProgramGenerator::new(WorkloadProfile { functions: 10, ..Default::default() }, 3).generate()
    }

    #[test]
    fn capture_is_deterministic() {
        let p = program();
        let a = Trace::capture("a", &p, 9, 2000);
        let b = Trace::capture("b", &p, 9, 2000);
        assert_eq!(a.insts(), b.insts());
        assert_eq!(a.uop_count(), b.uop_count());
    }

    #[test]
    fn uop_count_sums_inst_uops() {
        let p = program();
        let t = Trace::capture("t", &p, 1, 500);
        let sum: u64 = t.iter().map(|d| d.uops() as u64).sum();
        assert_eq!(sum, t.uop_count());
    }

    #[test]
    fn into_iterator_walks_all() {
        let p = program();
        let t = Trace::capture("t", &p, 1, 100);
        assert_eq!((&t).into_iter().count(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_capture_rejected() {
        let p = program();
        let _ = Trace::capture("t", &p, 1, 0);
    }

    #[test]
    fn capture_streamed_matches_resident_bytes() {
        let p = program();
        // Cross several chunk boundaries, including a ragged tail.
        let n = CAPTURE_CHUNK * 2 + 137;
        let resident = Trace::capture_with_options("streamed", &p, 7, n, 0.85, None);
        let mut resident_bytes = Vec::new();
        resident.save(&mut resident_bytes).unwrap();
        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut seen = 0u64;
        let stats = Trace::capture_streamed(
            "streamed",
            &p,
            7,
            n,
            0.85,
            None,
            &mut cursor,
            |chunk, done| {
                seen += chunk.len() as u64;
                assert_eq!(seen, done);
            },
        )
        .unwrap();
        assert_eq!(seen, n as u64);
        assert_eq!(stats, resident.exec_stats());
        assert_eq!(cursor.into_inner(), resident_bytes);
    }

    #[test]
    fn uop_prefix_survives_u32_overflow() {
        // Three synthetic counts whose running sum crosses the u32
        // ceiling: the old u32 accumulator wrapped silently here.
        let cum = uop_prefix_from([u32::MAX, u32::MAX, 7].into_iter());
        assert_eq!(
            cum,
            vec![0, u64::from(u32::MAX), 2 * u64::from(u32::MAX), 2 * u64::from(u32::MAX) + 7]
        );
    }

    #[test]
    fn uop_prefix_matches_uop_count() {
        let p = program();
        let t = Trace::capture("t", &p, 2, 700);
        let cum = t.uop_prefix();
        assert_eq!(cum.len(), t.inst_count() + 1);
        assert_eq!(cum[0], 0);
        assert_eq!(*cum.last().unwrap(), t.uop_count());
    }

    #[test]
    fn save_load_roundtrip() {
        let p = program();
        let t = Trace::capture("roundtrip", &p, 4, 300);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = Trace::load(buf.as_slice()).unwrap();
        assert_eq!(back.name(), "roundtrip");
        assert_eq!(back.insts(), t.insts());
        assert_eq!(back.uop_count(), t.uop_count());
        assert_eq!(back.exec_stats(), t.exec_stats());
    }

    #[test]
    fn load_rejects_garbage_and_corruption() {
        // Not a trace file at all.
        assert!(Trace::load(&b"not a trace"[..]).is_err());
        assert!(Trace::load(&b""[..]).is_err());
        // A flipped payload byte fails the CRC check.
        let p = program();
        let t = Trace::capture("x", &p, 4, 3);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        assert!(Trace::load(buf.as_slice()).is_err());
    }
}
