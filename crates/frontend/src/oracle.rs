//! Oracle replay cursor over a captured trace.
//!
//! The stand-alone frontend methodology (paper §4) replays a fixed committed
//! path. [`OracleStream`] is the cursor the frontend models advance as they
//! deliver uops: it exposes the current instruction, uop-granular progress
//! within it (the 8-uop renamer cap can split an instruction across
//! cycles), and bounded lookahead for fill units.
//!
//! The cursor has two backings. [`OracleStream::new`] walks a resident
//! `&[DynInst]` — the classic in-RAM replay. [`OracleStream::streaming`]
//! pulls from an [`InstSource`] through a bounded sliding window, so a
//! trace replays from disk in O(window) host memory however many
//! instructions it has. Both backings expose the identical cursor API and
//! produce bit-identical delivery sequences; the only observable
//! difference is that streaming lookahead is capped (generously — see
//! [`OracleStream::streaming_with_window`]) instead of trace-length.

use xbc_isa::Addr;
use xbc_workload::{DynInst, InstSource, Trace};

/// Default sliding-window capacity of a streaming cursor, in
/// instructions (384 KiB of buffered `DynInst`s): small enough that the
/// window a refill writes is still in a core's L2 cache when the replay
/// reads it.
pub const DEFAULT_STREAM_WINDOW: usize = 8 * 1024;

/// Default guaranteed lookahead of a streaming cursor, in instructions.
/// Far beyond what any frontend in this workspace peeks: the deepest
/// lookahead is `window_end` over one XB (≤ fetch budget + a `u8` uop
/// offset, so ≤ ~300 instructions even at one uop each). A refill moves
/// at most this many unread instructions to the window's front.
pub const DEFAULT_STREAM_LOOKAHEAD: usize = 1024;

/// A uop-granular cursor over a trace's committed instructions.
///
/// # Examples
///
/// ```
/// use xbc_frontend::OracleStream;
/// use xbc_workload::{ProgramGenerator, Trace, WorkloadProfile};
///
/// let p = ProgramGenerator::new(WorkloadProfile::default(), 3).generate();
/// let t = Trace::capture("t", &p, 3, 100);
/// let mut o = OracleStream::new(&t);
/// let first = *o.current().unwrap();
/// o.take_uops(first.inst.uops as usize);
/// assert_eq!(o.inst_index(), 1);
/// ```
pub struct OracleStream<'a> {
    /// Resident committed stream (empty when streaming).
    insts: &'a [DynInst],
    /// Uop prefix sums over `insts` (resident only): `cum[i]` is the uop
    /// count of `insts[..i]`, so `window_end` resolves window boundaries
    /// by scanning a dense array instead of walking the (much larger)
    /// `DynInst` records uop-run by uop-run. Borrowed from the trace's
    /// shared table; empty when streaming.
    cum: &'a [u64],
    /// Streaming refill source; `None` selects the resident backing.
    source: Option<&'a mut dyn InstSource>,
    /// Sliding lookahead buffer (streaming only).
    window: Vec<DynInst>,
    /// Absolute instruction index of `window[0]`.
    base: usize,
    /// Window capacity in instructions (fixed; `window` never grows past
    /// it, so refills after the first fill are allocation-free).
    cap: usize,
    /// Guaranteed buffered lookahead: unless the source is exhausted, at
    /// least this many instructions past the cursor are in the window.
    lookahead: usize,
    /// The source returned `None`; the window holds the trace's tail.
    eof: bool,
    pos: usize,
    /// Uops of the current instruction already delivered.
    uop_pos: u8,
    delivered_uops: u64,
}

impl<'a> OracleStream<'a> {
    /// Creates a cursor at the start of `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        OracleStream {
            insts: trace.insts(),
            cum: trace.uop_prefix(),
            source: None,
            window: Vec::new(),
            base: 0,
            cap: 0,
            lookahead: 0,
            eof: true,
            pos: 0,
            uop_pos: 0,
            delivered_uops: 0,
        }
    }

    /// Creates a streaming cursor over `source` with the default window
    /// ([`DEFAULT_STREAM_WINDOW`] / [`DEFAULT_STREAM_LOOKAHEAD`]).
    ///
    /// The cursor buffers at most `DEFAULT_STREAM_WINDOW` instructions;
    /// replay memory is O(window), independent of trace length, and the
    /// delivery sequence is bit-identical to a resident replay of the
    /// same stream.
    pub fn streaming(source: &'a mut dyn InstSource) -> Self {
        Self::streaming_with_window(source, DEFAULT_STREAM_WINDOW, DEFAULT_STREAM_LOOKAHEAD)
    }

    /// [`OracleStream::streaming`] with an explicit window capacity and
    /// lookahead guarantee (both in instructions).
    ///
    /// `lookahead` is the contract with the consumer: [`peek`] /
    /// [`window_end`] may reach at most that many instructions past the
    /// cursor. Exceeding it while the source still has data panics
    /// loudly (a silent `None` would change simulation results); hitting
    /// the true end of the stream returns `None` exactly like the
    /// resident backing.
    ///
    /// [`peek`]: OracleStream::peek
    /// [`window_end`]: OracleStream::window_end
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero or `window < 2 * lookahead` (the
    /// window must fit the guarantee plus room to amortize refills).
    pub fn streaming_with_window(
        source: &'a mut dyn InstSource,
        window: usize,
        lookahead: usize,
    ) -> Self {
        assert!(lookahead > 0, "streaming oracle needs a positive lookahead");
        assert!(
            window >= 2 * lookahead,
            "window ({window}) must be at least twice the lookahead ({lookahead})"
        );
        let mut o = OracleStream {
            insts: &[],
            cum: &[],
            source: Some(source),
            window: Vec::with_capacity(window),
            base: 0,
            cap: window,
            lookahead,
            eof: false,
            pos: 0,
            uop_pos: 0,
            delivered_uops: 0,
        };
        o.refill();
        o
    }

    /// Slides and refills the streaming window until at least
    /// `lookahead` instructions past the cursor are buffered (or the
    /// source is exhausted). The consumed prefix is dropped with
    /// `Vec::drain` (a memmove within the existing allocation) and the
    /// tail is topped up to `cap` by batched [`InstSource::fill`] calls,
    /// which never append past the window's capacity, so steady-state
    /// refills never touch the heap.
    fn refill(&mut self) {
        if self.eof {
            return;
        }
        if self.base + self.window.len() - self.pos >= self.lookahead {
            return;
        }
        let consumed = self.pos - self.base;
        if consumed > 0 {
            self.window.drain(..consumed);
            self.base = self.pos;
        }
        let src = self.source.as_deref_mut().expect("refill is streaming-only");
        while self.window.len() < self.cap {
            let room = self.cap - self.window.len();
            if src.fill(&mut self.window, room) == 0 {
                self.eof = true;
                break;
            }
        }
    }

    /// Every buffered instruction from the cursor on, the current one
    /// first: the rest of the trace (resident) or of the window
    /// (streaming). Lookahead walks this slice instead of indexing the
    /// backing once per instruction.
    #[inline]
    fn ahead(&self) -> &[DynInst] {
        match self.source {
            None => &self.insts[self.pos..],
            Some(_) => &self.window[self.pos - self.base..],
        }
    }

    /// A read ran off the buffered instructions at absolute index `abs`:
    /// fine at the true end of the stream, a broken lookahead contract
    /// (and a loud panic) anywhere else.
    #[cold]
    fn past_buffer(&self, abs: usize) {
        assert!(
            self.eof,
            "streaming oracle lookahead exceeded: instruction {} is {} past the cursor but only \
             {} are guaranteed (raise the window)",
            abs,
            abs - self.pos,
            self.lookahead
        );
    }

    /// The current (not yet fully delivered) instruction, or `None` at end.
    #[inline]
    pub fn current(&self) -> Option<&DynInst> {
        self.peek(0)
    }

    /// Looks ahead `k` whole instructions past the current one.
    ///
    /// Streaming: `k` must stay within the lookahead contract; a read
    /// past the window panics unless the stream has truly ended, where it
    /// returns `None` exactly like the resident backing.
    #[inline]
    pub fn peek(&self, k: usize) -> Option<&DynInst> {
        match self.ahead().get(k) {
            Some(d) => Some(d),
            None => {
                self.past_buffer(self.pos + k);
                None
            }
        }
    }

    /// Index of the current instruction.
    #[inline]
    pub fn inst_index(&self) -> usize {
        self.pos
    }

    /// Uops of the current instruction already delivered.
    #[inline]
    pub fn uop_offset(&self) -> u8 {
        self.uop_pos
    }

    /// Total uops delivered so far.
    #[inline]
    pub fn delivered_uops(&self) -> u64 {
        self.delivered_uops
    }

    /// True once every instruction has been fully delivered.
    #[inline]
    pub fn done(&self) -> bool {
        self.current().is_none()
    }

    /// Fetch address of the next undelivered work: the current instruction's
    /// IP (partial instructions resume at their own IP — real frontends
    /// refetch the whole instruction, but uop accounting is what matters
    /// here).
    ///
    /// # Panics
    ///
    /// Panics at end of trace.
    #[inline]
    pub fn fetch_ip(&self) -> Addr {
        self.current().expect("fetch_ip at end of trace").inst.ip
    }

    /// Uops of the current instruction not yet delivered (0 at end).
    #[inline]
    pub fn uops_remaining_in_inst(&self) -> usize {
        match self.current() {
            Some(d) => (d.inst.uops - self.uop_pos) as usize,
            None => 0,
        }
    }

    /// Delivers up to `budget` uops of the *current instruction only*.
    /// Returns the number delivered; advances to the next instruction when
    /// the current one completes.
    #[inline]
    pub fn take_uops(&mut self, budget: usize) -> usize {
        let Some(d) = self.current() else { return 0 };
        let uops = d.inst.uops;
        let remaining = (uops - self.uop_pos) as usize;
        let n = remaining.min(budget);
        self.uop_pos += n as u8;
        self.delivered_uops += n as u64;
        if self.uop_pos == uops {
            self.pos += 1;
            self.uop_pos = 0;
            if self.source.is_some() {
                self.refill();
            }
        }
        n
    }

    /// Delivers up to `budget` uops, crossing instruction boundaries —
    /// the same uops as repeating [`take_uops`] until `budget` is spent
    /// or the trace ends, in one walk over the buffered instructions.
    /// Returns the number delivered (less than `budget` only at the end
    /// of the trace).
    ///
    /// [`take_uops`]: OracleStream::take_uops
    pub fn drain_uops(&mut self, budget: usize) -> usize {
        let mut left = budget;
        loop {
            let ahead = self.ahead();
            let mut whole = 0usize;
            let mut uop_pos = self.uop_pos as usize;
            for d in ahead {
                let rest = d.inst.uops as usize - uop_pos;
                if rest > left {
                    uop_pos += left;
                    left = 0;
                    break;
                }
                left -= rest;
                uop_pos = 0;
                whole += 1;
                if left == 0 {
                    break;
                }
            }
            let buffered = ahead.len();
            self.pos += whole;
            self.uop_pos = uop_pos as u8;
            if self.source.is_some() && whole > 0 {
                self.refill();
            }
            // More to deliver past the buffer: the window just refilled
            // (streaming), or the trace is over.
            if left == 0 || whole < buffered || self.eof_at_cursor() {
                break;
            }
        }
        self.delivered_uops += (budget - left) as u64;
        budget - left
    }

    /// True when nothing is buffered past the cursor and nothing more
    /// will arrive.
    #[inline]
    fn eof_at_cursor(&self) -> bool {
        self.ahead().is_empty() && (self.source.is_none() || self.eof)
    }

    /// Delivers the rest of the current instruction unconditionally
    /// (convenience for engines that treat instructions atomically).
    #[inline]
    pub fn take_inst(&mut self) -> usize {
        self.take_uops(usize::MAX)
    }

    /// Finds the instruction whose **last** uop is the `window_uops`-th
    /// upcoming uop (counting undelivered uops of the current instruction
    /// first). Returns that instruction and the count of *whole*
    /// instructions the window spans past the current one.
    ///
    /// Used by XB-granular frontends: an XB pointer covers `offset` uops,
    /// and the XB's ending branch is the instruction closing that window.
    /// Returns `None` if the trace ends first or the window does not align
    /// with an instruction boundary.
    pub fn window_end(&self, window_uops: usize) -> Option<(&DynInst, usize)> {
        if self.source.is_none() {
            // Resident backing: the closing instruction is the unique `j`
            // with `cum[pos + j + 1] == cum[pos] + uop_pos + window` —
            // prefix sums are strictly increasing (every instruction has
            // at least one uop), and windows span at most a fetch group,
            // so a short forward scan over the dense prefix array beats
            // both a global binary search and walking the wide `DynInst`
            // records themselves.
            let target = self.cum[self.pos] + self.uop_pos as u64 + window_uops as u64;
            let tail = &self.cum[self.pos + 1..];
            for (j, &c) in tail.iter().enumerate() {
                if c >= target {
                    return (c == target).then(|| (&self.insts[self.pos + j], j));
                }
            }
            return None;
        }
        let ahead = self.ahead();
        let mut remaining = window_uops + self.uop_pos as usize;
        for (j, d) in ahead.iter().enumerate() {
            let uops = d.inst.uops as usize;
            if remaining <= uops {
                return if remaining == uops { Some((d, j)) } else { None };
            }
            remaining -= uops;
        }
        self.past_buffer(self.pos + ahead.len());
        None
    }
}

impl std::fmt::Debug for OracleStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleStream")
            .field("backing", &if self.source.is_none() { "resident" } else { "streaming" })
            .field("pos", &self.pos)
            .field("uop_pos", &self.uop_pos)
            .field("delivered_uops", &self.delivered_uops)
            .field(
                "buffered",
                &if self.source.is_none() {
                    self.insts.len() - self.pos.min(self.insts.len())
                } else {
                    self.base + self.window.len() - self.pos
                },
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_isa::Inst;
    use xbc_workload::{IterSource, ProgramBuilder, Trace};

    fn trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.push(Inst::plain(Addr::new(0x10), 1, 3));
        b.push(Inst::plain(Addr::new(0x11), 1, 2));
        b.push(Inst::new(Addr::new(0x12), 1, 1, xbc_isa::BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        Trace::capture("t", &p, 0, 3)
    }

    #[test]
    fn partial_instruction_delivery() {
        let t = trace();
        let mut o = OracleStream::new(&t);
        assert_eq!(o.take_uops(2), 2);
        assert_eq!(o.inst_index(), 0);
        assert_eq!(o.uop_offset(), 2);
        assert_eq!(o.uops_remaining_in_inst(), 1);
        assert_eq!(o.take_uops(8), 1); // completes inst 0
        assert_eq!(o.inst_index(), 1);
        assert_eq!(o.uop_offset(), 0);
    }

    #[test]
    fn runs_to_completion() {
        let t = trace();
        let mut o = OracleStream::new(&t);
        let mut total = 0;
        while !o.done() {
            total += o.take_inst();
        }
        assert_eq!(total, 6);
        assert_eq!(o.delivered_uops(), 6);
        assert_eq!(o.take_uops(4), 0);
    }

    #[test]
    fn peek_does_not_advance() {
        let t = trace();
        let o = OracleStream::new(&t);
        assert_eq!(o.peek(1).unwrap().inst.ip, Addr::new(0x11));
        assert_eq!(o.inst_index(), 0);
    }

    #[test]
    fn fetch_ip_tracks_current() {
        let t = trace();
        let mut o = OracleStream::new(&t);
        assert_eq!(o.fetch_ip(), Addr::new(0x10));
        o.take_inst();
        assert_eq!(o.fetch_ip(), Addr::new(0x11));
    }

    #[test]
    fn window_end_finds_instruction_boundaries() {
        let t = trace(); // uops per inst: 3, 2, 1
        let o = OracleStream::new(&t);
        // Aligned windows resolve to the closing instruction.
        assert_eq!(o.window_end(3).unwrap().0.inst.ip, Addr::new(0x10));
        assert_eq!(o.window_end(5).unwrap().0.inst.ip, Addr::new(0x11));
        assert_eq!(o.window_end(6).unwrap().0.inst.ip, Addr::new(0x12));
        // Misaligned windows are rejected.
        assert!(o.window_end(2).is_none());
        assert!(o.window_end(4).is_none());
        // Past the end of the trace.
        assert!(o.window_end(7).is_none());
    }

    #[test]
    fn window_end_respects_partial_first_instruction() {
        let t = trace();
        let mut o = OracleStream::new(&t);
        o.take_uops(2); // 1 uop of inst 0 remains
        assert_eq!(o.window_end(1).unwrap().0.inst.ip, Addr::new(0x10));
        assert_eq!(o.window_end(3).unwrap().0.inst.ip, Addr::new(0x11));
        assert!(o.window_end(2).is_none());
    }

    /// A long trace for windowed-streaming tests: varied uop counts so
    /// instruction/uop boundaries exercise the partial-delivery paths.
    fn long_trace(n: usize) -> Trace {
        use xbc_workload::{ProgramGenerator, WorkloadProfile};
        let p = ProgramGenerator::new(WorkloadProfile::default(), 7).generate();
        Trace::capture("long", &p, 7, n)
    }

    #[test]
    fn streaming_matches_resident_with_a_tiny_window() {
        let t = long_trace(5_000);
        let mut src = IterSource::new(t.insts().iter().copied());
        // Window far smaller than the trace forces hundreds of refills.
        let mut s = OracleStream::streaming_with_window(&mut src, 64, 16);
        let mut r = OracleStream::new(&t);
        let mut k = 0usize;
        while !r.done() {
            assert!(!s.done(), "streaming ended early at inst {}", r.inst_index());
            assert_eq!(s.current(), r.current());
            assert_eq!(s.peek(3), r.peek(3));
            assert_eq!(
                s.window_end(7).map(|(d, j)| (*d, j)),
                r.window_end(7).map(|(d, j)| (*d, j))
            );
            // Varied budgets hit partial and whole-instruction advances.
            let budget = 1 + (k % 7);
            assert_eq!(s.take_uops(budget), r.take_uops(budget));
            assert_eq!(s.inst_index(), r.inst_index());
            assert_eq!(s.uop_offset(), r.uop_offset());
            k += 1;
        }
        assert!(s.done());
        assert_eq!(s.delivered_uops(), r.delivered_uops());
        assert_eq!(s.take_uops(4), 0);
    }

    #[test]
    fn drain_uops_matches_repeated_take_uops() {
        let t = long_trace(5_000);
        let mut src = IterSource::new(t.insts().iter().copied());
        // Budgets past the whole window force refills mid-drain.
        let mut s = OracleStream::streaming_with_window(&mut src, 64, 16);
        let mut r = OracleStream::new(&t);
        let mut k = 0usize;
        while !r.done() {
            let budget = [1, 3, 8, 17, 200][k % 5];
            let mut want = 0;
            while want < budget {
                let n = r.take_uops(budget - want);
                if n == 0 {
                    break;
                }
                want += n;
            }
            assert_eq!(s.drain_uops(budget), want, "step {k}");
            assert_eq!((s.inst_index(), s.uop_offset()), (r.inst_index(), r.uop_offset()));
            assert_eq!(s.delivered_uops(), r.delivered_uops());
            k += 1;
        }
        assert!(s.done());
        assert_eq!(s.drain_uops(8), 0);
    }

    #[test]
    fn streaming_window_stays_bounded() {
        let t = long_trace(3_000);
        let mut src = IterSource::new(t.insts().iter().copied());
        let mut s = OracleStream::streaming_with_window(&mut src, 128, 32);
        let cap0 = s.window.capacity();
        while !s.done() {
            assert!(s.window.len() <= 128, "window overflowed: {}", s.window.len());
            assert_eq!(s.window.capacity(), cap0, "window reallocated");
            s.take_inst();
        }
    }

    #[test]
    fn streaming_peek_at_true_end_is_none() {
        let t = trace();
        let mut src = IterSource::new(t.insts().iter().copied());
        let s = OracleStream::streaming_with_window(&mut src, 8, 4);
        // The 3-inst trace is fully buffered; past-the-end reads are a
        // clean None, exactly like the resident backing.
        assert!(s.peek(2).is_some());
        assert!(s.peek(3).is_none());
        assert!(s.window_end(7).is_none());
    }

    #[test]
    #[should_panic(expected = "lookahead exceeded")]
    fn streaming_overreach_panics_loudly() {
        let t = long_trace(1_000);
        let mut src = IterSource::new(t.insts().iter().copied());
        let s = OracleStream::streaming_with_window(&mut src, 16, 4);
        // The window holds 16; reaching past it while the source still
        // has data must panic, not silently end the trace.
        let _ = s.peek(40);
    }

    #[test]
    #[should_panic(expected = "twice the lookahead")]
    fn streaming_rejects_cramped_windows() {
        let t = trace();
        let mut src = IterSource::new(t.insts().iter().copied());
        let _ = OracleStream::streaming_with_window(&mut src, 4, 4);
    }

    #[test]
    fn streaming_in_window_reads_still_resolve() {
        let t = long_trace(1_000);
        let mut src = IterSource::new(t.insts().iter().copied());
        let mut s = OracleStream::streaming_with_window(&mut src, 16, 4);
        for _ in 0..100 {
            s.take_inst();
        }
        assert!(s.base > 0);
        // The cursor itself and everything within the lookahead contract
        // stay readable after the base has advanced.
        assert_eq!(s.current().unwrap(), &t.insts()[100]);
        assert_eq!(s.peek(3).unwrap(), &t.insts()[103]);
    }
}
