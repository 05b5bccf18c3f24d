//! Compact binary trace encoding (the `XBT1` format).
//!
//! The paper's methodology captures each committed instruction stream
//! *once* and replays it through every frontend. The on-disk format this
//! module implements is what makes "once" cheap enough to be the default:
//!
//! * **varint deltas** — instruction pointers are stored as zigzag
//!   varints relative to the previous instruction's `next_ip`, which is a
//!   0-byte field for a connected stream; branch targets are deltas from
//!   the instruction's own IP;
//! * **enum packing** — branch kind, taken bit and presence flags share
//!   one byte; encoded length and uop count share another;
//! * **CRC32 trailer** — a hand-rolled IEEE CRC32 over everything after
//!   the magic, so truncation and bit-flips are detected on read;
//! * **no serde** — the codec is a few hundred lines of std-only Rust, so the
//!   workspace builds offline.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"XBT1"
//! version u32                  (= FORMAT_VERSION)
//! name    u16 length + UTF-8 bytes
//! count   u64                  dynamic instruction count
//! stats   5 x u64              ExecStats of the capture
//! records count x record       (see Record encoding below)
//! crc     u32                  CRC32 of version..records
//! ```
//!
//! Record encoding: `flags` byte (bits 0–2 branch kind, 3 taken, 4
//! has-target, 5 next-is-sequential, 6 ip-is-expected), `shape` byte
//! (bits 0–3 length, 4–5 uops−1), then up to three zigzag varints: the
//! IP delta (only when not the expected continuation), the target delta
//! (only for direct branches) and the next-IP delta (only for taken
//! transfers).
//!
//! [`TraceReader`] decodes *streaming*: records come out of one read
//! block of at most 64 KiB, so multi-million-instruction traces can be
//! validated or replayed without materializing a `Vec<DynInst>`.

use crate::exec::{DynInst, ExecStats};
use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use xbc_isa::{Addr, BranchKind, Inst};

/// Version stamp of the `XBT1` container. Bump on any layout change so
/// stale cache entries are rejected (and regenerated) instead of
/// misdecoded.
pub const FORMAT_VERSION: u32 = 1;

/// File magic of encoded traces.
pub const MAGIC: [u8; 4] = *b"XBT1";

const FLAG_TAKEN: u8 = 1 << 3;
const FLAG_HAS_TARGET: u8 = 1 << 4;
const FLAG_NEXT_SEQ: u8 = 1 << 5;
const FLAG_IP_EXPECTED: u8 = 1 << 6;

/// Errors produced by the trace codec.
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid or corrupted data (bad magic, CRC mismatch,
    /// truncation, out-of-range field). The string says which.
    Corrupt(String),
    /// The file is a valid container of an unsupported format version.
    Version(u32),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::Version(v) => {
                write!(f, "unsupported trace format version {v} (expected {FORMAT_VERSION})")
            }
        }
    }
}

impl fmt::Debug for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        // Short reads surface as UnexpectedEof: that is truncation, which
        // callers treat as corruption, not as an environment error.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Corrupt("truncated file".into())
        } else {
            TraceError::Io(e)
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), slice-by-8.

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte's contribution through `k` further zero bytes, so
/// eight table lookups fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Feeds `bytes` into a running CRC32 (start from `0`, use the returned
/// value as the next call's `crc`).
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Applies a 32×32 GF(2) matrix (columns as `u32` bit-vectors) to a
/// 32-bit vector.
fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0usize;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Squares a GF(2) matrix: `square = mat × mat`.
fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// Combines two independently computed CRC32s:
/// `crc32_combine(crc32(a), crc32(b), b.len()) == crc32(a ++ b)`.
///
/// This is what lets [`StreamEncoder`] keep a records-only running CRC
/// while the header (whose `ExecStats` are unknown until capture ends)
/// is CRC'd separately and patched in at finalize — no second pass over
/// gigabytes of records. The algorithm is the standard GF(2) matrix
/// trick: appending `len2` zero bytes to `a` multiplies its CRC state by
/// the zero-byte transition matrix `len2` times, done in O(log len2)
/// matrix squarings.
pub fn crc32_combine(crc1: u32, crc2: u32, mut len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    let mut even = [0u32; 32]; // zero-byte operator^(2^(2k))
    let mut odd = [0u32; 32]; // zero-byte operator^(2^(2k+1))

    // One zero *bit*: CRC shift with the reflected polynomial.
    odd[0] = 0xEDB8_8320;
    let mut row = 1u32;
    for slot in odd.iter_mut().skip(1) {
        *slot = row;
        row <<= 1;
    }
    gf2_matrix_square(&mut even, &odd); // two zero bits
    gf2_matrix_square(&mut odd, &even); // four zero bits

    // Walk the bits of len2, squaring up to the operator for 8·2^k zero
    // bits (one zero byte doubled each round) and applying it where the
    // corresponding bit of len2 is set.
    let mut crc = crc1;
    loop {
        gf2_matrix_square(&mut even, &odd);
        if len2 & 1 != 0 {
            crc = gf2_matrix_times(&even, crc);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len2 & 1 != 0 {
            crc = gf2_matrix_times(&odd, crc);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
    }
    crc ^ crc2
}

// ---------------------------------------------------------------------------
// Varint + zigzag primitives.

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Longest record: flags, length/uops, and three 10-byte varints.
const MAX_RECORD: usize = 2 + 3 * 10;

/// Writes `v` as a varint into `out` at `at`; returns the end offset.
#[inline]
fn put_varint(out: &mut [u8; MAX_RECORD], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = (v & 0x7F) as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

// ---------------------------------------------------------------------------
// Encoder.

/// Encoded records collect in the encoder's buffer until it holds this
/// many bytes; then they are CRC'd and written in one call each.
const ENCODE_FLUSH: usize = 4096;

/// Encoded records awaiting their CRC and write-out. The buffer has a
/// fixed size with room for one more record past [`ENCODE_FLUSH`], so a
/// record is written straight into its tail with no capacity checks.
struct RecordBuf {
    bytes: Box<[u8]>,
    len: usize,
    /// IP the next record's instruction is expected at (the previous
    /// record's `next_ip`).
    expected_ip: Addr,
}

impl RecordBuf {
    fn new() -> RecordBuf {
        RecordBuf {
            bytes: vec![0; ENCODE_FLUSH + MAX_RECORD].into_boxed_slice(),
            len: 0,
            expected_ip: Addr::NULL,
        }
    }

    /// Appends one record; returns whether the buffer is due for a flush.
    #[inline]
    fn push(&mut self, d: &DynInst) -> bool {
        let tail = &mut self.bytes[self.len..self.len + MAX_RECORD];
        let out = tail.try_into().expect("a flushed buffer has room for one record");
        self.len += encode_record(out, self.expected_ip, d);
        self.expected_ip = d.next_ip;
        self.len >= ENCODE_FLUSH
    }

    /// The encoded records, then empties the buffer.
    fn take(&mut self) -> &[u8] {
        let len = std::mem::take(&mut self.len);
        &self.bytes[..len]
    }
}

/// Writer half of the codec: call [`Encoder::record`] once per dynamic
/// instruction, then [`Encoder::finish`] to emit the CRC trailer.
pub struct Encoder<W: Write> {
    out: W,
    records: RecordBuf,
    crc: u32,
    remaining: u64,
}

impl<W: Write> Encoder<W> {
    /// Writes the header for a trace of exactly `count` instructions.
    pub fn new(mut out: W, name: &str, count: u64, stats: ExecStats) -> Result<Self, TraceError> {
        out.write_all(&MAGIC)?;
        let mut buf = Vec::with_capacity(64 + name.len());
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let name_len = u16::try_from(name.len())
            .map_err(|_| TraceError::Corrupt("trace name longer than 64 KiB".into()))?;
        buf.extend_from_slice(&name_len.to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        for v in
            [stats.insts, stats.uops, stats.elided_calls, stats.wrapped_returns, stats.interrupts]
        {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(&buf)?;
        let crc = crc32_update(0, &buf);
        Ok(Encoder { out, records: RecordBuf::new(), crc, remaining: count })
    }

    /// Appends one dynamic instruction.
    ///
    /// # Panics
    ///
    /// Panics if called more than `count` times.
    pub fn record(&mut self, d: &DynInst) -> Result<(), TraceError> {
        assert!(self.remaining > 0, "encoder received more records than declared");
        self.remaining -= 1;
        if self.records.push(d) {
            self.write_records()?;
        }
        Ok(())
    }

    /// CRCs and writes the buffered records.
    fn write_records(&mut self) -> Result<(), TraceError> {
        let bytes = self.records.take();
        self.crc = crc32_update(self.crc, bytes);
        self.out.write_all(bytes)?;
        Ok(())
    }

    /// Writes the CRC trailer and flushes.
    ///
    /// # Panics
    ///
    /// Panics if fewer records were written than declared in the header.
    pub fn finish(mut self) -> Result<(), TraceError> {
        assert_eq!(self.remaining, 0, "encoder finished before all declared records");
        self.write_records()?;
        self.out.write_all(&self.crc.to_le_bytes())?;
        self.out.flush()?;
        Ok(())
    }
}

/// Encodes one record into the front of `out`, given the stateful
/// expected continuation IP; returns the record's length in bytes.
/// Shared by [`Encoder`] and [`StreamEncoder`] (through [`RecordBuf`])
/// so the two paths cannot drift byte-wise.
#[inline]
fn encode_record(out: &mut [u8; MAX_RECORD], expected_ip: Addr, d: &DynInst) -> usize {
    let ip = d.inst.ip;
    let mut flags = branch_kind_code(d.inst.branch);
    if d.taken {
        flags |= FLAG_TAKEN;
    }
    if d.inst.target.is_some() {
        flags |= FLAG_HAS_TARGET;
    }
    let next_seq = d.next_ip == d.inst.next_seq();
    if next_seq {
        flags |= FLAG_NEXT_SEQ;
    }
    let ip_expected = ip == expected_ip;
    if ip_expected {
        flags |= FLAG_IP_EXPECTED;
    }
    debug_assert!((1..=15).contains(&d.inst.len) && (1..=4).contains(&d.inst.uops));
    out[0] = flags;
    out[1] = d.inst.len | ((d.inst.uops - 1) << 4);
    let mut n = 2;
    if !ip_expected {
        let delta = ip.raw().wrapping_sub(expected_ip.raw()) as i64;
        n = put_varint(out, n, zigzag(delta));
    }
    if let Some(t) = d.inst.target {
        n = put_varint(out, n, zigzag(t.raw().wrapping_sub(ip.raw()) as i64));
    }
    if !next_seq {
        n = put_varint(out, n, zigzag(d.next_ip.raw().wrapping_sub(ip.raw()) as i64));
    }
    n
}

// ---------------------------------------------------------------------------
// Streaming encoder.

/// Streaming writer half of the codec, for captures whose [`ExecStats`]
/// are not known until the last instruction has executed.
///
/// [`Encoder`] requires the stats up front because they sit in the
/// header, *before* the records — fine when the whole trace is resident,
/// wrong for a chunked capture that learns the stats only at the end.
/// `StreamEncoder` writes the header with zeroed stats, streams records
/// with a records-only running CRC, then [`StreamEncoder::finish`] seeks
/// back, patches the real stats in, and emits a trailer computed with
/// [`crc32_combine`] — so the bytes on disk are identical to what
/// [`Encoder`] would have produced, without buffering records or making
/// a second pass over them.
pub struct StreamEncoder<W: Write + Seek> {
    out: W,
    records: RecordBuf,
    /// CRC of the header bytes before the stats field (version..count).
    crc_prefix: u32,
    /// Running CRC over record bytes only, seeded from 0.
    crc_records: u32,
    /// Total record bytes written, for [`crc32_combine`].
    records_len: u64,
    /// Absolute file offset of the 40-byte stats field.
    stats_pos: u64,
    remaining: u64,
}

impl<W: Write + Seek> StreamEncoder<W> {
    /// Writes the header for a trace of exactly `count` instructions,
    /// with a zeroed stats field to be patched by
    /// [`StreamEncoder::finish`].
    pub fn new(mut out: W, name: &str, count: u64) -> Result<Self, TraceError> {
        out.write_all(&MAGIC)?;
        let mut buf = Vec::with_capacity(64 + name.len());
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let name_len = u16::try_from(name.len())
            .map_err(|_| TraceError::Corrupt("trace name longer than 64 KiB".into()))?;
        buf.extend_from_slice(&name_len.to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        let crc_prefix = crc32_update(0, &buf);
        let stats_pos = (MAGIC.len() + buf.len()) as u64;
        buf.extend_from_slice(&[0u8; 40]); // stats placeholder
        out.write_all(&buf)?;
        Ok(StreamEncoder {
            out,
            records: RecordBuf::new(),
            crc_prefix,
            crc_records: 0,
            records_len: 0,
            stats_pos,
            remaining: count,
        })
    }

    /// Appends one dynamic instruction.
    ///
    /// Inlined into the capture loop, which calls it once per
    /// instruction: left to the optimizer the call was outlined in some
    /// builds, costing capture throughput.
    ///
    /// # Panics
    ///
    /// Panics if called more than `count` times.
    #[inline]
    pub fn record(&mut self, d: &DynInst) -> Result<(), TraceError> {
        assert!(self.remaining > 0, "encoder received more records than declared");
        self.remaining -= 1;
        if self.records.push(d) {
            self.write_records()?;
        }
        Ok(())
    }

    /// CRCs and writes the buffered records.
    fn write_records(&mut self) -> Result<(), TraceError> {
        let bytes = self.records.take();
        self.crc_records = crc32_update(self.crc_records, bytes);
        self.records_len += bytes.len() as u64;
        self.out.write_all(bytes)?;
        Ok(())
    }

    /// Patches the real `stats` into the header, writes the CRC trailer
    /// and flushes. Until this returns the file is unreadable (zeroed
    /// stats, missing trailer) — callers must treat it as garbage, which
    /// the store's write-to-temp-then-rename finalize guarantees.
    ///
    /// # Panics
    ///
    /// Panics if fewer records were written than declared in the header.
    pub fn finish(mut self, stats: ExecStats) -> Result<(), TraceError> {
        assert_eq!(self.remaining, 0, "encoder finished before all declared records");
        self.write_records()?;
        let mut stats_bytes = [0u8; 40];
        for (i, v) in
            [stats.insts, stats.uops, stats.elided_calls, stats.wrapped_returns, stats.interrupts]
                .into_iter()
                .enumerate()
        {
            stats_bytes[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        self.out.seek(SeekFrom::Start(self.stats_pos))?;
        self.out.write_all(&stats_bytes)?;
        let crc_header = crc32_update(self.crc_prefix, &stats_bytes);
        let crc = crc32_combine(crc_header, self.crc_records, self.records_len);
        self.out.seek(SeekFrom::Start(self.stats_pos + 40 + self.records_len))?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.flush()?;
        Ok(())
    }
}

fn branch_kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::None => 0,
        BranchKind::CondDirect => 1,
        BranchKind::UncondDirect => 2,
        BranchKind::CallDirect => 3,
        BranchKind::IndirectJump => 4,
        BranchKind::IndirectCall => 5,
        BranchKind::Return => 6,
    }
}

fn branch_kind_from_code(code: u8) -> Option<BranchKind> {
    Some(match code {
        0 => BranchKind::None,
        1 => BranchKind::CondDirect,
        2 => BranchKind::UncondDirect,
        3 => BranchKind::CallDirect,
        4 => BranchKind::IndirectJump,
        5 => BranchKind::IndirectCall,
        6 => BranchKind::Return,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Streaming decoder.

/// Bytes the decoder asks its input for per refill. Also bounds the
/// header's name field (a `u16` length), so every header field fits one
/// block.
const BLOCK: usize = 64 * 1024;

/// Why [`decode_record`] stopped without a record. Kept allocation-free
/// (and small) so the hot path moves no strings; the message is built
/// only when the error surfaces as a [`TraceError`].
#[derive(Clone, Copy)]
enum RecordError {
    /// The bytes end mid-record: refill and retry (at EOF: truncation).
    Short,
    ReservedFlag,
    BranchKind,
    Shape(u8),
    TargetPresence(BranchKind),
    VarintOverflow,
}

impl From<RecordError> for TraceError {
    #[cold]
    fn from(e: RecordError) -> Self {
        TraceError::Corrupt(match e {
            RecordError::Short => "truncated file".into(),
            RecordError::ReservedFlag => "reserved flag bit set".into(),
            RecordError::BranchKind => "invalid branch kind".into(),
            RecordError::Shape(shape) => format!("invalid shape byte {shape:#04x}"),
            RecordError::TargetPresence(branch) => {
                format!("target presence contradicts branch kind {branch:?}")
            }
            RecordError::VarintOverflow => "varint overflows 64 bits".into(),
        })
    }
}

/// Reads one varint at `bytes[*at..]`, advancing `at`. A valid varint is
/// at most 10 bytes, so a record is at most 2 + 3 × 10 bytes.
#[inline(always)]
fn take_varint(bytes: &[u8], at: &mut usize) -> Result<u64, RecordError> {
    match bytes.get(*at) {
        Some(&byte) if byte & 0x80 == 0 => {
            *at += 1;
            Ok(byte as u64)
        }
        Some(_) => take_long_varint(bytes, at),
        None => Err(RecordError::Short),
    }
}

/// [`take_varint`] for values of two bytes or more.
fn take_long_varint(bytes: &[u8], at: &mut usize) -> Result<u64, RecordError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*at) else { return Err(RecordError::Short) };
        *at += 1;
        if shift >= 63 && byte > 1 {
            return Err(RecordError::VarintOverflow);
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decodes the record at the front of `bytes`, given the expected
/// continuation IP. Returns the instruction and the bytes it occupied.
/// The one record decoder: [`TraceReader`]'s iterator and batch paths
/// both go through it, and a record cut by the end of `bytes` is reported
/// as [`RecordError::Short`] rather than misdecoded.
#[inline(always)]
fn decode_record(bytes: &[u8], expected_ip: Addr) -> Result<(DynInst, usize), RecordError> {
    let [flags, shape, ..] = *bytes else { return Err(RecordError::Short) };
    if flags & 0x80 != 0 {
        return Err(RecordError::ReservedFlag);
    }
    let branch = branch_kind_from_code(flags & 0x07).ok_or(RecordError::BranchKind)?;
    let len = shape & 0x0F;
    let uops = (shape >> 4) + 1;
    if len == 0 || uops > Inst::MAX_UOPS || shape >> 6 != 0 {
        return Err(RecordError::Shape(shape));
    }
    let mut at = 2;
    let ip = if flags & FLAG_IP_EXPECTED != 0 {
        expected_ip
    } else {
        let delta = unzigzag(take_varint(bytes, &mut at)?);
        Addr::new(expected_ip.raw().wrapping_add(delta as u64))
    };
    let has_target = flags & FLAG_HAS_TARGET != 0;
    let wants_target = matches!(
        branch,
        BranchKind::CondDirect | BranchKind::UncondDirect | BranchKind::CallDirect
    );
    if wants_target != has_target {
        return Err(RecordError::TargetPresence(branch));
    }
    let target = if has_target {
        let delta = unzigzag(take_varint(bytes, &mut at)?);
        Some(Addr::new(ip.raw().wrapping_add(delta as u64)))
    } else {
        None
    };
    // Every invariant `Inst::new` asserts was checked above.
    let inst = Inst { ip, len, uops, branch, target };
    let next_ip = if flags & FLAG_NEXT_SEQ != 0 {
        inst.next_seq()
    } else {
        let delta = unzigzag(take_varint(bytes, &mut at)?);
        Addr::new(ip.raw().wrapping_add(delta as u64))
    };
    Ok((DynInst { inst, taken: flags & FLAG_TAKEN != 0, next_ip }, at))
}

/// Streaming trace decoder: an iterator of [`DynInst`]s over any byte
/// source.
///
/// The input is read in blocks of at most 64 KiB and records are decoded
/// straight out of the block, so memory is one block however long the
/// trace is. Only a record cut by the end of a block waits for a refill;
/// the CRC folds each consumed range of the block in one call. The CRC
/// trailer is verified after the final record; a mismatch (or any
/// truncation / field corruption) surfaces as an `Err`, never a panic.
/// [`TraceReader::read_into`] is the batch form of the iterator.
///
/// # Examples
///
/// ```
/// use xbc_workload::{standard_traces, Trace, TraceReader};
///
/// let trace = standard_traces()[0].capture(500);
/// let mut buf = Vec::new();
/// trace.save(&mut buf).unwrap();
/// let mut reader = TraceReader::new(buf.as_slice()).unwrap();
/// assert_eq!(reader.name(), trace.name());
/// assert_eq!(reader.inst_count(), 500);
/// let insts: Result<Vec<_>, _> = reader.by_ref().collect();
/// assert_eq!(insts.unwrap(), trace.insts());
/// ```
pub struct TraceReader<R: Read> {
    input: R,
    /// The read block: `block[pos..end]` is read but not yet decoded.
    block: Box<[u8]>,
    pos: usize,
    end: usize,
    /// `block[crc_from..pos]` is decoded but not yet folded into `crc`.
    crc_from: usize,
    crc: u32,
    name: String,
    count: u64,
    stats: ExecStats,
    expected_ip: Addr,
    remaining: u64,
    /// Set after the trailer has been verified (or an error was yielded);
    /// the reader is fused from then on.
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] on bad magic or malformed header
    /// fields, [`TraceError::Version`] on a format-version mismatch.
    pub fn new(input: R) -> Result<Self, TraceError> {
        let mut r = TraceReader {
            input,
            block: vec![0u8; BLOCK].into_boxed_slice(),
            pos: 0,
            end: 0,
            crc_from: 0,
            crc: 0,
            name: String::new(),
            count: 0,
            stats: ExecStats::default(),
            expected_ip: Addr::NULL,
            remaining: 0,
            done: false,
        };
        if r.consume(4)? != MAGIC {
            return Err(TraceError::Corrupt("bad magic (not an XBT trace file)".into()));
        }
        r.crc_from = r.pos; // the CRC covers everything after the magic
        let version = u32::from_le_bytes(r.consume_array()?);
        if version != FORMAT_VERSION {
            return Err(TraceError::Version(version));
        }
        let name_len = u16::from_le_bytes(r.consume_array()?) as usize;
        r.name = String::from_utf8(r.consume(name_len)?.to_vec())
            .map_err(|_| TraceError::Corrupt("trace name is not UTF-8".into()))?;
        r.count = u64::from_le_bytes(r.consume_array()?);
        let mut s = [0u64; 5];
        for v in &mut s {
            *v = u64::from_le_bytes(r.consume_array()?);
        }
        r.stats = ExecStats {
            insts: s[0],
            uops: s[1],
            elided_calls: s[2],
            wrapped_returns: s[3],
            interrupts: s[4],
        };
        r.remaining = r.count;
        Ok(r)
    }

    /// Trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared dynamic instruction count.
    pub fn inst_count(&self) -> u64 {
        self.count
    }

    /// Capture-time executor statistics from the header.
    pub fn exec_stats(&self) -> ExecStats {
        self.stats
    }

    /// Decodes up to `max` records onto the end of `out` and returns how
    /// many it appended. Reaching the last record within the call also
    /// verifies the CRC trailer, so a return value below `max` means the
    /// trace ended intact; `Ok(0)` with `max > 0` means it had already
    /// ended. Records appended before an `Err` are not validated.
    ///
    /// # Errors
    ///
    /// Same as the iterator: truncation, field corruption, CRC mismatch
    /// or an I/O failure. The reader is fused after an error.
    pub fn read_into(&mut self, out: &mut Vec<DynInst>, max: usize) -> Result<usize, TraceError> {
        self.decode_batch(max, |d| out.push(d))
    }

    /// Decodes and discards the rest of the trace, checking every record
    /// and the CRC trailer in O(block) memory: the whole validation pass
    /// on a fresh reader, the verdict's tail on a partly read one.
    ///
    /// # Errors
    ///
    /// Same as [`TraceReader::read_into`].
    pub fn skip_rest(&mut self) -> Result<(), TraceError> {
        self.decode_batch(usize::MAX, |_| {}).map(drop)
    }

    /// The one decode loop behind the iterator, [`TraceReader::read_into`]
    /// and [`TraceReader::skip_rest`]: decodes up to `max` records, hands
    /// each to `emit`, and checks the trailer once the records run out
    /// within the call. Records are decoded from a local cursor over the
    /// block; only a record cut by the end of the block leaves the inner
    /// loop, to refill and retry.
    #[inline(always)]
    fn decode_batch(
        &mut self,
        max: usize,
        mut emit: impl FnMut(DynInst),
    ) -> Result<usize, TraceError> {
        if self.done {
            return Ok(0);
        }
        let n = (max as u64).min(self.remaining) as usize;
        let mut left = n;
        while left > 0 {
            let bytes = &self.block[self.pos..self.end];
            let (mut at, mut ip) = (0, self.expected_ip);
            let mut stop = None;
            while left > 0 {
                match decode_record(&bytes[at..], ip) {
                    Ok((d, used)) => {
                        at += used;
                        ip = d.next_ip;
                        emit(d);
                        left -= 1;
                    }
                    Err(e) => {
                        stop = Some(e);
                        break;
                    }
                }
            }
            self.pos += at;
            self.expected_ip = ip;
            if let Some(e) = stop {
                if let Err(e) = self.resume(e) {
                    self.done = true;
                    return Err(e);
                }
            }
        }
        self.remaining -= n as u64;
        if n < max {
            self.read_trailer()?;
        }
        Ok(n)
    }

    /// Handles a record [`decode_record`] could not decode: refills the
    /// block if the record was merely cut short, else reports the error.
    #[cold]
    fn resume(&mut self, e: RecordError) -> Result<(), TraceError> {
        match e {
            RecordError::Short if self.refill()? => Ok(()),
            e => Err(e.into()),
        }
    }

    /// Folds the consumed bytes into the CRC, moves the undecoded tail to
    /// the front of the block and reads once into the space behind it.
    /// Returns `false` at end of input.
    fn refill(&mut self) -> Result<bool, TraceError> {
        self.crc = crc32_update(self.crc, &self.block[self.crc_from..self.pos]);
        self.block.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        self.crc_from = 0;
        loop {
            match self.input.read(&mut self.block[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Consumes exactly `n <= BLOCK` bytes. The refill always leaves room
    /// for them: it only runs while fewer than `n` bytes are buffered.
    fn consume(&mut self, n: usize) -> Result<&[u8], TraceError> {
        debug_assert!(n <= BLOCK);
        while self.end - self.pos < n {
            if !self.refill()? {
                return Err(RecordError::Short.into());
            }
        }
        self.pos += n;
        Ok(&self.block[self.pos - n..self.pos])
    }

    fn consume_array<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        Ok(self.consume(N)?.try_into().expect("consume returns exactly N bytes"))
    }

    /// Checks the CRC trailer against everything read before it, requires
    /// the input to end right after it, and fuses the reader.
    fn read_trailer(&mut self) -> Result<(), TraceError> {
        self.done = true;
        self.crc = crc32_update(self.crc, &self.block[self.crc_from..self.pos]);
        self.crc_from = self.pos;
        let stored = u32::from_le_bytes(self.consume_array()?);
        if stored != self.crc {
            return Err(TraceError::Corrupt(format!(
                "CRC mismatch: stored {stored:#010x}, computed {:#010x}",
                self.crc
            )));
        }
        self.crc_from = self.pos;
        if self.pos < self.end || self.refill()? {
            return Err(TraceError::Corrupt("trailing bytes after the CRC trailer".into()));
        }
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<DynInst, TraceError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let mut record = None;
        match self.decode_batch(1, |d| record = Some(d)) {
            Ok(_) => record.map(Ok),
            Err(e) => Some(Err(e)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            // +1 for the possible trailing CRC error item.
            (self.remaining as usize, Some(self.remaining as usize + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{standard_traces, Trace};

    fn sample_trace() -> Trace {
        standard_traces()[0].capture(2_000)
    }

    fn encode(trace: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        trace.save(&mut buf).unwrap();
        buf
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental == one-shot.
        let a = crc32_update(crc32_update(0, b"1234"), b"56789");
        assert_eq!(a, 0xCBF4_3926);
    }

    #[test]
    fn crc32_combine_matches_sequential() {
        let data: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let whole = crc32(&data);
        for split in [0, 1, 2, 7, 40, 255, 256, 1024, 4095, 4096] {
            let (a, b) = data.split_at(split);
            let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, whole, "split at {split}");
        }
        // Empty-prefix and known-vector sanity.
        assert_eq!(crc32_combine(crc32(b"1234"), crc32(b"56789"), 5), 0xCBF4_3926);
    }

    #[test]
    fn stream_encoder_is_byte_identical_to_encoder() {
        let t = sample_trace();
        let resident = encode(&t);
        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut enc = StreamEncoder::new(&mut cursor, t.name(), t.inst_count() as u64).unwrap();
        for d in t.insts() {
            enc.record(d).unwrap();
        }
        enc.finish(t.exec_stats()).unwrap();
        assert_eq!(cursor.into_inner(), resident);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample_trace();
        let buf = encode(&t);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.name(), t.name());
        assert_eq!(r.inst_count(), t.inst_count() as u64);
        assert_eq!(r.exec_stats(), t.exec_stats());
        let decoded: Vec<DynInst> = r.by_ref().map(|d| d.unwrap()).collect();
        assert_eq!(decoded, t.insts());
    }

    #[test]
    fn compact_relative_to_fixed_width() {
        // A connected trace should cost only a few bytes per instruction —
        // far below the ~26-byte fixed-width lower bound (ip, next_ip,
        // target, shape).
        let t = sample_trace();
        let buf = encode(&t);
        let per_inst = buf.len() as f64 / t.inst_count() as f64;
        assert!(per_inst < 6.0, "encoding too fat: {per_inst:.2} bytes/inst");
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // Flip one byte at a time across a small file: every corruption
        // must surface as Err (CRC at minimum), never a panic, and never
        // a silently different stream.
        let t = standard_traces()[0].capture(50);
        let buf = encode(&t);
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x41;
            let outcome: Result<Vec<DynInst>, TraceError> = match TraceReader::new(bad.as_slice()) {
                Ok(r) => r.collect(),
                Err(e) => Err(e),
            };
            match outcome {
                Err(_) => {}
                Ok(decoded) => {
                    panic!("flip at byte {pos} went undetected ({} insts decoded)", decoded.len())
                }
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let t = sample_trace();
        let buf = encode(&t);
        for cut in [3, 10, buf.len() / 2, buf.len() - 1] {
            let outcome: Result<Vec<DynInst>, TraceError> = match TraceReader::new(&buf[..cut]) {
                Ok(r) => r.collect(),
                Err(e) => Err(e),
            };
            assert!(outcome.is_err(), "truncation at {cut} went undetected");
        }
    }

    #[test]
    fn version_mismatch_is_reported() {
        let t = standard_traces()[0].capture(10);
        let mut buf = encode(&t);
        buf[4] = 99; // version field follows the 4-byte magic
        match TraceReader::new(buf.as_slice()) {
            Err(TraceError::Version(99)) => {}
            Err(other) => panic!("expected version error, got {other}"),
            Ok(_) => panic!("expected version error, got a reader"),
        }
    }

    /// The textbook bit-at-a-time CRC32, as the reference for the
    /// slice-by-8 tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    #[test]
    fn slice_by_8_crc_matches_bitwise_reference() {
        let data: Vec<u8> = (0..80u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len} at offset {offset}");
                // Split anywhere: incremental updates agree with one shot.
                let (a, b) = bytes.split_at(len / 3);
                assert_eq!(crc32_update(crc32(a), b), crc32_bitwise(bytes));
            }
        }
    }

    /// Serves 1–7 bytes per `read`, the count drawn from a seeded
    /// generator, so records and header fields split across reads at
    /// every possible point.
    struct ShortReads<'a> {
        bytes: &'a [u8],
        rng: crate::Rng64,
    }

    impl<'a> ShortReads<'a> {
        fn new(bytes: &'a [u8], seed: u64) -> Self {
            ShortReads { bytes, rng: crate::Rng64::seed_from_u64(seed) }
        }
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = (1 + self.rng.uniform(7) as usize).min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn decode_all<R: Read>(input: R) -> Result<Vec<DynInst>, TraceError> {
        TraceReader::new(input)?.collect()
    }

    /// A trace whose encoding spans three read blocks (two block
    /// boundaries inside the records, plus the trailer).
    fn three_block_trace() -> (Trace, Vec<u8>) {
        let t = standard_traces()[3].capture(56_000);
        let buf = encode(&t);
        assert!(buf.len() > 2 * BLOCK + 1024, "{} bytes is under three blocks", buf.len());
        (t, buf)
    }

    /// Byte offsets at and within ±40 bytes of every block boundary and
    /// of the trailer.
    fn boundary_offsets(len: usize) -> Vec<usize> {
        let mut edges: Vec<usize> = (1..).map(|k| k * BLOCK).take_while(|&b| b < len).collect();
        edges.push(len - 4);
        let mut offsets: Vec<usize> =
            edges.iter().flat_map(|&e| e.saturating_sub(40)..(e + 41).min(len)).collect();
        offsets.dedup();
        offsets
    }

    #[test]
    fn block_decoder_matches_the_resident_trace_through_short_reads() {
        let (t, buf) = three_block_trace();
        assert_eq!(decode_all(buf.as_slice()).unwrap(), t.insts());
        for seed in 0..3 {
            assert_eq!(decode_all(ShortReads::new(&buf, seed)).unwrap(), t.insts(), "seed {seed}");
        }
    }

    /// Validates `input` end to end (the same decode loop the iterator
    /// runs, minus collecting the records).
    fn validate<R: Read>(input: R) -> Result<(), TraceError> {
        TraceReader::new(input)?.skip_rest()
    }

    #[test]
    fn corruption_at_block_boundaries_and_trailer_is_detected() {
        let (_, buf) = three_block_trace();
        for (i, pos) in boundary_offsets(buf.len()).into_iter().enumerate() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x41;
            assert!(validate(bad.as_slice()).is_err(), "flip at byte {pos} went undetected");
            assert!(
                validate(ShortReads::new(&bad, i as u64)).is_err(),
                "flip at byte {pos} went undetected through short reads"
            );
            let cut = &buf[..pos];
            assert!(validate(cut).is_err(), "truncation at {pos} went undetected");
            assert!(
                validate(ShortReads::new(cut, i as u64)).is_err(),
                "truncation at {pos} went undetected through short reads"
            );
        }
    }

    #[test]
    fn read_into_matches_the_iterator_at_any_batch_size() {
        let (t, buf) = three_block_trace();
        for (seed, sizes) in [&[1usize][..], &[3, 7, 1000, 4093], &[65_537]].into_iter().enumerate()
        {
            let mut r = TraceReader::new(ShortReads::new(&buf, seed as u64)).unwrap();
            let mut got = Vec::new();
            for &max in sizes.iter().cycle() {
                let before = got.len();
                let n = r.read_into(&mut got, max).unwrap();
                assert_eq!(got.len() - before, n);
                if n < max {
                    break;
                }
            }
            assert_eq!(got, t.insts(), "batch sizes {sizes:?}");
            // Past the end: nothing more, no error, however often asked.
            assert_eq!(r.read_into(&mut got, 5).unwrap(), 0);
            assert_eq!(r.read_into(&mut got, 1).unwrap(), 0);
            assert!(r.next().is_none());
        }
    }

    #[test]
    fn skip_rest_validates_without_yielding() {
        let (_, buf) = three_block_trace();
        TraceReader::new(buf.as_slice()).unwrap().skip_rest().unwrap();
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(TraceReader::new(bad.as_slice()).unwrap().skip_rest().is_err());
    }

    #[test]
    fn trailing_bytes_after_the_crc_are_rejected() {
        let t = standard_traces()[0].capture(500);
        let clean = encode(&t);
        for extra in [1usize, 7, BLOCK + 3] {
            let mut bad = clean.clone();
            bad.resize(clean.len() + extra, 0);
            assert!(validate(bad.as_slice()).is_err(), "{extra} trailing bytes accepted");
            assert!(validate(ShortReads::new(&bad, extra as u64)).is_err());
            assert!(Trace::load(bad.as_slice()).is_err(), "{extra} trailing bytes loaded");
        }
        validate(ShortReads::new(&clean, 9)).unwrap();
        assert_eq!(Trace::load(clean.as_slice()).unwrap().insts(), t.insts());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0x1234_5678_9ABC] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
