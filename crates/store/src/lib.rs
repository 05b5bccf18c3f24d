//! # xbc-store — content-addressed trace & result store
//!
//! The paper's methodology is trace-driven: capture a committed
//! instruction stream *once*, replay it through every frontend (§4).
//! This crate makes "once" literal across process boundaries. It is a
//! two-layer on-disk artifact cache:
//!
//! * **Trace store** — captured [`Trace`]s in the compact `XBT1` binary
//!   encoding (varint deltas, CRC32 trailer; see `xbc_workload::codec`),
//!   keyed by a content hash of `(TraceSpec, insts, format_version)`.
//!   Files are written atomically (tmp + rename) so concurrent sweeps
//!   never observe a half-written trace.
//! * **Result cache** — opaque result blobs (the sim layer stores sweep
//!   `Row`s as JSON) keyed by a caller-composed string that includes the
//!   trace identity, the frontend configuration, the instruction budget
//!   and a code-version stamp. Re-running any figure binary with
//!   unchanged parameters is a pure cache hit: zero captures, zero
//!   simulations.
//!
//! Corruption — a flipped bit, a truncated file, a stale format version —
//! degrades gracefully: the store logs the problem to stderr, deletes the
//! entry, and reports a miss so the caller regenerates. It never panics
//! on bad cache contents.
//!
//! # Examples
//!
//! ```
//! use xbc_store::Store;
//! use xbc_workload::standard_traces;
//!
//! let dir = std::env::temp_dir().join(format!("xbc-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir).unwrap();
//! let spec = &standard_traces()[0];
//! let first = store.get_or_capture(spec, 2_000);   // capture + store
//! let second = store.get_or_capture(spec, 2_000);  // pure disk hit
//! assert_eq!(first.insts(), second.insts());
//! assert_eq!(store.stats().trace_hits, 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};
use xbc_workload::codec::{crc32, FORMAT_VERSION};
use xbc_workload::{ChannelSource, DynInst, Trace, TraceSpec, TraceStream};

/// Magic of result-cache entries.
const RESULT_MAGIC: [u8; 4] = *b"XBR1";

/// Test-only fault injection for the store's concurrency seams.
///
/// Compiled under the `check` feature only; the hooks let fault-campaign
/// tests force the degraded paths (lock-acquire timeouts) that real
/// contention only produces probabilistically. The flags are
/// process-global: a store under fault injection behaves exactly like a
/// store whose every lock acquire lost its race — the advisory-lock
/// fallback semantics, never a new failure mode.
#[cfg(feature = "check")]
pub mod test_faults {
    use std::sync::atomic::{AtomicBool, Ordering};

    static LOCK_TIMEOUT: AtomicBool = AtomicBool::new(false);

    /// Forces every subsequent [`EntryLock::acquire`](super::EntryLock::acquire)
    /// to report an immediate timeout (`held == false`), as if the lock
    /// were contended past its deadline. Mutations then proceed
    /// unlocked — the documented advisory fallback.
    pub fn force_lock_timeout(on: bool) {
        LOCK_TIMEOUT.store(on, Ordering::SeqCst);
    }

    pub(crate) fn lock_timeout_forced() -> bool {
        LOCK_TIMEOUT.load(Ordering::SeqCst)
    }
}

/// How long a mutation waits for a contended entry lock before
/// proceeding anyway (the locks are advisory: a lost race degrades to
/// the pre-locking behaviour, it never wedges the store).
const LOCK_ACQUIRE_MS: u64 = 2_000;

/// Age past which a lock file is presumed abandoned (its holder died
/// between create and remove) and is stolen. Writes and evictions are
/// millisecond-scale, so seconds of age means a dead holder.
const LOCK_STALE_MS: u64 = 10_000;

/// An acquired (or timed-out) advisory entry lock. Dropping it releases
/// the lock by removing the lock file.
///
/// Implementation: `O_CREAT|O_EXCL` lock files next to the entry.
/// Creation is atomic; whoever creates the file owns the entry until
/// drop, and anyone can see who holds what with `ls`. Contenders spin
/// with a short sleep, steal locks older than [`LOCK_STALE_MS`] (see
/// [`EntryLock::steal_stale`]), and give up after [`LOCK_ACQUIRE_MS`] —
/// the locks are advisory, so a timeout proceeds unlocked rather than
/// failing.
#[doc(hidden)] // Public for the crate's own concurrency tests only.
pub struct EntryLock {
    path: PathBuf,
    /// Whether the lock was actually acquired (`false` after a timeout
    /// or when there was nothing to lock).
    pub held: bool,
}

/// Sidecar file, one per store directory and never deleted, whose
/// kernel advisory lock serializes stale-lock stealers.
const STEAL_SIDECAR: &str = ".steal-guard";

/// Whether the lock file at `path` exists and is older than
/// [`LOCK_STALE_MS`].
fn lock_is_stale(path: &Path) -> bool {
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|m| m.elapsed().ok())
        .is_some_and(|age| age.as_millis() as u64 > LOCK_STALE_MS)
}

impl EntryLock {
    /// Locks the entry at `path` (by convention: `<entry>.lock` in the
    /// same directory).
    pub fn acquire(entry: &Path) -> EntryLock {
        let mut name = entry.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(".lock");
        let path = entry.with_file_name(name);
        #[cfg(feature = "check")]
        if test_faults::lock_timeout_forced() {
            eprintln!(
                "[xbc-store] injected lock timeout for {}; proceeding unlocked",
                path.display()
            );
            return EntryLock { path, held: false };
        }
        let deadline = Instant::now() + Duration::from_millis(LOCK_ACQUIRE_MS);
        loop {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    // Holder pid, for post-mortem debugging of stale locks.
                    let _ = write!(f, "{}", std::process::id());
                    return EntryLock { path, held: true };
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    if lock_is_stale(&path) {
                        Self::steal_stale(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        eprintln!(
                            "[xbc-store] timed out waiting for {}; proceeding unlocked",
                            path.display()
                        );
                        return EntryLock { path, held: false };
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                // E.g. the parent directory vanished: nothing to lock.
                Err(_) => return EntryLock { path, held: false },
            }
        }
    }

    /// Steals a lock file judged stale, safely under contention.
    ///
    /// Stealers are serialized by a kernel advisory lock
    /// ([`fs::File::lock`]) on the directory's [`STEAL_SIDECAR`]; the
    /// kernel drops it if a stealer dies. Under it the lock is judged
    /// again: another stealer may already have removed the stale file
    /// and its winner created a *fresh* lock, which must not be taken.
    /// A fresh lock cannot replace a stale one while the sidecar is
    /// held — nobody removes a dead holder's file, and `create_new`
    /// fails while it exists — so the re-check and the steal see the
    /// same file. The file is renamed to a unique tombstone and its age
    /// checked once more. Should a holder that outlived the staleness
    /// window have released in between, so that the tombstone is a
    /// fresh lock, it is restored with `hard_link`, which fails rather
    /// than overwrite a lock created meanwhile.
    fn steal_stale(path: &Path) {
        static STEAL_SEQ: AtomicU64 = AtomicU64::new(0);
        let Ok(guard) = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path.with_file_name(STEAL_SIDECAR))
        else {
            return; // E.g. the directory vanished; the caller retries.
        };
        if guard.lock().is_err() || !lock_is_stale(path) {
            // Already stolen (and maybe freshly re-locked), or released:
            // the caller re-enters the `create_new` race either way.
            return;
        }
        let mut name = path.as_os_str().to_os_string();
        name.push(format!(
            ".stale-{}-{}",
            std::process::id(),
            STEAL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let tombstone = PathBuf::from(name);
        if fs::rename(path, &tombstone).is_err() {
            return;
        }
        if lock_is_stale(&tombstone) {
            eprintln!("[xbc-store] stealing stale lock {} (holder presumed dead)", path.display());
        } else {
            // We renamed a live lock. Put it back unless the path was
            // re-locked meanwhile, and go back to waiting on it.
            fs::hard_link(&tombstone, path).ok();
        }
        fs::remove_file(&tombstone).ok();
    }
}

impl Drop for EntryLock {
    fn drop(&mut self) {
        if self.held {
            fs::remove_file(&self.path).ok();
        }
    }
}

/// State of one in-flight computation: running until the leader
/// publishes a value or a failure.
enum FlightState<V> {
    Running,
    Done(V),
    Failed(String),
}

struct FlightSlot<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

/// What [`SingleFlight::join`] hands the caller: lead the computation,
/// share the leader's result, or learn the leader failed.
pub enum Flight<'a, V: Clone> {
    /// This caller won the race: it must compute the value and publish
    /// it through [`FlightLead::complete`] (or [`FlightLead::fail`]).
    Leader(FlightLead<'a, V>),
    /// Another caller was already computing this key; this is its
    /// published value.
    Shared(V),
    /// The in-flight leader failed (or was dropped without publishing).
    /// The key is free again — re-joining races to become the new
    /// leader.
    Failed(String),
}

/// The leader's obligation token: exactly one of [`complete`] or
/// [`fail`] must resolve it. Dropping it unresolved (a panic on the
/// leader's thread) publishes a failure so followers never wedge.
///
/// [`complete`]: FlightLead::complete
/// [`fail`]: FlightLead::fail
pub struct FlightLead<'a, V: Clone> {
    flights: &'a SingleFlight<V>,
    slot: Arc<FlightSlot<V>>,
    key: String,
    published: bool,
}

impl<V: Clone> FlightLead<'_, V> {
    fn publish(&mut self, state: FlightState<V>) {
        if self.published {
            return;
        }
        self.published = true;
        // Retire the slot first so late joiners start a fresh flight
        // instead of reading a result that may describe stale state,
        // then wake the followers already parked on this slot.
        let mut slots = self.flights.slots.lock().expect("flight table lock");
        if slots.get(&self.key).is_some_and(|s| Arc::ptr_eq(s, &self.slot)) {
            slots.remove(&self.key);
        }
        drop(slots);
        *self.slot.state.lock().expect("flight slot lock") = state;
        self.slot.cv.notify_all();
    }

    /// Publishes the computed value to every follower and retires the
    /// flight.
    pub fn complete(mut self, value: V) {
        self.publish(FlightState::Done(value));
    }

    /// Publishes a failure to every follower and retires the flight;
    /// followers see [`Flight::Failed`] and may re-join to retry.
    pub fn fail(mut self, why: &str) {
        self.publish(FlightState::Failed(why.to_owned()));
    }
}

impl<V: Clone> Drop for FlightLead<'_, V> {
    fn drop(&mut self) {
        self.publish(FlightState::Failed("flight leader dropped without publishing".into()));
    }
}

/// In-process single-flight table: at most one computation per key is
/// in flight at a time; concurrent requesters block and share the
/// leader's result instead of redoing the work.
///
/// This is the dedup primitive behind [`Store::get_or_capture`] and
/// [`Store::stream_capture_shared`]. Keys are
/// caller-composed content hashes (the same discipline as the store's
/// on-disk keys), values are cheap clones (`Arc`s in practice).
///
/// A flight exists only while its leader is computing, so a follower
/// never waits on work that is not actively running — which is also why
/// blocking in `join` cannot deadlock a fixed worker pool: every wait
/// chain ends at a leader making progress.
pub struct SingleFlight<V: Clone> {
    slots: Mutex<HashMap<String, Arc<FlightSlot<V>>>>,
}

impl<V: Clone> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl<V: Clone> SingleFlight<V> {
    /// An empty flight table.
    pub fn new() -> SingleFlight<V> {
        SingleFlight { slots: Mutex::new(HashMap::new()) }
    }

    /// Joins the flight for `key`: the first caller becomes the leader
    /// (and must resolve the returned [`FlightLead`]); concurrent
    /// callers block until the leader publishes and then share its
    /// value.
    pub fn join(&self, key: &str) -> Flight<'_, V> {
        let slot = {
            let mut slots = self.slots.lock().expect("flight table lock");
            match slots.get(key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(FlightSlot {
                        state: Mutex::new(FlightState::Running),
                        cv: Condvar::new(),
                    });
                    slots.insert(key.to_owned(), Arc::clone(&slot));
                    return Flight::Leader(FlightLead {
                        flights: self,
                        slot,
                        key: key.to_owned(),
                        published: false,
                    });
                }
            }
        };
        let mut state = slot.state.lock().expect("flight slot lock");
        loop {
            match &*state {
                FlightState::Running => state = slot.cv.wait(state).expect("flight slot cv"),
                FlightState::Done(v) => return Flight::Shared(v.clone()),
                FlightState::Failed(e) => return Flight::Failed(e.clone()),
            }
        }
    }

    /// Number of computations currently in flight (for tests and
    /// observability).
    pub fn in_flight(&self) -> usize {
        self.slots.lock().expect("flight table lock").len()
    }
}

/// What [`Store::stream_capture_shared`] resolved to.
pub enum StreamCapture<'a> {
    /// The entry already exists on disk — stream it with
    /// [`Store::open_trace_stream`].
    CacheHit,
    /// This caller won the race: a capture thread is now writing the
    /// entry, and the returned handle carries the live replay channel.
    Leader(OverlappedCapture<'a>),
    /// A concurrent caller's capture of the same entry just finished —
    /// the entry is on disk now; this caller did no capture work and
    /// bumped no counters.
    Joined,
}

/// What [`Store::replay_trace_stream`] resolved to.
#[must_use]
pub enum StreamReplay<T> {
    /// No usable entry (absent, or evicted for a bad header); the replay
    /// did not run.
    Miss,
    /// The replay consumed the entry and the entry passed its verdict.
    Verified(T),
    /// The replay ran but the entry failed its verdict: it was evicted
    /// and the replay's result dropped. Whatever the replay mutated is
    /// spent; fall back as on a miss, with fresh state.
    Corrupt,
}

/// A streamed capture in flight: a background thread is executing the
/// workload and encoding it to the store, tee'ing every chunk into a
/// bounded channel. The holder runs its simulation off
/// [`OverlappedCapture::take_source`] — *while the capture runs* — then
/// calls [`OverlappedCapture::finish`] to join the thread and publish
/// the entry to concurrent waiters.
///
/// Dropping this without `finish` publishes a single-flight failure so
/// waiters retry leading; the detached capture thread still persists the
/// entry, so a retrying leader finds it on disk.
pub struct OverlappedCapture<'a> {
    source: Option<ChannelSource>,
    lead: Option<FlightLead<'a, ()>>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

impl OverlappedCapture<'_> {
    /// Takes the replay channel (the consumer half of the tee). Call
    /// once; the source yields exactly the captured instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn take_source(&mut self) -> ChannelSource {
        self.source.take().expect("overlapped capture source already taken")
    }

    /// Waits for the capture thread to finish persisting the entry and
    /// publishes it to single-flight waiters. Returns the capture's
    /// wall-clock milliseconds (execution + encoding + finalize).
    ///
    /// # Panics
    ///
    /// Panics if the capture thread panicked (I/O failure writing the
    /// entry — the simulation fed from the tee channel would have
    /// panicked on the broken channel already).
    pub fn finish(mut self) -> u64 {
        let handle = self.handle.take().expect("overlapped capture already finished");
        let cap_ms = match handle.join() {
            Ok(ms) => ms,
            Err(_) => panic!("streamed capture thread panicked"),
        };
        self.lead.take().expect("flight lead present until finish").complete(());
        cap_ms
    }
}

/// FNV-1a 64-bit hash — the store's content-addressing primitive.
/// Stable by construction (unlike `DefaultHasher`, whose algorithm is
/// explicitly unspecified across releases), so cache keys survive
/// toolchain upgrades.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Counter snapshot of one [`Store`]'s activity (see [`Store::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Trace loads served from disk.
    pub trace_hits: u64,
    /// Trace loads that missed (no entry, or a corrupt entry deleted).
    pub trace_misses: u64,
    /// Result loads served from disk.
    pub result_hits: u64,
    /// Result loads that missed.
    pub result_misses: u64,
    /// Bytes read from cache files.
    pub bytes_read: u64,
    /// Bytes written to cache files.
    pub bytes_written: u64,
    /// Corrupt entries detected and deleted.
    pub corrupt_entries: u64,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "traces {}/{} hit, results {}/{} hit, {} KiB read, {} KiB written{}",
            self.trace_hits,
            self.trace_hits + self.trace_misses,
            self.result_hits,
            self.result_hits + self.result_misses,
            self.bytes_read / 1024,
            self.bytes_written / 1024,
            if self.corrupt_entries > 0 {
                format!(", {} corrupt entries regenerated", self.corrupt_entries)
            } else {
                String::new()
            }
        )
    }
}

#[derive(Default)]
struct Counters {
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    corrupt_entries: AtomicU64,
}

/// A content-addressed artifact store rooted at one directory
/// (`<root>/traces/*.xbt`, `<root>/results/*.xbr`).
///
/// All methods take `&self`; the store is safe to share across sweep
/// worker threads (stats are atomic, writes are tmp + rename).
pub struct Store {
    root: PathBuf,
    c: Counters,
    /// In-process single-flight dedup of trace entry creation: two
    /// threads asking for the same absent `(spec, insts)` entry capture
    /// it once and share the result (see [`Store::get_or_capture`]).
    capture_flights: SingleFlight<Arc<Trace>>,
    /// Single-flight dedup of *streamed* capture-to-disk (see
    /// [`Store::stream_capture_shared`]): the value is unit because the
    /// artifact is the on-disk entry, not an in-memory trace.
    stream_flights: SingleFlight<()>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store").field("root", &self.root).finish()
    }
}

impl Store {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory tree cannot be created.
    pub fn open<P: AsRef<Path>>(dir: P) -> std::io::Result<Store> {
        let root = dir.as_ref().to_path_buf();
        for sub in ["traces", "results"] {
            fs::create_dir_all(root.join(sub))?;
            Self::reclaim_orphans(&root.join(sub));
        }
        Ok(Store {
            root,
            c: Counters::default(),
            capture_flights: SingleFlight::new(),
            stream_flights: SingleFlight::new(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of hit/miss/byte counters since `open`.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            trace_hits: self.c.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.c.trace_misses.load(Ordering::Relaxed),
            result_hits: self.c.result_hits.load(Ordering::Relaxed),
            result_misses: self.c.result_misses.load(Ordering::Relaxed),
            bytes_read: self.c.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.c.bytes_written.load(Ordering::Relaxed),
            corrupt_entries: self.c.corrupt_entries.load(Ordering::Relaxed),
        }
    }

    /// The identity of a `(spec, insts)` capture: every field that
    /// determines the committed stream, plus the on-disk format version
    /// so format bumps invalidate rather than misdecode.
    fn trace_key(spec: &TraceSpec, insts: usize) -> u64 {
        let canon = format!(
            "trace|name={}|suite={}|seed={}|functions={}|insts={insts}|fmt={FORMAT_VERSION}",
            spec.name, spec.suite, spec.seed, spec.functions
        );
        fnv1a64(canon.as_bytes())
    }

    fn trace_path(&self, spec: &TraceSpec, insts: usize) -> PathBuf {
        let key = Self::trace_key(spec, insts);
        self.root.join("traces").join(format!("{}-{key:016x}.xbt", spec.name))
    }

    /// Loads a cached trace, or returns `None` on a miss. A corrupt or
    /// mismatched entry is logged, deleted and reported as a miss.
    pub fn load_trace(&self, spec: &TraceSpec, insts: usize) -> Option<Trace> {
        let path = self.trace_path(spec, insts);
        let file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(_) => {
                self.c.trace_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let size = file.metadata().map(|m| m.len()).unwrap_or(0);
        match Trace::load(BufReader::new(file)) {
            Ok(trace) if trace.name() == spec.name && trace.inst_count() == insts => {
                self.c.trace_hits.fetch_add(1, Ordering::Relaxed);
                self.c.bytes_read.fetch_add(size, Ordering::Relaxed);
                Some(trace)
            }
            Ok(trace) => {
                self.evict(
                    &path,
                    &format!(
                        "entry is {} x {} insts, wanted {} x {insts} insts",
                        trace.name(),
                        trace.inst_count(),
                        spec.name
                    ),
                );
                None
            }
            Err(e) => {
                self.evict(&path, &e.to_string());
                None
            }
        }
    }

    /// Writes a captured trace atomically (tmp + rename). A failure to
    /// persist is logged and swallowed: the cache is an accelerator, not
    /// a correctness dependency.
    pub fn store_trace(&self, spec: &TraceSpec, insts: usize, trace: &Trace) {
        let path = self.trace_path(spec, insts);
        match self.write_atomic(&path, |w| trace.save(w).map_err(std::io::Error::other)) {
            Ok(bytes) => {
                self.c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => eprintln!("[xbc-store] failed to store trace {}: {e}", path.display()),
        }
    }

    /// Loads the trace from the store or captures it fresh (storing the
    /// capture for next time). The returned trace is identical either
    /// way — that is the store's whole contract.
    ///
    /// Entry creation is single-flight: the first caller to miss on an
    /// entry loads or captures it, and every caller racing on the same
    /// entry blocks briefly and shares the leader's `Arc` without
    /// touching the store's counters, so concurrent callers count one
    /// `trace_misses` per created entry.
    pub fn get_or_capture(&self, spec: &TraceSpec, insts: usize) -> Arc<Trace> {
        let key = format!("{}|{:016x}", spec.name, Self::trace_key(spec, insts));
        loop {
            match self.capture_flights.join(&key) {
                Flight::Leader(lead) => {
                    let t = Arc::new(self.load_trace(spec, insts).unwrap_or_else(|| {
                        let t = spec.capture(insts);
                        self.store_trace(spec, insts, &t);
                        t
                    }));
                    lead.complete(Arc::clone(&t));
                    return t;
                }
                Flight::Shared(t) => return t,
                // The leader died mid-capture (panic on its thread);
                // race to become the new leader and redo the work.
                Flight::Failed(_) => continue,
            }
        }
    }

    /// Opens a cached trace as a *streaming* source, or returns `None` on
    /// a miss.
    ///
    /// This is the replay path for consumers that must keep host memory
    /// O(window) instead of materialising the whole `Trace`. Opening
    /// checks only the header and its identity (name, instruction
    /// count); a bad or mismatched header is evicted and reported as
    /// `None`, exactly like [`Store::load_trace`]. The records and the
    /// CRC trailer are checked by the replay's own decode, and the
    /// verdict is [`TraceStream::finish`]: a caller must not publish
    /// anything it computed from the stream until that returns `Ok`.
    /// [`Store::replay_trace_stream`] wraps open, replay and verdict in
    /// one call, evicting an entry that fails it.
    ///
    /// An absent entry returns `None` *without* counting a miss, so a
    /// caller falling back to [`Store::get_or_capture`] doesn't count
    /// the same miss twice. An opened hit counts `trace_hits` and
    /// `bytes_read` once.
    pub fn open_trace_stream(
        &self,
        spec: &TraceSpec,
        insts: usize,
    ) -> Option<TraceStream<BufReader<fs::File>>> {
        let opened = self.open_stream_uncounted(spec, insts)?;
        self.count_trace_hit(&opened.meta);
        Some(opened.stream)
    }

    /// Replays a cached trace through `replay` and returns its result only
    /// if the entry passes the stream's verdict — the one store-backed
    /// replay path, so every caller checks the same way.
    ///
    /// The entry is opened as by [`Store::open_trace_stream`] and decoded
    /// exactly once, by the replay itself; the CRC trailer is checked
    /// when the replay reaches it, and whatever it left unread is checked
    /// after. An entry that fails is evicted (counted as corrupt and as a
    /// miss) and the result dropped: whatever `replay` mutated has seen
    /// unvalidated instructions and must be discarded too.
    pub fn replay_trace_stream<T>(
        &self,
        spec: &TraceSpec,
        insts: usize,
        replay: impl FnOnce(&mut TraceStream<BufReader<fs::File>>) -> T,
    ) -> StreamReplay<T> {
        let Some(mut opened) = self.open_stream_uncounted(spec, insts) else {
            return StreamReplay::Miss;
        };
        let value = replay(&mut opened.stream);
        match opened.stream.finish() {
            Ok(()) => {
                self.count_trace_hit(&opened.meta);
                StreamReplay::Verified(value)
            }
            Err(e) => {
                self.evict_opened(&opened.path, &opened.meta, &e.to_string());
                StreamReplay::Corrupt
            }
        }
    }

    /// Opens the entry for `(spec, insts)` and checks its header identity,
    /// evicting a bad one; counts nothing on success.
    fn open_stream_uncounted(&self, spec: &TraceSpec, insts: usize) -> Option<OpenedStream> {
        let path = self.trace_path(spec, insts);
        let file = fs::File::open(&path).ok()?;
        let meta = file.metadata().ok()?;
        let pin = file.try_clone().ok()?;
        // The decoder reads whole blocks, which bypass the BufReader's
        // own buffer; the wrapper stays because it is in the signature.
        let stream = match TraceStream::new(BufReader::new(file)) {
            Ok(s) => s,
            Err(e) => {
                self.evict_opened(&path, &meta, &e.to_string());
                return None;
            }
        };
        if stream.name() != spec.name || stream.inst_count() != insts as u64 {
            let why = format!(
                "entry is {} x {} insts, wanted {} x {insts} insts",
                stream.name(),
                stream.inst_count(),
                spec.name
            );
            self.evict_opened(&path, &meta, &why);
            return None;
        }
        Some(OpenedStream { stream, path, meta, _pin: pin })
    }

    fn count_trace_hit(&self, meta: &fs::Metadata) {
        self.c.trace_hits.fetch_add(1, Ordering::Relaxed);
        self.c.bytes_read.fetch_add(meta.len(), Ordering::Relaxed);
    }

    /// Captures `(spec, insts)` *streamed* straight into the store:
    /// records are encoded to a private temp file in chunks as the
    /// executor produces them (peak live memory O(chunk), bytes
    /// identical to resident capture + [`Store::store_trace`]), then the
    /// entry is published with an atomic rename. A crash mid-capture
    /// leaves only a `.tmp-*` file — never a half-written entry.
    ///
    /// Unlike [`Store::store_trace`]'s `write_atomic`, the capture runs
    /// *unlocked*: a giga-instruction capture takes far longer than the
    /// advisory lock's staleness window, so holding the entry lock for
    /// the duration would get it stolen. Only the final rename takes the
    /// lock. `on_chunk` sees each chunk plus the running total (progress
    /// reporting, overlap tee). Returns bytes written.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if writing or publishing the entry fails
    /// (the temp file is removed). Callers that treat the store as a
    /// pure accelerator may swallow it; callers feeding a live replay
    /// from `on_chunk` must not, because the replay consumed a stream
    /// that never became an entry.
    pub fn capture_to_store<F>(
        &self,
        spec: &TraceSpec,
        insts: usize,
        on_chunk: F,
    ) -> std::io::Result<u64>
    where
        F: FnMut(&[DynInst], u64),
    {
        let path = self.trace_path(spec, insts);
        let tmp = Self::tmp_path(&path);
        let result = (|| {
            let file = fs::File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            spec.capture_streamed(insts, &mut w, on_chunk).map_err(std::io::Error::other)?;
            w.flush()?;
            let bytes = w.get_ref().metadata()?.len();
            drop(w);
            let _lock = EntryLock::acquire(&path);
            fs::rename(&tmp, &path)?;
            Ok(bytes)
        })();
        match &result {
            Ok(bytes) => {
                self.c.bytes_written.fetch_add(*bytes, Ordering::Relaxed);
            }
            Err(_) => {
                fs::remove_file(&tmp).ok();
            }
        }
        result
    }

    /// Single-flight streamed capture with capture/simulate overlap: the
    /// first caller to find `(spec, insts)` absent becomes the leader
    /// and gets an [`OverlappedCapture`] — a background thread captures
    /// the entry to disk while tee'ing the instruction stream into a
    /// bounded channel the leader simulates from, so a cold cell's
    /// capture time hides behind its first simulation. Callers racing on
    /// the same key block until the leader's capture is on disk
    /// ([`StreamCapture::Joined`]) and then stream it from the store;
    /// when the entry already exists the caller gets
    /// [`StreamCapture::CacheHit`] immediately.
    ///
    /// Counter discipline matches [`Store::get_or_capture`]: only a
    /// fresh leader counts a `trace_misses`, so concurrent consumers
    /// count each entry's creation exactly once.
    pub fn stream_capture_shared(
        self: &Arc<Self>,
        spec: &TraceSpec,
        insts: usize,
    ) -> StreamCapture<'_> {
        let key = format!("{}|{:016x}", spec.name, Self::trace_key(spec, insts));
        loop {
            match self.stream_flights.join(&key) {
                Flight::Leader(lead) => {
                    if fs::metadata(self.trace_path(spec, insts)).is_ok() {
                        lead.complete(());
                        return StreamCapture::CacheHit;
                    }
                    self.c.trace_misses.fetch_add(1, Ordering::Relaxed);
                    let (tx, source) = ChannelSource::bounded(spec.name, insts as u64);
                    let store = Arc::clone(self);
                    let spec = spec.clone();
                    let handle = std::thread::spawn(move || {
                        let start = Instant::now();
                        // A send failure means the consumer gave up; the
                        // capture keeps going so the entry still lands.
                        let tee = |chunk: &[DynInst], _done: u64| {
                            let _ = tx.send(chunk.to_vec().into_boxed_slice());
                        };
                        if let Err(e) = store.capture_to_store(&spec, insts, tee) {
                            panic!("streamed capture of {:?} failed: {e}", spec.name);
                        }
                        start.elapsed().as_millis() as u64
                    });
                    return StreamCapture::Leader(OverlappedCapture {
                        source: Some(source),
                        lead: Some(lead),
                        handle: Some(handle),
                    });
                }
                Flight::Shared(()) => return StreamCapture::Joined,
                // The leader died mid-capture; its detached thread may
                // still have persisted the entry — retry leading and
                // probe the disk again.
                Flight::Failed(_) => continue,
            }
        }
    }

    fn result_path(&self, key: &str) -> PathBuf {
        self.root.join("results").join(format!("{:016x}.xbr", fnv1a64(key.as_bytes())))
    }

    /// Loads a cached result blob for `key`, or `None` on a miss.
    /// Entries failing the CRC check are logged, deleted and reported as
    /// misses.
    pub fn load_result(&self, key: &str) -> Option<String> {
        self.read_result(key, false).map(|(body, _)| body)
    }

    /// [`Store::load_result`], plus the identity of the file the body
    /// was read from, for a caller that keeps the body and wants to know
    /// later, with one [`Store::result_identity`], whether the entry is
    /// still that file, unwritten.
    ///
    /// The identity is `None` when it could not vouch for that: the
    /// entry changed within the last [`SETTLE`], so a rewrite within
    /// the same filesystem clock tick could leave every field of it
    /// unchanged, or the platform has no inode numbers.
    pub fn load_result_entry(&self, key: &str) -> Option<(String, Option<EntryIdentity>)> {
        self.read_result(key, true)
    }

    /// [`Store::load_result_entry`]; the identity is looked up only if
    /// `identify`, sparing plain loads the `fstat`.
    fn read_result(&self, key: &str, identify: bool) -> Option<(String, Option<EntryIdentity>)> {
        let path = self.result_path(key);
        // The clock is read before the `stat`: see `EntryIdentity::settled`.
        let now = identify.then(SystemTime::now);
        let mut file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(_) => {
                self.c.result_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        // Taken before the read: a write after it changes the identity,
        // so the identity never vouches for bytes it did not see.
        let identity = now.and_then(|now| {
            let meta = file.metadata().ok()?;
            EntryIdentity::of(&meta).filter(|id| id.settled(now))
        });
        let mut raw = Vec::new();
        if let Err(e) = file.read_to_end(&mut raw) {
            self.evict(&path, &format!("read failed: {e}"));
            return None;
        }
        match Self::parse_result(&raw, key) {
            Ok(body) => {
                self.c.result_hits.fetch_add(1, Ordering::Relaxed);
                self.c.bytes_read.fetch_add(raw.len() as u64, Ordering::Relaxed);
                Some((body, identity))
            }
            Err(why) => {
                self.evict(&path, &why);
                None
            }
        }
    }

    /// The identity of the result entry for `key` as one `stat` sees it
    /// now, or `None` if there is no entry (or no inode numbers on this
    /// platform). Counts nothing: it reads no entry.
    pub fn result_identity(&self, key: &str) -> Option<EntryIdentity> {
        fs::metadata(self.result_path(key)).ok().and_then(|meta| EntryIdentity::of(&meta))
    }

    /// Parses and validates a result-cache entry: magic, CRC over the
    /// key + body, and the full key string (so hash collisions read as
    /// misses, not as wrong results).
    fn parse_result(raw: &[u8], key: &str) -> Result<String, String> {
        if raw.len() < 12 || raw[..4] != RESULT_MAGIC {
            return Err("bad result magic".into());
        }
        let stored_crc = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
        let key_len = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes")) as usize;
        let rest = &raw[12..];
        if key_len > rest.len() {
            return Err("truncated result entry".into());
        }
        let computed = crc32(rest);
        if computed != stored_crc {
            return Err(format!(
                "CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
            ));
        }
        let (stored_key, body) = rest.split_at(key_len);
        if stored_key != key.as_bytes() {
            return Err("key collision (different key hashed to this entry)".into());
        }
        String::from_utf8(body.to_vec()).map_err(|_| "result body is not UTF-8".into())
    }

    /// Stores a result blob under `key`, atomically. Failures are logged
    /// and swallowed.
    pub fn store_result(&self, key: &str, body: &str) {
        let path = self.result_path(key);
        let mut payload = Vec::with_capacity(key.len() + body.len());
        payload.extend_from_slice(key.as_bytes());
        payload.extend_from_slice(body.as_bytes());
        let crc = crc32(&payload);
        let write = |w: &mut dyn Write| -> std::io::Result<()> {
            w.write_all(&RESULT_MAGIC)?;
            w.write_all(&crc.to_le_bytes())?;
            w.write_all(&(key.len() as u32).to_le_bytes())?;
            w.write_all(&payload)
        };
        match self.write_atomic(&path, write) {
            Ok(bytes) => {
                self.c.bytes_written.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => eprintln!("[xbc-store] failed to store result {}: {e}", path.display()),
        }
    }

    /// Deletes the result entry for `key` and counts it as corrupt.
    ///
    /// For callers that loaded a CRC-valid body ([`Store::load_result`]
    /// returned it, counting a hit) but found it undecodable at a higher
    /// layer — e.g. a sweep row written by an older schema. Eviction
    /// takes the same log + delete + `corrupt_entries` path as any other
    /// bad entry (plus a result miss, since the caller is about to
    /// recompute), so the stale file stops costing a recompute on every
    /// subsequent run.
    pub fn evict_result(&self, key: &str, why: &str) {
        self.evict(&self.result_path(key), why);
    }

    /// Writes `path` via a unique same-directory temp file and a final
    /// rename, so readers only ever see complete files, under the
    /// entry's advisory lock so a concurrent eviction of the same entry
    /// (another process sharing the cache directory) cannot interleave
    /// with the rename. Returns bytes written.
    fn write_atomic<F>(&self, path: &Path, write: F) -> std::io::Result<u64>
    where
        F: FnOnce(&mut dyn Write) -> std::io::Result<()>,
    {
        let _lock = EntryLock::acquire(path);
        let tmp = Self::tmp_path(path);
        let result = (|| {
            let file = fs::File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            write(&mut w)?;
            w.flush()?;
            let bytes = w.get_ref().metadata()?.len();
            drop(w);
            fs::rename(&tmp, path)?;
            Ok(bytes)
        })();
        if result.is_err() {
            fs::remove_file(&tmp).ok();
        }
        result
    }

    /// Unique same-directory temp path for the entry at `path`
    /// (`.tmp-<pid>-<seq>-<filename>`): same filesystem, so the final
    /// rename is atomic; unique, so concurrent writers never clobber
    /// each other's partial files.
    fn tmp_path(path: &Path) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = path.parent().expect("store paths have a parent");
        dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
            path.file_name().and_then(|n| n.to_str()).unwrap_or("entry")
        ))
    }

    /// Removes the temp files (see [`Store::tmp_path`]) that writers left
    /// behind in `dir` when they died mid-write — a `kill -9` during a
    /// capture would otherwise leave its partial file forever. A file goes
    /// only when its writer is dead (`/proc/<pid>` is absent) *and* it is
    /// older than [`LOCK_STALE_MS`], so a live writer's file, or one a
    /// recycled pid's process might be writing, is never touched. Without
    /// `/proc` liveness cannot be judged and nothing is removed.
    fn reclaim_orphans(dir: &Path) {
        let alive = |pid: &str| Path::new("/proc").join(pid).exists();
        if !alive("self") {
            return;
        }
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(pid) = name.to_str().and_then(Self::tmp_writer_pid) else { continue };
            let aged = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|m| m.elapsed().ok())
                .is_some_and(|age| age.as_millis() as u64 > LOCK_STALE_MS);
            if aged && !alive(pid) {
                let path = entry.path();
                eprintln!(
                    "[xbc-store] discarding {}: temp file of dead writer {pid}; reclaiming",
                    path.display()
                );
                fs::remove_file(&path).ok();
            }
        }
    }

    /// The writer pid of a temp file name `.tmp-<pid>-<seq>-<filename>`.
    fn tmp_writer_pid(name: &str) -> Option<&str> {
        let (pid, rest) = name.strip_prefix(".tmp-")?.split_once('-')?;
        let (seq, _) = rest.split_once('-')?;
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        (digits(pid) && digits(seq)).then_some(pid)
    }

    /// Logs and deletes a bad entry, counting it as corrupt + miss. The
    /// deletion happens under the entry's advisory lock so it cannot
    /// race another process's concurrent rewrite of the same entry
    /// (deleting the *repaired* file instead of the corrupt one).
    /// Readers need no lock: an unlink after open does not affect an
    /// already-open descriptor on POSIX, so in-flight loads finish
    /// safely either way.
    fn evict(&self, path: &Path, why: &str) {
        let _lock = EntryLock::acquire(path);
        self.evict_locked(path, why);
    }

    /// [`Store::evict`] for an entry judged through a handle opened
    /// earlier (`meta` is that handle's metadata): deletes it only if the
    /// path still names that very file. A stream is judged after its
    /// whole replay, and by then a concurrent reader of the same corrupt
    /// entry may have evicted and regenerated it; deleting (and counting)
    /// the good replacement would be wrong.
    fn evict_opened(&self, path: &Path, meta: &fs::Metadata, why: &str) {
        let _lock = EntryLock::acquire(path);
        if fs::metadata(path).is_ok_and(|now| same_file(&now, meta)) {
            self.evict_locked(path, why);
        }
    }

    fn evict_locked(&self, path: &Path, why: &str) {
        eprintln!("[xbc-store] discarding {}: {why}; regenerating", path.display());
        fs::remove_file(path).ok();
        self.c.corrupt_entries.fetch_add(1, Ordering::Relaxed);
        if path.extension().is_some_and(|e| e == "xbt") {
            self.c.trace_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.c.result_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A trace entry opened for streaming, with what an eviction needs.
struct OpenedStream {
    stream: TraceStream<BufReader<fs::File>>,
    path: PathBuf,
    meta: fs::Metadata,
    /// A second handle on the entry, held until the verdict is acted on:
    /// while it is open the entry's inode stays allocated, so a
    /// replacement another reader writes meanwhile cannot reuse the inode
    /// number and pass [`same_file`] for the judged file.
    _pin: fs::File,
}

/// How long after its last change an entry's timestamps can tell any
/// later rewrite apart. Linux stamps files from a clock that advances
/// once per scheduler tick (at most 10 ms), so a rewrite within the tick
/// of the previous write can keep its mtime and ctime; once the entry is
/// older than this, every later write moves its ctime.
pub const SETTLE: Duration = Duration::from_millis(50);

/// What one `stat` says about a store entry: which file the path names,
/// its length, and when its data and inode last changed (ns).
///
/// Two equal identities taken at different times mean the path still
/// names the same file, unwritten in between, provided the first was
/// [settled](EntryIdentity::settled): an entry replaced through the
/// store's tmp + rename has a new inode, one rewritten in place a new
/// mtime and ctime, and a deleted one has no identity at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryIdentity {
    dev: u64,
    ino: u64,
    len: u64,
    mtime_ns: i128,
    ctime_ns: i128,
}

impl EntryIdentity {
    #[cfg(unix)]
    fn of(meta: &fs::Metadata) -> Option<EntryIdentity> {
        use std::os::unix::fs::MetadataExt;
        let ns = |s: i64, n: i64| i128::from(s) * 1_000_000_000 + i128::from(n);
        Some(EntryIdentity {
            dev: meta.dev(),
            ino: meta.ino(),
            len: meta.len(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
        })
    }

    /// Without inode numbers nothing can tell a replaced file apart.
    #[cfg(not(unix))]
    fn of(_meta: &fs::Metadata) -> Option<EntryIdentity> {
        None
    }

    /// Whether any write after `now` must change this identity: the
    /// entry last changed at least [`SETTLE`] before `now`. `now` must
    /// be read before the `stat` that took the identity, so that every
    /// later write is stamped at least `SETTLE` minus one clock tick
    /// after the recorded ctime. A clock that steps back reads as not
    /// settled.
    fn settled(&self, now: SystemTime) -> bool {
        let Ok(since_epoch) = now.duration_since(SystemTime::UNIX_EPOCH) else {
            return false;
        };
        since_epoch.as_nanos() as i128 - self.ctime_ns >= SETTLE.as_nanos() as i128
    }
}

/// Whether two metadata snapshots describe the same file.
#[cfg(unix)]
fn same_file(a: &fs::Metadata, b: &fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    (a.dev(), a.ino()) == (b.dev(), b.ino())
}

/// Whether two metadata snapshots describe the same file (size and
/// modification time where inode numbers are unavailable).
#[cfg(not(unix))]
fn same_file(a: &fs::Metadata, b: &fs::Metadata) -> bool {
    a.len() == b.len() && a.modified().ok() == b.modified().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_workload::standard_traces;

    /// Unique per-test scratch directory (removed on drop).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("xbc-store-test-{}-{tag}", std::process::id()));
            fs::remove_dir_all(&dir).ok();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    #[cfg(unix)]
    fn result_identity_tells_every_change_to_an_entry_apart() {
        let s = Scratch::new("identity");
        let store = Store::open(&s.0).unwrap();
        let key = "row|identity";
        assert_eq!(store.result_identity(key), None, "no entry, no identity");
        store.store_result(key, "[1]");
        let (body, fresh) = store.load_result_entry(key).unwrap();
        assert_eq!(body, "[1]");
        assert_eq!(fresh, None, "a just-written entry cannot vouch for itself yet");

        std::thread::sleep(SETTLE + Duration::from_millis(10));
        let (_, read) = store.load_result_entry(key).unwrap();
        let read = read.expect("a settled entry has an identity");
        assert_eq!(store.result_identity(key), Some(read), "unchanged entry, same identity");

        // Rewritten in place with the same length: new mtime and ctime.
        let path = store.result_path(key);
        let mut raw = fs::read(&path).unwrap();
        *raw.last_mut().unwrap() ^= 1;
        fs::OpenOptions::new().write(true).open(&path).unwrap().write_all(&raw).unwrap();
        let rewritten = store.result_identity(key).unwrap();
        assert_ne!(rewritten, read, "an in-place rewrite must change the identity");

        // Replaced through tmp + rename: a new inode.
        store.store_result(key, "[1]");
        let replaced = store.result_identity(key).unwrap();
        assert_ne!(replaced, read);
        assert_ne!(replaced, rewritten);

        fs::remove_file(&path).unwrap();
        assert_eq!(store.result_identity(key), None, "a deleted entry has no identity");
        assert_eq!(store.stats().result_hits, 2, "identity queries read no entry");
    }

    #[test]
    fn orphaned_temp_files_of_dead_writers_are_reclaimed() {
        let s = Scratch::new("orphans");
        Store::open(&s.0).unwrap();
        // Pids are at most 2^22 on Linux, so this writer is never alive.
        let dead = 999_999_999u32;
        assert!(!Path::new("/proc").join(dead.to_string()).exists());
        let me = std::process::id();
        let stale = std::time::SystemTime::now() - Duration::from_millis(6 * LOCK_STALE_MS);
        let make = |sub: &str, pid: u32, seq: u32, aged: bool| {
            let path = s.0.join(sub).join(format!(".tmp-{pid}-{seq}-00000000000000ab.xbt"));
            let file = fs::File::create(&path).unwrap();
            if aged {
                file.set_modified(stale).unwrap();
            }
            path
        };
        let aged_dead = [make("traces", dead, 1, true), make("results", dead, 2, true)];
        let fresh_dead = make("traces", dead, 3, false);
        let aged_mine = make("results", me, 4, true);
        let entry = s.0.join("traces").join("00000000000000ab.xbt");
        fs::write(&entry, b"not a temp file").unwrap();
        fs::File::options().write(true).open(&entry).unwrap().set_modified(stale).unwrap();

        Store::open(&s.0).unwrap();
        let reclaims = Path::new("/proc/self").exists();
        for path in &aged_dead {
            assert_eq!(path.exists(), !reclaims, "aged dead-writer temp {}", path.display());
        }
        assert!(fresh_dead.exists(), "a fresh temp file must be kept");
        assert!(aged_mine.exists(), "a live writer's temp file must be kept");
        assert!(entry.exists(), "entries are not temp files");
    }

    #[test]
    fn tmp_writer_pid_parses_only_temp_names() {
        let entry = Path::new("/store/traces/00000000000000ab.xbt");
        let tmp = Store::tmp_path(entry);
        let name = tmp.file_name().unwrap().to_str().unwrap();
        assert_eq!(Store::tmp_writer_pid(name), Some(std::process::id().to_string().as_str()));
        for other in
            ["00000000000000ab.xbt", ".tmp-x-1-a.xbt", ".tmp-12-a.xbt", ".tmp--1-a", "a.lock"]
        {
            assert_eq!(Store::tmp_writer_pid(other), None, "{other}");
        }
    }

    #[test]
    fn trace_roundtrip_and_hit_accounting() {
        let s = Scratch::new("roundtrip");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[0];
        let fresh = store.get_or_capture(spec, 1_500);
        assert_eq!(store.stats().trace_misses, 1);
        assert!(store.stats().bytes_written > 0);
        let cached = store.get_or_capture(spec, 1_500);
        assert_eq!(store.stats().trace_hits, 1);
        assert_eq!(fresh.insts(), cached.insts());
        assert_eq!(fresh.uop_count(), cached.uop_count());
        assert_eq!(fresh.exec_stats(), cached.exec_stats());
    }

    #[test]
    fn different_insts_are_different_entries() {
        let s = Scratch::new("insts");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[1];
        store.get_or_capture(spec, 1_000);
        store.get_or_capture(spec, 2_000);
        assert_eq!(store.stats().trace_misses, 2);
        assert_eq!(fs::read_dir(s.0.join("traces")).unwrap().count(), 2);
    }

    #[test]
    fn corrupt_trace_is_evicted_and_regenerated() {
        let s = Scratch::new("corrupt");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[2];
        let fresh = store.get_or_capture(spec, 1_200);
        // Flip a byte in the middle of the single cache file.
        let path = fs::read_dir(s.0.join("traces")).unwrap().next().unwrap().unwrap().path();
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x5A;
        fs::write(&path, &raw).unwrap();
        // The corrupt entry must read as a miss and be deleted...
        let again = store.get_or_capture(spec, 1_200);
        assert_eq!(again.insts(), fresh.insts());
        assert_eq!(store.stats().corrupt_entries, 1);
        // ...and the regenerated file must now hit.
        assert!(store.load_trace(spec, 1_200).is_some());
    }

    #[test]
    fn truncated_trace_is_evicted() {
        let s = Scratch::new("trunc");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[3];
        store.get_or_capture(spec, 1_000);
        let path = fs::read_dir(s.0.join("traces")).unwrap().next().unwrap().unwrap().path();
        let raw = fs::read(&path).unwrap();
        fs::write(&path, &raw[..raw.len() / 3]).unwrap();
        assert!(store.load_trace(spec, 1_000).is_none());
        assert!(!path.exists(), "truncated entry must be deleted");
        assert_eq!(store.stats().corrupt_entries, 1);
    }

    #[test]
    fn result_cache_roundtrip() {
        let s = Scratch::new("result");
        let store = Store::open(&s.0).unwrap();
        let key = "row|trace=spec.gcc|fe=xbc-32k|insts=1000|code=1";
        assert!(store.load_result(key).is_none());
        store.store_result(key, "{\"miss_rate\":0.25}");
        assert_eq!(store.load_result(key).as_deref(), Some("{\"miss_rate\":0.25}"));
        let st = store.stats();
        assert_eq!((st.result_hits, st.result_misses), (1, 1));
    }

    #[test]
    fn corrupt_result_is_evicted() {
        let s = Scratch::new("result-corrupt");
        let store = Store::open(&s.0).unwrap();
        store.store_result("k", "body-bytes");
        let path = fs::read_dir(s.0.join("results")).unwrap().next().unwrap().unwrap().path();
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 1;
        fs::write(&path, &raw).unwrap();
        assert!(store.load_result("k").is_none());
        assert!(!path.exists());
        // Different key, same store: independent entry.
        store.store_result("k2", "other");
        assert_eq!(store.load_result("k2").as_deref(), Some("other"));
    }

    #[test]
    fn evict_result_removes_stale_entry() {
        let s = Scratch::new("evict-result");
        let store = Store::open(&s.0).unwrap();
        store.store_result("k", "stale-schema-body");
        assert!(store.load_result("k").is_some());
        // A higher layer found the (CRC-valid) body undecodable.
        store.evict_result("k", "undecodable at the sweep layer");
        assert_eq!(fs::read_dir(s.0.join("results")).unwrap().count(), 0);
        assert_eq!(store.stats().corrupt_entries, 1);
        assert!(store.load_result("k").is_none());
    }

    #[test]
    fn keys_are_stable() {
        // The content address must never change between runs or builds:
        // pin the FNV-1a primitive with a known vector.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn open_trace_stream_hits_and_evicts_bad_headers() {
        let s = Scratch::new("stream");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[0];
        // Absent entry: quiet None, no miss counted (the caller's
        // get_or_capture fallback will count it).
        assert!(store.open_trace_stream(spec, 1_000).is_none());
        assert_eq!(store.stats().trace_misses, 0);
        let resident = store.get_or_capture(spec, 1_000);
        // Hit: streamed records match the resident capture.
        let mut stream = store.open_trace_stream(spec, 1_000).expect("warm entry streams");
        assert_eq!(stream.name(), spec.name);
        assert_eq!(stream.inst_count(), 1_000);
        use xbc_workload::InstSource;
        let mut n = 0usize;
        while let Some(d) = stream.next_inst() {
            assert_eq!(d, resident.insts()[n]);
            n += 1;
        }
        assert_eq!(n, 1_000);
        stream.finish().expect("intact entry passes the verdict");
        assert_eq!(store.stats().trace_hits, 1);
        // Wrong inst count: different entry, absent, quiet None.
        assert!(store.open_trace_stream(spec, 999).is_none());
        // A header that names another trace is caught at open.
        let path = store.trace_path(spec, 1_000);
        let mut raw = fs::read(&path).unwrap();
        raw[10] ^= 0x20; // first byte of the name, after magic/version/len
        fs::write(&path, &raw).unwrap();
        assert!(store.open_trace_stream(spec, 1_000).is_none());
        assert!(!path.exists(), "mismatched entry must be evicted");
        assert_eq!(store.stats().corrupt_entries, 1);
        assert_eq!(store.stats().trace_hits, 1);
    }

    #[test]
    fn replay_trace_stream_publishes_only_verified_replays() {
        use xbc_workload::InstSource;
        let s = Scratch::new("stream-verdict");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[1];
        let drain = |st: &mut TraceStream<BufReader<fs::File>>| {
            std::iter::from_fn(|| st.next_inst()).count()
        };
        assert!(matches!(store.replay_trace_stream(spec, 1_000, drain), StreamReplay::Miss));
        store.get_or_capture(spec, 1_000);
        let before = store.stats();
        match store.replay_trace_stream(spec, 1_000, drain) {
            StreamReplay::Verified(n) => assert_eq!(n, 1_000),
            _ => panic!("an intact entry must verify"),
        }
        assert_eq!(store.stats().trace_hits, before.trace_hits + 1);
        // Mid-record corruption passes the header check at open; the
        // replay runs over it without panicking, and the verdict evicts
        // the entry, counting it as corrupt and as a miss but not a hit.
        let path = store.trace_path(spec, 1_000);
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x5A;
        fs::write(&path, &raw).unwrap();
        let mut ran = false;
        let outcome = store.replay_trace_stream(spec, 1_000, |st| {
            ran = true;
            drain(st)
        });
        assert!(ran, "the header is intact, so the replay runs");
        assert!(matches!(outcome, StreamReplay::Corrupt));
        assert!(!path.exists(), "corrupt entry must be evicted");
        let after = store.stats();
        assert_eq!(after.corrupt_entries, 1);
        assert_eq!(after.trace_misses, before.trace_misses + 1);
        assert_eq!(after.trace_hits, before.trace_hits + 1);
        // An entry regenerated while a stale reader was still replaying
        // the corrupt one is not the one that reader judged: it stays.
        fs::write(&path, &raw).unwrap();
        let outcome = store.replay_trace_stream(spec, 1_000, |st| {
            let n = drain(st);
            fs::remove_file(&path).unwrap();
            store.get_or_capture(spec, 1_000);
            n
        });
        assert!(matches!(outcome, StreamReplay::Corrupt));
        assert!(path.exists(), "the regenerated entry must survive");
        assert_eq!(store.stats().corrupt_entries, 1);
        assert!(matches!(store.replay_trace_stream(spec, 1_000, drain), StreamReplay::Verified(_)));
    }

    #[test]
    fn entry_lock_is_created_and_released() {
        let s = Scratch::new("lock");
        fs::create_dir_all(&s.0).unwrap();
        let entry = s.0.join("entry.xbr");
        let lock_path = s.0.join("entry.xbr.lock");
        {
            let lock = EntryLock::acquire(&entry);
            assert!(lock.held);
            assert!(lock_path.exists(), "lock file must exist while held");
        }
        assert!(!lock_path.exists(), "lock file must be removed on drop");
    }

    #[test]
    fn contended_lock_serializes_holders() {
        let s = Scratch::new("lock-contend");
        fs::create_dir_all(&s.0).unwrap();
        let entry = s.0.join("entry.xbr");
        let in_section = AtomicU64::new(0);
        let max_seen = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let lock = EntryLock::acquire(&entry);
                        assert!(lock.held, "uncontended-scale acquire must not time out");
                        let now = in_section.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(50));
                        in_section.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "two holders inside the critical section");
        assert!(!s.0.join("entry.xbr.lock").exists());
    }

    #[test]
    fn abandoned_lock_times_out_instead_of_wedging() {
        // A fresh lock file held by a "process" that never releases it:
        // acquire must give up after LOCK_ACQUIRE_MS and proceed
        // unlocked (advisory semantics), not spin forever. (The stale-
        // steal path needs an old mtime, which plain std cannot set;
        // the two-process integration test exercises real contention.)
        let s = Scratch::new("lock-timeout");
        fs::create_dir_all(&s.0).unwrap();
        let entry = s.0.join("entry.xbr");
        let lock_path = s.0.join("entry.xbr.lock");
        fs::write(&lock_path, b"0").unwrap();
        let start = Instant::now();
        let lock = EntryLock::acquire(&entry);
        assert!(!lock.held, "a fresh foreign lock must not be acquired");
        assert!(start.elapsed() >= Duration::from_millis(LOCK_ACQUIRE_MS));
        assert!(start.elapsed() < Duration::from_millis(LOCK_ACQUIRE_MS + 2_000));
        drop(lock);
        assert!(lock_path.exists(), "a lock we never held must not be removed");
        fs::remove_file(&lock_path).unwrap();
    }

    #[test]
    fn single_flight_dedups_concurrent_leaders() {
        let flights: SingleFlight<u64> = SingleFlight::new();
        let computed = AtomicU64::new(0);
        let mut results = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| match flights.join("k") {
                        Flight::Leader(lead) => {
                            // Hold the flight open long enough that the
                            // other threads join as followers.
                            std::thread::sleep(Duration::from_millis(30));
                            let v = computed.fetch_add(1, Ordering::SeqCst) + 1;
                            lead.complete(v * 100);
                            v * 100
                        }
                        Flight::Shared(v) => v,
                        Flight::Failed(e) => panic!("no leader failed: {e}"),
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().unwrap());
            }
        });
        // Exactly one computation ran; everyone saw its value.
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        assert!(results.iter().all(|&v| v == 100), "{results:?}");
        assert_eq!(flights.in_flight(), 0, "completed flights must retire");
    }

    #[test]
    fn single_flight_failure_wakes_followers_and_frees_the_key() {
        let flights: SingleFlight<u32> = SingleFlight::new();
        let Flight::Leader(lead) = flights.join("k") else { panic!("first join leads") };
        std::thread::scope(|scope| {
            let follower = scope.spawn(|| match flights.join("k") {
                Flight::Failed(e) => e,
                _ => panic!("follower of a failing leader must see the failure"),
            });
            std::thread::sleep(Duration::from_millis(20));
            lead.fail("injected");
            assert_eq!(follower.join().unwrap(), "injected");
        });
        // The key is free again: the next join leads.
        match flights.join("k") {
            Flight::Leader(lead) => lead.complete(7),
            _ => panic!("failed flight must free its key"),
        };
    }

    #[test]
    fn dropped_leader_publishes_failure() {
        let flights: SingleFlight<u32> = SingleFlight::new();
        {
            let Flight::Leader(lead) = flights.join("k") else { panic!("first join leads") };
            drop(lead); // e.g. a panic unwound the leader's thread
        }
        assert_eq!(flights.in_flight(), 0);
        assert!(matches!(flights.join("k"), Flight::Leader(_)));
    }

    #[test]
    fn shared_capture_runs_once_across_racing_threads() {
        let s = Scratch::new("shared-capture");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[0];
        let traces: Mutex<Vec<Arc<Trace>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| traces.lock().unwrap().push(store.get_or_capture(spec, 1_000)));
            }
        });
        // Exactly one miss was counted — the capturing leader's — however
        // many threads raced. (A racer arriving after the flight retired
        // loads the entry; a racer arriving during it joins.)
        assert_eq!(store.stats().trace_misses, 1);
        let traces = traces.into_inner().unwrap();
        assert_eq!(traces.len(), 6);
        assert_eq!(traces[0].inst_count(), 1_000);
        assert!(
            traces.iter().all(|t| t.insts() == traces[0].insts()),
            "every racer gets an equal trace"
        );
        // A later call is a plain cache hit.
        let hits = store.stats().trace_hits;
        store.get_or_capture(spec, 1_000);
        assert_eq!(store.stats().trace_hits, hits + 1);
        assert_eq!(store.stats().trace_misses, 1);
    }

    #[test]
    fn capture_to_store_matches_resident_entry_bytes() {
        let s = Scratch::new("capture-streamed");
        let store = Store::open(&s.0).unwrap();
        let spec = &standard_traces()[0];
        let resident = spec.capture(2_000);
        let mut resident_bytes = Vec::new();
        resident.save(&mut resident_bytes).unwrap();
        let bytes = store.capture_to_store(spec, 2_000, |_, _| {}).unwrap();
        assert_eq!(bytes, resident_bytes.len() as u64);
        let on_disk = fs::read(store.trace_path(spec, 2_000)).unwrap();
        assert_eq!(on_disk, resident_bytes, "streamed entry must be byte-identical");
        // And it reads back as a normal cache hit.
        assert!(store.load_trace(spec, 2_000).is_some());
        assert_eq!(store.stats().trace_hits, 1);
        // No temp litter.
        let litter = fs::read_dir(s.0.join("traces"))
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with(".tmp-"))
            .count();
        assert_eq!(litter, 0);
    }

    #[test]
    fn stream_capture_shared_overlaps_and_dedups() {
        let s = Scratch::new("streamed-capture-shared");
        let store = Arc::new(Store::open(&s.0).unwrap());
        let spec = &standard_traces()[1];
        let insts = 3_000usize;
        // Leader: consume the live channel while the capture runs.
        let mut cap = match store.stream_capture_shared(spec, insts) {
            StreamCapture::Leader(cap) => cap,
            _ => panic!("first caller on a cold entry must lead"),
        };
        let mut src = cap.take_source();
        use xbc_workload::InstSource;
        let mut n = 0u64;
        while src.next_inst().is_some() {
            n += 1;
        }
        assert_eq!(n, insts as u64);
        let _cap_ms = cap.finish();
        assert_eq!(store.stats().trace_misses, 1);
        // The published entry equals a resident capture.
        let resident = spec.capture(insts);
        let loaded = store.load_trace(spec, insts).expect("published entry loads");
        assert_eq!(loaded.insts(), resident.insts());
        // Warm entry: immediate cache hit, no new flight.
        assert!(matches!(store.stream_capture_shared(spec, insts), StreamCapture::CacheHit));
        assert_eq!(store.stats().trace_misses, 1);
    }

    #[test]
    fn stream_capture_shared_joiners_wait_for_the_leader() {
        let s = Scratch::new("streamed-capture-join");
        let store = Arc::new(Store::open(&s.0).unwrap());
        let spec = &standard_traces()[2];
        let insts = 2_000usize;
        let outcomes: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    match store.stream_capture_shared(spec, insts) {
                        StreamCapture::Leader(mut cap) => {
                            use xbc_workload::InstSource;
                            let mut src = cap.take_source();
                            while src.next_inst().is_some() {}
                            cap.finish();
                            outcomes.lock().unwrap().push("leader");
                        }
                        StreamCapture::Joined => {
                            // The entry must be on disk by the time a
                            // joiner wakes.
                            assert!(store.open_trace_stream(spec, insts).is_some());
                            outcomes.lock().unwrap().push("joined");
                        }
                        StreamCapture::CacheHit => {
                            outcomes.lock().unwrap().push("hit");
                        }
                    }
                });
            }
        });
        let outcomes = outcomes.into_inner().unwrap();
        let leaders = outcomes.iter().filter(|o| **o == "leader").count();
        assert_eq!(leaders, 1, "exactly one racer captures: {outcomes:?}");
        assert_eq!(store.stats().trace_misses, 1);
    }

    #[test]
    fn dropped_overlapped_capture_still_persists() {
        let s = Scratch::new("streamed-capture-drop");
        let store = Arc::new(Store::open(&s.0).unwrap());
        let spec = &standard_traces()[3];
        let insts = 1_500usize;
        match store.stream_capture_shared(spec, insts) {
            StreamCapture::Leader(cap) => drop(cap), // simulation abandoned
            _ => panic!("cold entry must lead"),
        }
        // The detached capture thread still publishes the entry; a
        // retrying leader finds it on disk (poll briefly — the thread
        // is detached).
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match store.stream_capture_shared(spec, insts) {
                StreamCapture::CacheHit => break,
                StreamCapture::Leader(cap) => {
                    drop(cap);
                    assert!(Instant::now() < deadline, "entry never appeared");
                    std::thread::sleep(Duration::from_millis(20));
                }
                StreamCapture::Joined => break,
            }
        }
        let resident = spec.capture(insts);
        let loaded = store.load_trace(spec, insts).expect("entry persisted");
        assert_eq!(loaded.insts(), resident.insts());
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let s = Scratch::new("threads");
        let store = Store::open(&s.0).unwrap();
        let specs = standard_traces();
        std::thread::scope(|scope| {
            for spec in specs.iter().take(4) {
                scope.spawn(|| {
                    let t = store.get_or_capture(spec, 800);
                    assert_eq!(t.inst_count(), 800);
                });
            }
        });
        assert_eq!(store.stats().trace_misses, 4);
    }
}
