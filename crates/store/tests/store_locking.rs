//! Regression tests for stale-lock stealing.
//!
//! The original steal path deleted a stale lock file in place and
//! re-entered the `create_new` loop. Two contenders could both judge
//! the same lock stale; the first then deleted it and created a fresh
//! lock, and the second's delayed delete removed the *fresh* lock —
//! leaving two processes convinced they hold the entry. Renaming the
//! stale file to a tombstone first was not enough: a stealer that had
//! judged the old lock stale could rename away the fresh lock another
//! contender had just created, and putting it back overwrote a third
//! contender's lock. Stealers now queue on a kernel advisory lock on a
//! per-directory sidecar and re-judge staleness under it.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, SystemTime};
use xbc_store::EntryLock;

/// Unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "xbc-store-locking-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// Plants a lock file whose mtime lies `age` in the past.
fn plant_stale_lock(path: &PathBuf, age: Duration) {
    fs::write(path, "0").unwrap();
    let f = fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_modified(SystemTime::now() - age).unwrap();
}

#[test]
fn stale_lock_is_stolen_and_acquired() {
    let s = Scratch::new("steal");
    let entry = s.0.join("entry.xbr");
    let lock_path = s.0.join("entry.xbr.lock");
    // Well past LOCK_STALE_MS (10 s): the holder is presumed dead.
    plant_stale_lock(&lock_path, Duration::from_secs(60));
    let lock = EntryLock::acquire(&entry);
    assert!(lock.held, "a stale lock must be stolen, not waited out");
    assert!(lock_path.exists(), "the stealer re-creates the lock file");
    // The steal must not leave its rename tombstone behind.
    let debris: Vec<_> = fs::read_dir(&s.0)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".stale-"))
        .collect();
    assert!(debris.is_empty(), "steal left tombstones behind: {debris:?}");
    drop(lock);
    assert!(!lock_path.exists(), "release removes the stolen-and-held lock");
}

#[test]
fn fresh_lock_is_not_stolen() {
    let s = Scratch::new("fresh");
    let entry = s.0.join("entry.xbr");
    let lock_path = s.0.join("entry.xbr.lock");
    // A young lock (well under LOCK_STALE_MS) belongs to a live holder.
    plant_stale_lock(&lock_path, Duration::from_secs(0));
    let lock = EntryLock::acquire(&entry);
    assert!(!lock.held, "a fresh foreign lock must be waited out, not stolen");
    assert!(lock_path.exists(), "the foreign lock file must survive the timeout");
}

/// The TOCTOU regression itself: many contenders race to steal one
/// stale lock. With delete-in-place stealing, a slow contender's delete
/// could remove the fresh lock a fast contender had just created, so
/// two threads would end up inside the critical section at once. The
/// rename-first steal admits exactly one winner; while any thread holds
/// the lock, its file must exist and no second thread may hold it.
#[test]
fn concurrent_stealers_admit_exactly_one_holder() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 20;
    let s = Scratch::new("race");
    let entry = s.0.join("entry.xbr");
    let lock_path = s.0.join("entry.xbr.lock");
    for _ in 0..ROUNDS {
        plant_stale_lock(&lock_path, Duration::from_secs(60));
        let in_section = AtomicU64::new(0);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    let lock = EntryLock::acquire(&entry);
                    if lock.held {
                        let inside = in_section.fetch_add(1, Ordering::SeqCst) + 1;
                        assert_eq!(inside, 1, "two threads hold the same entry lock");
                        assert!(
                            lock_path.exists(),
                            "the lock file vanished while held (a racing stealer deleted it)"
                        );
                        std::thread::sleep(Duration::from_millis(2));
                        in_section.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        fs::remove_file(&lock_path).ok();
    }
}
