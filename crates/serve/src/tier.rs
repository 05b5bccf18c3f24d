//! The daemon's memory tier: decoded rows it has read from its store,
//! served again without reading the entry.
//!
//! The store on disk stays the source of truth. A row is served from
//! memory only while its entry is still the very file it was read from,
//! unwritten since: one `stat` ([`Store::result_identity`]) must equal
//! the identity recorded when the row was read. Any change to the entry
//! — deleted, replaced through the store's tmp + rename (a new inode),
//! rewritten in place (a new mtime and ctime) — misses, and the probe
//! goes through [`Store::load_result`] with its CRC check and eviction.
//! Only entries whose identity can vouch for them are remembered (see
//! [`Store::load_result_entry`]): a row simulated and stored a moment
//! ago enters the tier on its first read after [`xbc_store::SETTLE`].
//!
//! The check is per entry, never per directory: a directory's mtime does
//! not move when a file in it is rewritten in place, so a directory
//! check would keep serving a row whose entry was corrupted.
//!
//! A full tier takes no new keys but keeps refreshing the ones it holds,
//! so a grid larger than the tier still serves the rows that fit from
//! memory when it is repeated, instead of cycling through the tier and
//! hitting none.

use std::collections::HashMap;
use std::sync::Mutex;
use xbc_sim::{cached_row, Row};
use xbc_store::{EntryIdentity, Store};

/// Most rows the tier holds. A decoded row is a few hundred bytes, so a
/// full tier is a few MB; past the cap new keys are not remembered.
pub const TIER_ROWS: usize = 16_384;

/// Where [`RowTier::probe`] found a cell's row.
#[derive(Debug)]
pub enum Probe {
    /// In memory: the entry is the file the row was read from.
    Memory(Row),
    /// Read and decoded from the store.
    Disk(Row),
    /// No usable entry (absent, or corrupt and evicted).
    Miss,
}

/// Decoded rows keyed by `result_key`, each with the identity of the
/// entry it was read from, at most [`TIER_ROWS`] of them.
#[derive(Default)]
pub struct RowTier {
    rows: Mutex<HashMap<String, (EntryIdentity, Row)>>,
}

impl RowTier {
    /// An empty tier.
    pub fn new() -> RowTier {
        RowTier::default()
    }

    /// The row cached under `key`: from memory when the entry is
    /// unchanged since the tier read it, else from `store` (remembering
    /// it), evicting an entry that holds no single decodable row
    /// ([`cached_row`], the sweep's probe too).
    pub fn probe(&self, store: &Store, key: &str) -> Probe {
        if let Some(now) = store.result_identity(key) {
            let rows = self.rows.lock().expect("tier lock");
            if let Some((id, row)) = rows.get(key) {
                if *id == now {
                    return Probe::Memory(row.clone());
                }
            }
        }
        let Some((body, identity)) = store.load_result_entry(key) else {
            return Probe::Miss;
        };
        let Some(row) = cached_row(store, key, &body) else {
            return Probe::Miss;
        };
        if let Some(id) = identity {
            self.remember(key, id, &row);
        }
        Probe::Disk(row)
    }

    /// Rows held now.
    pub(crate) fn len(&self) -> usize {
        self.rows.lock().expect("tier lock").len()
    }

    /// Records `row` as read from the entry with identity `id`, unless
    /// the tier is full. A stale row under the same key is replaced in
    /// place, full or not; it could never have matched again, since
    /// every later change to an entry moves its identity.
    fn remember(&self, key: &str, id: EntryIdentity, row: &Row) {
        let mut rows = self.rows.lock().expect("tier lock");
        if let Some(slot) = rows.get_mut(key) {
            *slot = (id, row.clone());
        } else if rows.len() < TIER_ROWS {
            rows.insert(key.to_owned(), (id, row.clone()));
        }
    }
}
