//! # xbc-uarch — shared microarchitecture substrates
//!
//! Building blocks used by every frontend model in the workspace:
//!
//! * [`SetAssoc`] — a generic set-associative cache with true-LRU
//!   replacement (backs the instruction cache and the trace-cache
//!   baseline; the XBC builds its banked array on the same discipline),
//! * [`ICache`] — the instruction cache that feeds build mode
//!   (paper Figure 6),
//! * [`Decoder`] — the decode-width budget of the build-mode pipeline
//!   (paper §2.1),
//! * [`SetIndex`] — the division-free `(key % sets, key / sets)` split
//!   every set-indexed structure uses,
//! * [`Histogram`] — fixed-range histograms for block-length and
//!   bandwidth distributions (paper Figure 1).
//!
//! # Example
//!
//! ```
//! use xbc_uarch::{ICache, ICacheConfig};
//! use xbc_isa::Addr;
//!
//! let mut ic = ICache::new(ICacheConfig::default());
//! let miss = ic.fetch(Addr::new(0x1000));
//! assert!(!miss.hit);
//! assert!(ic.fetch(Addr::new(0x1004)).hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod decoder;
mod histogram;
mod icache;
mod index;

pub use cache::{CacheStats, SetAssoc};
pub use decoder::{Decoder, DecoderConfig};
pub use histogram::Histogram;
pub use icache::{ICache, ICacheConfig, IcAccess};
pub use index::SetIndex;

/// Largest capacity, in uops, any frontend structure may be configured
/// with: 512× the paper's largest (32K-uop) configuration. Every
/// structure's `check` refuses more, so a geometry from outside the
/// program cannot ask a constructor for an array it cannot size.
pub const MAX_TOTAL_UOPS: usize = 1 << 24;

/// The capacity rule every frontend structure's `check` shares: at most
/// [`MAX_TOTAL_UOPS`].
///
/// # Errors
///
/// Returns a message naming the ceiling when `total_uops` exceeds it.
pub fn check_capacity(total_uops: usize) -> Result<(), String> {
    if total_uops > MAX_TOTAL_UOPS {
        return Err(format!(
            "capacity of {total_uops} uops exceeds the {MAX_TOTAL_UOPS}-uop ceiling"
        ));
    }
    Ok(())
}
