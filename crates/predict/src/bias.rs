//! Branch-bias measurement for branch promotion (paper §3.8).
//!
//! Each XBTB entry carries a 7-bit counter: +1 on taken, −1 on not-taken,
//! saturating at `[0, 127]`. A counter value ≥ 126 means the branch was
//! not-taken at most once in the last 128 executions (≥ 99.2% taken-biased);
//! a value ≤ 1 means ≥ 99.2% not-taken-biased. Such *monotonic* branches
//! are candidates for promotion: treated as unconditional so consecutive
//! XBs can merge.

use std::fmt;

/// Direction a monotonic branch is biased towards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bias {
    /// ≥ 99.2% taken.
    Taken,
    /// ≥ 99.2% not-taken.
    NotTaken,
}

impl Bias {
    /// The direction as a bool (`true` = taken).
    #[inline]
    pub const fn as_taken(self) -> bool {
        matches!(self, Bias::Taken)
    }
}

impl fmt::Display for Bias {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bias::Taken => f.write_str("taken"),
            Bias::NotTaken => f.write_str("not-taken"),
        }
    }
}

/// The paper's 7-bit saturating bias counter.
///
/// Starts at the midpoint (64) and requires a warm-up of at least
/// [`BiasCounter::WARMUP`] updates before reporting a bias, so that a
/// branch seen twice does not get promoted.
///
/// # Examples
///
/// ```
/// use xbc_predict::{Bias, BiasCounter};
///
/// let mut c = BiasCounter::new();
/// for _ in 0..80 { c.update(true); }
/// assert_eq!(c.bias(), Some(Bias::Taken));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BiasCounter {
    value: u8,
    updates: u32,
}

impl BiasCounter {
    /// Counter ceiling (7 bits).
    pub const MAX: u8 = 127;
    /// Threshold at/above which a branch counts as taken-monotonic.
    pub const TAKEN_THRESHOLD: u8 = 126;
    /// Threshold at/below which a branch counts as not-taken-monotonic.
    pub const NOT_TAKEN_THRESHOLD: u8 = 1;
    /// Minimum updates before a bias may be reported.
    pub const WARMUP: u32 = 64;

    /// Creates a counter at the midpoint.
    pub const fn new() -> Self {
        BiasCounter { value: 64, updates: 0 }
    }

    /// Raw counter value (0..=127).
    pub const fn value(&self) -> u8 {
        self.value
    }

    /// Number of updates applied.
    pub const fn updates(&self) -> u32 {
        self.updates
    }

    /// Applies one resolved direction.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            if self.value < Self::MAX {
                self.value += 1;
            }
        } else if self.value > 0 {
            self.value -= 1;
        }
        self.updates = self.updates.saturating_add(1);
    }

    /// Reports the monotonic bias, if the branch qualifies (§3.8 thresholds
    /// after warm-up).
    #[inline]
    pub fn bias(&self) -> Option<Bias> {
        if self.updates < Self::WARMUP {
            return None;
        }
        if self.value >= Self::TAKEN_THRESHOLD {
            Some(Bias::Taken)
        } else if self.value <= Self::NOT_TAKEN_THRESHOLD {
            Some(Bias::NotTaken)
        } else {
            None
        }
    }
}

impl Default for BiasCounter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_neutral() {
        let c = BiasCounter::new();
        assert_eq!(c.value(), 64);
        assert_eq!(c.bias(), None);
    }

    #[test]
    fn saturates_at_bounds() {
        let mut c = BiasCounter::new();
        for _ in 0..500 {
            c.update(true);
        }
        assert_eq!(c.value(), 127);
        for _ in 0..500 {
            c.update(false);
        }
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn taken_bias_requires_warmup() {
        let mut c = BiasCounter::new();
        for _ in 0..63 {
            c.update(true);
        }
        assert_eq!(c.bias(), None, "not enough samples yet");
        c.update(true);
        assert_eq!(c.bias(), Some(Bias::Taken));
    }

    #[test]
    fn not_taken_bias() {
        let mut c = BiasCounter::new();
        for _ in 0..100 {
            c.update(false);
        }
        assert_eq!(c.bias(), Some(Bias::NotTaken));
        assert!(!c.bias().unwrap().as_taken());
    }

    #[test]
    fn one_flip_in_128_still_biased() {
        // Paper: counter >= 126 means at most one not-taken in the last 128.
        let mut c = BiasCounter::new();
        for _ in 0..128 {
            c.update(true);
        }
        c.update(false);
        assert_eq!(c.value(), 126);
        assert_eq!(c.bias(), Some(Bias::Taken));
        c.update(false); // second flip drops below threshold
        assert_eq!(c.bias(), None);
    }

    #[test]
    fn mixed_branch_never_biased() {
        let mut c = BiasCounter::new();
        for i in 0..1000 {
            c.update(i % 2 == 0);
        }
        assert_eq!(c.bias(), None);
    }
}
