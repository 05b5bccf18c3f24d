//! GSHARE conditional branch predictor.
//!
//! The paper simulates "a 16-bit history GSHARE predictor [McF93] for both
//! the XBC and the TC" (§4). The predictor XORs the global taken/not-taken
//! history with low branch-address bits to index a table of 2-bit saturating
//! counters.

use xbc_isa::Addr;

/// Accuracy statistics of a direction predictor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Correctly predicted branches.
    pub correct: u64,
    /// Mispredicted branches.
    pub incorrect: u64,
}

impl PredictorStats {
    /// Fraction of predictions that were correct (0.0 when idle).
    pub fn accuracy(&self) -> f64 {
        let total = self.correct + self.incorrect;
        if total == 0 {
            0.0
        } else {
            self.correct as f64 / total as f64
        }
    }
}

/// Configuration of a [`Gshare`] predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GshareConfig {
    /// Bits of global history (and log2 of the counter table size).
    pub history_bits: u32,
}

impl Default for GshareConfig {
    /// The paper's 16-bit-history gshare.
    fn default() -> Self {
        GshareConfig { history_bits: 16 }
    }
}

/// A gshare direction predictor: global history XOR branch IP indexes a
/// table of 2-bit saturating counters.
///
/// # Examples
///
/// ```
/// use xbc_predict::{Gshare, GshareConfig};
/// use xbc_isa::Addr;
///
/// let mut g = Gshare::new(GshareConfig { history_bits: 10 });
/// let ip = Addr::new(0x400);
/// // Train taken until the history register saturates and the index
/// // stabilizes.
/// for _ in 0..64 { g.update(ip, true); }
/// assert!(g.predict(ip));
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>, // 2-bit counters, 0..=3; >=2 predicts taken
    history: u64,
    mask: u64,
    stats: PredictorStats,
}

impl Gshare {
    /// Creates a predictor with all counters weakly not-taken (1).
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` is 0 or above 30.
    pub fn new(cfg: GshareConfig) -> Self {
        assert!(
            (1..=30).contains(&cfg.history_bits),
            "history_bits must be in 1..=30, got {}",
            cfg.history_bits
        );
        let size = 1usize << cfg.history_bits;
        Gshare {
            table: vec![1; size],
            history: 0,
            mask: (size - 1) as u64,
            stats: PredictorStats::default(),
        }
    }

    #[inline]
    fn index(&self, ip: Addr) -> usize {
        // Drop the low bit (instructions are at least byte-aligned but
        // branches cluster); XOR with history per McFarling.
        (((ip.raw() >> 1) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the conditional branch at `ip`.
    #[inline]
    pub fn predict(&self, ip: Addr) -> bool {
        self.table[self.index(ip)] >= 2
    }

    /// Updates the counter and global history with the resolved direction,
    /// recording accuracy against the prediction the current state makes.
    ///
    /// Returns `true` if the prediction was correct.
    #[inline]
    pub fn update(&mut self, ip: Addr, taken: bool) -> bool {
        let idx = self.index(ip);
        let predicted = self.table[idx] >= 2;
        let correct = predicted == taken;
        if correct {
            self.stats.correct += 1;
        } else {
            self.stats.incorrect += 1;
        }
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & self.mask;
        correct
    }

    /// Accuracy statistics so far.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Current global history register value (for hashing in indirect
    /// predictors).
    #[inline]
    pub fn history(&self) -> u64 {
        self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_monotonic_branch() {
        let mut g = Gshare::new(GshareConfig::default());
        let ip = Addr::new(0x1234);
        for _ in 0..256 {
            g.update(ip, true);
        }
        assert!(g.predict(ip));
        // History churns through fresh (cold) indices for the first ~16
        // updates; after it saturates to all-ones the index is stable and
        // every prediction is correct.
        assert!(g.stats().accuracy() > 0.9, "accuracy {}", g.stats().accuracy());
    }

    #[test]
    fn learns_alternating_pattern_through_history() {
        let mut g = Gshare::new(GshareConfig { history_bits: 8 });
        let ip = Addr::new(0x88);
        let mut taken = false;
        // Warm up, then measure: history disambiguates the two phases.
        for _ in 0..200 {
            g.update(ip, taken);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if g.predict(ip) == taken {
                correct += 1;
            }
            g.update(ip, taken);
            taken = !taken;
        }
        assert!(correct > 95, "history should capture period-2 pattern, got {correct}/100");
    }

    #[test]
    fn initial_state_predicts_not_taken() {
        let g = Gshare::new(GshareConfig { history_bits: 4 });
        assert!(!g.predict(Addr::new(0)));
    }

    #[test]
    fn update_reports_correctness() {
        let mut g = Gshare::new(GshareConfig { history_bits: 4 });
        // counter starts at 1 => predicts NT; first update taken is incorrect.
        assert!(!g.update(Addr::new(2), true));
        let s = g.stats();
        assert_eq!((s.correct, s.incorrect), (0, 1));
    }

    #[test]
    fn history_shifts() {
        let mut g = Gshare::new(GshareConfig { history_bits: 4 });
        g.update(Addr::new(2), true);
        g.update(Addr::new(2), false);
        g.update(Addr::new(2), true);
        assert_eq!(g.history() & 0b111, 0b101);
    }

    #[test]
    #[should_panic(expected = "history_bits")]
    fn zero_history_rejected() {
        let _ = Gshare::new(GshareConfig { history_bits: 0 });
    }

    #[test]
    fn accuracy_idle_is_zero() {
        assert_eq!(PredictorStats::default().accuracy(), 0.0);
    }
}
