//! A pluggable conditional-direction predictor.
//!
//! The paper fixes a 16-bit gshare (§4), but the predictor ablation swaps
//! in the classical alternatives through this common interface.

use crate::{
    Bimodal, Gshare, GshareConfig, LocalConfig, LocalPredictor, PredictorStats, Tournament,
    TournamentConfig,
};
use xbc_isa::Addr;

/// A conditional direction predictor of any of the implemented families.
#[derive(Clone, Debug)]
pub enum DirPredictor {
    /// Global-history gshare (the paper's XBP).
    Gshare(Gshare),
    /// Per-address 2-bit counters.
    Bimodal(Bimodal),
    /// Two-level local-history (PAg).
    Local(LocalPredictor),
    /// McFarling combining predictor (gshare + bimodal + chooser).
    Tournament(Tournament),
}

impl DirPredictor {
    /// The paper's default: 16-bit-history gshare.
    pub fn gshare(cfg: GshareConfig) -> Self {
        DirPredictor::Gshare(Gshare::new(cfg))
    }

    /// A bimodal predictor with `2^index_bits` counters.
    pub fn bimodal(index_bits: u32) -> Self {
        DirPredictor::Bimodal(Bimodal::new(index_bits))
    }

    /// A two-level local predictor.
    pub fn local(cfg: LocalConfig) -> Self {
        DirPredictor::Local(LocalPredictor::new(cfg))
    }

    /// A McFarling combining predictor.
    pub fn tournament(cfg: TournamentConfig) -> Self {
        DirPredictor::Tournament(Tournament::new(cfg))
    }

    /// Predicts the direction of the conditional branch at `ip`.
    #[inline]
    pub fn predict(&self, ip: Addr) -> bool {
        match self {
            DirPredictor::Gshare(p) => p.predict(ip),
            DirPredictor::Bimodal(p) => p.predict(ip),
            DirPredictor::Local(p) => p.predict(ip),
            DirPredictor::Tournament(p) => p.predict(ip),
        }
    }

    /// Updates with the resolved direction; returns whether the pre-update
    /// state predicted correctly.
    #[inline]
    pub fn update(&mut self, ip: Addr, taken: bool) -> bool {
        match self {
            DirPredictor::Gshare(p) => p.update(ip, taken),
            DirPredictor::Bimodal(p) => p.update(ip, taken),
            DirPredictor::Local(p) => p.update(ip, taken),
            DirPredictor::Tournament(p) => p.update(ip, taken),
        }
    }

    /// Global path history for hashing indirect predictors; predictors
    /// without a global history register report 0 (degrading the XiBTB to
    /// a last-target table, which remains correct).
    #[inline]
    pub fn history(&self) -> u64 {
        match self {
            DirPredictor::Gshare(p) => p.history(),
            DirPredictor::Tournament(p) => p.history(),
            DirPredictor::Bimodal(_) | DirPredictor::Local(_) => 0,
        }
    }

    /// Accuracy statistics.
    pub fn stats(&self) -> PredictorStats {
        match self {
            DirPredictor::Gshare(p) => p.stats(),
            DirPredictor::Bimodal(p) => p.stats(),
            DirPredictor::Local(p) => p.stats(),
            DirPredictor::Tournament(p) => p.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_learn_a_monotonic_branch() {
        for mut p in [
            DirPredictor::gshare(GshareConfig { history_bits: 10 }),
            DirPredictor::bimodal(10),
            DirPredictor::local(LocalConfig::default()),
            DirPredictor::tournament(TournamentConfig::default()),
        ] {
            let ip = Addr::new(0x30);
            for _ in 0..200 {
                p.update(ip, true);
            }
            assert!(p.predict(ip));
            assert!(p.stats().accuracy() > 0.8);
        }
    }

    #[test]
    fn history_is_zero_for_non_global() {
        let mut b = DirPredictor::bimodal(8);
        b.update(Addr::new(2), true);
        assert_eq!(b.history(), 0);
        let mut g = DirPredictor::gshare(GshareConfig { history_bits: 8 });
        g.update(Addr::new(2), true);
        assert_eq!(g.history() & 1, 1);
    }
}
