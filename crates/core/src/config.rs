//! XBC configuration.

use std::fmt;
use xbc_frontend::TimingConfig;
use xbc_predict::{BtbConfig, GshareConfig};
use xbc_uarch::{check_capacity, DecoderConfig, ICacheConfig};

/// How branch promotion (§3.8) is realized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PromotionMode {
    /// No promotion: every conditional consumes prediction bandwidth.
    Off,
    /// Prediction-free chaining: a promoted branch follows its monotonic
    /// successor without consuming one of the per-cycle XBTB pointer
    /// slots. Same fetch-bandwidth effect as the paper's merged XB, no
    /// storage copy (see DESIGN.md §6.2).
    #[default]
    Chain,
    /// Physical merging: XB0 is copied to extend XB1 in XB1's set, forming
    /// the combined (possibly complex) XB of §3.8, XB0's original lines
    /// are LRU-demoted, and pointers heal to the combined block.
    Merge,
}

impl PromotionMode {
    /// True unless promotion is off.
    pub const fn enabled(self) -> bool {
        !matches!(self, PromotionMode::Off)
    }
}

impl fmt::Display for PromotionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromotionMode::Off => f.write_str("off"),
            PromotionMode::Chain => f.write_str("chain"),
            PromotionMode::Merge => f.write_str("merge"),
        }
    }
}

/// Full configuration of an XBC frontend (paper §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XbcConfig {
    /// Total uop capacity (sets × banks × ways × line_uops). Paper headline
    /// size: 32K uops.
    pub total_uops: usize,
    /// Number of banks (paper: 4; each bank has one decoder, so one line
    /// per bank can be read per cycle).
    pub banks: usize,
    /// Ways per bank (paper: 2-way set-associative banks).
    pub ways: usize,
    /// Uops per bank line (paper: 4, for a 16-uop maximum fetch width).
    pub line_uops: usize,
    /// Maximum uops per extended block (the 16-uop quota of §3.1).
    pub max_xb_uops: usize,
    /// XBTB entries (paper: fixed 8K).
    pub xbtb_entries: usize,
    /// Number of XB pointers the XBTB supplies per cycle (the paper's
    /// prediction bandwidth *n* = 2).
    pub xbs_per_cycle: usize,
    /// XBQ depth in uops (§3.6: "we need to decouple the XBTB from the
    /// XBC, as in Rein99; this is done by the XBQ"). `0` disables
    /// fetch-ahead: a new fetch group starts only once the queue drains —
    /// the pacing that keeps XBC and TC bandwidth directly comparable.
    /// Depths ≥ the fetch width let fetch run ahead of the renamer.
    pub xbq_depth: usize,
    /// Branch promotion mode (§3.8).
    pub promotion: PromotionMode,
    /// Enable set search on XBTB-hit/XBC-miss (§3.9).
    pub set_search: bool,
    /// Enable the smart build-mode placement that avoids bank conflicts
    /// with the previous XB (§3.10).
    pub smart_placement: bool,
    /// Enable dynamic (delivery-mode) conflict-driven re-placement (§3.10).
    pub dynamic_placement: bool,
    /// Deferred-fetch events before dynamic placement moves a line (§3.10).
    pub conflict_threshold: u8,
    /// Build-path instruction cache.
    pub icache: ICacheConfig,
    /// Build-path BTB.
    pub btb: BtbConfig,
    /// Build-path decoder widths.
    pub decoder: DecoderConfig,
    /// Timing constants (renamer width 8, misprediction penalty).
    pub timing: TimingConfig,
    /// Conditional predictor (the XBP; paper: 16-bit gshare).
    pub gshare: GshareConfig,
}

impl Default for XbcConfig {
    /// The paper's headline configuration: 32K uops, 4 banks × 2 ways ×
    /// 4 uops, 8K-entry XBTB, 2 XBs per cycle, all §3 features on.
    fn default() -> Self {
        XbcConfig {
            total_uops: 32 * 1024,
            banks: 4,
            ways: 2,
            line_uops: 4,
            max_xb_uops: 16,
            xbtb_entries: 8192,
            xbs_per_cycle: 2,
            xbq_depth: 0,
            promotion: PromotionMode::Chain,
            set_search: true,
            smart_placement: true,
            dynamic_placement: true,
            conflict_threshold: 8,
            icache: ICacheConfig::default(),
            btb: BtbConfig::default(),
            decoder: DecoderConfig::default(),
            timing: TimingConfig::default(),
            gshare: GshareConfig::default(),
        }
    }
}

impl XbcConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent.
    pub fn sets(&self) -> usize {
        self.validate();
        self.total_uops / (self.banks * self.ways * self.line_uops)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any inconsistency.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Checks the configuration [`XbcConfig::validate`] asserts.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message on the first inconsistency.
    pub fn check(&self) -> Result<(), String> {
        check_capacity(self.total_uops)?;
        if !(1..=8).contains(&self.banks) {
            return Err("banks must be in 1..=8".into());
        }
        if self.ways == 0 {
            return Err("need at least one way per bank".into());
        }
        // Lane masks are 64 bits wide.
        if self.ways > 64 / self.banks {
            return Err(format!(
                "at most 64 lines per set (lane masks are 64 bits); {} banks × {} ways",
                self.banks, self.ways
            ));
        }
        if self.line_uops == 0 {
            return Err("lines must hold at least one uop".into());
        }
        if self.max_xb_uops > self.banks.saturating_mul(self.line_uops) {
            return Err(format!(
                "an XB (max {} uops) must fit across the banks ({} × {})",
                self.max_xb_uops, self.banks, self.line_uops
            ));
        }
        let set_uops = (self.banks * self.ways).saturating_mul(self.line_uops);
        if self.total_uops < set_uops || !self.total_uops.is_multiple_of(set_uops) {
            return Err(format!(
                "total_uops ({}) must be a positive multiple of uops per set ({set_uops})",
                self.total_uops
            ));
        }
        if !self.xbtb_entries.is_power_of_two() {
            return Err("XBTB entries must be a power of two".into());
        }
        if self.xbs_per_cycle == 0 {
            return Err("must fetch at least one XB per cycle".into());
        }
        Ok(())
    }

    /// Maximum lines an XB can span.
    pub fn max_lines_per_xb(&self) -> usize {
        self.max_xb_uops.div_ceil(self.line_uops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper() {
        let c = XbcConfig::default();
        // 32K uops / (4 banks × 2 ways × 4 uops) = 1024 sets.
        assert_eq!(c.sets(), 1024);
        assert_eq!(c.max_lines_per_xb(), 4);
    }

    #[test]
    fn direct_mapped_variant() {
        let c = XbcConfig { ways: 1, ..XbcConfig::default() };
        assert_eq!(c.sets(), 2048);
    }

    #[test]
    #[should_panic(expected = "must fit across the banks")]
    fn xb_must_fit_fetch_width() {
        let c = XbcConfig { banks: 2, ..XbcConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "multiple of uops per set")]
    fn capacity_must_divide() {
        let c = XbcConfig { total_uops: 100, ..XbcConfig::default() };
        c.validate();
    }
}
