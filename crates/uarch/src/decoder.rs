//! Decode-bandwidth model for the build-mode (IC-based) pipeline.
//!
//! Paper §2.1: an instruction-cache frontend is limited each cycle to one
//! fetch line's worth of consecutive instructions, a decoder width in
//! instructions, a uop-translation width, and stops at the first taken
//! branch. [`Decoder`] is a per-cycle budget tracker that frontends consult
//! while walking the committed path in build mode.

use xbc_isa::Inst;

/// Width limits of the decode pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Maximum architectural instructions decoded per cycle.
    pub insts_per_cycle: usize,
    /// Maximum uops emitted per cycle.
    pub uops_per_cycle: usize,
}

impl Default for DecoderConfig {
    /// A 4-wide decoder emitting up to 6 uops — comparable to the class of
    /// machine the paper assumes (renamer capped separately at 8 uops).
    fn default() -> Self {
        DecoderConfig { insts_per_cycle: 4, uops_per_cycle: 6 }
    }
}

/// Per-cycle decode budget.
///
/// Call [`Decoder::begin_cycle`], then [`Decoder::try_consume`] for each
/// sequential instruction; it returns `false` when the instruction no longer
/// fits this cycle (caller then ends the cycle).
///
/// # Examples
///
/// ```
/// use xbc_uarch::{Decoder, DecoderConfig};
/// use xbc_isa::{Addr, Inst};
///
/// let mut d = Decoder::new(DecoderConfig { insts_per_cycle: 2, uops_per_cycle: 8 });
/// d.begin_cycle();
/// assert!(d.try_consume(&Inst::plain(Addr::new(0), 1, 1)));
/// assert!(d.try_consume(&Inst::plain(Addr::new(1), 1, 1)));
/// assert!(!d.try_consume(&Inst::plain(Addr::new(2), 1, 1))); // width exhausted
/// ```
#[derive(Clone, Debug)]
pub struct Decoder {
    cfg: DecoderConfig,
    insts_left: usize,
    uops_left: usize,
}

impl Decoder {
    /// Creates a decoder with the given widths.
    ///
    /// # Panics
    ///
    /// Panics if either width is zero.
    pub fn new(cfg: DecoderConfig) -> Self {
        assert!(
            cfg.insts_per_cycle > 0 && cfg.uops_per_cycle > 0,
            "decoder widths must be non-zero"
        );
        Decoder { cfg, insts_left: 0, uops_left: 0 }
    }

    /// The configured widths.
    pub fn config(&self) -> DecoderConfig {
        self.cfg
    }

    /// Resets the per-cycle budget.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.insts_left = self.cfg.insts_per_cycle;
        self.uops_left = self.cfg.uops_per_cycle;
    }

    /// Attempts to decode `inst` within the current cycle's budget.
    ///
    /// Returns `true` (and consumes budget) if the instruction fits. An
    /// instruction wider than `uops_per_cycle` is allowed only as the first
    /// instruction of a cycle (it then monopolizes the cycle), mirroring how
    /// real decoders sequence long flows through the microcode engine.
    #[inline]
    pub fn try_consume(&mut self, inst: &Inst) -> bool {
        if self.insts_left == 0 {
            return false;
        }
        let uops = inst.uops as usize;
        if uops > self.uops_left {
            // Allow a fresh cycle to sequence an over-wide instruction alone.
            if self.uops_left == self.cfg.uops_per_cycle {
                self.insts_left = 0;
                self.uops_left = 0;
                return true;
            }
            return false;
        }
        self.insts_left -= 1;
        self.uops_left -= uops;
        true
    }

    /// uop budget still available this cycle.
    pub fn uops_left(&self) -> usize {
        self.uops_left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbc_isa::Addr;

    fn plain(uops: u8) -> Inst {
        Inst::plain(Addr::new(0x10), 1, uops)
    }

    #[test]
    fn uop_width_limits_cycle() {
        let mut d = Decoder::new(DecoderConfig { insts_per_cycle: 8, uops_per_cycle: 6 });
        d.begin_cycle();
        assert!(d.try_consume(&plain(4)));
        assert!(d.try_consume(&plain(2)));
        assert!(!d.try_consume(&plain(1)));
    }

    #[test]
    fn inst_width_limits_cycle() {
        let mut d = Decoder::new(DecoderConfig { insts_per_cycle: 2, uops_per_cycle: 100 });
        d.begin_cycle();
        assert!(d.try_consume(&plain(1)));
        assert!(d.try_consume(&plain(1)));
        assert!(!d.try_consume(&plain(1)));
        d.begin_cycle();
        assert!(d.try_consume(&plain(1)));
    }

    #[test]
    fn overwide_instruction_takes_whole_cycle() {
        let mut d = Decoder::new(DecoderConfig { insts_per_cycle: 4, uops_per_cycle: 3 });
        d.begin_cycle();
        assert!(d.try_consume(&plain(4))); // wider than per-cycle uop budget
        assert!(!d.try_consume(&plain(1)));
        d.begin_cycle();
        // But not when the cycle already started.
        assert!(d.try_consume(&plain(1)));
        assert!(!d.try_consume(&plain(4)));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_width_rejected() {
        let _ = Decoder::new(DecoderConfig { insts_per_cycle: 0, uops_per_cycle: 4 });
    }
}
