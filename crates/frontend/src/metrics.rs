//! Frontend performance metrics.
//!
//! The two headline numbers of the paper's evaluation:
//!
//! * **uop miss rate** (Figures 9, 10): the percentage of uops brought from
//!   the instruction cache, i.e. delivered while in build mode, and
//! * **uop bandwidth** (Figure 8): uops supplied from the caching structure
//!   per delivery-mode cycle ("bandwidth is defined only for hits").

use std::fmt;
use std::ops::AddAssign;
use xbc_obs::{CycleKind, D2bCause, Event, MispredictKind, UopSource};

/// Counters accumulated while a frontend runs over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendMetrics {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Cycles spent in build mode (fetching from the IC and decoding).
    pub build_cycles: u64,
    /// Cycles spent in delivery mode (supplying uops from the structure).
    pub delivery_cycles: u64,
    /// Stall cycles (misprediction resteer, IC misses).
    pub stall_cycles: u64,
    /// Uops delivered from the caching structure (delivery mode).
    pub structure_uops: u64,
    /// Uops delivered from the IC/decode path (build mode).
    pub ic_uops: u64,
    /// Conditional-branch mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-target / return mispredictions.
    pub target_mispredicts: u64,
    /// Transitions from delivery mode to build mode.
    pub delivery_to_build: u64,
    /// Transitions from build mode to delivery mode.
    pub build_to_delivery: u64,
    /// Structure lookups that missed (stale pointer, eviction, cold).
    pub structure_misses: u64,
    /// Uop-slots of fetch lost to XBC bank conflicts (0 for other frontends).
    pub bank_conflict_uops: u64,
    /// Set searches performed (XBC only).
    pub set_searches: u64,
    /// Set searches that recovered the XB (XBC only).
    pub set_search_hits: u64,
    /// Branch promotions performed (XBC only).
    pub promotions: u64,
    /// De-promotions performed (XBC only).
    pub depromotions: u64,
    /// Delivery→build switches caused by XBTB misses (XBC only).
    pub d2b_xbtb_miss: u64,
    /// Delivery→build switches caused by a missing successor pointer.
    pub d2b_no_pointer: u64,
    /// Delivery→build switches caused by a stale successor pointer.
    pub d2b_stale_pointer: u64,
    /// Delivery→build switches caused by array misses (evicted XBs).
    pub d2b_array_miss: u64,
    /// Delivery→build switches caused by return mispredictions.
    pub d2b_return: u64,
    /// Delivery→build switches caused by indirect-target mispredictions.
    pub d2b_indirect: u64,
    /// Delivery→build switches caused by a misfetch: the fetched
    /// (merged) XB diverged from the committed path (XBC only).
    pub d2b_misfetch: u64,
    /// Delivery→build switches caused by a plain structure miss
    /// (uop cache / TC / BBTC lookup failure).
    pub d2b_structure_miss: u64,
}

impl FrontendMetrics {
    /// Total uops delivered.
    pub fn total_uops(&self) -> u64 {
        self.structure_uops + self.ic_uops
    }

    /// Fraction of uops brought from the IC (the paper's *uop miss rate*,
    /// Figures 9 & 10). 0.0 when nothing was delivered.
    pub fn uop_miss_rate(&self) -> f64 {
        let total = self.total_uops();
        if total == 0 {
            0.0
        } else {
            self.ic_uops as f64 / total as f64
        }
    }

    /// Uops supplied by the structure per delivery cycle (the paper's
    /// *bandwidth*, Figure 8). 0.0 when the structure never delivered.
    pub fn delivery_bandwidth(&self) -> f64 {
        if self.delivery_cycles == 0 {
            0.0
        } else {
            self.structure_uops as f64 / self.delivery_cycles as f64
        }
    }

    /// Overall uops per cycle including build mode and stalls.
    pub fn overall_uops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_uops() as f64 / self.cycles as f64
        }
    }

    /// Mispredictions (direction + target) per 1000 uops.
    pub fn mispredicts_per_kuop(&self) -> f64 {
        let total = self.total_uops();
        if total == 0 {
            0.0
        } else {
            (self.cond_mispredicts + self.target_mispredicts) as f64 * 1000.0 / total as f64
        }
    }

    /// The §1 phase decomposition of execution time, following the
    /// Mich99 framing the paper opens with: *steady state* (the
    /// structure streams uops — delivery cycles), *transition* (ramping
    /// back up through the IC path — build cycles), and *stall*
    /// (misprediction resteers and IC misses). The paper's rule of thumb
    /// for a full CPU is roughly 50/30/20; a stand-alone frontend model
    /// shifts weight toward whatever its structure cannot cover.
    ///
    /// Returns `(steady, transition, stall)` as fractions of total cycles.
    pub fn phase_breakdown(&self) -> (f64, f64, f64) {
        if self.cycles == 0 {
            return (0.0, 0.0, 0.0);
        }
        let c = self.cycles as f64;
        (
            self.delivery_cycles as f64 / c,
            self.build_cycles as f64 / c,
            self.stall_cycles as f64 / c,
        )
    }

    /// Set-search success rate (XBC only; 0.0 when unused).
    pub fn set_search_hit_rate(&self) -> f64 {
        if self.set_searches == 0 {
            0.0
        } else {
            self.set_search_hits as f64 / self.set_searches as f64
        }
    }

    /// Sum of the per-cause delivery→build counters.
    ///
    /// Every switch records exactly one cause (enforced structurally by
    /// [`FrontendMetrics::apply_event`]), so this always equals
    /// [`FrontendMetrics::delivery_to_build`] — the d2b-sum invariant.
    pub fn d2b_cause_sum(&self) -> u64 {
        self.d2b_xbtb_miss
            + self.d2b_no_pointer
            + self.d2b_stale_pointer
            + self.d2b_array_miss
            + self.d2b_return
            + self.d2b_indirect
            + self.d2b_misfetch
            + self.d2b_structure_miss
    }

    /// Applies `n` cycle events of the same kind at once — arithmetically
    /// identical to `n` calls of `apply_event(&Event::Cycle(kind))`.
    /// `Probe::emit_cycles` uses this so bulk stall retirement does not
    /// loop over the counters.
    #[inline]
    pub fn apply_cycles(&mut self, kind: CycleKind, n: u64) {
        self.cycles += n;
        match kind {
            CycleKind::Build => self.build_cycles += n,
            CycleKind::Delivery => self.delivery_cycles += n,
            CycleKind::Stall => self.stall_cycles += n,
        }
    }

    /// Applies one trace event to the counters.
    ///
    /// This is the *only* way frontends bump their metrics on the step
    /// path (via `Probe::emit`), and the only folding rule the
    /// `Reconciler` uses — so the event stream and the aggregate
    /// counters cannot disagree: they are the same arithmetic.
    /// Observability-only events (`Lookup`, `Fill`, `Eviction`,
    /// `Occupancy`) are no-ops here.
    #[inline]
    pub fn apply_event(&mut self, e: &Event) {
        match e {
            Event::Cycle(kind) => {
                self.cycles += 1;
                match kind {
                    CycleKind::Build => self.build_cycles += 1,
                    CycleKind::Delivery => self.delivery_cycles += 1,
                    CycleKind::Stall => self.stall_cycles += 1,
                }
            }
            Event::Uops { src, n } => match src {
                UopSource::Structure => self.structure_uops += u64::from(*n),
                UopSource::Ic => self.ic_uops += u64::from(*n),
            },
            Event::Mispredict(kind) => match kind {
                MispredictKind::Cond => self.cond_mispredicts += 1,
                MispredictKind::Target => self.target_mispredicts += 1,
            },
            Event::SwitchToBuild(cause) => {
                self.delivery_to_build += 1;
                match cause {
                    D2bCause::XbtbMiss => self.d2b_xbtb_miss += 1,
                    D2bCause::NoPointer => self.d2b_no_pointer += 1,
                    D2bCause::StalePointer => self.d2b_stale_pointer += 1,
                    D2bCause::ArrayMiss => self.d2b_array_miss += 1,
                    D2bCause::Return => self.d2b_return += 1,
                    D2bCause::Indirect => self.d2b_indirect += 1,
                    D2bCause::Misfetch => self.d2b_misfetch += 1,
                    D2bCause::StructureMiss => self.d2b_structure_miss += 1,
                }
            }
            Event::SwitchToDelivery => self.build_to_delivery += 1,
            Event::StructureMiss => self.structure_misses += 1,
            Event::BankConflict { deferred } => self.bank_conflict_uops += u64::from(*deferred),
            Event::SetSearch { hit } => {
                self.set_searches += 1;
                if *hit {
                    self.set_search_hits += 1;
                }
            }
            Event::Promotion => self.promotions += 1,
            Event::Depromotion => self.depromotions += 1,
            Event::Lookup { .. }
            | Event::Fill { .. }
            | Event::Eviction { .. }
            | Event::Occupancy { .. } => {}
        }
    }
}

impl AddAssign for FrontendMetrics {
    fn add_assign(&mut self, o: Self) {
        self.cycles += o.cycles;
        self.build_cycles += o.build_cycles;
        self.delivery_cycles += o.delivery_cycles;
        self.stall_cycles += o.stall_cycles;
        self.structure_uops += o.structure_uops;
        self.ic_uops += o.ic_uops;
        self.cond_mispredicts += o.cond_mispredicts;
        self.target_mispredicts += o.target_mispredicts;
        self.delivery_to_build += o.delivery_to_build;
        self.build_to_delivery += o.build_to_delivery;
        self.structure_misses += o.structure_misses;
        self.bank_conflict_uops += o.bank_conflict_uops;
        self.set_searches += o.set_searches;
        self.set_search_hits += o.set_search_hits;
        self.promotions += o.promotions;
        self.depromotions += o.depromotions;
        self.d2b_xbtb_miss += o.d2b_xbtb_miss;
        self.d2b_no_pointer += o.d2b_no_pointer;
        self.d2b_stale_pointer += o.d2b_stale_pointer;
        self.d2b_array_miss += o.d2b_array_miss;
        self.d2b_return += o.d2b_return;
        self.d2b_indirect += o.d2b_indirect;
        self.d2b_misfetch += o.d2b_misfetch;
        self.d2b_structure_miss += o.d2b_structure_miss;
    }
}

impl fmt::Display for FrontendMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} (build={} delivery={} stall={})",
            self.cycles, self.build_cycles, self.delivery_cycles, self.stall_cycles
        )?;
        writeln!(
            f,
            "uops: structure={} ic={} miss_rate={:.2}% bandwidth={:.2} uops/cyc",
            self.structure_uops,
            self.ic_uops,
            100.0 * self.uop_miss_rate(),
            self.delivery_bandwidth()
        )?;
        write!(
            f,
            "mispredicts: cond={} target={} switches: d->b={} b->d={}",
            self.cond_mispredicts,
            self.target_mispredicts,
            self.delivery_to_build,
            self.build_to_delivery
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_and_bandwidth() {
        let m = FrontendMetrics {
            structure_uops: 900,
            ic_uops: 100,
            delivery_cycles: 150,
            cycles: 400,
            ..Default::default()
        };
        assert!((m.uop_miss_rate() - 0.1).abs() < 1e-12);
        assert!((m.delivery_bandwidth() - 6.0).abs() < 1e-12);
        assert!((m.overall_uops_per_cycle() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_safe() {
        let m = FrontendMetrics::default();
        assert_eq!(m.uop_miss_rate(), 0.0);
        assert_eq!(m.delivery_bandwidth(), 0.0);
        assert_eq!(m.overall_uops_per_cycle(), 0.0);
        assert_eq!(m.mispredicts_per_kuop(), 0.0);
        assert_eq!(m.set_search_hit_rate(), 0.0);
    }

    #[test]
    fn phase_breakdown_partitions() {
        let m = FrontendMetrics {
            cycles: 10,
            delivery_cycles: 5,
            build_cycles: 3,
            stall_cycles: 2,
            ..Default::default()
        };
        let (s, t, st) = m.phase_breakdown();
        assert!((s - 0.5).abs() < 1e-12);
        assert!((t - 0.3).abs() < 1e-12);
        assert!((st - 0.2).abs() < 1e-12);
        assert_eq!(FrontendMetrics::default().phase_breakdown(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = FrontendMetrics { cycles: 10, ic_uops: 5, ..Default::default() };
        a += FrontendMetrics { cycles: 7, structure_uops: 3, ..Default::default() };
        assert_eq!(a.cycles, 17);
        assert_eq!(a.total_uops(), 8);
    }

    #[test]
    fn apply_event_mirrors_counters() {
        let mut m = FrontendMetrics::default();
        m.apply_event(&Event::Cycle(CycleKind::Delivery));
        m.apply_event(&Event::Uops { src: UopSource::Structure, n: 6 });
        m.apply_event(&Event::Mispredict(MispredictKind::Target));
        m.apply_event(&Event::SwitchToBuild(D2bCause::StalePointer));
        m.apply_event(&Event::SetSearch { hit: true });
        m.apply_event(&Event::Lookup { what: xbc_obs::LookupKind::Xbtb, hit: false });
        assert_eq!(m.cycles, 1);
        assert_eq!(m.delivery_cycles, 1);
        assert_eq!(m.structure_uops, 6);
        assert_eq!(m.target_mispredicts, 1);
        assert_eq!(m.delivery_to_build, 1);
        assert_eq!(m.d2b_stale_pointer, 1);
        assert_eq!(m.set_searches, 1);
        assert_eq!(m.set_search_hits, 1);
        assert_eq!(m.d2b_cause_sum(), m.delivery_to_build);
    }

    #[test]
    fn every_d2b_cause_feeds_the_sum() {
        let mut m = FrontendMetrics::default();
        let causes = [
            D2bCause::XbtbMiss,
            D2bCause::NoPointer,
            D2bCause::StalePointer,
            D2bCause::ArrayMiss,
            D2bCause::Return,
            D2bCause::Indirect,
            D2bCause::Misfetch,
            D2bCause::StructureMiss,
        ];
        for c in causes {
            m.apply_event(&Event::SwitchToBuild(c));
        }
        assert_eq!(m.delivery_to_build, causes.len() as u64);
        assert_eq!(m.d2b_cause_sum(), m.delivery_to_build);
    }

    #[test]
    fn display_mentions_bandwidth() {
        let m = FrontendMetrics { structure_uops: 8, delivery_cycles: 2, ..Default::default() };
        assert!(format!("{m}").contains("bandwidth=4.00"));
    }
}
