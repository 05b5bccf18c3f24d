//! Structural invariant checking for the XBC (the `xbc-check` tentpole).
//!
//! [`XbcInvariants`] bundles the storage-rule audits scattered across the
//! structures ([`XbcArray::audit`], [`Xbtb::audit`], [`Xfu::audit`]) with a
//! *differential census*: the array's [`XbcArray::population`] counters are
//! recomputed here from the raw line metadata by an independent
//! implementation, so a bookkeeping bug in either census shows up as a
//! disagreement instead of silently skewing every figure built on it.
//!
//! The checks are pure reads — they never mutate the structures — so the
//! frontend can run them after every install/extend (feature `check`, or
//! any `debug_assertions` build) without perturbing timing state.

use crate::array::XbcArray;
use crate::xbtb::Xbtb;
use crate::xfu::Xfu;
use std::collections::{HashMap, HashSet};

/// Facade over the XBC structural audits.
///
/// # Examples
///
/// ```
/// use xbc::{XbcConfig, XbcArray, XbcInvariants};
///
/// let array = XbcArray::new(&XbcConfig::default());
/// XbcInvariants::check(&array).expect("an empty array is trivially sound");
/// ```
pub struct XbcInvariants;

impl XbcInvariants {
    /// Audits `array` with no merged-block exemptions (promotion off, or a
    /// standalone array). See [`XbcInvariants::check_with`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check(array: &XbcArray) -> Result<(), String> {
        Self::check_with(array, &HashSet::new())
    }

    /// Audits `array`: per-line storage rules ([`XbcArray::audit`], with
    /// `merged_tags` exempting merge-mode combinations from the single-exit
    /// rule) plus the differential census recount.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_with(array: &XbcArray, merged_tags: &HashSet<(usize, u64)>) -> Result<(), String> {
        array.audit(merged_tags)?;
        Self::census(array)
    }

    /// Recomputes the line/uop/XB counts from raw line metadata and
    /// compares them with [`XbcArray::population`] and the direct
    /// [`XbcArray::valid_lines`] / [`XbcArray::stored_uops`] counters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first counter disagreement.
    pub fn census(array: &XbcArray) -> Result<(), String> {
        let mut lines = 0usize;
        let mut uops = 0usize;
        let mut per_tag: HashMap<(usize, u64), Vec<u8>> = HashMap::new();
        for set in 0..array.sets() {
            for bank in 0..array.banks() {
                for way in 0..array.ways() {
                    let Some((tag, order, count)) = array.line_meta(set, bank, way) else {
                        continue;
                    };
                    lines += 1;
                    uops += count;
                    per_tag.entry((set, tag)).or_default().push(order);
                }
            }
        }
        let mut complex = 0usize;
        for orders in per_tag.values_mut() {
            orders.sort_unstable();
            if orders.windows(2).any(|w| w[0] == w[1]) {
                complex += 1;
            }
        }
        let pop = array.population();
        let pairs = [
            ("valid lines", lines, array.valid_lines()),
            ("population lines", lines, pop.lines),
            ("stored uops", uops, array.stored_uops()),
            ("population uops", uops, pop.stored_uops),
            ("XB count", per_tag.len(), pop.xb_count),
            ("complex count", complex, pop.complex_count),
        ];
        for (what, recount, counter) in pairs {
            if recount != counter {
                return Err(format!(
                    "census mismatch: {what} recounts {recount}, reports {counter}"
                ));
            }
        }
        let (total, distinct) = array.redundancy();
        if distinct > total {
            return Err(format!("redundancy audit: {distinct} distinct of {total} slots"));
        }
        Ok(())
    }

    /// Audits the pointer table against the array geometry it navigates.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_xbtb(xbtb: &Xbtb, array: &XbcArray) -> Result<(), String> {
        xbtb.audit(array.line_uops(), array.banks() * array.line_uops())
    }

    /// Audits the fill unit's build state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_xfu(xfu: &Xfu) -> Result<(), String> {
        xfu.audit()
    }

    /// Audits accounting identities on a finished run's metrics: every
    /// delivery→build switch must carry exactly one cause, so the cause
    /// counters partition `delivery_to_build`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_metrics(m: &xbc_frontend::FrontendMetrics) -> Result<(), String> {
        if m.d2b_cause_sum() != m.delivery_to_build {
            return Err(format!(
                "d2b cause counters sum to {} but delivery_to_build is {}",
                m.d2b_cause_sum(),
                m.delivery_to_build
            ));
        }
        if m.cycles != m.build_cycles + m.delivery_cycles + m.stall_cycles {
            return Err(format!(
                "cycle kinds sum to {} but cycles is {}",
                m.build_cycles + m.delivery_cycles + m.stall_cycles,
                m.cycles
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XbcConfig;
    use crate::ptr::BankMask;
    use xbc_isa::{Addr, BranchKind, Uop, UopId, UopKind};

    fn mk_uops(base_ip: u64, n: usize) -> Vec<Uop> {
        (0..n)
            .map(|i| {
                let last = i + 1 == n;
                Uop::new(
                    UopId::new(Addr::new(base_ip + i as u64), 0),
                    if last { UopKind::Branch } else { UopKind::Alu },
                    true,
                    if last { BranchKind::CondDirect } else { BranchKind::None },
                )
            })
            .collect()
    }

    #[test]
    fn clean_array_passes() {
        let mut a = XbcArray::new(&XbcConfig { total_uops: 256, ..XbcConfig::default() });
        for i in 0..4u64 {
            let u = mk_uops(0x100 + i * 37, 10);
            a.insert(Addr::new(0x100 + i * 37 + 9), &u, 0, BankMask::EMPTY, BankMask::EMPTY);
        }
        XbcInvariants::check(&a).unwrap();
    }

    #[test]
    fn interior_boundary_branch_is_caught() {
        let mut a = XbcArray::new(&XbcConfig { total_uops: 256, ..XbcConfig::default() });
        // A "merged-looking" block with a conditional buried mid-way…
        let mut u = mk_uops(0x100, 5);
        u.extend(mk_uops(0x200, 5));
        let ip = Addr::new(0x204);
        a.insert(ip, &u, 0, BankMask::EMPTY, BankMask::EMPTY);
        let err = XbcInvariants::check(&a).unwrap_err();
        assert!(err.contains("interior position"), "{err}");
        // …is legal once the tag is registered as a merge combination.
        let mut merged = HashSet::new();
        merged.insert(a.set_and_tag(ip));
        XbcInvariants::check_with(&a, &merged).unwrap();
    }

    #[test]
    fn xbtb_thin_mask_is_caught() {
        use crate::ptr::XbPtr;
        use crate::xbtb::XbEndKind;
        let mut t = Xbtb::new(64);
        let slot = t.allocate(Addr::new(0x100), XbEndKind::Cond);
        // 9 uops need ceil(9/4) = 3 banks; a 1-bank mask cannot fetch them.
        t.at_mut(slot).set_successor(
            true,
            XbPtr::new(Addr::new(0x200), Addr::new(0x1f8), BankMask::from_bits(0b0001), 9),
        );
        let a = XbcArray::new(&XbcConfig::default());
        let err = XbcInvariants::check_xbtb(&t, &a).unwrap_err();
        assert!(err.contains("needs 3"), "{err}");
    }

    #[test]
    fn xfu_miscount_is_caught() {
        use xbc_frontend::FillSink;
        use xbc_workload::DynInst;
        let mut x = Xfu::new(16);
        let inst = xbc_isa::Inst::plain(Addr::new(0x10), 1, 2);
        x.observe(&DynInst { inst, taken: false, next_ip: Addr::new(0x11) });
        XbcInvariants::check_xfu(&x).unwrap();
    }

    #[test]
    fn uncaused_d2b_switch_is_caught() {
        let mut m = xbc_frontend::FrontendMetrics::default();
        XbcInvariants::check_metrics(&m).unwrap();
        m.delivery_to_build = 3;
        m.d2b_xbtb_miss = 2;
        m.d2b_return = 1;
        XbcInvariants::check_metrics(&m).unwrap();
        m.delivery_to_build = 4; // one switch forgot its cause
        let err = XbcInvariants::check_metrics(&m).unwrap_err();
        assert!(err.contains("delivery_to_build"), "{err}");
    }
}
