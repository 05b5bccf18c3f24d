//! Instruction → uop expansion.
//!
//! Models the translate stage of an IA32-class decoder: each architectural
//! instruction expands into a deterministic sequence of uops. The expansion
//! is a pure function of the instruction so every structure in the simulator
//! (decoder, fill unit, trace cache, XBC) agrees on uop identities.

use crate::{BranchKind, Inst, Uop, UopId, UopKind};

/// Expands an instruction into its uop sequence.
///
/// The expansion is deterministic: uop `slot` carries the position, the last
/// uop carries the instruction's [`BranchKind`] and `ends_inst`. Functional
/// classes are synthesized from the instruction shape (branch instructions
/// end in a [`UopKind::Branch`] uop; multi-uop instructions front-load a
/// [`UopKind::Load`] as a typical load-op pattern).
///
/// # Examples
///
/// ```
/// use xbc_isa::{decode, Addr, BranchKind, Inst};
///
/// let i = Inst::new(Addr::new(0x10), 2, 3, BranchKind::CondDirect, Some(Addr::new(0x80)));
/// let uops = decode(&i);
/// assert_eq!(uops.len(), 3);
/// assert!(uops[2].ends_xb());
/// assert!(!uops[0].ends_inst);
/// ```
pub fn decode(inst: &Inst) -> Vec<Uop> {
    let mut out = Vec::with_capacity(inst.uops as usize);
    decode_into(inst, &mut out);
    out
}

/// Appends the uop expansion of `inst` to `out` — the buffer-reusing
/// form of [`decode`], for fill paths that must not allocate per
/// instruction.
pub fn decode_into(inst: &Inst, out: &mut Vec<Uop>) {
    out.extend((0..inst.uops).map(|slot| decode_slot(inst, slot)));
}

/// The uop at `slot` of `inst`'s expansion (`decode(inst)[slot]`), built
/// without the rest — for comparing stored uops against an instruction
/// in place.
///
/// # Panics
///
/// Panics in debug builds if `slot` is not below `inst.uops`.
#[inline]
pub fn decode_slot(inst: &Inst, slot: u8) -> Uop {
    debug_assert!(slot < inst.uops, "slot {slot} past a {}-uop instruction", inst.uops);
    let last = slot + 1 == inst.uops;
    let kind = uop_kind_for_slot(inst, slot as usize, last);
    let branch = if last { inst.branch } else { BranchKind::None };
    Uop::new(UopId::new(inst.ip, slot), kind, last, branch)
}

/// Number of uops `decode` will produce without materializing them.
#[inline]
pub fn decoded_len(inst: &Inst) -> usize {
    inst.uops as usize
}

fn uop_kind_for_slot(inst: &Inst, slot: usize, last: bool) -> UopKind {
    if last && inst.branch.is_branch() {
        return UopKind::Branch;
    }
    // Deterministic, shape-based mix: first uop of a multi-uop instruction
    // is a load (load-op idiom); remaining uops alternate ALU/store-ish.
    if inst.uops > 1 && slot == 0 {
        UopKind::Load
    } else if inst.uops > 2 && slot == inst.uops as usize - 1 {
        UopKind::Store
    } else {
        UopKind::Alu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    #[test]
    fn single_uop_plain_inst() {
        let i = Inst::plain(Addr::new(0x1), 1, 1);
        let u = decode(&i);
        assert_eq!(u.len(), 1);
        assert!(u[0].ends_inst);
        assert_eq!(u[0].kind, UopKind::Alu);
        assert_eq!(u[0].branch, BranchKind::None);
    }

    #[test]
    fn branch_kind_only_on_last_uop() {
        let i = Inst::new(Addr::new(0x1), 4, 4, BranchKind::IndirectJump, None);
        let u = decode(&i);
        assert_eq!(u.len(), 4);
        for prefix in &u[..3] {
            assert_eq!(prefix.branch, BranchKind::None);
            assert!(!prefix.ends_inst);
        }
        assert_eq!(u[3].branch, BranchKind::IndirectJump);
        assert_eq!(u[3].kind, UopKind::Branch);
        assert!(u[3].ends_xb());
    }

    #[test]
    fn slots_are_sequential_and_unique() {
        let i = Inst::plain(Addr::new(0x44), 7, 4);
        let u = decode(&i);
        for (n, uop) in u.iter().enumerate() {
            assert_eq!(uop.id.slot as usize, n);
            assert_eq!(uop.id.inst_ip, Addr::new(0x44));
        }
    }

    #[test]
    fn decoded_len_matches_decode() {
        for uops in 1..=4 {
            let i = Inst::plain(Addr::new(8), 2, uops);
            assert_eq!(decoded_len(&i), decode(&i).len());
        }
    }

    #[test]
    fn load_op_idiom_for_multi_uop() {
        let i = Inst::plain(Addr::new(8), 2, 3);
        let u = decode(&i);
        assert_eq!(u[0].kind, UopKind::Load);
        assert_eq!(u[2].kind, UopKind::Store);
    }

    #[test]
    fn decode_is_deterministic() {
        let i = Inst::new(Addr::new(0x30), 5, 2, BranchKind::CallDirect, Some(Addr::new(0x90)));
        assert_eq!(decode(&i), decode(&i));
    }
}
