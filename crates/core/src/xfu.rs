//! The XBC fill unit — XFU (paper §3.3).
//!
//! In build mode the XFU watches the committed uop stream, groups it into
//! extended blocks (ending on conditional/indirect branches, returns,
//! calls, or the 16-uop quota), and installs each block into the array
//! with the paper's redundancy-free build algorithm:
//!
//! 1. **contained** — the new XB is a suffix of a stored one: nothing to
//!    write, just hand back a pointer into the existing lines;
//! 2. **extension** — the new XB extends a stored one at its head: the
//!    extra uops are prepended in place (reverse-order storage, §3.4);
//! 3. **complex** — same suffix, different prefix: the shared whole lines
//!    are reused, only the divergent prefix is written (§3.3 case 3).

use crate::array::XbcArray;
use crate::ptr::{BankMask, XbPtr};
use xbc_frontend::FillSink;
use xbc_isa::{decode_into, decode_slot, Uop};
use xbc_workload::DynInst;

/// A finalized extended block, straight from the committed path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuiltXb {
    insts: Vec<DynInst>,
    uop_count: usize,
}

impl BuiltXb {
    /// The committed instructions, in order.
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// The last (ending) instruction.
    pub fn end(&self) -> &DynInst {
        self.insts.last().expect("built XBs are non-empty")
    }

    /// XB identity: the ending instruction's IP.
    pub fn end_ip(&self) -> xbc_isa::Addr {
        self.end().inst.ip
    }

    /// The entry instruction's IP.
    pub fn entry_ip(&self) -> xbc_isa::Addr {
        self.insts[0].inst.ip
    }

    /// Total uops.
    pub fn uop_count(&self) -> usize {
        self.uop_count
    }

    /// Decodes the block into its uop sequence, in program order.
    pub fn uops(&self) -> Vec<Uop> {
        let mut out = Vec::with_capacity(self.uop_count);
        self.uops_into(&mut out);
        out
    }

    /// Appends the decoded uop sequence to `out` — the buffer-reusing form
    /// of [`BuiltXb::uops`].
    pub fn uops_into(&self, out: &mut Vec<Uop>) {
        for d in &self.insts {
            decode_into(&d.inst, out);
        }
    }

    /// The decoded uop sequence backwards, last uop first, decoded one
    /// uop at a time as it is read.
    pub(crate) fn uops_rev(&self) -> impl Iterator<Item = Uop> + '_ {
        self.insts
            .iter()
            .rev()
            .flat_map(|d| (0..d.inst.uops).rev().map(|s| decode_slot(&d.inst, s)))
    }

    /// The instruction buffer, emptied for reuse.
    fn into_empty_insts(self) -> Vec<DynInst> {
        let mut insts = self.insts;
        insts.clear();
        insts
    }
}

/// Reusable buffer for [`install_with`], owned by the caller so repeated
/// installs do not re-allocate (DESIGN.md §12).
#[derive(Clone, Debug, Default)]
pub struct InstallScratch {
    uops: Vec<Uop>,
}

/// How [`install`] stored a built XB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstallKind {
    /// Case 1: already present (suffix of a stored XB) — an XBC hit.
    Contained,
    /// Case 2: extended a stored XB at its head.
    Extended,
    /// Case 3: complex XB — new prefix sharing a stored suffix.
    Complex,
    /// No tag match: written as a fresh XB.
    Fresh,
}

/// Installs a built XB into the array without duplicating stored uops.
/// Returns a pointer to the block's entry point plus how it was stored.
///
/// `avoid` biases fresh-line placement away from the previous XB's banks
/// (smart placement, §3.10).
pub fn install(built: &BuiltXb, array: &mut XbcArray, avoid: BankMask) -> (XbPtr, InstallKind) {
    install_with(built, array, avoid, &mut InstallScratch::default())
}

/// [`install`] with a caller-owned scratch buffer for the decoded block.
///
/// The block is first compared with the stored XB of its tag in place,
/// last uop first, decoding one uop at a time; a block the array already
/// holds (the common case, an XBC hit) is never decoded whole nor copied.
pub fn install_with(
    built: &BuiltXb,
    array: &mut XbcArray,
    avoid: BankMask,
    scratch: &mut InstallScratch,
) -> (XbPtr, InstallKind) {
    let len = built.uop_count();
    debug_assert!(len >= 1);
    let end_ip = built.end_ip();
    let (set, tag) = array.set_and_tag(end_ip);
    let line_uops = array.line_uops();
    let ptr = |mask| XbPtr::new(end_ip, built.entry_ip(), mask, len as u8);

    let asm = array.assemble(set, tag, None);
    // Length of the common suffix between the stored XB and the new one.
    let common = asm.map_or(0, |asm| array.common_suffix(set, &asm, built.uops_rev()));
    let mask_of = |lines: &[(u8, u8)]| {
        let mut mask = BankMask::EMPTY;
        for &(bank, _) in lines {
            mask.insert(bank as usize);
        }
        mask
    };
    let Some(asm) = asm else {
        scratch.uops.clear();
        built.uops_into(&mut scratch.uops);
        let mask = array.insert(end_ip, &scratch.uops, 0, BankMask::EMPTY, avoid);
        return (ptr(mask), InstallKind::Fresh);
    };
    if common >= len {
        // Contained: the new XB is a suffix of the stored one.
        return (ptr(mask_of(&asm.lines[..len.div_ceil(line_uops)])), InstallKind::Contained);
    }
    scratch.uops.clear();
    built.uops_into(&mut scratch.uops);
    let uops = &scratch.uops[..];
    if common == asm.total_uops {
        // Extension: stored XB is a suffix of the new one.
        let extra = &uops[..len - asm.total_uops];
        let mask = array.extend(end_ip, &asm, extra, avoid);
        (ptr(mask), InstallKind::Extended)
    } else {
        // Complex: same suffix, different prefix. Share whole suffix lines;
        // rewrite from the first divergent line up (a partially-shared line
        // is duplicated — the "nearly redundancy free" caveat).
        let shared_lines = common / line_uops;
        let suffix_mask = mask_of(&asm.lines[..shared_lines]);
        let added = array.insert(end_ip, uops, shared_lines, suffix_mask, avoid);
        (ptr(suffix_mask.union(added)), InstallKind::Complex)
    }
}

/// The fill unit: groups committed instructions into extended blocks.
///
/// Instruction buffers are recycled: a finalized block keeps the open
/// block's buffer and the next open block draws a spare from a pool that
/// [`Xfu::recycle`] and [`Xfu::clear`] refill, so steady-state building
/// allocates nothing (DESIGN.md §12).
#[derive(Clone, Debug)]
pub struct Xfu {
    max_uops: usize,
    cur: Vec<DynInst>,
    cur_uops: usize,
    /// Finalized blocks awaiting installation.
    pub done: Vec<BuiltXb>,
    /// The empty `done` list handed back by the last [`Xfu::recycle`].
    spare_done: Vec<BuiltXb>,
    /// Empty instruction buffers of recycled blocks.
    pool: Vec<Vec<DynInst>>,
}

impl Xfu {
    /// Creates a fill unit with the given XB quota (paper: 16 uops).
    ///
    /// # Panics
    ///
    /// Panics if `max_uops` is smaller than one instruction's worst-case
    /// expansion.
    pub fn new(max_uops: usize) -> Self {
        assert!(
            max_uops >= xbc_isa::Inst::MAX_UOPS as usize,
            "quota must fit at least one instruction"
        );
        Xfu {
            max_uops,
            cur: Vec::new(),
            cur_uops: 0,
            done: Vec::new(),
            spare_done: Vec::new(),
            pool: Vec::new(),
        }
    }

    fn finalize(&mut self) {
        if !self.cur.is_empty() {
            let insts = std::mem::replace(&mut self.cur, self.pool.pop().unwrap_or_default());
            self.done.push(BuiltXb { insts, uop_count: self.cur_uops });
            self.cur_uops = 0;
        }
    }

    /// Takes the finalized blocks for installation. Hand the list back
    /// with [`Xfu::recycle`] once installed.
    pub fn take_done(&mut self) -> Vec<BuiltXb> {
        std::mem::replace(&mut self.done, std::mem::take(&mut self.spare_done))
    }

    /// Returns installed blocks (and their list) from [`Xfu::take_done`]
    /// so later blocks reuse the buffers.
    pub fn recycle(&mut self, mut built: Vec<BuiltXb>) {
        self.pool.extend(built.drain(..).map(BuiltXb::into_empty_insts));
        self.spare_done = built;
    }

    /// Discards all buffered state (on mode switches / resteers into
    /// discontinuous fetch points).
    pub fn clear(&mut self) {
        self.cur.clear();
        self.cur_uops = 0;
        self.pool.extend(self.done.drain(..).map(BuiltXb::into_empty_insts));
    }

    /// Structural audit of the build state (paper §3.3):
    ///
    /// * the running uop total matches a recount of the open block and
    ///   stays within the XB quota;
    /// * no instruction *inside* an open or finalized block ends an XB —
    ///   boundaries finalize immediately, so only a block's last
    ///   instruction may carry a boundary-ending branch;
    /// * finalized blocks are non-empty, within quota, and their recorded
    ///   uop counts match a recount.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn audit(&self) -> Result<(), String> {
        let recount: usize = self.cur.iter().map(|d| d.inst.uops as usize).sum();
        if recount != self.cur_uops {
            return Err(format!("XFU open block counts {} uops, recount {recount}", self.cur_uops));
        }
        if self.cur_uops > self.max_uops {
            return Err(format!(
                "XFU open block of {} uops exceeds quota {}",
                self.cur_uops, self.max_uops
            ));
        }
        for d in &self.cur {
            if d.inst.branch.ends_xb_boundary() {
                return Err(format!("XFU open block holds boundary-ending inst at {}", d.inst.ip));
            }
        }
        for b in &self.done {
            if b.insts.is_empty() {
                return Err("XFU finalized an empty block".to_string());
            }
            let n: usize = b.insts.iter().map(|d| d.inst.uops as usize).sum();
            if n != b.uop_count {
                return Err(format!(
                    "built XB at {} counts {} uops, recount {n}",
                    b.end_ip(),
                    b.uop_count
                ));
            }
            if b.uop_count > self.max_uops {
                return Err(format!("built XB at {} exceeds quota {}", b.end_ip(), self.max_uops));
            }
            for d in &b.insts[..b.insts.len() - 1] {
                if d.inst.branch.ends_xb_boundary() {
                    return Err(format!(
                        "built XB at {} holds interior boundary-ending inst at {}",
                        b.end_ip(),
                        d.inst.ip
                    ));
                }
            }
        }
        Ok(())
    }
}

impl FillSink for Xfu {
    fn observe(&mut self, d: &DynInst) {
        if self.cur_uops + d.inst.uops as usize > self.max_uops {
            self.finalize(); // quota split (never splits an instruction)
        }
        self.cur.push(*d);
        self.cur_uops += d.inst.uops as usize;
        if d.inst.branch.ends_xb_boundary() {
            self.finalize();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XbcConfig;
    use xbc_isa::{Addr, BranchKind, Inst};

    fn dyn_inst(ip: u64, uops: u8, branch: BranchKind) -> DynInst {
        let inst = match branch {
            BranchKind::None => Inst::plain(Addr::new(ip), 1, uops),
            BranchKind::CondDirect | BranchKind::UncondDirect | BranchKind::CallDirect => {
                Inst::new(Addr::new(ip), 1, uops, branch, Some(Addr::new(0x9000)))
            }
            _ => Inst::new(Addr::new(ip), 1, uops, branch, None),
        };
        DynInst { inst, taken: false, next_ip: Addr::new(ip + 1) }
    }

    fn built(insts: Vec<DynInst>) -> BuiltXb {
        let uop_count = insts.iter().map(|d| d.inst.uops as usize).sum();
        BuiltXb { insts, uop_count }
    }

    fn array() -> XbcArray {
        XbcArray::new(&XbcConfig { total_uops: 256, ..XbcConfig::default() })
    }

    #[test]
    fn xfu_ends_on_xb_boundaries() {
        let mut x = Xfu::new(16);
        x.observe(&dyn_inst(0x10, 2, BranchKind::None));
        x.observe(&dyn_inst(0x11, 1, BranchKind::UncondDirect)); // transparent
        x.observe(&dyn_inst(0x12, 1, BranchKind::CondDirect));
        assert_eq!(x.done.len(), 1);
        assert_eq!(x.done[0].uop_count(), 4);
        assert_eq!(x.done[0].end_ip(), Addr::new(0x12));
        // Calls and returns also end XBs (the §3.5 convention).
        x.observe(&dyn_inst(0x13, 1, BranchKind::CallDirect));
        assert_eq!(x.done.len(), 2);
        x.observe(&dyn_inst(0x14, 1, BranchKind::Return));
        assert_eq!(x.done.len(), 3);
    }

    #[test]
    fn xfu_quota_split_preserves_instructions() {
        let mut x = Xfu::new(16);
        for i in 0..5 {
            x.observe(&dyn_inst(0x20 + i, 4, BranchKind::None));
        }
        assert_eq!(x.done.len(), 1);
        assert_eq!(x.done[0].uop_count(), 16);
        assert_eq!(x.cur_uops, 4, "fifth instruction starts the next XB whole");
    }

    #[test]
    fn install_fresh_then_contained() {
        let mut a = array();
        let xb = built(vec![
            dyn_inst(0x100, 4, BranchKind::None),
            dyn_inst(0x101, 4, BranchKind::None),
            dyn_inst(0x102, 1, BranchKind::CondDirect),
        ]);
        let (p1, k1) = install(&xb, &mut a, BankMask::EMPTY);
        assert_eq!(k1, InstallKind::Fresh);
        assert_eq!(p1.offset, 9);
        // A shorter suffix of the same block (entered at 0x101) is contained.
        let suffix = built(vec![
            dyn_inst(0x101, 4, BranchKind::None),
            dyn_inst(0x102, 1, BranchKind::CondDirect),
        ]);
        let (p2, k2) = install(&suffix, &mut a, BankMask::EMPTY);
        assert_eq!(k2, InstallKind::Contained);
        assert_eq!(p2.offset, 5);
        assert_eq!(p2.xb_ip, p1.xb_ip);
        // Nothing extra was stored.
        let (total, distinct) = a.redundancy();
        assert_eq!(total, distinct);
        assert_eq!(total, 9);
    }

    #[test]
    fn install_extension_grows_in_place() {
        let mut a = array();
        let short = built(vec![
            dyn_inst(0x201, 3, BranchKind::None),
            dyn_inst(0x202, 1, BranchKind::CondDirect),
        ]);
        let (p1, k1) = install(&short, &mut a, BankMask::EMPTY);
        assert_eq!(k1, InstallKind::Fresh);
        // Later the same block is entered earlier: prefix discovered.
        let long = built(vec![
            dyn_inst(0x200, 4, BranchKind::None),
            dyn_inst(0x201, 3, BranchKind::None),
            dyn_inst(0x202, 1, BranchKind::CondDirect),
        ]);
        let (p2, k2) = install(&long, &mut a, BankMask::EMPTY);
        assert_eq!(k2, InstallKind::Extended);
        assert_eq!(p2.offset, 8);
        assert_eq!(p2.xb_ip, p1.xb_ip);
        let (total, distinct) = a.redundancy();
        assert_eq!(total, distinct, "extension must not duplicate the suffix");
        assert_eq!(total, 8);
    }

    #[test]
    fn install_complex_shares_suffix() {
        let mut a = array();
        // Path A: 0x300(4) 0x301(4) 0x302(4) end 0x303(1) = 13 uops.
        let path_a = built(vec![
            dyn_inst(0x300, 4, BranchKind::None),
            dyn_inst(0x301, 4, BranchKind::None),
            dyn_inst(0x302, 4, BranchKind::None),
            dyn_inst(0x303, 1, BranchKind::CondDirect),
        ]);
        let (_, k1) = install(&path_a, &mut a, BankMask::EMPTY);
        assert_eq!(k1, InstallKind::Fresh);
        // Path B arrives via a different prefix (0x400) but shares
        // 0x301..=0x303 (9 uops => 2 whole shared lines).
        let path_b = built(vec![
            dyn_inst(0x400, 4, BranchKind::None),
            dyn_inst(0x301, 4, BranchKind::None),
            dyn_inst(0x302, 4, BranchKind::None),
            dyn_inst(0x303, 1, BranchKind::CondDirect),
        ]);
        let (p2, k2) = install(&path_b, &mut a, BankMask::EMPTY);
        assert_eq!(k2, InstallKind::Complex);
        assert_eq!(p2.offset, 13);
        // Shared: floor(9/4) = 2 lines (8 uops); duplicated: 1 uop of the
        // partially-shared line + the 4-uop prefix.
        let (total, distinct) = a.redundancy();
        assert_eq!(distinct, 13 + 4);
        assert_eq!(total - distinct, 1, "only the split-line uop duplicates");
        // Both paths remain fetchable through their masks.
        assert!(a.lookup(&p2).is_some());
    }

    #[test]
    fn install_identical_is_contained() {
        let mut a = array();
        let xb = built(vec![
            dyn_inst(0x500, 2, BranchKind::None),
            dyn_inst(0x501, 1, BranchKind::Return),
        ]);
        let (_, k1) = install(&xb, &mut a, BankMask::EMPTY);
        let (_, k2) = install(&xb, &mut a, BankMask::EMPTY);
        assert_eq!(k1, InstallKind::Fresh);
        assert_eq!(k2, InstallKind::Contained);
    }

    #[test]
    fn clear_discards_partial() {
        let mut x = Xfu::new(16);
        x.observe(&dyn_inst(0x10, 2, BranchKind::None));
        x.clear();
        x.observe(&dyn_inst(0x30, 1, BranchKind::CondDirect));
        assert_eq!(x.done.len(), 1);
        assert_eq!(x.done[0].entry_ip(), Addr::new(0x30));
    }
}
