//! Static program images with behavioral annotations.
//!
//! A [`Program`] is what the frontend simulators fetch from: a flat,
//! address-sorted image of [`Inst`]s, plus the *behavioral* model the
//! architectural executor uses to resolve control flow (per-branch
//! direction behaviour, indirect target sets), stored with each
//! instruction's slot. Programs are produced by the generator
//! ([`crate::ProgramGenerator`]) or hand-built through [`ProgramBuilder`]
//! in tests and examples.

use crate::rng::Rng64;
use std::fmt;
use xbc_isa::{Addr, BranchKind, Inst};

/// Run-time direction behaviour of one static conditional branch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CondBehavior {
    /// Independently taken with probability `p_taken` each execution.
    Bernoulli {
        /// Probability the branch is taken.
        p_taken: f64,
    },
    /// A loop back-edge: taken `trip - 1` consecutive times, then not
    /// taken once, then the pattern repeats (trip counts are deterministic).
    Loop {
        /// Iterations per loop entry (≥ 1).
        trip: u32,
    },
}

/// Weighted target set of one indirect jump/call.
#[derive(Clone, Debug, PartialEq)]
pub struct IndirectTargets {
    targets: Vec<Addr>,
    /// Cumulative weights, last == 1.0.
    cumulative: Vec<f64>,
}

impl IndirectTargets {
    /// Creates a target set from `(target, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty or if any weight is non-positive.
    pub fn new(weighted: &[(Addr, f64)]) -> Self {
        assert!(!weighted.is_empty(), "indirect branch needs at least one target");
        assert!(weighted.iter().all(|(_, w)| *w > 0.0), "weights must be positive");
        let total: f64 = weighted.iter().map(|(_, w)| w).sum();
        let mut acc = 0.0;
        let mut targets = Vec::with_capacity(weighted.len());
        let mut cumulative = Vec::with_capacity(weighted.len());
        for (t, w) in weighted {
            acc += w / total;
            targets.push(*t);
            cumulative.push(acc);
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        IndirectTargets { targets, cumulative }
    }

    /// All possible targets.
    pub fn targets(&self) -> &[Addr] {
        &self.targets
    }

    /// Samples a target according to the weights.
    pub fn choose(&self, rng: &mut Rng64) -> Addr {
        let x: f64 = rng.gen();
        let idx = self.cumulative.partition_point(|&c| c < x);
        self.targets[idx.min(self.targets.len() - 1)]
    }
}

/// Aggregate shape of a program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Number of functions.
    pub functions: usize,
    /// Static instruction count.
    pub static_insts: usize,
    /// Static uop count (sum of per-instruction expansions).
    pub static_uops: usize,
    /// Static conditional branch count.
    pub cond_branches: usize,
}

/// Sentinel slot number: "no instruction at this address".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// One instruction of the flat image, with its behaviour annotation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    /// The static instruction.
    pub(crate) inst: Inst,
    /// Index of the instruction's behaviour in [`Program`]'s `cond` table
    /// (conditional branches) or `indirect` table (indirect jumps and
    /// calls); unused for every other kind.
    pub(crate) behavior: u32,
    /// Slot of the static taken target of a direct branch, [`NO_SLOT`] if
    /// the target is off the image or the instruction has none.
    pub(crate) target: u32,
}

/// Address → slot index: an open-addressing table of slot numbers with
/// linear probing and a multiplicative (Fibonacci) hash of the address.
/// Keys are not stored; a probe compares against the slot's own `ip`, so
/// the table costs 4 bytes per bucket and stays at most 2/3 full.
#[derive(Clone, Debug, Default)]
struct SlotIndex {
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl SlotIndex {
    /// Indexes every slot of `slots` in at least `min_buckets` buckets.
    ///
    /// # Panics
    ///
    /// Panics if two slots share an address.
    fn build(slots: &[Slot], min_buckets: usize) -> SlotIndex {
        let n = (slots.len() * 3 / 2 + 1).max(min_buckets).next_power_of_two().max(8);
        let mut index = SlotIndex { buckets: vec![NO_SLOT; n], shift: 64 - n.trailing_zeros() };
        for (s, slot) in slots.iter().enumerate() {
            let ip = slot.inst.ip;
            assert!(index.insert(ip, s as u32, slots), "duplicate instruction at {ip}");
        }
        index
    }

    #[inline]
    fn home(&self, ip: Addr) -> usize {
        (ip.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `ip`, or [`NO_SLOT`].
    #[inline]
    fn find(&self, ip: Addr, slots: &[Slot]) -> u32 {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(ip);
        loop {
            let s = self.buckets[b];
            if s == NO_SLOT || slots[s as usize].inst.ip == ip {
                return s;
            }
            b = (b + 1) & mask;
        }
    }

    /// Records that slot `s` (already in `slots`) holds `ip`; returns
    /// `false`, leaving the index unchanged, if another slot already does.
    fn insert(&mut self, ip: Addr, s: u32, slots: &[Slot]) -> bool {
        let mask = self.buckets.len() - 1;
        let mut b = self.home(ip);
        loop {
            match self.buckets[b] {
                NO_SLOT => {
                    self.buckets[b] = s;
                    return true;
                }
                other if slots[other as usize].inst.ip == ip => return false,
                _ => b = (b + 1) & mask,
            }
        }
    }

    /// Whether one more entry would push the load past 2/3.
    fn is_full(&self, len: usize) -> bool {
        (len + 1) * 3 > self.buckets.len() * 2
    }
}

/// An immutable program image plus behaviour annotations.
///
/// The image is flat: the instructions sit in one address-sorted vector
/// of slots, each carrying the index of its conditional or indirect
/// behaviour and the slot of its direct target, and an O(1) hash index
/// maps an address to its slot. The [`crate::Executor`] walks slot
/// numbers, so sequential fall-through is `slot + 1`, a direct branch
/// jumps to its precomputed target slot, and only indirect transfers
/// consult the index.
///
/// # Examples
///
/// ```
/// use xbc_workload::{ProgramBuilder, CondBehavior};
/// use xbc_isa::{Addr, BranchKind, Inst};
///
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::plain(Addr::new(0x1000), 2, 1));
/// b.push_cond(
///     Inst::new(Addr::new(0x1002), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x1000))),
///     CondBehavior::Bernoulli { p_taken: 0.5 },
/// );
/// let p = b.build(Addr::new(0x1000), 1);
/// assert_eq!(p.stats().static_insts, 2);
/// assert!(p.inst_at(Addr::new(0x1002)).unwrap().branch.is_branch());
/// ```
#[derive(Clone)]
pub struct Program {
    entry: Addr,
    /// Instructions in ascending address order.
    slots: Vec<Slot>,
    index: SlotIndex,
    cond: Vec<CondBehavior>,
    indirect: Vec<IndirectTargets>,
    function_entries: Vec<Addr>,
    interrupt_handlers: Vec<Addr>,
    stats: ProgramStats,
}

impl Program {
    /// Program entry point.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// The instruction at `ip`, if any.
    #[inline]
    pub fn inst_at(&self, ip: Addr) -> Option<&Inst> {
        self.slots.get(self.slot_of(ip) as usize).map(|s| &s.inst)
    }

    /// Direction behaviour of the conditional branch at `ip`.
    pub fn cond_behavior(&self, ip: Addr) -> Option<CondBehavior> {
        let slot = self.slots.get(self.slot_of(ip) as usize)?;
        (slot.inst.branch == BranchKind::CondDirect).then(|| self.cond[slot.behavior as usize])
    }

    /// Target set of the indirect jump/call at `ip`.
    pub fn indirect_targets(&self, ip: Addr) -> Option<&IndirectTargets> {
        let slot = self.slots.get(self.slot_of(ip) as usize)?;
        has_targets(slot.inst.branch).then(|| &self.indirect[slot.behavior as usize])
    }

    /// Entry addresses of all functions (index 0 is `main`).
    pub fn function_entries(&self) -> &[Addr] {
        &self.function_entries
    }

    /// Entry addresses of the kernel interrupt handlers (empty when the
    /// workload models no asynchronous activity).
    pub fn interrupt_handlers(&self) -> &[Addr] {
        &self.interrupt_handlers
    }

    /// Aggregate shape statistics.
    pub fn stats(&self) -> ProgramStats {
        self.stats
    }

    /// The slot holding `ip`, or [`NO_SLOT`].
    #[inline]
    pub(crate) fn slot_of(&self, ip: Addr) -> u32 {
        self.index.find(ip, &self.slots)
    }

    /// The slot holding `ip` when control leaves slot `from` for `ip`:
    /// a sequential step lands on `from + 1` without consulting the index.
    #[inline]
    pub(crate) fn slot_after(&self, from: u32, ip: Addr) -> u32 {
        let next = from + 1;
        match self.slots.get(next as usize) {
            Some(s) if s.inst.ip == ip => next,
            _ => self.slot_of(ip),
        }
    }

    /// The whole image, in address order.
    #[inline]
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Behaviour of the conditional branch with behaviour index `i`.
    #[inline]
    pub(crate) fn cond(&self, i: u32) -> CondBehavior {
        self.cond[i as usize]
    }

    /// Target set of the indirect branch with behaviour index `i`.
    #[inline]
    pub(crate) fn indirect(&self, i: u32) -> &IndirectTargets {
        &self.indirect[i as usize]
    }

    /// Number of indirect branches (the range of their behaviour indices).
    pub(crate) fn indirect_count(&self) -> usize {
        self.indirect.len()
    }
}

/// Whether instructions of this kind carry an [`IndirectTargets`] set.
fn has_targets(kind: BranchKind) -> bool {
    matches!(kind, BranchKind::IndirectJump | BranchKind::IndirectCall)
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("entry", &self.entry)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Incremental [`Program`] constructor.
///
/// Instructions may be pushed in any order; [`ProgramBuilder::build`]
/// sorts them into the flat image. Ascending pushes (the generator's)
/// skip all hashing until `build`.
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    slots: Vec<Slot>,
    /// Duplicate detector over `slots`, built on the first push that does
    /// not ascend (strictly ascending pushes cannot repeat an address).
    index: Option<SlotIndex>,
    cond: Vec<CondBehavior>,
    indirect: Vec<IndirectTargets>,
    function_entries: Vec<Addr>,
    interrupt_handlers: Vec<Addr>,
    static_uops: usize,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `insts` instructions.
    pub(crate) fn with_capacity(insts: usize) -> Self {
        ProgramBuilder { slots: Vec::with_capacity(insts), ..Self::default() }
    }

    /// Adds a non-conditional, non-indirect instruction.
    ///
    /// # Panics
    ///
    /// Panics on duplicate addresses or if the instruction needs behaviour
    /// annotations (conditional/indirect) — use the dedicated methods.
    pub fn push(&mut self, inst: Inst) {
        assert!(
            inst.branch != BranchKind::CondDirect && !inst.branch.is_indirect()
                || inst.branch == BranchKind::Return,
            "conditional/indirect instructions need behaviour annotations"
        );
        self.insert(Slot { inst, behavior: 0, target: NO_SLOT });
    }

    /// Adds a conditional branch with its direction behaviour.
    ///
    /// # Panics
    ///
    /// Panics on duplicates or if `inst` is not a conditional branch.
    pub fn push_cond(&mut self, inst: Inst, behavior: CondBehavior) {
        assert_eq!(inst.branch, BranchKind::CondDirect, "push_cond expects a conditional branch");
        if let CondBehavior::Bernoulli { p_taken } = behavior {
            assert!((0.0..=1.0).contains(&p_taken), "p_taken must be a probability");
        }
        if let CondBehavior::Loop { trip } = behavior {
            assert!(trip >= 1, "loop trips at least once");
        }
        self.insert(Slot { inst, behavior: self.cond.len() as u32, target: NO_SLOT });
        self.cond.push(behavior);
    }

    /// Adds an indirect jump/call with its weighted target set.
    ///
    /// # Panics
    ///
    /// Panics on duplicates or if `inst` is not an indirect jump/call.
    pub fn push_indirect(&mut self, inst: Inst, targets: IndirectTargets) {
        assert!(has_targets(inst.branch), "push_indirect expects an indirect jump or call");
        self.insert(Slot { inst, behavior: self.indirect.len() as u32, target: NO_SLOT });
        self.indirect.push(targets);
    }

    /// Registers a function entry point (call targets).
    pub fn add_function_entry(&mut self, entry: Addr) {
        self.function_entries.push(entry);
    }

    /// Marks function entries as asynchronous interrupt handlers.
    pub fn set_interrupt_handlers(&mut self, handlers: Vec<Addr>) {
        self.interrupt_handlers = handlers;
    }

    fn insert(&mut self, slot: Slot) {
        let ip = slot.inst.ip;
        let ascending = self.slots.last().is_none_or(|last| last.inst.ip < ip);
        if self.index.is_none() && !ascending {
            self.index = Some(SlotIndex::build(&self.slots, 0));
        }
        if let Some(index) = &mut self.index {
            if index.is_full(self.slots.len()) {
                *index = SlotIndex::build(&self.slots, index.buckets.len() * 2);
            }
            let s = self.slots.len() as u32;
            assert!(index.insert(ip, s, &self.slots), "duplicate instruction at {ip}");
        }
        self.static_uops += slot.inst.uops as usize;
        self.slots.push(slot);
    }

    /// Finalizes the program.
    ///
    /// # Panics
    ///
    /// Panics if `entry` does not point at an instruction.
    pub fn build(mut self, entry: Addr, functions: usize) -> Program {
        if self.index.is_some() {
            // Behaviour indices travel with their slots, so the sort keeps
            // every annotation attached to its instruction.
            self.slots.sort_unstable_by_key(|s| s.inst.ip);
        }
        let index = SlotIndex::build(&self.slots, 0);
        assert!(index.find(entry, &self.slots) != NO_SLOT, "entry {entry} has no instruction");
        for s in 0..self.slots.len() {
            if let Some(target) = self.slots[s].inst.target {
                self.slots[s].target = index.find(target, &self.slots);
            }
        }
        let stats = ProgramStats {
            functions,
            static_insts: self.slots.len(),
            static_uops: self.static_uops,
            cond_branches: self.cond.len(),
        };
        Program {
            entry,
            slots: self.slots,
            index,
            cond: self.cond,
            indirect: self.indirect,
            function_entries: self.function_entries,
            interrupt_handlers: self.interrupt_handlers,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.add_function_entry(Addr::new(0x10));
        b.push(Inst::plain(Addr::new(0x10), 4, 2));
        b.push(Inst::new(Addr::new(0x14), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        assert_eq!(p.entry(), Addr::new(0x10));
        assert_eq!(p.stats().static_uops, 3);
        assert_eq!(p.function_entries(), &[Addr::new(0x10)]);
        assert!(p.inst_at(Addr::new(0x99)).is_none());
    }

    #[test]
    fn cond_behavior_recorded() {
        let mut b = ProgramBuilder::new();
        b.push_cond(
            Inst::new(Addr::new(0x20), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x10))),
            CondBehavior::Loop { trip: 3 },
        );
        let p = b.build(Addr::new(0x20), 1);
        assert_eq!(p.cond_behavior(Addr::new(0x20)), Some(CondBehavior::Loop { trip: 3 }));
        assert_eq!(p.cond_behavior(Addr::new(0x24)), None);
        assert_eq!(p.stats().cond_branches, 1);
    }

    #[test]
    fn indirect_targets_weighted_choice() {
        let t = IndirectTargets::new(&[(Addr::new(1), 1.0), (Addr::new(2), 99.0)]);
        let mut rng = Rng64::seed_from_u64(7);
        let picks = (0..1000).filter(|_| t.choose(&mut rng) == Addr::new(2)).count();
        assert!(picks > 950, "dominant target should win ~99%: {picks}");
        assert_eq!(t.targets().len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate instruction")]
    fn duplicate_address_rejected() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::plain(Addr::new(0x10), 1, 1));
        b.push(Inst::plain(Addr::new(0x10), 2, 1));
    }

    #[test]
    #[should_panic(expected = "behaviour annotations")]
    fn cond_requires_annotation() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::new(Addr::new(0x10), 2, 1, BranchKind::CondDirect, Some(Addr::new(0))));
    }

    #[test]
    #[should_panic(expected = "entry")]
    fn build_checks_entry() {
        ProgramBuilder::new().build(Addr::new(0x10), 0);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_indirect_targets_rejected() {
        let _ = IndirectTargets::new(&[]);
    }
}
