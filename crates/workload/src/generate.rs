//! Synthetic program generation.
//!
//! Builds a random — but statistically controlled — program from a
//! [`WorkloadProfile`]: functions of basic blocks laid out sequentially,
//! with conditional branches (Bernoulli or loop behaviour), unconditional
//! jumps, calls along a hot-skewed call graph, returns, and indirect
//! jumps/calls with weighted target sets. Deterministic for a fixed seed.
//!
//! The knobs map one-to-one onto the workload properties the paper's
//! results depend on; see DESIGN.md §3.

use crate::profile::WorkloadProfile;
use crate::program::{CondBehavior, IndirectTargets, Program, ProgramBuilder};
use crate::rng::Rng64;
use std::ops::Range;
use xbc_isa::{Addr, BranchKind, Inst};

/// Byte distance between consecutive function images. Functions are far
/// smaller than this, so images never overlap.
const FUNCTION_STRIDE: u64 = 1 << 16;
/// Base address of the program image.
const IMAGE_BASE: u64 = 0x1000_0000;
/// Indirect-call sites in the dispatcher (fewer when there are fewer
/// functions to dispatch to).
const DISPATCH_SITES: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TermKind {
    Cond,
    Jmp,
    Call,
    Ret,
    IndirectJmp,
    IndirectCall,
}

/// One planned (not yet addressed) basic block.
#[derive(Clone, Debug)]
struct PlannedBlock {
    /// Range of the function's `shapes` holding this block's body
    /// instructions (terminator excluded).
    body: Range<usize>,
    term: TermKind,
    term_shape: (u8, u8),
    /// Address of the first instruction; filled by the layout pass.
    start: Addr,
    /// Address of the terminator; filled by the layout pass.
    term_ip: Addr,
}

#[derive(Clone, Debug)]
struct PlannedFunction {
    entry: Addr,
    blocks: Vec<PlannedBlock>,
    /// `(len_bytes, uops)` of every body instruction, block after block.
    shapes: Vec<(u8, u8)>,
    joins: Vec<usize>,
}

impl PlannedFunction {
    /// Instructions in the function image (bodies plus terminators).
    fn inst_count(&self) -> usize {
        self.shapes.len() + self.blocks.len()
    }
}

/// Deterministic random program generator.
///
/// # Examples
///
/// ```
/// use xbc_workload::{ProgramGenerator, WorkloadProfile};
///
/// let program = ProgramGenerator::new(WorkloadProfile::default(), 42).generate();
/// assert!(program.stats().static_uops > 1000);
/// // Same seed, same program.
/// let again = ProgramGenerator::new(WorkloadProfile::default(), 42).generate();
/// assert_eq!(program.stats(), again.stats());
/// ```
#[derive(Debug)]
pub struct ProgramGenerator {
    profile: WorkloadProfile,
    rng: Rng64,
}

impl ProgramGenerator {
    /// Creates a generator for the given profile and seed.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`WorkloadProfile::validate`].
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        profile.validate();
        ProgramGenerator { profile, rng: Rng64::seed_from_u64(seed) }
    }

    /// Generates the program (consumes the generator; the RNG state is
    /// single-use by design so a seed always maps to exactly one program).
    ///
    /// Function 0 is a *dispatcher*: an event loop of indirect calls fanning
    /// out across the rest of the program, modeling the driver loop of an
    /// interactive application (and, incidentally, exercising the XiBTB).
    /// Remaining functions form a DAG call graph with hot shared leaves.
    pub fn generate(mut self) -> Program {
        let nfun = self.profile.functions;
        let mut functions = Vec::with_capacity(nfun.saturating_sub(1));
        for f in 1..nfun {
            functions.push(self.plan_function(f));
        }
        self.realize(functions)
    }

    /// Samples `Geometric(p)` (number of failures before first success).
    fn geometric(&mut self, p: f64) -> usize {
        debug_assert!(p > 0.0 && p <= 1.0);
        let mut n = 0;
        while self.rng.gen::<f64>() >= p && n < 4096 {
            n += 1;
        }
        n
    }

    fn sample_term(&mut self, is_last: bool) -> TermKind {
        if is_last {
            return TermKind::Ret;
        }
        let m = &self.profile.terminators;
        let total = m.total();
        let x = self.rng.gen::<f64>() * total;
        let mut acc = m.cond;
        if x < acc {
            return TermKind::Cond;
        }
        acc += m.jmp;
        if x < acc {
            return TermKind::Jmp;
        }
        acc += m.call;
        if x < acc {
            return TermKind::Call;
        }
        acc += m.ret;
        if x < acc {
            return TermKind::Ret;
        }
        acc += m.ijmp;
        if x < acc {
            return TermKind::IndirectJmp;
        }
        TermKind::IndirectCall
    }

    fn sample_inst_shape(&mut self) -> (u8, u8) {
        // Encoded length: weighted toward 2–4 bytes like IA32 integer code.
        const LEN_WEIGHTS: [(u8, f64); 11] = [
            (1, 0.10),
            (2, 0.18),
            (3, 0.22),
            (4, 0.18),
            (5, 0.12),
            (6, 0.08),
            (7, 0.05),
            (8, 0.03),
            (9, 0.02),
            (10, 0.01),
            (11, 0.01),
        ];
        let x = self.rng.gen::<f64>();
        let mut acc = 0.0;
        let mut len = 3;
        for (l, w) in LEN_WEIGHTS {
            acc += w;
            if x < acc {
                len = l;
                break;
            }
        }
        let uw = self.profile.uops_per_inst_weights;
        let total: f64 = uw.iter().sum();
        let y = self.rng.gen::<f64>() * total;
        let mut acc = 0.0;
        let mut uops = 1;
        for (i, w) in uw.iter().enumerate() {
            acc += w;
            if y < acc {
                uops = (i + 1) as u8;
                break;
            }
        }
        (len, uops)
    }

    fn term_shape(&mut self, term: TermKind) -> (u8, u8) {
        match term {
            TermKind::Cond | TermKind::Jmp => (2 + self.rng.gen_range(0u8..4), 1),
            TermKind::Call => (5, 1),
            TermKind::Ret => (1, 1),
            TermKind::IndirectJmp | TermKind::IndirectCall => {
                (2 + self.rng.gen_range(0u8..2), 1 + self.rng.gen_range(0u8..2))
            }
        }
    }

    fn plan_function(&mut self, index: usize) -> PlannedFunction {
        let mean = self.profile.blocks_per_fn_mean;
        // 3 + geometric tail around the configured mean.
        let tail_mean = (mean - 3.0).max(1.0);
        let nb = 3 + self.geometric(1.0 / (tail_mean + 1.0)).min(512);
        let mut blocks = Vec::with_capacity(nb);
        let mut shapes = Vec::new();
        for b in 0..nb {
            let n_insts = 1 + self.geometric(self.profile.insts_per_block_p).min(24);
            // Terminator replaces the last instruction slot so block length
            // statistics include it.
            let body_start = shapes.len();
            shapes.extend((1..n_insts).map(|_| self.sample_inst_shape()));
            let body = body_start..shapes.len();
            let term = self.sample_term(b == nb - 1);
            let term_shape = self.term_shape(term);
            blocks.push(PlannedBlock {
                body,
                term,
                term_shape,
                start: Addr::NULL,
                term_ip: Addr::NULL,
            });
        }
        // Join blocks: a few shared merge points in the middle of the
        // function that many branches target (fan-in ⇒ shared suffixes).
        let njoins = (nb / 8).clamp(1, 4);
        let joins = (0..njoins).map(|_| self.rng.gen_range(1..nb)).collect();
        // Layout pass: assign addresses.
        let base = Addr::new(IMAGE_BASE + index as u64 * FUNCTION_STRIDE);
        let mut f = PlannedFunction { entry: base, blocks, shapes, joins };
        let mut cursor = base;
        for b in &mut f.blocks {
            b.start = cursor;
            for (len, _) in &f.shapes[b.body.clone()] {
                cursor = cursor.offset(*len as u64);
            }
            b.term_ip = cursor;
            cursor = cursor.offset(b.term_shape.0 as u64);
        }
        assert!(
            cursor.raw() - base.raw() < FUNCTION_STRIDE,
            "function image overflowed its address stride"
        );
        f
    }

    fn sample_cond_behavior(&mut self) -> CondBehavior {
        let x = self.rng.gen::<f64>();
        let p = &self.profile;
        if x < p.loop_frac {
            // Cap the geometric tail: an unbounded trip count lets one loop
            // nest monopolize the whole trace.
            let trip = 1 + self.geometric(1.0 / p.loop_trip_mean).min(24) as u32;
            CondBehavior::Loop { trip }
        } else if x < p.loop_frac + p.biased_taken_frac {
            CondBehavior::Bernoulli { p_taken: self.rng.gen_range(0.991..0.9995) }
        } else if x < p.loop_frac + p.biased_taken_frac + p.biased_not_taken_frac {
            CondBehavior::Bernoulli { p_taken: self.rng.gen_range(0.0005..0.009) }
        } else if x < p.loop_frac + p.biased_taken_frac + p.biased_not_taken_frac + 0.03 {
            // Genuinely hard branches: near-coin-flip, iid.
            CondBehavior::Bernoulli { p_taken: self.rng.gen_range(0.30..0.70) }
        } else {
            // One-sided but not monotonic: an iid stand-in for the mostly-
            // predictable correlated branches of real integer code. Tuned so
            // overall gshare accuracy lands near the ~85-95% typical of
            // SPECint-class workloads (iid branches cap what any predictor
            // can achieve at E[max(p, 1-p)]).
            let p_taken = if self.rng.gen::<bool>() {
                self.rng.gen_range(0.90..0.985)
            } else {
                self.rng.gen_range(0.015..0.10)
            };
            CondBehavior::Bernoulli { p_taken }
        }
    }

    /// Picks a callee function index. The call graph is a DAG (callee index
    /// strictly greater than the caller's) so random call cycles cannot trap
    /// execution in unbounded recursion; the *hot* functions live at the top
    /// of the index range, making them shared leaves that every caller
    /// reaches — which concentrates dynamic code footprint realistically.
    fn sample_callee(&mut self, nfun: usize, caller: usize) -> usize {
        if caller + 1 >= nfun {
            // The last function has no forward callee; a self-call is
            // bounded by the executor's stack cap and extremely rare.
            return caller;
        }
        let hot = ((nfun as f64 * self.profile.hot_fraction).ceil() as usize).clamp(1, nfun);
        let hot_lo = (nfun - hot).max(caller + 1);
        if self.rng.gen::<f64>() < self.profile.hot_call_prob {
            // Zipf-ish rank from the very last function backwards; the
            // gentle tail (p = 0.06) spreads heat over dozens of functions
            // rather than a handful.
            let rank = self.geometric(0.06);
            (nfun - 1 - rank.min(nfun - 1 - hot_lo)).max(hot_lo)
        } else {
            self.rng.gen_range(caller + 1..nfun)
        }
    }

    /// Picks a loop-head block index behind `from`. Excluding `from` itself
    /// keeps single-block self-loops — which would otherwise dominate the
    /// dynamic stream with 1-instruction blocks — out of the mix.
    fn pick_backward_index(&mut self, from: usize) -> usize {
        let span = self.profile.loop_span;
        if from == 0 {
            0
        } else {
            self.rng.gen_range(from.saturating_sub(span)..from)
        }
    }

    /// How a branch target relates to its source block.
    fn pick_branch_target(&mut self, f: &PlannedFunction, from: usize, backward: bool) -> Addr {
        let nb = f.blocks.len();
        if backward {
            let idx = self.pick_backward_index(from);
            return f.blocks[idx].start;
        }
        // Forward targets only: any backward unconditional or heavily-biased
        // edge risks a cycle with no probabilistic exit. Join blocks (shared
        // merge points creating fan-in) are used when they lie ahead.
        if self.rng.gen::<f64>() < self.profile.join_bias {
            let ahead = || f.joins.iter().copied().filter(|&j| j > from);
            let n = ahead().count();
            if n > 0 {
                let j = ahead().nth(self.rng.gen_range(0..n)).expect("n joins lie ahead");
                return f.blocks[j].start;
            }
        }
        let hi = (from + 10).min(nb - 1);
        let idx = if from + 1 > hi { from } else { self.rng.gen_range(from + 1..=hi) };
        f.blocks[idx].start
    }

    /// Emits the dispatcher (function 0): a loop of indirect-call sites
    /// fanning out over the program, ended by a deterministic back-edge and
    /// a return (which wraps the trace).
    fn build_dispatcher(
        &mut self,
        builder: &mut ProgramBuilder,
        functions: &[PlannedFunction],
    ) -> Addr {
        let entry = Addr::new(IMAGE_BASE);
        let nfun = functions.len() + 1; // combined numbering includes us
        let mut ip = entry;
        let sites = DISPATCH_SITES.min(functions.len());
        for _ in 0..sites {
            for _ in 0..2 {
                let (len, uops) = self.sample_inst_shape();
                builder.push(Inst::plain(ip, len, uops));
                ip = ip.offset(len as u64);
            }
            // Dispatcher targets are sampled *uniformly* over the whole
            // program (an event loop reaches everything), with zipf-ish
            // weights so each site still has a dominant target.
            let ntargets = 12.min(functions.len());
            let weighted: Vec<(Addr, f64)> = (0..ntargets)
                .map(|k| {
                    let callee = self.rng.gen_range(1..nfun);
                    (functions[callee - 1].entry, 1.0 / (k + 1) as f64)
                })
                .collect();
            builder.push_indirect(
                Inst::new(ip, 2, 1, BranchKind::IndirectCall, None),
                IndirectTargets::new(&weighted),
            );
            ip = ip.offset(2);
        }
        if sites > 0 {
            builder.push_cond(
                Inst::new(ip, 2, 1, BranchKind::CondDirect, Some(entry)),
                CondBehavior::Loop { trip: 32 },
            );
            ip = ip.offset(2);
        } else {
            // Degenerate single-function program: keep the image non-empty.
            builder.push(Inst::plain(ip, 2, 1));
            ip = ip.offset(2);
        }
        builder.push(Inst::new(ip, 1, 1, BranchKind::Return, None));
        entry
    }

    fn realize(&mut self, functions: Vec<PlannedFunction>) -> Program {
        // Combined function numbering: 0 is the dispatcher, planned function
        // `pf` is index `pf + 1`.
        let nfun = functions.len() + 1;
        // The dispatcher is three instructions per call site plus two.
        let insts = 3 * DISPATCH_SITES.min(functions.len())
            + 2
            + functions.iter().map(PlannedFunction::inst_count).sum::<usize>();
        let mut builder = ProgramBuilder::with_capacity(insts);
        let dispatcher_entry = self.build_dispatcher(&mut builder, &functions);
        builder.add_function_entry(dispatcher_entry);
        for f in &functions {
            builder.add_function_entry(f.entry);
        }
        for (pf, f) in functions.iter().enumerate() {
            let fi = pf + 1;
            let nb = f.blocks.len();
            // Back-edges placed so far in this function, as (head, tail)
            // block-index intervals; used to cap loop-nesting depth.
            let mut back_edges: Vec<(usize, usize)> = Vec::new();
            for (bi, b) in f.blocks.iter().enumerate() {
                // Body instructions.
                let mut ip = b.start;
                for (len, uops) in &f.shapes[b.body.clone()] {
                    builder.push(Inst::plain(ip, *len, *uops));
                    ip = ip.offset(*len as u64);
                }
                debug_assert_eq!(ip, b.term_ip);
                let (tlen, tuops) = b.term_shape;
                match b.term {
                    TermKind::Cond => {
                        let behavior = self.sample_cond_behavior();
                        // Deterministic loops go backward. A quarter of the
                        // *moderately* biased branches also loop back (their
                        // exit probability is ≥ 0.1, so they cannot trap
                        // execution); monotonic branches stay forward.
                        let backward = match behavior {
                            CondBehavior::Loop { .. } => true,
                            CondBehavior::Bernoulli { p_taken } => {
                                (0.03..=0.97).contains(&p_taken)
                                    && self.rng.gen::<f64>() < self.profile.moderate_backward_prob
                            }
                        };
                        // Loop nests multiply trip counts; past depth 2 a
                        // single nest would monopolize the dynamic stream,
                        // so deeper candidates are redirected forward.
                        let target = if backward {
                            let head = self.pick_backward_index(bi);
                            let nest = back_edges
                                .iter()
                                .filter(|(lo, hi)| {
                                    (*lo <= head && bi <= *hi) || (head <= *lo && *hi <= bi)
                                })
                                .count();
                            if nest >= 2 {
                                self.pick_branch_target(f, bi, false)
                            } else {
                                back_edges.push((head, bi));
                                f.blocks[head].start
                            }
                        } else {
                            self.pick_branch_target(f, bi, false)
                        };
                        builder.push_cond(
                            Inst::new(ip, tlen, tuops, BranchKind::CondDirect, Some(target)),
                            behavior,
                        );
                    }
                    TermKind::Jmp => {
                        let target = self.pick_branch_target(f, bi, false);
                        builder.push(Inst::new(
                            ip,
                            tlen,
                            tuops,
                            BranchKind::UncondDirect,
                            Some(target),
                        ));
                    }
                    TermKind::Call => {
                        let callee = self.sample_callee(nfun, fi);
                        if callee == fi {
                            // The last function has no forward callee; emit a
                            // forward jump instead of self-recursion, which
                            // would otherwise burst the call stack on every
                            // visit to this hot leaf.
                            let target = self.pick_branch_target(f, bi, false);
                            builder.push(Inst::new(
                                ip,
                                tlen,
                                tuops,
                                BranchKind::UncondDirect,
                                Some(target),
                            ));
                        } else {
                            let target = functions[callee - 1].entry;
                            builder.push(Inst::new(
                                ip,
                                tlen,
                                tuops,
                                BranchKind::CallDirect,
                                Some(target),
                            ));
                        }
                    }
                    TermKind::Ret => {
                        builder.push(Inst::new(ip, tlen, tuops, BranchKind::Return, None));
                    }
                    TermKind::IndirectJmp => {
                        let n =
                            2 + self.rng.gen_range(0..self.profile.indirect_targets_max.max(2) - 1);
                        let weighted: Vec<(Addr, f64)> = (0..n)
                            .map(|k| {
                                let t = self.pick_branch_target(f, bi.min(nb - 1), false);
                                (t, 1.0 / (k + 1) as f64)
                            })
                            .collect();
                        builder.push_indirect(
                            Inst::new(ip, tlen, tuops, BranchKind::IndirectJump, None),
                            IndirectTargets::new(&weighted),
                        );
                    }
                    TermKind::IndirectCall => {
                        let n =
                            2 + self.rng.gen_range(0..self.profile.indirect_targets_max.max(2) - 1);
                        let weighted: Vec<(Addr, f64)> = (0..n)
                            .map(|k| {
                                let callee = self.sample_callee(nfun, fi);
                                let target = if callee == fi {
                                    // Leaf function: point the slot at a
                                    // forward block instead of recursing.
                                    self.pick_branch_target(f, bi, false)
                                } else {
                                    functions[callee - 1].entry
                                };
                                (target, 1.0 / (k + 1) as f64)
                            })
                            .collect();
                        builder.push_indirect(
                            Inst::new(ip, tlen, tuops, BranchKind::IndirectCall, None),
                            IndirectTargets::new(&weighted),
                        );
                    }
                }
            }
        }
        // Kernel handlers: when asynchronous interrupts are modeled, the
        // last few functions double as shared interrupt handlers (they
        // remain ordinary callees too — kernel code is code).
        if self.profile.interrupt_interval.is_some() {
            let n_handlers = 3.min(functions.len());
            let handlers =
                functions[functions.len() - n_handlers..].iter().map(|f| f.entry).collect();
            builder.set_interrupt_handlers(handlers);
        }
        builder.build(dispatcher_entry, nfun)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadProfile;

    fn small_profile() -> WorkloadProfile {
        WorkloadProfile { functions: 8, blocks_per_fn_mean: 10.0, ..WorkloadProfile::default() }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = ProgramGenerator::new(small_profile(), 1).generate();
        let b = ProgramGenerator::new(small_profile(), 1).generate();
        assert_eq!(a.stats(), b.stats());
        // Spot-check a concrete instruction.
        let ip = a.entry();
        assert_eq!(a.inst_at(ip), b.inst_at(ip));
    }

    #[test]
    fn different_seeds_differ() {
        let a = ProgramGenerator::new(small_profile(), 1).generate();
        let b = ProgramGenerator::new(small_profile(), 2).generate();
        assert_ne!(a.stats(), b.stats());
    }

    #[test]
    fn every_function_entry_has_an_instruction() {
        let p = ProgramGenerator::new(small_profile(), 3).generate();
        for &e in p.function_entries() {
            assert!(p.inst_at(e).is_some(), "function entry {e} missing");
        }
        assert_eq!(p.function_entries().len(), 8);
    }

    #[test]
    fn direct_targets_point_at_instructions() {
        let p = ProgramGenerator::new(small_profile(), 4).generate();
        let mut checked = 0;
        for &e in p.function_entries() {
            // Walk the function image sequentially.
            let mut ip = e;
            while let Some(inst) = p.inst_at(ip) {
                if let Some(t) = inst.target {
                    assert!(p.inst_at(t).is_some(), "target {t} of {ip} dangles");
                    checked += 1;
                }
                if inst.branch == BranchKind::Return {
                    break;
                }
                ip = inst.next_seq();
            }
        }
        assert!(checked > 0, "no branches checked");
    }

    #[test]
    fn conditional_branches_have_behavior() {
        let p = ProgramGenerator::new(small_profile(), 5).generate();
        let mut conds = 0;
        for &e in p.function_entries() {
            let mut ip = e;
            while let Some(inst) = p.inst_at(ip) {
                if inst.branch == BranchKind::CondDirect {
                    assert!(p.cond_behavior(ip).is_some());
                    conds += 1;
                }
                if inst.branch == BranchKind::Return {
                    break;
                }
                ip = inst.next_seq();
            }
        }
        assert!(conds > 0);
        assert_eq!(p.stats().cond_branches, p.stats().cond_branches);
    }

    #[test]
    fn indirect_branches_have_targets() {
        let mut profile = small_profile();
        profile.terminators.ijmp = 0.3; // force plenty of indirects
        let p = ProgramGenerator::new(profile, 6).generate();
        let mut found = 0;
        for &e in p.function_entries() {
            let mut ip = e;
            while let Some(inst) = p.inst_at(ip) {
                if inst.branch == BranchKind::IndirectJump {
                    let t = p.indirect_targets(ip).expect("annotated");
                    assert!(t.targets().len() >= 2);
                    for &target in t.targets() {
                        assert!(p.inst_at(target).is_some());
                    }
                    found += 1;
                }
                if inst.branch == BranchKind::Return {
                    break;
                }
                ip = inst.next_seq();
            }
        }
        assert!(found > 0, "expected indirect jumps in this profile");
    }

    #[test]
    fn footprint_tracks_profile_estimate() {
        let profile = WorkloadProfile { functions: 64, ..WorkloadProfile::default() };
        let est = profile.approx_static_uops();
        let p = ProgramGenerator::new(profile, 9).generate();
        let actual = p.stats().static_uops as f64;
        assert!(
            actual > est * 0.5 && actual < est * 2.0,
            "estimate {est} vs actual {actual} diverge wildly"
        );
    }
}
