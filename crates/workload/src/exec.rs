//! Architectural execution: turning a static [`Program`] into the dynamic
//! instruction stream the frontend simulators replay.
//!
//! The executor is the *oracle*: it resolves every branch using the
//! program's behavioural annotations and yields [`DynInst`]s — the
//! committed path. Frontend models consume this stream, running their
//! predictors against it (trace-driven methodology, paper §4).

use crate::program::{CondBehavior, Program, Slot, NO_SLOT};
use crate::rng::Rng64;
use xbc_isa::{Addr, BranchKind, Inst};

/// One committed dynamic instruction: the static instruction plus how its
/// control flow resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynInst {
    /// The static instruction.
    pub inst: Inst,
    /// Whether a branch was taken (`false` for non-branches and fall-through
    /// conditionals; `true` for all unconditional transfers).
    pub taken: bool,
    /// Address of the next committed instruction.
    pub next_ip: Addr,
}

impl DynInst {
    /// Number of uops this dynamic instruction contributes.
    #[inline]
    pub fn uops(&self) -> u32 {
        self.inst.uops as u32
    }
}

/// Maximum modeled call-stack depth. Calls past this depth are *elided*
/// (treated as fall-through) to keep the synthetic trace well-formed under
/// unbounded random recursion; this is rare (< 1e-4 of calls) and recorded
/// in [`ExecStats::elided_calls`].
const MAX_STACK: usize = 128;

/// Executor statistics (corner-case accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamic instructions executed.
    pub insts: u64,
    /// Dynamic uops.
    pub uops: u64,
    /// Calls elided due to stack-depth cap.
    pub elided_calls: u64,
    /// Returns executed with an empty stack (trace wraps to program entry,
    /// modeling an external driver loop).
    pub wrapped_returns: u64,
    /// Asynchronous interrupts delivered.
    pub interrupts: u64,
}

/// A control-flow position: an address and the image slot holding it
/// ([`NO_SLOT`] when the address is off the image; executing it panics).
#[derive(Clone, Copy, Debug)]
struct Pc {
    ip: Addr,
    slot: u32,
}

/// Streaming architectural executor. Implements `Iterator<Item = DynInst>`
/// and never terminates on its own (take as many instructions as needed).
///
/// # Examples
///
/// ```
/// use xbc_workload::{Executor, ProgramGenerator, WorkloadProfile};
///
/// let program = ProgramGenerator::new(WorkloadProfile::default(), 7).generate();
/// let trace: Vec<_> = Executor::new(&program, 7).take(1000).collect();
/// assert_eq!(trace.len(), 1000);
/// // The stream is a connected path: each next_ip is the next inst's ip.
/// for w in trace.windows(2) {
///     assert_eq!(w[0].next_ip, w[1].inst.ip);
/// }
/// ```
#[derive(Debug)]
pub struct Executor<'a> {
    program: &'a Program,
    rng: Rng64,
    /// The next instruction to execute.
    pc: Pc,
    /// Return addresses of the active calls (and interrupts).
    stack: Vec<Pc>,
    /// Per-conditional-branch execution counters for deterministic loop
    /// behaviour, indexed by the branch's behaviour index.
    loop_state: Vec<u32>,
    /// Last resolved target per indirect branch (bursty dispatch),
    /// indexed by the branch's behaviour index.
    sticky_targets: Vec<Option<Addr>>,
    /// Probability of reusing the sticky target.
    stickiness: f64,
    /// Mean instructions between asynchronous interrupts (None = off).
    interrupt_interval: Option<usize>,
    /// Instructions until the next interrupt fires.
    interrupt_countdown: usize,
    stats: ExecStats,
}

impl<'a> Executor<'a> {
    /// Creates an executor starting at the program entry with the default
    /// indirect-target stickiness (0.85).
    pub fn new(program: &'a Program, seed: u64) -> Self {
        Self::with_stickiness(program, seed, 0.85)
    }

    /// Creates an executor with explicit indirect-target stickiness: the
    /// probability that an indirect branch repeats its previous target
    /// (bursty dispatch) instead of resampling from its target set.
    ///
    /// # Panics
    ///
    /// Panics if `stickiness` is not a probability.
    pub fn with_stickiness(program: &'a Program, seed: u64, stickiness: f64) -> Self {
        Self::with_options(program, seed, stickiness, None)
    }

    /// Full-option constructor: stickiness plus the mean instruction
    /// interval between asynchronous kernel interrupts (requires the
    /// program to declare [`Program::interrupt_handlers`]).
    ///
    /// # Panics
    ///
    /// Panics if `stickiness` is not a probability, or if an interval is
    /// given but the program has no handlers.
    pub fn with_options(
        program: &'a Program,
        seed: u64,
        stickiness: f64,
        interrupt_interval: Option<usize>,
    ) -> Self {
        assert!((0.0..=1.0).contains(&stickiness), "stickiness must be in [0,1]");
        if interrupt_interval.is_some() {
            assert!(
                !program.interrupt_handlers().is_empty(),
                "interrupts need declared handler functions"
            );
        }
        Executor {
            program,
            rng: Rng64::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            pc: Pc { ip: program.entry(), slot: program.slot_of(program.entry()) },
            stack: Vec::with_capacity(MAX_STACK),
            loop_state: vec![0; program.stats().cond_branches],
            sticky_targets: vec![None; program.indirect_count()],
            stickiness,
            interrupt_interval,
            interrupt_countdown: interrupt_interval.unwrap_or(usize::MAX),
            stats: ExecStats::default(),
        }
    }

    /// Corner-case statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Appends the next `n` committed instructions to `out` — the same
    /// instructions `n` calls of [`Iterator::next`] would yield.
    ///
    /// Runs of plain (non-branch) instructions are copied straight out of
    /// the image: they need no RNG draw, no stack and no lookup, only the
    /// interrupt countdown, which is settled once per run.
    pub(crate) fn fill(&mut self, out: &mut Vec<DynInst>, n: usize) {
        let end = out.len() + n;
        out.reserve(n);
        while out.len() < end {
            // An interrupt is due after the instruction that brings the
            // countdown to 1; that one goes through `step`.
            let armed = self.interrupt_countdown != usize::MAX;
            let budget = (end - out.len()).min(self.interrupt_countdown - 1);
            let (mut pc, mut uops, mut run) = (self.pc, 0u64, 0);
            let slots = self.program.slots();
            while run < budget {
                let Some(Slot { inst, .. }) = slots.get(pc.slot as usize) else {
                    break;
                };
                if inst.branch != BranchKind::None {
                    break;
                }
                out.push(DynInst { inst: *inst, taken: false, next_ip: inst.next_seq() });
                // Reading the pushed copy back, not the slot, keeps the
                // compiler from staging the 48-byte copy through the stack.
                let d = out.last().expect("just pushed");
                uops += d.inst.uops as u64;
                run += 1;
                pc = Pc { ip: d.next_ip, slot: self.program.slot_after(pc.slot, d.next_ip) };
            }
            self.pc = pc;
            self.stats.insts += run as u64;
            self.stats.uops += uops;
            if armed {
                self.interrupt_countdown -= run;
            }
            if out.len() < end {
                out.push(self.step());
            }
        }
    }

    /// Resolves the instruction at the current IP.
    #[inline(always)]
    fn step(&mut self) -> DynInst {
        let here = self.pc;
        if here.slot == NO_SLOT {
            panic!("execution fell off the program image at {}", here.ip);
        }
        let program = self.program;
        let Slot { inst, behavior, target } = program.slots()[here.slot as usize];
        let fall = Pc { ip: inst.next_seq(), slot: program.slot_after(here.slot, inst.next_seq()) };
        let (taken, next) = match inst.branch {
            BranchKind::None => (false, fall),
            BranchKind::CondDirect => {
                if self.resolve_cond(behavior) {
                    (true, Pc { ip: inst.taken_target(), slot: target })
                } else {
                    (false, fall)
                }
            }
            BranchKind::UncondDirect => (true, Pc { ip: inst.taken_target(), slot: target }),
            BranchKind::CallDirect => {
                if self.push_return(fall) {
                    (true, Pc { ip: inst.taken_target(), slot: target })
                } else {
                    (false, fall)
                }
            }
            BranchKind::IndirectJump => {
                let t = self.resolve_indirect(behavior);
                (true, self.locate(t))
            }
            BranchKind::IndirectCall => {
                let t = self.resolve_indirect(behavior);
                if self.push_return(fall) {
                    (true, self.locate(t))
                } else {
                    (false, fall)
                }
            }
            BranchKind::Return => match self.stack.pop() {
                Some(ra) => (true, ra),
                None => {
                    self.stats.wrapped_returns += 1;
                    (true, self.locate(program.entry()))
                }
            },
        };
        // Asynchronous interrupt delivery: after this instruction commits,
        // execution may be diverted into a kernel handler; the diverted-from
        // continuation is pushed like a call's return address, so the
        // handler's final return resumes seamlessly. Frontends see an
        // unpredictable control transfer at a non-branch boundary — exactly
        // what makes kernel activity disruptive to fetch structures.
        let mut next = next;
        if self.interrupt_countdown <= 1 {
            if self.stack.len() < MAX_STACK {
                let handlers = program.interrupt_handlers();
                let h = handlers[self.rng.gen_range(0..handlers.len())];
                self.stack.push(next);
                next = self.locate(h);
                self.stats.interrupts += 1;
            }
            // Re-arm around the mean interval (uniform ±50%).
            let mean = self.interrupt_interval.expect("countdown armed implies interval");
            self.interrupt_countdown = self.rng.gen_range(mean / 2..=mean + mean / 2).max(2);
        } else if self.interrupt_countdown != usize::MAX {
            self.interrupt_countdown -= 1;
        }
        self.pc = next;
        self.stats.insts += 1;
        self.stats.uops += inst.uops as u64;
        DynInst { inst, taken, next_ip: next.ip }
    }

    /// `ip` with the slot that holds it.
    fn locate(&self, ip: Addr) -> Pc {
        Pc { ip, slot: self.program.slot_of(ip) }
    }

    /// Pushes a call's return address; past [`MAX_STACK`] the call is
    /// elided instead and `false` is returned.
    fn push_return(&mut self, ra: Pc) -> bool {
        if self.stack.len() < MAX_STACK {
            self.stack.push(ra);
            true
        } else {
            self.stats.elided_calls += 1;
            false
        }
    }

    fn resolve_cond(&mut self, behavior: u32) -> bool {
        match self.program.cond(behavior) {
            CondBehavior::Bernoulli { p_taken } => self.rng.gen::<f64>() < p_taken,
            CondBehavior::Loop { trip } => {
                let count = &mut self.loop_state[behavior as usize];
                *count += 1;
                if (*count).is_multiple_of(trip) {
                    false // loop exit
                } else {
                    true // keep iterating
                }
            }
        }
    }

    fn resolve_indirect(&mut self, behavior: u32) -> Addr {
        let sticky = &mut self.sticky_targets[behavior as usize];
        if let Some(t) = *sticky {
            if self.rng.gen::<f64>() < self.stickiness {
                return t;
            }
        }
        let t = self.program.indirect(behavior).choose(&mut self.rng);
        *sticky = Some(t);
        t
    }
}

impl Iterator for Executor<'_> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{IndirectTargets, ProgramBuilder};
    use crate::{ProgramGenerator, WorkloadProfile};

    /// ip -> (len) plain; convenience for hand-built programs.
    fn plain(b: &mut ProgramBuilder, ip: u64, len: u8) -> Addr {
        b.push(Inst::plain(Addr::new(ip), len, 1));
        Addr::new(ip)
    }

    #[test]
    fn loop_behavior_iterates_exactly_trip_times() {
        // 0x10: body; 0x12: loop branch back to 0x10 with trip=3;
        // 0x14: ret (wraps to entry).
        let mut b = ProgramBuilder::new();
        plain(&mut b, 0x10, 2);
        b.push_cond(
            Inst::new(Addr::new(0x12), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x10))),
            CondBehavior::Loop { trip: 3 },
        );
        b.push(Inst::new(Addr::new(0x14), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        let trace: Vec<_> = Executor::new(&p, 0).take(9).collect();
        // Expect: body,branch(T), body,branch(T), body,branch(NT), ret, body...
        let kinds: Vec<(u64, bool)> = trace.iter().map(|d| (d.inst.ip.raw(), d.taken)).collect();
        assert_eq!(kinds[0], (0x10, false));
        assert_eq!(kinds[1], (0x12, true));
        assert_eq!(kinds[3], (0x12, true));
        assert_eq!(kinds[5], (0x12, false));
        assert_eq!(kinds[6].0, 0x14);
    }

    #[test]
    fn calls_and_returns_match() {
        // main: 0x10 call 0x40; 0x15 ret. callee: 0x40 ret.
        let mut b = ProgramBuilder::new();
        b.push(Inst::new(Addr::new(0x10), 5, 1, BranchKind::CallDirect, Some(Addr::new(0x40))));
        b.push(Inst::new(Addr::new(0x15), 1, 1, BranchKind::Return, None));
        b.push(Inst::new(Addr::new(0x40), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 2);
        let trace: Vec<_> = Executor::new(&p, 0).take(4).collect();
        let path: Vec<u64> = trace.iter().map(|d| d.inst.ip.raw()).collect();
        // call -> callee ret -> main ret (wraps) -> call again
        assert_eq!(path, vec![0x10, 0x40, 0x15, 0x10]);
    }

    #[test]
    fn wrapped_return_counted() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::new(Addr::new(0x10), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        let mut e = Executor::new(&p, 0);
        let d = e.next().unwrap();
        assert_eq!(d.next_ip, Addr::new(0x10));
        assert_eq!(e.stats().wrapped_returns, 1);
    }

    #[test]
    fn bernoulli_extremes_are_deterministic_in_direction() {
        let mut b = ProgramBuilder::new();
        b.push_cond(
            Inst::new(Addr::new(0x10), 2, 1, BranchKind::CondDirect, Some(Addr::new(0x10))),
            CondBehavior::Bernoulli { p_taken: 1.0 },
        );
        // Unreachable fall-through keeps the image closed anyway.
        b.push(Inst::new(Addr::new(0x12), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        for d in Executor::new(&p, 3).take(50) {
            assert!(d.taken);
        }
    }

    #[test]
    fn indirect_jump_follows_target_set() {
        let mut b = ProgramBuilder::new();
        let t1 = plain(&mut b, 0x20, 2);
        // 0x22 jumps back to the indirect at 0x10.
        b.push(Inst::new(Addr::new(0x22), 2, 1, BranchKind::UncondDirect, Some(Addr::new(0x10))));
        b.push_indirect(
            Inst::new(Addr::new(0x10), 2, 1, BranchKind::IndirectJump, None),
            IndirectTargets::new(&[(t1, 1.0)]),
        );
        let p = b.build(Addr::new(0x10), 1);
        let trace: Vec<_> = Executor::new(&p, 0).take(6).collect();
        let path: Vec<u64> = trace.iter().map(|d| d.inst.ip.raw()).collect();
        assert_eq!(path, vec![0x10, 0x20, 0x22, 0x10, 0x20, 0x22]);
    }

    #[test]
    fn stream_is_connected_on_generated_program() {
        let p = ProgramGenerator::new(
            WorkloadProfile { functions: 12, ..WorkloadProfile::default() },
            11,
        )
        .generate();
        let trace: Vec<_> = Executor::new(&p, 11).take(20_000).collect();
        for w in trace.windows(2) {
            assert_eq!(w[0].next_ip, w[1].inst.ip, "disconnected at {}", w[0].inst.ip);
        }
    }

    #[test]
    fn executor_is_deterministic() {
        let p = ProgramGenerator::new(WorkloadProfile::default(), 21).generate();
        let a: Vec<_> = Executor::new(&p, 5).take(5000).collect();
        let b: Vec<_> = Executor::new(&p, 5).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn interrupts_divert_and_resume() {
        use crate::{ProgramGenerator, WorkloadProfile};
        let profile = WorkloadProfile {
            functions: 12,
            interrupt_interval: Some(500),
            ..WorkloadProfile::default()
        };
        let p = ProgramGenerator::new(profile, 7).generate();
        assert_eq!(p.interrupt_handlers().len(), 3);
        let mut exec = Executor::with_options(&p, 7, 0.85, Some(500));
        let trace: Vec<_> = (&mut exec).take(20_000).collect();
        let ints = exec.stats().interrupts;
        assert!(ints >= 20, "expected ~40 interrupts, got {ints}");
        // The stream stays connected across every diversion.
        for w in trace.windows(2) {
            assert_eq!(w[0].next_ip, w[1].inst.ip);
        }
        // Handler code actually runs.
        let handler_set: std::collections::HashSet<u64> =
            p.interrupt_handlers().iter().map(|a| a.raw()).collect();
        assert!(
            trace.iter().any(|d| handler_set.contains(&d.inst.ip.raw())),
            "handler entries must appear in the stream"
        );
    }

    #[test]
    fn fill_matches_next_across_interrupts_and_chunk_sizes() {
        let profile = WorkloadProfile {
            functions: 40,
            interrupt_interval: Some(300),
            ..WorkloadProfile::default()
        };
        let p = ProgramGenerator::new(profile, 13).generate();
        let mut one = Executor::with_options(&p, 13, 0.85, Some(300));
        let want: Vec<_> = (&mut one).take(30_000).collect();
        let mut batched = Executor::with_options(&p, 13, 0.85, Some(300));
        let mut got = Vec::new();
        let mut rng = Rng64::seed_from_u64(1);
        while got.len() < want.len() {
            let n = rng.gen_range(0usize..700).min(want.len() - got.len());
            batched.fill(&mut got, n);
        }
        assert_eq!(got, want);
        assert_eq!(batched.stats(), one.stats());
        assert!(one.stats().interrupts > 0);
    }

    /// 0x10 runs into 0x12, a gap before the next slot (0x20).
    fn open_ended_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Inst::plain(Addr::new(0x10), 2, 1));
        b.push(Inst::new(Addr::new(0x20), 1, 1, BranchKind::Return, None));
        b.build(Addr::new(0x10), 1)
    }

    #[test]
    #[should_panic(expected = "fell off the program image at 0x0000000000000012")]
    fn next_panics_when_execution_falls_off_the_image() {
        let p = open_ended_program();
        let mut e = Executor::new(&p, 0);
        assert_eq!(e.next().unwrap().next_ip, Addr::new(0x12));
        e.next();
    }

    #[test]
    #[should_panic(expected = "fell off the program image at 0x0000000000000012")]
    fn fill_panics_when_execution_falls_off_the_image() {
        let p = open_ended_program();
        let mut e = Executor::new(&p, 0);
        let mut out = Vec::new();
        e.fill(&mut out, 1);
        assert_eq!(out.len(), 1);
        e.fill(&mut out, 1);
    }

    #[test]
    #[should_panic(expected = "handler functions")]
    fn interrupts_require_handlers() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::new(Addr::new(0x10), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        let _ = Executor::with_options(&p, 0, 0.5, Some(1000));
    }

    #[test]
    fn stats_count_uops() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::plain(Addr::new(0x10), 1, 3));
        b.push(Inst::new(Addr::new(0x11), 1, 1, BranchKind::Return, None));
        let p = b.build(Addr::new(0x10), 1);
        let mut e = Executor::new(&p, 0);
        e.next();
        e.next();
        assert_eq!(e.stats().insts, 2);
        assert_eq!(e.stats().uops, 4);
    }
}
