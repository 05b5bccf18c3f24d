//! Property test of the flat program image: for seeded random
//! `ProgramBuilder` inputs, pushed in shuffled and in ascending order, every
//! `Program` query agrees with a `BTreeMap` reference at every instruction
//! address, every interior byte of an instruction, the gaps between
//! functions, and one past either end of the image. The builder's two
//! panics — a duplicate address and an entry with no instruction — are
//! asserted for both push orders.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use xbc_isa::{Addr, BranchKind, Inst};
use xbc_workload::{CondBehavior, IndirectTargets, Program, ProgramBuilder, Rng64};

/// One pushed instruction with its behaviour annotation.
#[derive(Clone, Debug)]
struct Entry {
    inst: Inst,
    cond: Option<CondBehavior>,
    targets: Option<IndirectTargets>,
}

/// A random image: 1–6 functions of 1–40 back-to-back instructions each,
/// separated by gaps of 1–300 bytes, with every branch kind present.
fn random_entries(rng: &mut Rng64) -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut ip = 0x100 + rng.gen_range(0u64..0x1000);
    for _ in 0..rng.gen_range(1usize..=6) {
        for _ in 0..rng.gen_range(1usize..=40) {
            let len = rng.gen_range(1u8..=15);
            let uops = rng.gen_range(1u8..=4);
            let at = Addr::new(ip);
            let target = Addr::new(rng.gen_range(0x100u64..0x8000));
            let entry = match rng.gen_range(0u32..7) {
                0 => Entry {
                    inst: Inst::new(at, len, uops, BranchKind::CondDirect, Some(target)),
                    cond: Some(if rng.gen::<bool>() {
                        CondBehavior::Loop { trip: rng.gen_range(1u32..30) }
                    } else {
                        CondBehavior::Bernoulli { p_taken: rng.gen::<f64>() }
                    }),
                    targets: None,
                },
                1 | 2 => {
                    let kind = if rng.gen::<bool>() {
                        BranchKind::IndirectJump
                    } else {
                        BranchKind::IndirectCall
                    };
                    let weighted: Vec<(Addr, f64)> = (0..rng.gen_range(1usize..5))
                        .map(|_| {
                            (Addr::new(rng.gen_range(0x100u64..0x8000)), 0.5 + rng.gen::<f64>())
                        })
                        .collect();
                    Entry {
                        inst: Inst::new(at, len, uops, kind, None),
                        cond: None,
                        targets: Some(IndirectTargets::new(&weighted)),
                    }
                }
                3 => plain(Inst::new(at, len, uops, BranchKind::UncondDirect, Some(target))),
                4 => plain(Inst::new(at, len, uops, BranchKind::CallDirect, Some(target))),
                5 => plain(Inst::new(at, len, uops, BranchKind::Return, None)),
                _ => plain(Inst::plain(at, len, uops)),
            };
            entries.push(entry);
            ip += len as u64;
        }
        ip += rng.gen_range(1u64..300);
    }
    entries
}

fn plain(inst: Inst) -> Entry {
    Entry { inst, cond: None, targets: None }
}

fn push(b: &mut ProgramBuilder, e: &Entry) {
    match (&e.cond, &e.targets) {
        (Some(c), _) => b.push_cond(e.inst, *c),
        (_, Some(t)) => b.push_indirect(e.inst, t.clone()),
        _ => b.push(e.inst),
    }
}

fn shuffle(entries: &mut [Entry], rng: &mut Rng64) {
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..=i));
    }
}

/// Asserts every query of `p` at `ip` against the reference.
fn check_at(p: &Program, reference: &BTreeMap<u64, Entry>, ip: u64, what: &str) {
    let want = reference.get(&ip);
    let at = Addr::new(ip);
    assert_eq!(p.inst_at(at), want.map(|e| &e.inst), "inst_at {at} ({what})");
    assert_eq!(p.cond_behavior(at), want.and_then(|e| e.cond), "cond_behavior {at} ({what})");
    assert_eq!(
        p.indirect_targets(at),
        want.and_then(|e| e.targets.as_ref()),
        "indirect_targets {at} ({what})"
    );
}

fn check_program(p: &Program, reference: &BTreeMap<u64, Entry>) {
    let first = *reference.keys().next().expect("non-empty image");
    let last = reference.values().next_back().expect("non-empty image").inst;
    let mut queried = 0;
    for (&ip, e) in reference {
        check_at(p, reference, ip, "instruction");
        for interior in ip + 1..ip + e.inst.len as u64 {
            check_at(p, reference, interior, "interior byte");
        }
        // The byte after an instruction is either the next instruction
        // or the first byte of a gap between functions.
        check_at(p, reference, e.inst.next_seq().raw(), "gap or next instruction");
        queried += 1;
    }
    check_at(p, reference, first - 1, "one before the image");
    check_at(p, reference, last.next_seq().raw(), "one past the image");
    assert_eq!(queried, p.stats().static_insts);
    assert_eq!(p.stats().cond_branches, reference.values().filter(|e| e.cond.is_some()).count());
    let uops: usize = reference.values().map(|e| e.inst.uops as usize).sum();
    assert_eq!(p.stats().static_uops, uops);
}

#[test]
fn flat_image_matches_a_btreemap_reference() {
    for seed in 0..300 {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut entries = random_entries(&mut rng);
        let reference: BTreeMap<u64, Entry> =
            entries.iter().map(|e| (e.inst.ip.raw(), e.clone())).collect();
        let entry = entries[rng.gen_range(0..entries.len())].inst.ip;

        let mut ascending = ProgramBuilder::new();
        for e in &entries {
            push(&mut ascending, e);
        }
        check_program(&ascending.build(entry, 1), &reference);

        shuffle(&mut entries, &mut rng);
        let mut shuffled = ProgramBuilder::new();
        for e in &entries {
            push(&mut shuffled, e);
        }
        let p = shuffled.build(entry, 1);
        assert_eq!(p.entry(), entry, "seed {seed}");
        check_program(&p, &reference);
    }
}

/// Runs `f` and returns its panic message (or `None` if it returned).
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default(),
    )
}

#[test]
fn duplicate_push_and_missing_entry_still_panic() {
    for seed in 0..40 {
        let mut rng = Rng64::seed_from_u64(1_000 + seed);
        let mut entries = random_entries(&mut rng);
        if seed % 2 == 1 {
            shuffle(&mut entries, &mut rng);
        }
        // Duplicate of an earlier push (any position) and of the last one.
        let earlier = entries[rng.gen_range(0..entries.len())].clone();
        let last = entries.last().expect("non-empty").clone();
        for dup in [earlier, last] {
            let msg = panic_message(|| {
                let mut b = ProgramBuilder::new();
                for e in &entries {
                    push(&mut b, e);
                }
                push(&mut b, &dup);
            });
            let msg = msg.unwrap_or_else(|| panic!("seed {seed}: duplicate push accepted"));
            assert!(msg.contains("duplicate instruction"), "seed {seed}: {msg}");
        }
        // Entry inside an instruction, in a gap, and past the end.
        let e = &entries[rng.gen_range(0..entries.len())].inst;
        let max_end = entries.iter().map(|e| e.inst.next_seq().raw()).max().expect("non-empty");
        let taken: std::collections::HashSet<u64> =
            entries.iter().map(|e| e.inst.ip.raw()).collect();
        for missing in [e.ip.raw() + 1, e.next_seq().raw(), max_end] {
            if taken.contains(&missing) {
                continue;
            }
            let msg = panic_message(|| {
                let mut b = ProgramBuilder::new();
                for e in &entries {
                    push(&mut b, e);
                }
                b.build(Addr::new(missing), 1);
            });
            let msg = msg.unwrap_or_else(|| panic!("seed {seed}: entry {missing:#x} accepted"));
            assert!(msg.contains("has no instruction"), "seed {seed}: {msg}");
        }
    }
}
