//! Property-style tests of the core data-structure invariants.
//!
//! Instead of a registry property-testing framework, these tests drive
//! each invariant with many randomized cases from the in-tree,
//! deterministically seeded [`Rng64`] — same coverage philosophy, fully
//! hermetic build, and failures reproduce exactly (the case seed is in
//! the assertion message).

use xbc::{BankMask, XbPtr, XbcArray, XbcConfig};
use xbc_frontend::{BbtcConfig, TcConfig, UopCacheConfig};
use xbc_isa::{decode, Addr, BranchKind, Inst, Uop};
use xbc_predict::BtbConfig;
use xbc_uarch::{Histogram, ICacheConfig, SetIndex};
use xbc_workload::{ProgramGenerator, Rng64, Trace, WorkloadProfile};

/// A plausible uop sequence for one XB (1..=16 uops), ending on a
/// conditional branch. Built from instruction shapes so uop identities
/// look real.
fn arb_xb_uops(rng: &mut Rng64) -> Vec<Uop> {
    let n_shapes = rng.gen_range(1usize..=4);
    let shapes: Vec<(u8, u8)> =
        (0..n_shapes).map(|_| (rng.gen_range(1u8..=4), rng.gen_range(1u8..=11))).collect();
    let mut uops = Vec::new();
    let mut ip = 0x4000u64;
    let total: usize = shapes.iter().map(|(u, _)| *u as usize).sum();
    for (i, (u, len)) in shapes.iter().enumerate() {
        let last = i + 1 == shapes.len();
        let inst = if last {
            Inst::new(Addr::new(ip), *len, *u, BranchKind::CondDirect, Some(Addr::new(0x100)))
        } else {
            Inst::plain(Addr::new(ip), *len, *u)
        };
        uops.extend(decode(&inst));
        ip += *len as u64;
    }
    assert!(total <= 16);
    uops
}

/// Whatever is inserted into the array reads back identically
/// (reverse-order storage is an implementation detail, not an
/// observable one).
#[test]
fn array_insert_read_roundtrip() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(0xA110 + case);
        let uops = arb_xb_uops(&mut rng);
        let ip_raw = rng.gen_range(0u64..1_000_000);
        let cfg = XbcConfig { total_uops: 1024, ..XbcConfig::default() };
        let mut a = XbcArray::new(&cfg);
        let end_ip = Addr::new(ip_raw + uops.len() as u64);
        let mask = a.insert(end_ip, &uops, 0, BankMask::EMPTY, BankMask::EMPTY);
        assert_eq!(mask.count(), uops.len().div_ceil(4), "case {case}");
        let (set, tag) = a.set_and_tag(end_ip);
        let asm = a.assemble(set, tag, None).expect("just inserted");
        assert_eq!(asm.total_uops, uops.len(), "case {case}");
        assert_eq!(a.read_uops(set, &asm), uops, "case {case}");
    }
}

/// Any mid-block entry offset is fetchable after insertion.
#[test]
fn array_every_entry_offset_fetchable() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(0xB220 + case);
        let uops = arb_xb_uops(&mut rng);
        let ip_raw = rng.gen_range(0u64..1_000_000);
        let cfg = XbcConfig { total_uops: 1024, ..XbcConfig::default() };
        let mut a = XbcArray::new(&cfg);
        let end_ip = Addr::new(ip_raw + uops.len() as u64);
        let mask = a.insert(end_ip, &uops, 0, BankMask::EMPTY, BankMask::EMPTY);
        for offset in 1..=uops.len() as u8 {
            let ptr = XbPtr::new(end_ip, Addr::new(0), mask, offset);
            assert!(a.lookup(&ptr).is_some(), "case {case}: offset {offset} must hit");
            let mut used = BankMask::EMPTY;
            let r = a.fetch_one(&ptr, &mut used);
            assert_eq!(r, xbc::XbFetch::Full, "case {case}");
            assert_eq!(used.count(), (offset as usize).div_ceil(4), "case {case}");
        }
    }
}

/// Histogram mean/count stay consistent under arbitrary inputs.
#[test]
fn histogram_invariants() {
    for case in 0..64u64 {
        let mut rng = Rng64::seed_from_u64(0xC330 + case);
        let n = rng.gen_range(1usize..100);
        let values: Vec<usize> = (0..n).map(|_| rng.gen_range(1usize..200)).collect();
        let mut h = Histogram::new(16);
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64, "case {case}");
        let clamped: f64 =
            values.iter().map(|&v| v.min(16) as f64).sum::<f64>() / values.len() as f64;
        assert!((h.mean() - clamped).abs() < 1e-9, "case {case}");
        let total: u64 = (1..=16).map(|v| h.bin(v)).sum();
        assert_eq!(total, h.count(), "case {case}");
        // Quantiles are monotone.
        assert!(h.quantile(0.25) <= h.quantile(0.75), "case {case}");
    }
}

/// BankMask set algebra, exhaustively over all 16x16 mask pairs.
#[test]
fn bank_mask_algebra() {
    for a in 0u8..16 {
        for b in 0u8..16 {
            let (ma, mb) = (BankMask::from_bits(a), BankMask::from_bits(b));
            assert_eq!(ma.union(mb).bits(), a | b);
            assert_eq!(ma.intersects(mb), a & b != 0);
            assert_eq!(ma.count(), a.count_ones() as usize);
            let collected: Vec<usize> = ma.iter().collect();
            assert_eq!(collected.len(), ma.count());
            for bank in collected {
                assert!(ma.contains(bank));
            }
        }
    }
}

/// Generated programs always execute safely for any seed, and the
/// committed stream stays connected.
#[test]
fn generated_program_always_executes() {
    for seed in (0u64..500).step_by(11) {
        let profile = WorkloadProfile { functions: 12, ..WorkloadProfile::default() };
        let program = ProgramGenerator::new(profile, seed).generate();
        let trace = Trace::capture("prop", &program, seed, 3_000);
        assert_eq!(trace.inst_count(), 3_000, "seed {seed}");
        for w in trace.insts().windows(2) {
            assert_eq!(w[0].next_ip, w[1].inst.ip, "seed {seed}");
        }
        // uop accounting holds.
        let total: u64 = trace.iter().map(|d| d.uops() as u64).sum();
        assert_eq!(total, trace.uop_count(), "seed {seed}");
    }
}

/// The no-redundancy invariant under randomized overlapping installs:
/// suffix/extension/complex cases never duplicate more than the split
/// line allows.
#[test]
fn overlapping_installs_bounded_duplication() {
    use xbc::{install, BuiltXb};
    // Reuse the fill unit to construct BuiltXbs from synthetic streams.
    use xbc_frontend::FillSink;
    use xbc_workload::DynInst;

    let cfg = XbcConfig { total_uops: 4096, ..XbcConfig::default() };
    let mut a = XbcArray::new(&cfg);
    let mut xfu = xbc::Xfu::new(16);
    // A shared tail at 0x900 reached from 8 different prefixes: the worst
    // case for trace caches, the design case for the XBC.
    for p in 0..8u64 {
        let prefix_ip = 0x1000 + p * 0x40;
        for i in 0..3 {
            let inst = Inst::plain(Addr::new(prefix_ip + i), 1, 1);
            xfu.observe(&DynInst { inst, taken: false, next_ip: Addr::new(prefix_ip + i + 1) });
        }
        let jmp = Inst::new(
            Addr::new(prefix_ip + 3),
            1,
            1,
            BranchKind::UncondDirect,
            Some(Addr::new(0x900)),
        );
        xfu.observe(&DynInst { inst: jmp, taken: true, next_ip: Addr::new(0x900) });
        for i in 0..4 {
            let inst = Inst::plain(Addr::new(0x900 + i), 1, 1);
            xfu.observe(&DynInst { inst, taken: false, next_ip: Addr::new(0x900 + i + 1) });
        }
        let end = Inst::new(Addr::new(0x904), 1, 1, BranchKind::Return, None);
        xfu.observe(&DynInst { inst: end, taken: true, next_ip: Addr::new(prefix_ip) });
    }
    let built: Vec<BuiltXb> = std::mem::take(&mut xfu.done);
    assert_eq!(built.len(), 8, "8 prefix+tail XBs");
    for b in &built {
        install(b, &mut a, BankMask::EMPTY);
    }
    let (stored, distinct) = a.redundancy();
    // All 8 alternate prefixes share one set (same end IP), which holds
    // only 4 banks x 2 ways = 8 lines; each path needs 2 prefix lines plus
    // the shared suffix line, so eviction necessarily drops the oldest
    // prefixes. What must hold: the shared 5-uop tail is stored once, at
    // least the most recent paths survive, and duplication stays bounded
    // by one split-line uop per resident alternate path.
    assert!(distinct >= 2 * 4 + 5, "tail plus recent prefixes resident: {distinct}");
    assert!(distinct <= 8 * 4 + 5);
    assert!(
        stored - distinct <= 8,
        "at most one duplicated split-line uop per alternate path: {} extra",
        stored - distinct
    );
    // The most recently installed path is still fetchable end-to-end.
    let last = built.last().unwrap();
    let (last_ptr, _) = install(last, &mut a, BankMask::EMPTY);
    assert!(a.lookup(&last_ptr).is_some());
}

/// Every set count a frontend configuration in the sweeps can produce:
/// the XBC and TC from 2K to 96K uops at 1–8 ways, the uop cache and
/// BBTC over the same sizes, and the BTB, IC and XBTB defaults.
fn configured_set_counts() -> Vec<usize> {
    let btb = BtbConfig::default();
    let mut sets = vec![
        btb.entries / btb.ways,
        ICacheConfig::default().sets(),
        XbcConfig::default().xbtb_entries / 4,
    ];
    for total_uops in (2..=96).map(|k| k * 1024) {
        for ways in [1, 2, 4, 8] {
            let xbc = XbcConfig { total_uops, ways, ..XbcConfig::default() };
            if total_uops.is_multiple_of(xbc.banks * ways * xbc.line_uops) {
                sets.push(xbc.sets());
            }
            let tc = TcConfig { total_uops, ways, ..TcConfig::default() };
            if (total_uops / tc.line_uops).is_multiple_of(ways) {
                sets.push(tc.sets());
            }
        }
        let uc = UopCacheConfig { total_uops, ..UopCacheConfig::default() };
        sets.push(uc.entries() / uc.ways);
        let bbtc = BbtcConfig { total_uops, ..BbtcConfig::default() };
        sets.push(bbtc.block_sets());
        sets.push(bbtc.trace_sets());
    }
    sets
}

/// The division-free set split equals `%` and `/` for every divisor in
/// 1..=4096 and every configured set count, on the edge keys (0, 1,
/// `u64::MAX`, multiples of the divisor and their neighbours) and on
/// seeded random keys.
#[test]
fn set_index_split_is_exact() {
    let mut divisors: Vec<u64> = (1..=4096).collect();
    divisors.extend(configured_set_counts().into_iter().map(|d| d as u64));
    divisors.sort_unstable();
    divisors.dedup();
    assert!(*divisors.last().unwrap() > 4096, "the grids reach past 4096 sets");
    let mut rng = Rng64::seed_from_u64(0x5E7_1DE5);
    for &d in &divisors {
        let ix = SetIndex::new(d as usize);
        let mut keys = vec![0, 1, 2, u64::MAX, u64::MAX - 1, d - 1, d, d + 1];
        for _ in 0..8 {
            let m = rng.uniform(u64::MAX / d) * d;
            keys.extend([m, m.wrapping_sub(1), m.saturating_add(1)]);
        }
        keys.extend((0..8).map(|_| rng.next_u64()));
        keys.extend((0..8).map(|_| rng.next_u64() >> 32));
        for key in keys {
            assert_eq!(ix.split(key), ((key % d) as usize, key / d), "key {key} over {d} sets");
        }
    }
}
