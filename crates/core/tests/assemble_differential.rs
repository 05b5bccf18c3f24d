//! Differential property test for the fast assembly path.
//!
//! `XbcArray::assemble` walks unambiguous sets as a chain and runs
//! ambiguous sets through a search over reused scratch buffers; the
//! allocating `assemble_reference` recomputes from the tag array every
//! call. Across seeded random histories of inserts, extensions, fetches
//! (which churn the LRU stamps that order ambiguous candidates),
//! relocations and LRU demotions, every probe must agree — a wrong chain
//! walk or dirty scratch state shows up as a divergence here. The histories run on geometries whose set counts
//! are not powers of two and on every associativity from 1 way to a
//! single 64-way bank.

use xbc::{BankMask, XbPtr, XbcArray, XbcConfig};
use xbc_isa::{Addr, BranchKind, Uop, UopId, UopKind};

/// splitmix64: tiny, seedable, hermetic (same idiom as the obs tests).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn mk_uops(base: u64, len: usize) -> Vec<Uop> {
    (0..len as u64)
        .map(|i| Uop::new(UopId::new(Addr::new(base + i), 0), UopKind::Alu, true, BranchKind::None))
        .collect()
}

/// `(total_uops, banks, ways, line_uops)`: the paper's bank shape at 8, 3
/// and 96 sets; 1, 4 and 16 ways; and one 64-way bank (a full 64-bit lane
/// mask).
const GEOMETRIES: [(usize, usize, usize, usize); 7] = [
    (256, 4, 2, 4),
    (96, 4, 2, 4),
    (3072, 4, 2, 4),
    (80, 4, 1, 4),
    (192, 4, 4, 4),
    (512, 4, 16, 4),
    (2048, 1, 64, 16),
];

#[test]
fn fast_assemble_matches_reference_across_random_histories() {
    for (total_uops, banks, ways, line_uops) in GEOMETRIES {
        let cfg = XbcConfig { total_uops, banks, ways, line_uops, ..XbcConfig::default() };
        cfg.check().unwrap_or_else(|e| panic!("{total_uops}/{banks}x{ways}x{line_uops}: {e}"));
        for seed in 0..8u64 {
            random_history(&cfg, seed);
        }
    }
}

fn random_history(cfg: &XbcConfig, seed: u64) {
    {
        let mut rng = Rng(0x5eed_0000 + seed);
        let mut a = XbcArray::new(cfg);
        let width = a.banks() * a.line_uops();
        // IPs drawn from a small pool so re-inserts of the same tag (the
        // ambiguous case) happen regularly.
        let ip_of = |r: &mut Rng| Addr::new(0x1000 + r.below(48) * 8);
        let mut known: Vec<(Addr, usize)> = Vec::new();

        for step in 0..400 {
            match rng.below(6) {
                0 => {
                    let ip = ip_of(&mut rng);
                    let len = 1 + rng.below(width as u64) as usize;
                    a.insert(ip, &mk_uops(ip.raw() << 8, len), 0, BankMask::EMPTY, BankMask::EMPTY);
                    known.push((ip, len));
                }
                1 if !known.is_empty() => {
                    // Fetch: bumps LRU stamps without structural change;
                    // ambiguous results must track the new stamps.
                    let (ip, _) = known[rng.below(known.len() as u64) as usize];
                    let (set, tag) = a.set_and_tag(ip);
                    if let Some(asm) = a.assemble(set, tag, None) {
                        let ptr = XbPtr::new(ip, Addr::new(0), asm.mask, asm.total_uops as u8);
                        let mut used = BankMask::EMPTY;
                        let _ = a.fetch_one(&ptr, &mut used);
                    }
                }
                2 if !known.is_empty() => {
                    let (ip, _) = known[rng.below(known.len() as u64) as usize];
                    a.demote_lru(ip);
                }
                3 if !known.is_empty() => {
                    let i = rng.below(known.len() as u64) as usize;
                    let (ip, len) = known[i];
                    let (set, tag) = a.set_and_tag(ip);
                    if let Some(asm) = a.assemble(set, tag, None) {
                        let extra = 1 + rng.below(4) as usize;
                        if asm.total_uops == len && len + extra <= width {
                            a.extend(ip, &asm, &mk_uops(ip.raw() << 8, extra), BankMask::EMPTY);
                            known[i].1 += extra;
                        }
                    }
                }
                4 if !known.is_empty() => {
                    // Conflicted fetch: pre-claiming one of the XB's banks
                    // forces a Partial fetch, charging the blocked line's
                    // conflict counter; past the threshold dynamic
                    // placement relocates the line (slot swap).
                    let (ip, _) = known[rng.below(known.len() as u64) as usize];
                    let (set, tag) = a.set_and_tag(ip);
                    if let Some(asm) = a.assemble(set, tag, None) {
                        let ptr = XbPtr::new(ip, Addr::new(0), asm.mask, asm.total_uops as u8);
                        let mut used = BankMask::single(asm.lines[0].0 as usize);
                        let _ = a.fetch_one(&ptr, &mut used);
                    }
                }
                5 if !known.is_empty() => {
                    // Set search must agree with the reference assembly:
                    // the repaired mask is the banks of the entry window's
                    // lines, or None when the window cannot be covered.
                    let (ip, _) = known[rng.below(known.len() as u64) as usize];
                    let (set, tag) = a.set_and_tag(ip);
                    let offset = 1 + rng.below(width as u64) as u8;
                    let expected = a.assemble_reference(set, tag, None).and_then(|asm| {
                        if asm.total_uops < offset as usize {
                            return None;
                        }
                        let needed = (offset as usize).div_ceil(a.line_uops());
                        let mut m = BankMask::EMPTY;
                        for &(bank, _) in &asm.lines[..needed] {
                            m.insert(bank as usize);
                        }
                        Some(m)
                    });
                    assert_eq!(
                        a.set_search(ip, offset),
                        expected,
                        "set_search diverged from the reference at seed {seed} step {step}"
                    );
                }
                _ => {}
            }

            // Probe a few (set, tag, mask) points: mostly live tags, some
            // misses, with and without a bank-mask restriction.
            for probe in 0..4 {
                let ip = if known.is_empty() || rng.below(4) == 0 {
                    ip_of(&mut rng)
                } else {
                    known[rng.below(known.len() as u64) as usize].0
                };
                let (set, tag) = a.set_and_tag(ip);
                let within = if rng.below(3) == 0 {
                    None
                } else {
                    let mut m = BankMask::EMPTY;
                    for bank in 0..a.banks() {
                        if rng.below(2) == 0 {
                            m.insert(bank);
                        }
                    }
                    Some(m)
                };
                let reference = a.assemble_reference(set, tag, within);
                let fast = a.assemble(set, tag, within);
                assert_eq!(
                    fast, reference,
                    "divergence at seed {seed} step {step} probe {probe} \
                     (set {set}, tag {tag:#x}, within {within:?}; {} uops, {}x{}x{})",
                    cfg.total_uops, cfg.banks, cfg.ways, cfg.line_uops
                );
            }
        }
    }
}
