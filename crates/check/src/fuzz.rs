//! Seeded fuzz cases: random workload + configuration points, replayed
//! through every frontend under the differential harness.
//!
//! A [`FuzzCase`] is a *complete* description of one run — the workload
//! seed, trace length, XBC configuration knobs, and an optional injected
//! corruption — so a failing case written to disk as JSON replays
//! byte-for-byte deterministically on any machine.

use crate::diff::{DiffHarness, Divergence};
use std::panic::{catch_unwind, AssertUnwindSafe};
use xbc::{PromotionMode, XbcConfig, XbcFrontend};
use xbc_frontend::{
    BbtcConfig, BbtcFrontend, Frontend, FrontendMetrics, IcFrontend, IcFrontendConfig, TcConfig,
    TimingConfig, TraceCacheFrontend, UopCacheConfig, UopCacheFrontend,
};
use xbc_sim::json::Json;
use xbc_workload::{ProgramGenerator, Rng64, Trace, WorkloadProfile};

/// Reproducer format version (bump on incompatible field changes).
const FORMAT_VERSION: u64 = 1;

/// One self-contained fuzz case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Seed for the program generator, executor, and profile derivation.
    pub seed: u64,
    /// Number of functions in the synthetic program.
    pub functions: usize,
    /// Dynamic instructions to capture and replay.
    pub insts: usize,
    /// XBC array capacity in uop slots.
    pub total_uops: usize,
    /// Branch promotion mode: 0 = off, 1 = chain, 2 = merge.
    pub promotion: u8,
    /// XBC set search on XBTB-hit/XBC-miss.
    pub set_search: bool,
    /// XBQ depth in uops (0 disables fetch-ahead).
    pub xbq_depth: usize,
    /// Renamer width in uops/cycle. Mostly realistic widths, but the
    /// pool includes pathological ones past `u16::MAX` — a regression
    /// net for the event-payload narrowing (`delivered as u16` once
    /// silently wrapped counters on such configs).
    pub renamer_width: usize,
    /// Mean instructions between asynchronous interrupts, if any.
    pub interrupts: Option<usize>,
    /// When set, mutate the committed instruction at `corrupt % insts` in
    /// the *subject* trace while the reference stays pristine — an
    /// injected divergence the harness must catch.
    pub corrupt: Option<usize>,
}

impl FuzzCase {
    /// Derives a random (but fully reproducible) case from a seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Rng64::seed_from_u64(seed ^ 0xF0CA_CC1A_0F5E_BA5E);
        let functions = 1 + rng.uniform(48) as usize;
        let insts = 400 + rng.uniform(7600) as usize;
        let pool = capacity_pool();
        let total_uops = pool[rng.uniform(pool.len() as u64) as usize];
        let promotion = rng.uniform(3) as u8;
        let set_search = rng.gen::<bool>();
        let xbq_depth = [0usize, 8, 16, 32][rng.uniform(4) as usize];
        let renamer_width = [4usize, 8, 8, 8, 16, 32, 70_000, 1 << 20][rng.uniform(8) as usize];
        let interrupts =
            if rng.uniform(4) == 0 { Some(100 + rng.uniform(900) as usize) } else { None };
        FuzzCase {
            seed,
            functions,
            insts,
            total_uops,
            promotion,
            set_search,
            xbq_depth,
            renamer_width,
            interrupts,
            corrupt: None,
        }
    }

    /// Serializes the case as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_owned(), |n| n.to_string());
        format!(
            concat!(
                "{{\"version\":{},\"seed\":{},\"functions\":{},\"insts\":{},",
                "\"total_uops\":{},\"promotion\":{},\"set_search\":{},",
                "\"xbq_depth\":{},\"renamer_width\":{},\"interrupts\":{},\"corrupt\":{}}}"
            ),
            FORMAT_VERSION,
            self.seed,
            self.functions,
            self.insts,
            self.total_uops,
            self.promotion,
            self.set_search,
            self.xbq_depth,
            self.renamer_width,
            opt(self.interrupts),
            opt(self.corrupt),
        )
    }

    /// Parses a case previously written by [`FuzzCase::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed or missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let j = Json::parse(text)?;
        let version = j.get("version").and_then(Json::as_u64).ok_or("missing version")?;
        if version != FORMAT_VERSION {
            return Err(format!("unsupported reproducer version {version}"));
        }
        let req = |key: &str| j.get(key).and_then(Json::as_usize).ok_or(format!("missing {key}"));
        let opt = |key: &str| match j.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_usize().map(Some).ok_or(format!("malformed {key}")),
        };
        Ok(FuzzCase {
            seed: j.get("seed").and_then(Json::as_u64).ok_or("missing seed")?,
            functions: req("functions")?,
            insts: req("insts")?,
            total_uops: req("total_uops")?,
            promotion: req("promotion")? as u8,
            set_search: j.get("set_search").and_then(Json::as_bool).ok_or("missing set_search")?,
            xbq_depth: req("xbq_depth")?,
            // Absent in pre-knob reproducers: default to the paper width.
            renamer_width: opt("renamer_width")?.unwrap_or(8),
            interrupts: opt("interrupts")?,
            corrupt: opt("corrupt")?,
        })
    }

    /// The workload profile this case synthesizes. Knobs other than the
    /// function count are themselves seed-derived so cases cover biased /
    /// loopy / indirect-heavy corners of the generator space.
    pub fn profile(&self) -> WorkloadProfile {
        let mut rng = Rng64::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        WorkloadProfile {
            functions: self.functions,
            biased_taken_frac: 0.05 + 0.35 * rng.gen::<f64>(),
            biased_not_taken_frac: 0.05 + 0.2 * rng.gen::<f64>(),
            loop_frac: 0.05 + 0.3 * rng.gen::<f64>(),
            join_bias: 0.5 * rng.gen::<f64>(),
            hot_call_prob: 0.5 + 0.5 * rng.gen::<f64>(),
            indirect_targets_max: 1 + rng.uniform(8) as usize,
            interrupt_interval: self.interrupts,
            ..WorkloadProfile::default()
        }
    }

    /// Captures the (reference, subject) trace pair. They are the same
    /// stream unless [`FuzzCase::corrupt`] is set, in which case one
    /// committed instruction of the subject has its uop count rewritten.
    pub fn traces(&self) -> (Trace, Trace) {
        let profile = self.profile();
        profile.validate();
        let program = ProgramGenerator::new(profile, self.seed).generate();
        let name = format!("fuzz-{:#x}", self.seed);
        let reference =
            Trace::capture_with_options(&name, &program, self.seed, self.insts, 0.85, None);
        let subject = match self.corrupt {
            None => reference.clone(),
            Some(at) => {
                let mut insts = reference.insts().to_vec();
                let i = at % insts.len();
                // Rotate the uop count through 1..=4: always a well-formed
                // instruction, never equal to the original.
                insts[i].inst.uops = (insts[i].inst.uops % 4) + 1;
                Trace::from_parts(&name, insts)
            }
        };
        (reference, subject)
    }

    /// The timing constants every frontend of this case runs with.
    fn timing(&self) -> TimingConfig {
        TimingConfig { renamer_width: self.renamer_width, ..TimingConfig::default() }
    }

    /// The XBC configuration under test.
    pub fn xbc_config(&self) -> XbcConfig {
        XbcConfig {
            total_uops: self.total_uops,
            timing: self.timing(),
            promotion: match self.promotion {
                0 => PromotionMode::Off,
                1 => PromotionMode::Chain,
                _ => PromotionMode::Merge,
            },
            set_search: self.set_search,
            xbq_depth: self.xbq_depth,
            ..XbcConfig::default()
        }
    }

    /// All frontends this case exercises, cold.
    pub fn frontends(&self) -> Vec<Box<dyn Frontend + Send>> {
        vec![
            Box::new(IcFrontend::new(IcFrontendConfig {
                timing: self.timing(),
                ..Default::default()
            })),
            Box::new(UopCacheFrontend::new(UopCacheConfig {
                total_uops: self.total_uops,
                timing: self.timing(),
                ..Default::default()
            })),
            Box::new(TraceCacheFrontend::new(TcConfig {
                total_uops: self.total_uops,
                timing: self.timing(),
                ..Default::default()
            })),
            Box::new(BbtcFrontend::new(BbtcConfig {
                total_uops: self.total_uops,
                timing: self.timing(),
                ..Default::default()
            })),
            Box::new(XbcFrontend::new(self.xbc_config())),
        ]
    }
}

/// The capacities [`FuzzCase::from_seed`] draws from: every multiple of
/// 1024 uops from 2 to 96 KiB that all five frontends accept. That is the
/// range of XBC columns `serve_mix`-style requests ask for, and most of
/// these sizes give set counts that are not a power of two.
fn capacity_pool() -> Vec<usize> {
    (2..=96)
        .map(|kib| kib * 1024)
        .filter(|&total_uops| {
            // The geometry each frontend checks is its default one at
            // `total_uops`, as in [`FuzzCase::frontends`].
            UopCacheConfig { total_uops, ..Default::default() }.check().is_ok()
                && TcConfig { total_uops, ..Default::default() }.check().is_ok()
                && BbtcConfig { total_uops, ..Default::default() }.check().is_ok()
                && XbcConfig { total_uops, ..XbcConfig::default() }.check().is_ok()
        })
        .collect()
}

/// How a fuzz case failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// The harness caught a divergence.
    Divergence(Divergence),
    /// A frontend panicked; the payload names the frontend and message.
    Panic {
        /// Which frontend panicked.
        frontend: String,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Divergence(d) => write!(f, "{d}"),
            Failure::Panic { frontend, message } => {
                write!(f, "panic in `{frontend}`: {message}")
            }
        }
    }
}

/// Runs one case through every frontend under the differential harness.
///
/// A frontend panic is caught and reported as [`Failure::Panic`] rather
/// than aborting the campaign — for a fuzzer, a panic *is* a finding.
///
/// # Errors
///
/// Returns the first [`Failure`] across the frontends.
pub fn run_case(case: &FuzzCase) -> Result<Vec<(String, FrontendMetrics)>, Failure> {
    let (reference, subject) = case.traces();
    let harness = DiffHarness::new();
    let mut results = Vec::new();
    for mut fe in case.frontends() {
        let name = fe.name().to_owned();
        let run = catch_unwind(AssertUnwindSafe(|| harness.run(&mut *fe, &subject, &reference)));
        match run {
            Ok(Ok(metrics)) => results.push((name, metrics)),
            Ok(Err(div)) => return Err(Failure::Divergence(div)),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>")
                    .to_owned();
                return Err(Failure::Panic { frontend: name, message });
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_pool_reaches_sets_that_are_not_powers_of_two() {
        let pool = capacity_pool();
        assert!(pool.contains(&(3 * 1024)) && pool.contains(&(96 * 1024)), "pool {pool:?}");
        let sets = |n| XbcConfig { total_uops: n, ..XbcConfig::default() }.sets();
        assert!(pool.iter().filter(|&&n| !sets(n).is_power_of_two()).count() > pool.len() / 2);
        let drawn: std::collections::HashSet<usize> =
            (0..400).map(|seed| FuzzCase::from_seed(seed).total_uops).collect();
        assert!(drawn.len() > 40, "only {} capacities drawn", drawn.len());
    }

    #[test]
    fn json_roundtrip() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut case = FuzzCase::from_seed(seed);
            case.corrupt = if seed % 2 == 0 { Some(17) } else { None };
            let back = FuzzCase::from_json(&case.to_json()).unwrap();
            assert_eq!(back, case);
        }
        assert!(FuzzCase::from_json("{\"version\":99}").is_err());
        assert!(FuzzCase::from_json("{}").is_err());
        assert!(FuzzCase::from_json("not json").is_err());
    }

    #[test]
    fn corruption_changes_exactly_one_inst() {
        let case = FuzzCase { insts: 500, corrupt: Some(1234), ..FuzzCase::from_seed(7) };
        let (reference, subject) = case.traces();
        let diffs = reference.insts().iter().zip(subject.insts()).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        assert_ne!(reference.uop_count(), subject.uop_count());
    }

    #[test]
    fn clean_case_passes_all_frontends() {
        let case = FuzzCase { insts: 1500, functions: 6, ..FuzzCase::from_seed(3) };
        let results = run_case(&case).unwrap_or_else(|f| panic!("unexpected failure: {f}"));
        assert_eq!(results.len(), 5);
        let (ref_trace, _) = case.traces();
        for (name, m) in &results {
            assert_eq!(m.total_uops(), ref_trace.uop_count(), "uop count for {name}");
        }
    }

    #[test]
    fn pathological_renamer_width_does_not_wrap_counters() {
        // Widths past u16::MAX once wrapped the `Event::Uops` payload
        // (`delivered as u16`), silently corrupting delivered-uop
        // counters. With the saturating narrowing every frontend must
        // still account for each uop exactly once.
        let case =
            FuzzCase { insts: 1200, functions: 5, renamer_width: 70_000, ..FuzzCase::from_seed(5) };
        assert!(case.renamer_width > u16::MAX as usize);
        let results = run_case(&case).unwrap_or_else(|f| panic!("unexpected failure: {f}"));
        let (ref_trace, _) = case.traces();
        for (name, m) in &results {
            assert_eq!(m.total_uops(), ref_trace.uop_count(), "uop count for {name}");
        }
    }

    #[test]
    fn corrupted_case_fails() {
        let case =
            FuzzCase { insts: 1000, functions: 4, corrupt: Some(500), ..FuzzCase::from_seed(11) };
        let failure = run_case(&case).expect_err("corruption must be detected");
        let text = failure.to_string();
        assert!(text.contains("divergence") || text.contains("panic"), "got: {text}");
    }
}
