//! Regenerates the aggregate claims of paper §4 / §5 in one run:
//!
//! * the XBC matches TC bandwidth (Figure 8's takeaway),
//! * the XBC reduces misses at every size (Figure 9's takeaway, paper ~29%),
//! * the TC needs substantially more capacity (>50% in the paper) to
//!   match the XBC hit rate,
//! * the XBC is (nearly) redundancy free.
//!
//! ```text
//! cargo run --release -p xbc-bench --bin summary [-- --inst N]
//! ```

use xbc::{XbcConfig, XbcFrontend};
use xbc_frontend::Frontend;
use xbc_sim::{average_bandwidth, average_miss_rate, FrontendSpec, HarnessArgs, Row};

const SIZES: [usize; 4] = [4096, 8192, 16384, 32768];

fn main() {
    let args = HarnessArgs::from_env();
    let mut frontends = vec![FrontendSpec::Ic];
    for &s in &SIZES {
        frontends.push(FrontendSpec::Tc { total_uops: s, ways: 4 });
        frontends.push(FrontendSpec::Xbc { total_uops: s, ways: 2, promotion: true });
    }
    let rows = args.run_sweep(frontends);
    let by = |spec: FrontendSpec| -> Vec<Row> {
        rows.iter().filter(|r| r.frontend == spec).cloned().collect()
    };

    println!(
        "== XBC reproduction summary ({} traces x {} insts) ==",
        args.traces.len(),
        args.insts
    );
    println!();
    println!("[1] miss-rate reduction vs TC at equal size (paper: ~29% at all sizes)");
    for &s in &SIZES {
        let tc = average_miss_rate(&by(FrontendSpec::Tc { total_uops: s, ways: 4 }));
        let xbc =
            average_miss_rate(&by(FrontendSpec::Xbc { total_uops: s, ways: 2, promotion: true }));
        println!(
            "    {:>3}K uops: tc {:>5.2}%  xbc {:>5.2}%  reduction {:>5.1}%",
            s / 1024,
            100.0 * tc,
            100.0 * xbc,
            100.0 * (1.0 - xbc / tc)
        );
    }
    println!();
    println!("[2] bandwidth at 32K uops (paper: negligible difference)");
    let bt = average_bandwidth(&by(FrontendSpec::tc_default()));
    let bx = average_bandwidth(&by(FrontendSpec::xbc_default()));
    println!("    tc {bt:.2} uops/cyc, xbc {bx:.2} uops/cyc ({:+.1}%)", 100.0 * (bx - bt) / bt);
    println!();
    println!("[3] capacity for TC to match XBC (paper: >50% more)");
    for (i, &s) in SIZES.iter().enumerate() {
        let xbc =
            average_miss_rate(&by(FrontendSpec::Xbc { total_uops: s, ways: 2, promotion: true }));
        let needed = SIZES[i..]
            .iter()
            .find(|&&ts| {
                average_miss_rate(&by(FrontendSpec::Tc { total_uops: ts, ways: 4 })) <= xbc
            })
            .copied();
        match needed {
            Some(ts) if ts == s => {
                println!("    xbc@{}K matched by tc@{}K (1x)", s / 1024, ts / 1024)
            }
            Some(ts) => println!("    xbc@{}K needs tc@{}K ({}x)", s / 1024, ts / 1024, ts / s),
            None => println!("    xbc@{}K not matched by any swept TC size", s / 1024),
        }
    }
    println!();
    println!("[4] redundancy audit (paper: the XBC is nearly redundancy free)");
    let spec = &args.traces[0];
    let trace = match args.open_store() {
        Some(store) => store.get_or_capture(spec, args.insts.min(200_000)),
        None => std::sync::Arc::new(spec.capture(args.insts.min(200_000))),
    };
    let mut fe = XbcFrontend::new(XbcConfig::default());
    fe.run(&trace);
    let (total, distinct) = fe.array().redundancy();
    println!(
        "    {} stored uop slots, {} distinct uops: {:.2}% duplicated ({})",
        total,
        distinct,
        100.0 * (total - distinct) as f64 / total.max(1) as f64,
        spec.name
    );
    args.maybe_dump_json(&rows);
}
