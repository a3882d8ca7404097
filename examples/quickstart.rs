//! Quickstart: assess the reliability of the physical register file for one
//! benchmark, first with a small comprehensive injection campaign and then
//! with MeRLiN, and compare cost and accuracy.
//!
//! Run with `cargo run --release --example quickstart`.

use merlin_repro::cpu::{CpuConfig, Structure};
use merlin_repro::inject::{SamplingPlan, Session};
use merlin_repro::{SessionAce, SessionMethodology};

fn main() {
    let workload =
        merlin_repro::workloads::workload_by_name("qsort").expect("qsort is a registered workload");
    let cfg = CpuConfig::default().with_phys_regs(128);
    let structure = Structure::RegisterFile;

    // One session owns the whole study: program, configuration, checkpoint
    // policy.  The golden run is built lazily (exactly once) and every phase
    // below shares it.
    let session = Session::builder(&workload.program, &cfg)
        .max_cycles(100_000_000)
        .threads(4)
        .build()
        .expect("session");

    // Phase 1a: one instrumented run records every vulnerable interval
    // (cached on the session).
    let ace = session.ace_profile().expect("ACE analysis");
    let golden = session.golden().expect("golden run");
    println!(
        "golden run: {} cycles, {} instructions, ACE-like AVF {:.2}%",
        golden.result.cycles,
        golden.result.committed_instructions,
        100.0 * ace.structure(structure).ace_avf()
    );

    // Phase 1b: statistical initial fault list.  The paper uses 60,000
    // faults (99.8% confidence, 0.63% margin); this example uses 1,000 so it
    // finishes in seconds.
    let plan = SamplingPlan::paper_baseline();
    println!(
        "paper-scale sample size for this run would be {} faults",
        plan.sample_size(cfg.register_file_bits() * golden.result.cycles)
    );
    let faults = session
        .fault_list(structure, 1_000, 2017)
        .expect("fault list");

    // Baseline: inject every fault.  The restore-aware scheduler buckets the
    // fault list by checkpoint range and reports how it executed.
    let comprehensive = session.comprehensive(&faults).expect("baseline campaign");
    let sched = &comprehensive.schedule;
    println!(
        "scheduler: {} ranges, {} restores, {} suffix cycles simulated \
         (vs ~{} from scratch)",
        sched.ranges,
        sched.restores,
        sched.suffix_cycles,
        golden.result.cycles * faults.len() as u64,
    );

    // MeRLiN: prune + group + inject representatives only — over the *same*
    // golden run and checkpoint store as the baseline.
    let campaign = session
        .merlin_with_faults(structure, &faults)
        .expect("MeRLiN campaign");
    assert_eq!(session.golden_builds(), 1, "one golden run for everything");

    println!(
        "\ncomprehensive ({} injections): {}",
        faults.len(),
        comprehensive.classification
    );
    println!(
        "MeRLiN        ({} injections): {}",
        campaign.report.injections, campaign.report.classification
    );
    println!(
        "\nspeedup: ACE-like {:.1}x, total {:.1}x; max inaccuracy {:.2} percentile units",
        campaign.report.speedup_ace,
        campaign.report.speedup_total,
        campaign
            .report
            .classification
            .max_inaccuracy(&comprehensive.classification)
    );
}
