//! Scheduler determinism on a real workload: the restore-aware campaign
//! scheduler must classify every fault identically no matter how many
//! workers run it, or whether checkpoints are used at all — scheduling
//! decides *who* simulates a fault and *when*, never what it computes.

use merlin_cpu::{CheckpointPolicy, CpuConfig, Structure};
use merlin_inject::Session;
use merlin_workloads::workload_by_name;

fn session(threads: usize) -> Session {
    let w = workload_by_name("stringsearch").unwrap();
    let cfg = CpuConfig::default().with_phys_regs(64);
    Session::builder(&w.program, &cfg)
        .checkpoints(CheckpointPolicy::with_target(12))
        .max_cycles(100_000_000)
        .threads(threads)
        .build()
        .unwrap()
}

#[test]
fn classifications_are_identical_across_workers() {
    let sequential = session(1);
    let faults = sequential
        .fault_list(Structure::RegisterFile, 250, 2017)
        .unwrap();
    let seq = sequential.campaign(&faults).unwrap();
    assert_eq!(seq.classification.total(), 250);
    assert!(seq.schedule.ranges > 1, "campaign must bucket into ranges");
    assert!(seq.schedule.restores > 0);

    // Same outcomes at every worker count.
    for threads in [2, 8] {
        let par = session(threads).campaign(&faults).unwrap();
        assert_eq!(seq.outcomes, par.outcomes, "x{threads}");
        assert_eq!(seq.classification, par.classification);
    }

    // Same outcomes as simulating every fault from cycle 0.
    let scratch = sequential.campaign_from_scratch(&faults).unwrap();
    assert_eq!(seq.outcomes, scratch.outcomes, "vs scratch");
    assert_eq!(scratch.schedule.restores, 0);
    assert!(
        seq.schedule.suffix_cycles < scratch.schedule.suffix_cycles / 2,
        "restoring must cut simulated cycles well below from-scratch \
         ({} vs {})",
        seq.schedule.suffix_cycles,
        scratch.schedule.suffix_cycles
    );
}

#[test]
fn checkpoint_placement_keeps_the_cycle_zero_snapshot() {
    // Thinning runs many rounds on a real workload and must never drop the
    // cycle-0 snapshot: campaigns restore every fault before the first
    // later checkpoint from it.
    let s = session(1);
    s.golden().unwrap();
    let ckpts = s.golden_checkpoints().expect("the golden run is built");
    assert!(ckpts.store.starts_at_reset());
    let cycles: Vec<u64> = ckpts.store.cycles().collect();
    assert_eq!(cycles[0], 0);
    assert!(cycles.windows(2).all(|w| w[0] < w[1]));
    // The spacing is dense early: the first range is no wider than the
    // last.
    assert!(
        cycles.len() >= 4,
        "expected a thinned store, got {cycles:?}"
    );
    let first = cycles[1] - cycles[0];
    let last = cycles[cycles.len() - 1] - cycles[cycles.len() - 2];
    assert!(
        first <= last,
        "expected dense-early spacing, got first {first} vs last {last} ({cycles:?})"
    );
}
