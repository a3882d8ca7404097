//! Criterion benchmark: the checkpoint-and-restore injection engine against
//! from-scratch simulation, on a MiBench workload and a SPEC-analog
//! workload.  The measured speedup is the wall-clock realisation of turning
//! per-fault cost from O(program length) into O(post-injection suffix).
//!
//! Besides the criterion report, the benchmark writes
//! `BENCH_CHECKPOINTING.json` at the workspace root so three axes are
//! tracked across revisions:
//!
//! * **throughput** — from-scratch vs checkpointed campaign wall time
//!   (`from_scratch_s` / `batched_s`), plus the scheduler's own accounting
//!   (`restores`, `range_steals`, `suffix_cycles`, `golden_replay_cycles`,
//!   the dead-site and fork counters);
//! * **store footprint** — delta-encoded vs dense snapshot bytes;
//! * **tail latency** — per-fault wall time and simulated cycles on the
//!   default store (`p95_fault_s`, `p95_fault_cycles`, `mean_fault_cycles`);
//! * **hot-loop cost** — restores and the bytes they made equal to the
//!   checkpoint (`restores` / `restored_bytes`, per structure in
//!   `restored_bytes_by_structure`), plus a decode microbenchmark comparing per-fetch cracking against
//!   copying from the shared pre-decoded arena (`decode_ns_per_uop` /
//!   `predecoded_ns_per_uop`);
//! * **sparse store** — the same engine over a sparse
//!   [`SPARSE_TARGET`]-checkpoint store (`sparse_*`), where each range's
//!   golden prefix replay is long; outcomes are asserted byte-identical to
//!   from-scratch simulation on both stores.

use criterion::{criterion_group, criterion_main, Criterion};
use merlin_cpu::{CpuConfig, Structure};
use merlin_inject::{CampaignResult, CheckpointPolicy, Session};
use merlin_isa::{decode, DecodedProgram, Program, Rip};
use merlin_workloads::workload_by_name;
use std::hint::black_box;
use std::time::Instant;

const FAULTS: usize = 200;
/// Checkpoint target for the sparse-store run: a store configuration where
/// checkpoint memory is tight and each range's golden prefix replay is long.
const SPARSE_TARGET: u32 = 6;
/// Fault-list size for the per-fault latency distribution: larger than the
/// campaign list so the p95 order statistic is stable.
const LATENCY_FAULTS: usize = 500;
const THREADS: usize = 4;
/// Wall-time samples per fault for the latency percentile (the minimum is
/// kept, suppressing scheduler noise).
const LATENCY_REPS: usize = 5;

struct Prepared {
    /// The dense default store.
    session: Session,
    /// Sparse [`SPARSE_TARGET`]-checkpoint store.
    session_sparse: Session,
    faults: Vec<merlin_cpu::FaultSpec>,
}

fn prepare(name: &'static str) -> Prepared {
    let workload = workload_by_name(name).expect("workload exists");
    let cfg = CpuConfig::default().with_phys_regs(64);
    let build = |policy: CheckpointPolicy| {
        let session = Session::builder(&workload.program, &cfg)
            .checkpoints(policy)
            .max_cycles(100_000_000)
            .threads(THREADS)
            .build()
            .unwrap();
        session.golden().unwrap();
        session
    };
    let session = build(CheckpointPolicy::default());
    let session_sparse = build(CheckpointPolicy {
        target_checkpoints: SPARSE_TARGET,
        ..CheckpointPolicy::default()
    });
    let store_len = session.golden_checkpoints().expect("built").store.len();
    assert!(
        store_len >= 8,
        "{name}: expected ≥ 8 checkpoints, got {store_len}"
    );
    let faults = session
        .fault_list(Structure::RegisterFile, FAULTS, 2017)
        .unwrap();
    Prepared {
        session,
        session_sparse,
        faults,
    }
}

/// One timed campaign outside criterion's sampling, for the JSON record
/// (criterion's own samples drive the statistics in the report).
fn timed(run: impl FnOnce() -> CampaignResult) -> (f64, CampaignResult) {
    let t = Instant::now();
    let result = run();
    (t.elapsed().as_secs_f64(), result)
}

/// Index of the 95th-percentile element of an ascending-sorted slice of
/// `len` elements (`len` must be non-zero).
fn p95_index(len: usize) -> usize {
    ((len as f64 * 0.95).ceil() as usize)
        .saturating_sub(1)
        .min(len - 1)
}

/// Per-fault latency distribution of one session: p95 wall seconds (min of
/// [`LATENCY_REPS`] samples per fault) plus p95 and mean simulated cycles
/// (deterministic, noise-free).
struct FaultLatency {
    p95_s: f64,
    p95_cycles: u64,
    mean_cycles: u64,
}

fn fault_latency(session: &Session, faults: &[merlin_cpu::FaultSpec]) -> FaultLatency {
    let mut injector = session.injector().unwrap();
    let mut seconds = Vec::with_capacity(faults.len());
    let mut cycles = Vec::with_capacity(faults.len());
    for &fault in faults {
        let mut best = f64::INFINITY;
        let mut simulated = 0u64;
        for _ in 0..LATENCY_REPS {
            let t = Instant::now();
            let (_, c) = injector.run_with_cycles(fault);
            best = best.min(t.elapsed().as_secs_f64());
            simulated = c;
        }
        seconds.push(best);
        cycles.push(simulated);
    }
    seconds.sort_by(f64::total_cmp);
    cycles.sort_unstable();
    FaultLatency {
        p95_s: seconds[p95_index(seconds.len())],
        p95_cycles: cycles[p95_index(cycles.len())],
        mean_cycles: cycles.iter().sum::<u64>() / cycles.len() as u64,
    }
}

/// Nanoseconds per micro-op to produce a program's full micro-op stream:
/// cracking per instruction (`decode`, the old per-fetch hot loop, one heap
/// allocation per instruction) vs copying out of the shared pre-decoded
/// arena.  Deterministic work, min-of-reps timing.
fn decode_microbench(program: &Program) -> (f64, f64) {
    let decoded = DecodedProgram::new(program);
    let n_uops = decoded.num_uops().max(1);
    const REPS: usize = 50;
    let mut decode_ns = f64::INFINITY;
    let mut predecoded_ns = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for (rip, inst) in program.instructions.iter().enumerate() {
            black_box(decode(rip as Rip, inst));
        }
        decode_ns = decode_ns.min(t.elapsed().as_nanos() as f64 / n_uops as f64);

        let mut sink = 0u64;
        let t = Instant::now();
        for rip in 0..program.len() {
            for &u in decoded.uops(rip as Rip) {
                sink ^= u64::from(u.rip) ^ u.imm as u64;
            }
        }
        predecoded_ns = predecoded_ns.min(t.elapsed().as_nanos() as f64 / n_uops as f64);
        black_box(sink);
    }
    (decode_ns, predecoded_ns)
}

fn checkpointing(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpointing");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    let mut json_rows = Vec::new();
    for name in ["stringsearch", "mcf"] {
        let p = prepare(name);
        group.bench_function(format!("from_scratch/{name}"), |b| {
            b.iter(|| p.session.campaign_from_scratch(&p.faults).unwrap())
        });
        group.bench_function(format!("batched/{name}"), |b| {
            b.iter(|| p.session.campaign(&p.faults).unwrap())
        });
        let (scratch_s, scratch) = timed(|| p.session.campaign_from_scratch(&p.faults).unwrap());
        let (batched_s, result) = timed(|| p.session.campaign(&p.faults).unwrap());
        let (sparse_s, sparse) = timed(|| p.session_sparse.campaign(&p.faults).unwrap());
        // Outcomes are byte-identical to from-scratch simulation on both
        // stores: the checkpoint budget, like the thread count, is
        // execution-only.
        assert_eq!(result.outcomes, scratch.outcomes, "{name}: dense store");
        assert_eq!(sparse.outcomes, scratch.outcomes, "{name}: sparse store");
        let batched_speedup = scratch_s / batched_s;
        let sched = result.schedule;
        let ssched = sparse.schedule;
        let sparse_checkpoints = p.session_sparse.golden_checkpoints().unwrap().store.len();
        let store = &p.session.golden_checkpoints().unwrap().store;
        let checkpoints = store.len();
        // Store size with delta memory snapshots vs what the dense
        // representation would occupy — the second axis (besides speedup)
        // the engine is tracked on.
        let footprint = store.footprint_bytes();
        let dense_footprint = store.dense_footprint_bytes();
        let shrink = dense_footprint as f64 / footprint.max(1) as f64;
        // Tail latency over a larger fault list, so the p95 order statistic
        // is stable.
        let latency_faults = p
            .session
            .fault_list(Structure::RegisterFile, LATENCY_FAULTS, 2017)
            .unwrap();
        let lat = fault_latency(&p.session, &latency_faults);
        let (decode_ns, predecoded_ns) = decode_microbench(p.session.program());
        println!(
            "checkpointing/{name}: {FAULTS} faults, {checkpoints} checkpoints, \
             from-scratch {scratch_s:.3}s vs batched {batched_s:.3}s -> {batched_speedup:.2}x, \
             {} suffix cycles + {} golden replay cycles, {} dead sites, \
             {} forks spawned ({} probe-retired), \
             CoW forks copied {} B ({} B shared, {} breaks), \
             sparse store ({sparse_checkpoints} checkpoints): {sparse_s:.3}s, \
             {} suffix cycles + {} golden replay cycles, \
             store {footprint} B delta vs {dense_footprint} B dense -> {shrink:.2}x smaller, \
             {} restores ({} B restored), \
             {} range steals, {} range splits, {} statically pruned, \
             p95/fault {:.2} ms (p95 {} cycles, mean {} cycles), \
             decode {decode_ns:.1} ns/uop vs predecoded {predecoded_ns:.1} ns/uop",
            sched.suffix_cycles,
            sched.golden_replay_cycles,
            sched.dead_sites,
            sched.forks_spawned,
            sched.forks_retired,
            sched.fork_bytes_copied,
            sched.fork_bytes_shared,
            sched.cow_breaks,
            ssched.suffix_cycles,
            ssched.golden_replay_cycles,
            sched.restores,
            sched.restored_bytes,
            sched.range_steals,
            sched.range_splits,
            sched.static_prunes,
            1e3 * lat.p95_s,
            lat.p95_cycles,
            lat.mean_cycles,
        );
        json_rows.push(format!(
            "  {{\"workload\": \"{name}\", \"faults\": {FAULTS}, \
             \"golden_cycles\": {}, \"checkpoints\": {checkpoints}, \
             \"from_scratch_s\": {scratch_s:.6}, \"footprint_bytes\": {footprint}, \
             \"dense_footprint_bytes\": {dense_footprint}, \
             \"footprint_shrink\": {shrink:.3}, \
             \"ranges\": {}, \"restores\": {}, \"range_steals\": {}, \
             \"range_splits\": {}, \
             \"restored_bytes\": {}, \
             \"restored_bytes_by_structure\": {{\
             \"memory\": {}, \"caches\": {}, \"regfile\": {}, \"rename\": {}, \
             \"fetch\": {}, \"rob\": {}, \"lsq\": {}, \"predictor\": {}}}, \
             \"suffix_cycles\": {}, \"static_prunes\": {}, \
             \"batched_s\": {batched_s:.6}, \
             \"batched_speedup\": {batched_speedup:.3}, \
             \"golden_replay_cycles\": {}, \
             \"dead_sites\": {}, \"forks_spawned\": {}, \"forks_retired\": {}, \
             \"fork_bytes_copied\": {}, \
             \"fork_bytes_shared\": {}, \"cow_breaks\": {}, \
             \"sparse_checkpoints\": {sparse_checkpoints}, \
             \"sparse_batched_s\": {sparse_s:.6}, \
             \"sparse_batched_suffix_cycles\": {}, \
             \"sparse_golden_replay_cycles\": {}, \
             \"sparse_dead_sites\": {}, \
             \"sparse_forks_spawned\": {}, \
             \"sparse_forks_retired\": {}, \
             \"sparse_fork_bytes_copied\": {}, \
             \"sparse_fork_bytes_shared\": {}, \
             \"sparse_cow_breaks\": {}, \
             \"latency_faults\": {LATENCY_FAULTS}, \
             \"p95_fault_s\": {:.6}, \
             \"p95_fault_cycles\": {}, \
             \"mean_fault_cycles\": {}, \
             \"decode_ns_per_uop\": {decode_ns:.2}, \
             \"predecoded_ns_per_uop\": {predecoded_ns:.2}}}",
            p.session.golden().unwrap().result.cycles,
            sched.ranges,
            sched.restores,
            sched.range_steals,
            sched.range_splits,
            sched.restored_bytes,
            sched.restored_breakdown.memory,
            sched.restored_breakdown.caches,
            sched.restored_breakdown.regfile,
            sched.restored_breakdown.rename,
            sched.restored_breakdown.fetch,
            sched.restored_breakdown.rob,
            sched.restored_breakdown.lsq,
            sched.restored_breakdown.predictor,
            sched.suffix_cycles,
            sched.static_prunes,
            sched.golden_replay_cycles,
            sched.dead_sites,
            sched.forks_spawned,
            sched.forks_retired,
            sched.fork_bytes_copied,
            sched.fork_bytes_shared,
            sched.cow_breaks,
            ssched.suffix_cycles,
            ssched.golden_replay_cycles,
            ssched.dead_sites,
            ssched.forks_spawned,
            ssched.forks_retired,
            ssched.fork_bytes_copied,
            ssched.fork_bytes_shared,
            ssched.cow_breaks,
            lat.p95_s,
            lat.p95_cycles,
            lat.mean_cycles,
        ));
    }
    group.finish();

    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    // The bench runs from the crate directory or the workspace root; write
    // next to the workspace Cargo.toml in either case.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let Err(e) = std::fs::write(root.join("BENCH_CHECKPOINTING.json"), &json) {
        eprintln!("could not write BENCH_CHECKPOINTING.json: {e}");
    }
}

criterion_group!(benches, checkpointing);
criterion_main!(benches);
