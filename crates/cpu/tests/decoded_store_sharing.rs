//! A checkpoint store decoded from its `binio` bytes shares its predictor
//! and BTB pages between checkpoints at least as much as the store the
//! golden run built, and its shared pages leave restores and convergence
//! probes exact, on every workload under two configurations.

use merlin_cpu::{CheckpointPolicy, CheckpointStore, Cpu, CpuConfig, CpuState, NullProbe};
use merlin_isa::binio::ByteReader;
use merlin_isa::DecodedProgram;
use std::collections::HashSet;

/// Bytes of the distinct predictor and BTB pages the store's checkpoints
/// hold, each shared page counted once.
fn distinct_page_bytes(store: &CheckpointStore) -> usize {
    let mut seen = HashSet::new();
    store
        .snapshots()
        .map(|s| s.unseen_page_bytes(&mut seen))
        .sum()
}

/// Restores `from` into `cpu` and steps it to `to`'s cycle or the run's
/// end.
fn replay(cpu: &mut Cpu, from: &CpuState, to: &CpuState) {
    cpu.restore_from(from);
    while !cpu.is_finished() && cpu.cycle() < to.cycle() {
        cpu.step(&mut NullProbe);
    }
}

#[test]
fn decoded_stores_share_predictor_pages_like_built_ones() {
    let policy = CheckpointPolicy::default();
    let configs = [
        ("default", CpuConfig::default()),
        ("l1d16", CpuConfig::default().with_l1d_kb(16)),
    ];
    for w in merlin_workloads::all_workloads() {
        for (label, cfg) in &configs {
            let id = format!("{} {label}", w.name);
            let mut cpu = Cpu::new(w.program.clone(), cfg.clone()).unwrap();
            let (result, built) = cpu.run_with_adaptive_checkpoints(
                200_000_000,
                &mut NullProbe,
                policy.min_interval,
                policy.target_checkpoints,
            );
            assert!(result.exit.is_halted(), "{id}: {:?}", result.exit);
            let mut bytes = Vec::new();
            built.encode(&mut bytes);
            let mut r = ByteReader::new(&bytes);
            let decoded =
                CheckpointStore::decode(&mut r, &DecodedProgram::new(&w.program)).unwrap();
            assert!(r.is_at_end(), "{id}: trailing bytes");
            assert_eq!(decoded, built, "{id}: decode changed the contents");
            let (shared, own) = (distinct_page_bytes(&decoded), distinct_page_bytes(&built));
            assert!(
                shared <= own,
                "{id}: decoded store holds {shared} distinct predictor/BTB bytes, built {own}"
            );
            assert!(decoded.footprint_bytes() <= built.footprint_bytes(), "{id}");

            let from: Vec<_> = decoded.snapshots().collect();
            let golden: Vec<_> = built.snapshots().collect();
            for k in 0..from.len() - 1 {
                replay(&mut cpu, from[k], from[k + 1]);
                assert!(
                    cpu.matches_state(from[k + 1]),
                    "{id}: checkpoint {k} misses decoded checkpoint {}",
                    k + 1
                );
                assert!(
                    cpu.matches_state(golden[k + 1]),
                    "{id}: checkpoint {k} misses built checkpoint {}",
                    k + 1
                );
            }
        }
    }
}
