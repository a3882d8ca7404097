//! A `.golden` file that decodes cleanly but that the current core does not
//! reproduce is *stale*: it was written by a core whose behaviour has since
//! changed, under a fingerprint that cannot see the change.  Loading it must
//! replay part of it, notice, rename it `<name>.golden.stale`, count it, and
//! rebuild the golden run.
//!
//! The stale file is made without a hook in the core: a golden run persisted
//! under one configuration is relabelled as the artifact of a configuration
//! that differs only in a latency (so every size it decodes against still
//! fits), with the header fingerprint and the checksum trailer forged to
//! match.

use merlin_cpu::{CheckpointPolicy, CpuConfig};
use merlin_inject::artifact::fnv1a_words;
use merlin_inject::{Session, SessionBuilder, SessionCache};
use std::fs;
use std::path::PathBuf;

const ID: &str = "stale";

fn tune(b: SessionBuilder) -> SessionBuilder {
    b.max_cycles(10_000_000).checkpoints(CheckpointPolicy {
        target_checkpoints: 6,
        min_interval: 8,
    })
}

fn with_suffix(path: &std::path::Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

#[test]
fn a_golden_from_another_core_timing_is_quarantined_as_stale() {
    let dir = std::env::temp_dir().join(format!("merlin-golden-stale-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let program = &merlin_workloads::workload_by_name("stringsearch")
        .unwrap()
        .program;
    let written = CpuConfig::default();
    let mut current = written.clone();
    current.mem_latency += 7;

    // The golden run as the "old" core wrote it.
    let old = SessionCache::with_disk_dir(&dir)
        .session(ID, program, &written, tune)
        .unwrap();
    old.golden().unwrap();
    let old_file = dir.join(format!("{ID}-{:016x}.golden", old.fingerprint()));
    let bytes = fs::read(&old_file).unwrap();

    // Relabel it as the current configuration's artifact: fingerprint at
    // bytes 12..20 of the header, checksum recomputed.
    let fingerprint = tune(Session::builder(program, &current)).fingerprint();
    assert_ne!(fingerprint, old.fingerprint());
    let mut forged = bytes[..bytes.len() - 8].to_vec();
    forged[12..20].copy_from_slice(&fingerprint.to_le_bytes());
    let checksum = fnv1a_words(&forged);
    forged.extend_from_slice(&checksum.to_le_bytes());
    let file = dir.join(format!("{ID}-{fingerprint:016x}.golden"));
    fs::write(&file, &forged).unwrap();

    let cache = SessionCache::with_disk_dir(&dir);
    let session = cache.session(ID, program, &current, tune).unwrap();
    let golden = session.golden().unwrap();
    assert_eq!(session.golden_builds(), 1, "the stale file was trusted");
    assert_eq!(cache.artifact_rejects(), 1);
    // It decoded: the replay, not the decoder, rejected it.
    assert!(!with_suffix(&file, ".corrupt").exists());
    assert_eq!(fs::read(with_suffix(&file, ".stale")).unwrap(), forged);
    // The rebuild is the current core's golden run, and was re-persisted.
    let fresh = tune(Session::builder(program, &current)).build().unwrap();
    assert_eq!(golden, fresh.golden().unwrap());
    assert_ne!(golden.result.cycles, old.golden().unwrap().result.cycles);
    let again = SessionCache::with_disk_dir(&dir)
        .session(ID, program, &current, tune)
        .unwrap();
    assert_eq!(again.golden().unwrap(), golden);
    assert_eq!(again.golden_builds(), 0, "the rebuilt file loads");
    assert_eq!(again.artifact_rejects(), 0);
    let _ = fs::remove_dir_all(&dir);
}
