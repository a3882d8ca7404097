//! Property: corrupting a persisted `.golden` artifact — flipping any single
//! byte or truncating it at any length — never panics the loader, never
//! decodes into a *different* golden run, and always lands in one of two
//! benign buckets:
//!
//! * a **checksum/decode reject**: the file is quarantined to
//!   `<name>.golden.corrupt`, counted in `artifact_rejects`, and the golden
//!   run is transparently rebuilt;
//! * a **silent cache miss** (magic/version/fingerprint/EOF miss): the file
//!   is left in place, nothing is counted, and the run is rebuilt.
//!
//! Either way the session must hand back a golden run identical to the
//! pristine one and `golden_builds() == 1` must hold — proof the corrupt
//! bytes were never trusted.

use merlin_cpu::{CheckpointPolicy, CheckpointStore, CpuConfig, FaultSpec, Structure};
use merlin_inject::chaos;
use merlin_inject::{GoldenRun, SessionCache, GOLDEN};
use merlin_isa::binio::ByteReader;
use merlin_isa::{DecodedProgram, Program};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn program() -> Program {
    merlin_workloads::workload_by_name("stringsearch")
        .unwrap()
        .program
        .clone()
}

fn build_session(dir: &Path) -> (SessionCache, std::sync::Arc<merlin_inject::Session>) {
    let cache = SessionCache::with_disk_dir(dir);
    let session = cache
        .session("corrupt-prop", &program(), &CpuConfig::default(), |b| {
            b.max_cycles(10_000_000).checkpoints(CheckpointPolicy {
                target_checkpoints: 6,
                min_interval: 8,
            })
        })
        .unwrap();
    (cache, session)
}

struct Pristine {
    dir: PathBuf,
    path: PathBuf,
    bytes: Vec<u8>,
    golden: GoldenRun,
}

/// Builds the pristine artifact exactly once for the whole property run.
fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let dir =
            std::env::temp_dir().join(format!("merlin-golden-corruption-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (cache, session) = build_session(&dir);
        let golden = session.golden().unwrap().clone();
        assert_eq!(session.golden_builds(), 1);
        assert_eq!(cache.artifact_rejects(), 0);
        let path = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "golden"))
            .expect("the cache persisted exactly one .golden file");
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.len() > 28, "header + payload + checksum trailer");
        Pristine {
            dir,
            path,
            bytes,
            golden,
        }
    })
}

fn corrupt_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".corrupt");
    PathBuf::from(os)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_flip_or_truncation_is_rejected_or_missed_never_trusted(
        mode in 0usize..2,
        sel in 0usize..1_000_000,
    ) {
        let p = pristine();
        let quarantine = corrupt_path(&p.path);
        let _ = fs::remove_file(&quarantine);
        fs::write(&p.path, &p.bytes).unwrap();

        let corrupted = if mode == 0 {
            let offset = sel % p.bytes.len();
            chaos::flip_byte(&p.path, offset).unwrap();
            let mut b = p.bytes.clone();
            b[offset] ^= 0x01;
            b
        } else {
            // Strictly shrinking: truncating to the full length is a no-op.
            let len = sel % p.bytes.len();
            chaos::truncate_file(&p.path, len).unwrap();
            p.bytes[..len].to_vec()
        };
        prop_assert_ne!(&corrupted, &p.bytes);

        // A fresh cache must survive the corrupted artifact: same golden
        // run, built exactly once, corrupt bytes never decoded.
        let (cache, session) = build_session(&p.dir);
        let reloaded = session.golden().unwrap();
        prop_assert_eq!(reloaded, &p.golden);
        prop_assert_eq!(session.golden_builds(), 1);

        let rejects = cache.artifact_rejects();
        prop_assert!(rejects <= 1);
        if rejects == 1 {
            // Checksum/decode reject: quarantined byte-for-byte.
            prop_assert_eq!(fs::read(&quarantine).unwrap(), corrupted);
        } else {
            // Header/EOF miss: never quarantined (the rebuild re-persists
            // over the unrecognised file).
            prop_assert!(!quarantine.exists());
        }
        let _ = fs::remove_file(&quarantine);
    }
}

/// A broken writer, not a flipped bit: the L1D liveness log at the end of
/// the payload is malformed, and the checksum is recomputed over it, so
/// only the log decoder's validation stands between the bytes and a
/// campaign.  Each tampered file must be quarantined and the golden run
/// rebuilt.
#[test]
fn a_tampered_log_behind_a_valid_checksum_is_quarantined() {
    let p = pristine();
    let l1d = &p.golden.checkpoints.l1d;
    assert!(l1d.span_count() > 0, "the workload reads the L1D");
    // Layout of the log section: offsets (u64 length, u32 per word plus
    // one), then spans (u64 length, two u64 per span), then the checksum.
    let payload_end = p.bytes.len() - 8;
    let log_len = 8 + 4 * (l1d.words() + 1) + 8 + 16 * l1d.span_count();
    let log_start = payload_end - log_len;
    let len_at = |at: usize| u64::from_le_bytes(p.bytes[at..at + 8].try_into().unwrap());
    assert_eq!(len_at(log_start), l1d.words() as u64 + 1);
    assert_eq!(
        len_at(payload_end - 16 * l1d.span_count() - 8),
        l1d.span_count() as u64
    );
    let tampers: [(&str, usize, Vec<u8>); 2] = [
        // The second offset jumps past the span count.
        (
            "offsets",
            log_start + 8 + 4,
            u32::MAX.to_le_bytes().to_vec(),
        ),
        // The last span's `lo` exceeds its `hi`.
        ("span", payload_end - 16, u64::MAX.to_le_bytes().to_vec()),
    ];
    // A directory of its own: the property above rewrites the pristine
    // path concurrently.
    let dir = p.dir.with_extension("log");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(p.path.file_name().unwrap());
    let quarantine = corrupt_path(&path);
    for (what, at, patch) in tampers {
        let _ = fs::remove_file(&quarantine);
        let mut bytes = p.bytes[..payload_end].to_vec();
        bytes[at..at + patch.len()].copy_from_slice(&patch);
        let checksum = (GOLDEN.checksum)(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let (cache, session) = build_session(&dir);
        assert_eq!(session.golden().unwrap(), &p.golden, "{what}");
        assert_eq!(session.golden_builds(), 1, "{what}: tampered log used");
        assert_eq!(cache.artifact_rejects(), 1, "{what}");
        assert_eq!(fs::read(&quarantine).unwrap(), bytes, "{what}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A store that cannot serve cycle 0, behind a valid checksum: the
/// pristine store without its cycle-0 snapshot.  Every snapshot decodes and
/// fits the context, so only the load-time check that a store starts at
/// reset stands between it and a campaign, whose faults before the first
/// remaining checkpoint would have no restore point.  The file must be
/// quarantined and counted, and the rebuilt session must classify like
/// from-scratch simulation.
#[test]
fn a_store_that_cannot_serve_cycle_zero_is_quarantined() {
    let p = pristine();
    let ck = &p.golden.checkpoints;
    // Layout of the payload's tail: store, L1D log, checksum.
    let payload_end = p.bytes.len() - 8;
    let log_len = 8 + 4 * (ck.l1d.words() + 1) + 8 + 16 * ck.l1d.span_count();
    let mut store_bytes = Vec::new();
    ck.store.encode(&mut store_bytes);
    let store_end = payload_end - log_len;
    let store_start = store_end - store_bytes.len();
    assert_eq!(&p.bytes[store_start..store_end], &store_bytes[..]);
    // Store encoding: snapshot count (u64), snapshots.
    let first = ck.store.snapshots().next().unwrap();
    assert_eq!(first.cycle(), 0);
    let mut first_bytes = Vec::new();
    first.encode(&mut first_bytes);
    let mut late = (ck.store.len() as u64 - 1).to_le_bytes().to_vec();
    late.extend_from_slice(&store_bytes[8 + first_bytes.len()..]);
    let decoded = DecodedProgram::new(&program());
    let late_store = CheckpointStore::decode(&mut ByteReader::new(&late), &decoded).unwrap();
    assert!(!late_store.starts_at_reset());
    let second = late_store.cycles().next().unwrap();
    assert!(second > 2, "the first remaining checkpoint is past cycle 2");

    let mut bytes = p.bytes[..store_start].to_vec();
    bytes.extend_from_slice(&late);
    bytes.extend_from_slice(&p.bytes[store_end..payload_end]);
    let checksum = (GOLDEN.checksum)(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    // A directory of its own: the property above rewrites the pristine
    // path concurrently.
    let dir = p.dir.with_extension("late");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(p.path.file_name().unwrap());
    fs::write(&path, &bytes).unwrap();

    let (cache, session) = build_session(&dir);
    assert_eq!(session.golden().unwrap(), &p.golden);
    assert_eq!(session.golden_builds(), 1, "the late store was used");
    assert_eq!(cache.artifact_rejects(), 1);
    assert_eq!(fs::read(corrupt_path(&path)).unwrap(), bytes);
    // Faults before the late store's first checkpoint included.
    let mut faults = session
        .fault_list(Structure::RegisterFile, 40, 2017)
        .unwrap();
    faults.extend((0..8).map(|e| FaultSpec::new(Structure::RegisterFile, e, 3, 2)));
    let campaign = session.campaign(&faults).unwrap();
    let scratch = session.campaign_from_scratch(&faults).unwrap();
    assert_eq!(campaign.outcomes, scratch.outcomes);
    assert_eq!(campaign.schedule.asserts, scratch.schedule.asserts);
    let _ = fs::remove_dir_all(&dir);
}

/// A broken writer's micro-op, behind a valid checksum: one fetch-buffer
/// entry of a checkpoint that no load-time replay restores or ends at names
/// an instruction past the program text, or a micro-op past its
/// instruction's last.  Only the decode's lookup of each `(rip, upc)` name
/// in the session's decoded program stands between it and a campaign
/// worker that restores that checkpoint.  Each forged file must be
/// quarantined and counted, the golden run rebuilt, and the campaign must
/// classify like from-scratch simulation.
#[test]
fn a_micro_op_the_program_lacks_is_quarantined() {
    let p = pristine();
    let ck = &p.golden.checkpoints;
    let program = program();
    let decoded = DecodedProgram::new(&program);
    // Layout of the payload's tail: store, L1D log, checksum; the store is
    // its snapshot count (u64) and the snapshots.
    let payload_end = p.bytes.len() - 8;
    let log_len = 8 + 4 * (ck.l1d.words() + 1) + 8 + 16 * ck.l1d.span_count();
    let mut store_bytes = Vec::new();
    ck.store.encode(&mut store_bytes);
    let store_start = payload_end - log_len - store_bytes.len();
    let mut starts = Vec::new();
    let mut at = store_start + 8;
    for s in ck.store.snapshots() {
        starts.push(at);
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        at += bytes.len();
    }
    assert_eq!(at, payload_end - log_len);
    let word = |at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&p.bytes[at..at + n]);
        u64::from_le_bytes(le)
    };
    // The load replays restore checkpoints 0, `k` and the last and compare
    // against 1 and `k + 1`, where `k` is the fingerprint (the header's
    // word after the magic and the version) modulo the last index; forge
    // a checkpoint they never touch.
    let last = ck.store.len() - 1;
    let k = (word(8 + 4, 8) % last as u64) as usize;
    // Snapshot encoding: cycle (u64), next sequence number (u64), fetch PC
    // (u32), two fetch flags (bool), the fetch buffer's length (u64), then
    // each entry as rip (u32), upc (u8), predicted next RIP (u32).
    let (fetch_len_at, rip_at) = (8 + 8 + 4 + 1 + 1, 8 + 8 + 4 + 1 + 1 + 8);
    let target = (2..last)
        .filter(|&i| ![k, k + 1].contains(&i))
        .find(|&i| word(starts[i] + fetch_len_at, 8) > 0)
        .expect("a checkpoint off the replays with a fetched micro-op");
    let entry = starts[target] + rip_at;
    let rip = word(entry, 4) as u32;
    let upc = word(entry + 4, 1) as u8;
    assert!(decoded.uop(rip, upc).is_ok(), "the layout names a micro-op");
    let forgeries: [(&str, usize, Vec<u8>); 2] = [
        (
            "rip past the text",
            entry,
            (program.len() as u32).to_le_bytes().to_vec(),
        ),
        (
            "upc past the instruction",
            entry + 4,
            vec![decoded.uops(rip).len() as u8],
        ),
    ];
    // A directory of its own: the property above rewrites the pristine
    // path concurrently.
    let dir = p.dir.with_extension("uop");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(p.path.file_name().unwrap());
    let quarantine = corrupt_path(&path);
    for (what, at, patch) in forgeries {
        let _ = fs::remove_file(&quarantine);
        let mut bytes = p.bytes[..payload_end].to_vec();
        bytes[at..at + patch.len()].copy_from_slice(&patch);
        let checksum = (GOLDEN.checksum)(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let (cache, session) = build_session(&dir);
        assert_eq!(session.golden().unwrap(), &p.golden, "{what}");
        assert_eq!(session.golden_builds(), 1, "{what}: forged store used");
        assert_eq!(cache.artifact_rejects(), 1, "{what}");
        assert_eq!(fs::read(&quarantine).unwrap(), bytes, "{what}");
        // Faults in the forged checkpoint's range included.
        let cycle = ck.store.snapshots().nth(target).unwrap().cycle();
        let mut faults = session
            .fault_list(Structure::RegisterFile, 40, 2017)
            .unwrap();
        faults.extend((0..8).map(|e| FaultSpec::new(Structure::RegisterFile, e, 3, cycle + 1)));
        let campaign = session.campaign(&faults).unwrap();
        let scratch = session.campaign_from_scratch(&faults).unwrap();
        assert_eq!(campaign.outcomes, scratch.outcomes, "{what}");
        assert_eq!(
            campaign.schedule.asserts, scratch.schedule.asserts,
            "{what}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
