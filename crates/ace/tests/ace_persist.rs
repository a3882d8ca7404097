//! The `.ace` file: an ACE-like profile persisted beside the session's
//! `.golden` file.  A fresh session on the same directory must load exactly
//! the profile the first one computed, and a damaged, tampered or orphaned
//! file must never be trusted: it is quarantined as `<name>.ace.corrupt` or
//! ignored as a miss, and the profile is computed again.

use merlin_ace::{AceAnalysis, SessionAce, ACE};
use merlin_cpu::{CheckpointPolicy, CpuConfig, Structure};
use merlin_inject::chaos;
use merlin_inject::{Session, SessionBuilder, SessionCache, GOLDEN};
use merlin_isa::binio::encode_to_vec;
use merlin_isa::Program;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const MAX_CYCLES: u64 = 50_000_000;
/// Bytes of the `.ace` header: magic, version, fingerprint, golden checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("merlin-ace-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(suffix);
    PathBuf::from(os)
}

/// Where the session cache puts the `.ace` file of `id`'s session.
fn ace_file(dir: &Path, session: &Session, id: &str) -> PathBuf {
    let id: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    dir.join(format!("{id}-{:016x}.ace", session.fingerprint()))
}

#[test]
fn persisted_profiles_load_equal_to_the_computed_ones() {
    let dir = temp_dir("roundtrip");
    let configs = [
        ("default", CpuConfig::default()),
        ("l1d16", CpuConfig::default().with_l1d_kb(16)),
    ];
    for w in merlin_workloads::all_workloads() {
        for (label, cfg) in &configs {
            let id = format!("{}-{label}", w.name);
            let tune = |b: SessionBuilder| b.max_cycles(MAX_CYCLES);
            let first = SessionCache::with_disk_dir(&dir);
            let s1 = first.session(&id, &w.program, cfg, tune).unwrap();
            let computed = s1.ace_profile().unwrap();
            assert!(ace_file(&dir, &s1, &id).exists(), "{id}: no .ace written");
            // The same profile a session without a disk directory computes.
            let plain = AceAnalysis::run(&w.program, cfg, MAX_CYCLES).unwrap();
            assert!(*computed == plain, "{id}: persisting changed the profile");

            let second = SessionCache::with_disk_dir(&dir);
            let s2 = second.session(&id, &w.program, cfg, tune).unwrap();
            let loaded = s2.persisted_ace_profile().expect("the .ace file loads");
            assert!(loaded == *computed, "{id}: loaded profile differs");
            assert!(*s2.ace_profile().unwrap() == *computed, "{id}");
            assert_eq!(s2.golden_builds(), 0, "{id}: the .golden file loads");
            assert_eq!(second.artifact_rejects(), 0, "{id}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

fn program() -> Program {
    merlin_workloads::workload_by_name("stringsearch")
        .unwrap()
        .program
        .clone()
}

fn tune(b: SessionBuilder) -> SessionBuilder {
    b.max_cycles(MAX_CYCLES).checkpoints(CheckpointPolicy {
        target_checkpoints: 6,
        min_interval: 8,
    })
}

fn session_on(dir: &Path) -> (SessionCache, Arc<Session>) {
    let cache = SessionCache::with_disk_dir(dir);
    let session = cache
        .session("ace", &program(), &CpuConfig::default(), tune)
        .unwrap();
    (cache, session)
}

struct Pristine {
    dir: PathBuf,
    path: PathBuf,
    bytes: Vec<u8>,
    ace: AceAnalysis,
}

/// The pristine `.golden` and `.ace` files, built once for the whole run.
fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let dir = temp_dir("pristine");
        let (_, session) = session_on(&dir);
        let ace = (*session.ace_profile().unwrap()).clone();
        let path = ace_file(&dir, &session, "ace");
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.len() > HEADER_LEN + 8, "header + payload + trailer");
        Pristine {
            dir,
            path,
            bytes,
            ace,
        }
    })
}

/// A copy of the pristine `.golden` and of `ace_bytes` in a directory of
/// its own, with a fresh session on it.
fn stage(tag: &str, ace_bytes: &[u8]) -> (PathBuf, PathBuf, SessionCache, Arc<Session>) {
    let p = pristine();
    let dir = temp_dir(tag);
    fs::create_dir_all(&dir).unwrap();
    let golden = p.path.with_extension("golden");
    fs::copy(&golden, dir.join(golden.file_name().unwrap())).unwrap();
    let path = dir.join(p.path.file_name().unwrap());
    fs::write(&path, ace_bytes).unwrap();
    let (cache, session) = session_on(&dir);
    (dir, path, cache, session)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_flip_or_truncation_of_an_ace_file_is_rejected_or_missed_never_trusted(
        mode in 0usize..2,
        sel in 0usize..1_000_000,
    ) {
        let p = pristine();
        let quarantine = with_suffix(&p.path, ".corrupt");
        let _ = fs::remove_file(&quarantine);
        fs::write(&p.path, &p.bytes).unwrap();
        let corrupted = if mode == 0 {
            let offset = sel % p.bytes.len();
            chaos::flip_byte(&p.path, offset).unwrap();
            let mut b = p.bytes.clone();
            b[offset] ^= 0x01;
            b
        } else {
            let len = sel % p.bytes.len();
            chaos::truncate_file(&p.path, len).unwrap();
            p.bytes[..len].to_vec()
        };
        prop_assert_ne!(&corrupted, &p.bytes);

        let (cache, session) = session_on(&p.dir);
        prop_assert!(session.persisted_ace_profile().is_none(), "damaged file loaded");
        prop_assert_eq!(session.golden_builds(), 0);
        let rejects = cache.artifact_rejects();
        prop_assert!(rejects <= 1);
        if rejects == 1 {
            prop_assert_eq!(fs::read(&quarantine).unwrap(), corrupted);
        } else {
            prop_assert!(!quarantine.exists());
        }
        // The session profiles again and gets the pristine profile.
        prop_assert!(*session.ace_profile().unwrap() == p.ace);
        let _ = fs::remove_file(&quarantine);
    }
}

#[test]
fn a_replaced_golden_makes_the_ace_a_miss() {
    let p = pristine();
    let (dir, path, cache, session) = stage("replaced", &p.bytes);
    // Another valid golden run for the same context: the same program and
    // configuration checkpointed under another policy, relabelled with this
    // session's fingerprint and re-checksummed.  From a minimum interval of
    // 12 the store's interval is never the pristine policy's (8 times a
    // power of two), so the stores differ.
    let other_dir = temp_dir("replaced-other");
    let other = SessionCache::with_disk_dir(&other_dir)
        .session("ace", &program(), &CpuConfig::default(), |b| {
            b.max_cycles(MAX_CYCLES).checkpoints(CheckpointPolicy {
                target_checkpoints: 6,
                min_interval: 12,
            })
        })
        .unwrap();
    other.golden().unwrap();
    let other_bytes =
        fs::read(ace_file(&other_dir, &other, "ace").with_extension("golden")).unwrap();
    let mut golden = other_bytes[..other_bytes.len() - 8].to_vec();
    golden[12..20].copy_from_slice(&session.fingerprint().to_le_bytes());
    let checksum = (GOLDEN.checksum)(&golden);
    golden.extend_from_slice(&checksum.to_le_bytes());
    let original = fs::read(path.with_extension("golden")).unwrap();
    assert_ne!(golden, original, "the replacement is the original");
    fs::write(path.with_extension("golden"), &golden).unwrap();

    assert!(
        session.persisted_ace_profile().is_none(),
        "orphaned .ace used"
    );
    assert_eq!(session.golden_builds(), 0, "the replacement golden loads");
    assert_eq!(session.persisted_golden().unwrap().1, checksum);
    assert_eq!(cache.artifact_rejects(), 0, "a miss is not corruption");
    assert!(!with_suffix(&path, ".corrupt").exists());
    // Profiling again re-binds the .ace file to the replacement.
    assert!(*session.ace_profile().unwrap() == p.ace);
    let (_, again) = session_on(&dir);
    assert!(again.persisted_ace_profile().unwrap() == p.ace);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&other_dir);
}

/// Byte offset of the register file's repository in an `.ace` file, and of
/// the first of its intervals.
fn rf_offsets(p: &Pristine) -> (usize, usize) {
    let rf_at = HEADER_LEN + encode_to_vec(&p.ace.golden).len();
    let rf = p.ace.structure(Structure::RegisterFile);
    let first_entry = (0..rf.total_entries)
        .position(|e| !rf.entry_intervals(e).is_empty())
        .unwrap();
    // Entry count, bits, cycles; then one count per entry before it, and
    // its own count.
    let first_record = rf_at + 8 + 4 + 8 + 8 * (first_entry + 1);
    (rf_at, first_record)
}

/// Payloads a broken writer could produce, each behind a checksum that
/// matches it: only the decoder's checks stand between them and a
/// campaign.  Each must be quarantined and the profile computed again.
#[test]
fn tampered_payloads_behind_a_valid_checksum_are_quarantined() {
    let p = pristine();
    let (rf_at, first_record) = rf_offsets(p);
    let body = &p.bytes[..p.bytes.len() - 8];
    let entries = p.ace.structure(Structure::RegisterFile).total_entries as u64;
    let cycles = p.ace.golden.cycles;
    let interval_count =
        u64::from_le_bytes(body[first_record - 8..first_record].try_into().unwrap());
    assert!(interval_count > 0);
    let tampers: Vec<(&str, Vec<u8>)> = vec![
        // One more entry than the session's register file, the extra one
        // empty: every interval still decodes.
        ("entry count", {
            let mut b = body.to_vec();
            b[rf_at..rf_at + 8].copy_from_slice(&(entries + 1).to_le_bytes());
            let first_entry_at = rf_at + 8 + 4 + 8;
            b.splice(first_entry_at..first_entry_at, 0u64.to_le_bytes());
            b
        }),
        // The first interval ends past the run.
        ("interval end", {
            let mut b = body.to_vec();
            b[first_record + 8..first_record + 16].copy_from_slice(&(cycles + 1).to_le_bytes());
            b
        }),
        // The first interval ends before it starts.
        ("interval order", {
            let mut b = body.to_vec();
            b[first_record..first_record + 8].copy_from_slice(&cycles.to_le_bytes());
            b
        }),
        // The first interval ends where it starts: it covers no cycle, and
        // version 2 stores no such interval.
        (
            "zero-length interval",
            zero_length_first_record(body, first_record),
        ),
    ];
    for (what, mut bytes) in tampers {
        let checksum = (ACE.checksum)(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let (dir, path, cache, session) = stage("tamper", &bytes);
        assert!(session.persisted_ace_profile().is_none(), "{what}: trusted");
        assert_eq!(cache.artifact_rejects(), 1, "{what}");
        assert_eq!(
            fs::read(with_suffix(&path, ".corrupt")).unwrap(),
            bytes,
            "{what}"
        );
        assert!(*session.ace_profile().unwrap() == p.ace, "{what}");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `body` with the first register-file record's end moved back to its
/// start.
fn zero_length_first_record(body: &[u8], first_record: usize) -> Vec<u8> {
    let mut b = body.to_vec();
    b.copy_within(first_record..first_record + 8, first_record + 8);
    b
}

/// A version-1 file, which may hold zero-length intervals, is a miss, not
/// corruption: the session profiles again and replaces it with the current
/// version's file.
#[test]
fn an_ace_file_of_version_1_is_a_miss() {
    let p = pristine();
    let (_, first_record) = rf_offsets(p);
    let mut bytes = zero_length_first_record(&p.bytes[..p.bytes.len() - 8], first_record);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let checksum = (ACE.checksum)(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    assert_ne!(p.bytes[8..12], bytes[8..12], "the pristine file is not v1");

    let (dir, path, cache, session) = stage("v1", &bytes);
    assert!(session.persisted_ace_profile().is_none(), "v1 file loaded");
    assert_eq!(cache.artifact_rejects(), 0, "a miss is not corruption");
    assert!(!with_suffix(&path, ".corrupt").exists());
    assert_eq!(fs::read(&path).unwrap(), bytes, "a miss leaves the file");
    assert!(*session.ace_profile().unwrap() == p.ace);
    assert_eq!(fs::read(&path).unwrap(), p.bytes, "profiling rewrote it");
    let _ = fs::remove_dir_all(&dir);
}
