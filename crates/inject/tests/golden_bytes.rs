//! Pins the `.golden` v9 wire format byte for byte.
//!
//! Persists the golden runs (checkpoint store and L1D liveness log
//! included) of four short workloads under `CpuConfig::default()` and the
//! default session knobs, and asserts each file's FNV-1a digest against a
//! recorded constant.  Any change to how a persisted type encodes — the
//! core state, the checkpoint deltas, the run result, the log — changes a
//! digest and fails here, even when a decode of the new bytes would
//! round-trip.  A deliberate format change must bump `GOLDEN_VERSION` and
//! re-record these constants.

use merlin_cpu::CpuConfig;
use merlin_inject::SessionCache;
use std::fs;

/// `(workload, FNV-1a 64 of the persisted file, file length in bytes)`.
const PINNED: &[(&str, u64, usize)] = &[
    ("sha", 0xb03d_6646_20fa_aca5, 271_289),
    ("susan_e", 0x358a_b84c_47f2_a9b8, 294_950),
    ("fft", 0x595d_1a3e_5b0d_9e57, 580_265),
    ("qsort", 0xa9e8_7059_769f_179d, 882_784),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[test]
fn persisted_golden_files_match_the_pinned_digests() {
    let dir = std::env::temp_dir().join(format!("merlin-golden-bytes-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let cache = SessionCache::with_disk_dir(&dir);
    let mut mismatches = Vec::new();
    for &(name, digest, len) in PINNED {
        let workload = merlin_workloads::workload_by_name(name).expect("built-in workload");
        let session = cache
            .session(name, &workload.program, &CpuConfig::default(), |b| b)
            .unwrap();
        session.golden().unwrap();
        assert_eq!(session.golden_builds(), 1, "{name}: golden run simulated");
        let path = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.extension().is_some_and(|e| e == "golden")
                    && p.file_name()
                        .and_then(|f| f.to_str())
                        .is_some_and(|f| f.starts_with(&format!("{name}-")))
            })
            .unwrap_or_else(|| panic!("{name}: no .golden file persisted"));
        let bytes = fs::read(&path).unwrap();
        let got = (fnv1a(&bytes), bytes.len());
        if got != (digest, len) {
            mismatches.push(format!(
                "(\"{name}\", {:#018x}, {}), // pinned {digest:#018x}, {len}",
                got.0, got.1
            ));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "persisted .golden bytes differ from the pinned format:\n{}",
        mismatches.join("\n")
    );
}
