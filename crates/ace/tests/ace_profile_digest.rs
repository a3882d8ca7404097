//! The ACE-like profile of every built-in workload, pinned by one digest.
//!
//! The profile is what MeRLiN groups faults by, so a change to how it is
//! built (which code keeps the read log, the instance counts or the path
//! signature, or when the profiler flushes) must leave every interval of
//! every entry as it was, to the field.  The digest covers the 20 programs
//! under three configurations: the default one, a 16 KB L1D that evicts
//! lines, and the paper's SPEC-experiment configuration.

use merlin_ace::AceAnalysis;
use merlin_cpu::{CpuConfig, Structure};
use merlin_workloads::all_workloads;

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn ace_profiles_of_every_workload_match_their_pinned_digest() {
    let configs = [
        CpuConfig::default(),
        CpuConfig::default().with_l1d_kb(16),
        CpuConfig::spec_experiment(),
    ];
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    let mut intervals = 0;
    for cfg in &configs {
        for w in all_workloads() {
            let ace = AceAnalysis::run(&w.program, cfg, 50_000_000).unwrap();
            digest.word(ace.golden.cycles);
            for &s in Structure::all() {
                let repo = ace.structure(s);
                digest.word(repo.total_entries as u64);
                digest.word(repo.total_cycles);
                for (entry, iv) in repo.iter() {
                    for word in [
                        entry as u64,
                        iv.start,
                        iv.end,
                        u64::from(iv.rip),
                        u64::from(iv.upc),
                        iv.dyn_instance,
                        iv.path_sig,
                    ] {
                        digest.word(word);
                    }
                }
                intervals += repo.interval_count();
            }
        }
    }
    println!("{intervals} intervals, digest {:#018x}", digest.0);
    assert_eq!(intervals, 4_210_083);
    assert_eq!(digest.0, 0x264e_af04_50b9_215a);
}
