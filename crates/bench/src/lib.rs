//! # merlin-bench
//!
//! The experiment harness of the MeRLiN reproduction.  The `experiments`
//! binary regenerates every table and figure of the paper's evaluation
//! (run `experiments help` for the list).  The benchmark of record,
//! `campaign-bench`, draws its sessions from [`session_for`] too.
//!
//! Shared machinery lives here: experiment-scale knobs read from
//! the environment, the per-structure configuration sweeps of Table 1, the
//! process-wide [`session_cache`] every experiment draws its sessions from
//! (so `experiments all` pays one golden run and one ACE profile per
//! `(workload, configuration)` pair across *all* figures — and, with
//! `MERLIN_CHECKPOINT_DIR` set, across repeated invocations too), and small
//! text-table helpers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use merlin_ace::{AceAnalysis, SessionAce};
use merlin_core::{MerlinCampaign, SessionMethodology};
use merlin_cpu::{CpuConfig, Structure};
use merlin_inject::{Session, SessionCache};
use merlin_workloads::Workload;
use std::sync::{Arc, OnceLock};

/// Experiment-scale knobs, read from the environment so the full paper-scale
/// settings and fast laptop-scale settings use the same binary.
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Initial statistical fault-list size for campaigns that *inject*
    /// (`MERLIN_BASELINE_FAULTS`, default 2000).  Reduction-only experiments
    /// (Figures 8–10, 12, 13) always use the paper's 60,000/600,000.
    pub baseline_faults: usize,
    /// Worker threads (`MERLIN_THREADS`, default: available parallelism).
    pub threads: usize,
    /// Sampling seed (`MERLIN_SEED`, default 2017).
    pub seed: u64,
    /// Restrict the benchmark list (`MERLIN_BENCHMARKS`, comma separated).
    pub benchmark_filter: Option<Vec<String>>,
}

impl ExperimentScale {
    /// Reads the scale knobs from the environment.
    pub fn from_env() -> Self {
        let baseline_faults = std::env::var("MERLIN_BASELINE_FAULTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2000);
        let threads = std::env::var("MERLIN_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
        let seed = std::env::var("MERLIN_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2017);
        let benchmark_filter = std::env::var("MERLIN_BENCHMARKS").ok().map(|v| {
            v.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        });
        ExperimentScale {
            baseline_faults,
            threads,
            seed,
            benchmark_filter,
        }
    }

    /// Applies the benchmark filter to a workload list.
    pub fn filter(&self, workloads: Vec<Workload>) -> Vec<Workload> {
        match &self.benchmark_filter {
            None => workloads,
            Some(names) => workloads
                .into_iter()
                .filter(|w| names.iter().any(|n| n == w.name))
                .collect(),
        }
    }
}

/// The paper's per-structure configuration sweeps (Table 1): three register
/// file sizes, three store-queue sizes and three L1D capacities; everything
/// else stays at the baseline.
pub fn structure_sweep(structure: Structure) -> Vec<(String, CpuConfig)> {
    match structure {
        Structure::RegisterFile => [256usize, 128, 64]
            .iter()
            .map(|&n| (format!("{n}regs"), CpuConfig::default().with_phys_regs(n)))
            .collect(),
        Structure::StoreQueue => [64usize, 32, 16]
            .iter()
            .map(|&n| {
                (
                    format!("{n}entries"),
                    CpuConfig::default().with_store_queue(n),
                )
            })
            .collect(),
        Structure::L1DCache => [64u64, 32, 16]
            .iter()
            .map(|&kb| (format!("{kb}KB"), CpuConfig::default().with_l1d_kb(kb)))
            .collect(),
    }
}

/// The SPEC-study configuration (§4.4.2.3): 128 registers, 16+16 LSQ, 32 KB
/// L1D.
pub fn spec_config() -> CpuConfig {
    CpuConfig::spec_experiment()
}

/// The process-wide session cache: every experiment draws its sessions from
/// here, so golden runs and ACE profiles are shared across figures within
/// one `experiments` invocation.
///
/// When `MERLIN_CHECKPOINT_DIR` is set, golden runs (checkpoint store
/// included) are additionally persisted there and re-loaded by later
/// invocations — the cross-campaign checkpoint reuse the ROADMAP called
/// for.
pub fn session_cache() -> &'static SessionCache {
    static CACHE: OnceLock<SessionCache> = OnceLock::new();
    CACHE.get_or_init(|| match std::env::var("MERLIN_CHECKPOINT_DIR") {
        Ok(dir) if !dir.is_empty() => SessionCache::with_disk_dir(dir),
        _ => SessionCache::new(),
    })
}

/// Cycle budget of every harness session's golden and profiling runs.
const SESSION_MAX_CYCLES: u64 = 500_000_000;

/// The cached session for one (workload, configuration) pair under the
/// scale's execution knobs.  Requests with an identical context share one
/// session — and therefore one golden run and one ACE profile.
///
/// # Panics
///
/// Panics on invalid configurations — that is a harness bug, not an
/// experimental outcome.
pub fn session_for(workload: &Workload, cfg: &CpuConfig, scale: &ExperimentScale) -> Arc<Session> {
    session_cache()
        .session(workload.name, &workload.program, cfg, |b| {
            b.max_cycles(SESSION_MAX_CYCLES).threads(scale.threads)
        })
        .unwrap_or_else(|e| panic!("session setup failed for {}: {e}", workload.name))
}

/// Everything needed to evaluate one (workload, configuration, structure)
/// cell: the shared session (golden run included), its cached ACE analysis
/// and a MeRLiN campaign over `fault_count` statistically sampled faults.
pub struct Cell {
    /// The session (shared through [`session_cache`]; `session.golden()` is
    /// the golden run every phase of this cell restores from).
    pub session: Arc<Session>,
    /// The ACE-like analysis (cached on the session).
    pub ace: Arc<AceAnalysis>,
    /// The MeRLiN campaign.
    pub campaign: MerlinCampaign,
}

/// Runs a full MeRLiN cell.
///
/// # Panics
///
/// Panics if the workload cannot complete its golden run under `cfg` — that
/// is a harness bug, not an experimental outcome.
pub fn run_cell(
    workload: &Workload,
    cfg: &CpuConfig,
    structure: Structure,
    fault_count: usize,
    scale: &ExperimentScale,
) -> Cell {
    let session = session_for(workload, cfg, scale);
    let ace = session
        .ace_profile()
        .unwrap_or_else(|e| panic!("ACE analysis failed for {}: {e}", workload.name));
    let campaign = session
        .merlin(structure, fault_count, scale.seed)
        .unwrap_or_else(|e| panic!("MeRLiN campaign failed for {}: {e}", workload.name));
    Cell {
        session,
        ace,
        campaign,
    }
}

/// Formats a row of right-aligned cells for the plain-text tables the harness
/// prints.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_have_three_points_each() {
        for &s in Structure::all() {
            let sweep = structure_sweep(s);
            assert_eq!(sweep.len(), 3);
            for (label, cfg) in sweep {
                assert!(!label.is_empty());
                cfg.validate().unwrap();
            }
        }
    }

    #[test]
    fn scale_defaults_are_sane() {
        let s = ExperimentScale {
            baseline_faults: 2000,
            threads: 8,
            seed: 2017,
            benchmark_filter: Some(vec!["sha".into()]),
        };
        let filtered = s.filter(merlin_workloads::mibench_workloads());
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].name, "sha");
    }

    #[test]
    fn row_formatting_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
