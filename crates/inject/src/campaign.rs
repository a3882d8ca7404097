//! Campaign building blocks: golden runs, checkpoint bundles, single-fault
//! execution and campaign results.
//!
//! # The checkpoint-and-restore injection engine
//!
//! Every faulty run is bit-identical to the golden run until its fault's
//! injection cycle, so simulating each fault from cycle 0 (the classic GeFIN
//! approach) repays the same prefix thousands of times.  The engine removes
//! that cost:
//!
//! 1. [`Session::golden`](crate::Session::golden) executes the golden run
//!    exactly once while snapshotting the complete microarchitectural state
//!    ([`CpuState`](merlin_cpu::CpuState)) into a [`CheckpointStore`], in a
//!    single adaptive pass: snapshots are taken at the policy's minimum
//!    interval and the grid doubles whenever it exceeds twice the
//!    [`CheckpointPolicy`] target (see
//!    [`Cpu::run_with_adaptive_checkpoints`](merlin_cpu::Cpu::run_with_adaptive_checkpoints))
//!    — so a run of any length ends up with ~target..2×target checkpoints,
//!    starting with the cycle-0 snapshot, without a sizing pre-pass.  Every
//!    golden run is checkpointed; the store rides inside the returned
//!    [`GoldenRun`], so every campaign over that golden run shares it.
//! 2. [`Session::campaign`](crate::Session::campaign) hands the fault list
//!    to the campaign scheduler (see the [`schedule`](crate::schedule)
//!    module), which buckets it into per-checkpoint ranges that workers
//!    claim whole, so each range's restore snapshot stays hot.  Each range runs through the
//!    batched driver (see the `batch` module): one golden core restores the
//!    range's checkpoint and replays the fault-free prefix once, and each
//!    fault forks a faulty core from it at its injection cycle and
//!    simulates only the suffix against the golden timeout.
//! 3. While a faulty run is past its injection cycle, the driver compares
//!    the core's state against the golden checkpoint stream at each retained
//!    checkpoint cycle it crosses.  If the states are bit-identical the
//!    remainder of the run is guaranteed identical to the golden run, so the
//!    fault is classified Masked immediately (early exit) instead of
//!    simulating to the end.
//!
//! The program and configuration are shared across workers via `Arc` — no
//! per-fault `Program`/`CpuConfig` clones, no per-fault core construction.
//!
//! Correctness bar: a checkpointed campaign produces byte-identical
//! [`CampaignResult::outcomes`] to the from-scratch path at any thread
//! count.  Restoration is exact (the core is deterministic and
//! [`CpuState`](merlin_cpu::CpuState) captures all mutable state) and the
//! early exit only fires when the faulty state has provably re-converged; a
//! fault resolved on a dead site flips an entry that is overwritten before
//! anything reads it.  Both paths therefore classify every fault
//! identically.

use crate::classify::{classify, Classification, FaultEffect};
use crate::liveness::{L1dLiveness, L1dLogger};
use crate::schedule::ScheduleStats;
use merlin_cpu::{
    CheckpointPolicy, CheckpointStore, Cpu, CpuConfig, FaultSpec, NullProbe, RunResult, Structure,
};
use merlin_isa::{DecodedProgram, Program};
use std::sync::Arc;

/// The fault-free reference execution a campaign compares against, built
/// by [`Session::golden`](crate::Session::golden) together with its
/// checkpoints, which every campaign and baseline over this golden run
/// shares (`Arc`).
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenRun {
    /// Result of the fault-free run.
    pub result: RunResult,
    /// Cycle budget granted to faulty runs: the paper's 3× rule for
    /// deadlock/livelock detection, [`GoldenRun::timeout_for`] the result
    /// (recomputed, not stored, when a `.golden` file is loaded).
    pub timeout_cycles: u64,
    /// Checkpoints of the golden run, starting with the cycle-0 snapshot,
    /// and its L1D liveness log.
    pub checkpoints: Arc<GoldenCheckpoints>,
}

impl GoldenRun {
    /// The paper's deadlock/livelock budget for faulty runs: 3× the golden
    /// run's cycle count, floored at 1000 cycles for very short programs.
    pub fn timeout_for(golden_cycles: u64) -> u64 {
        golden_cycles.saturating_mul(3).max(1000)
    }
}

/// A golden run's checkpoint store and the L1D liveness log recorded by
/// the same golden pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCheckpoints {
    /// The per-range snapshots of the golden run; the first is the cycle-0
    /// reset state, so every injection cycle has a restore point.
    pub store: CheckpointStore,
    /// Which L1D flips the golden run reads before overwriting or evicting
    /// the word (see [`L1dLiveness`]).
    pub l1d: L1dLiveness,
}

impl GoldenCheckpoints {
    /// Whether `fault` is Masked by the golden run's future alone: an L1D
    /// flip the golden run never reads before overwriting or evicting the
    /// word.  Campaigns resolve such faults before any restore; the site
    /// must exist in the configuration.
    pub(crate) fn masked_by_golden_future(&self, fault: FaultSpec) -> bool {
        fault.structure == Structure::L1DCache && !self.l1d.is_live(fault.entry, fault.cycle)
    }
}

/// Errors produced while setting up or executing a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The golden (fault-free) run did not terminate cleanly, so no
    /// reference to classify against exists.
    GoldenRunFailed(String),
    /// The processor configuration is invalid.
    BadConfig(String),
    /// A fault specification handed to the session violates the fault model
    /// (bit index outside the 64-bit entry).
    InvalidFault(String),
    /// The program failed session admission control: the static linter
    /// found out-of-range control targets, reads of never-written
    /// registers, or unreachable instructions.  The full report is
    /// attached so a campaign service can hand it back to the program's
    /// author verbatim.
    Lint(merlin_analyze::LintReport),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::GoldenRunFailed(e) => write!(f, "golden run failed: {e}"),
            CampaignError::BadConfig(e) => write!(f, "invalid configuration: {e}"),
            CampaignError::InvalidFault(e) => write!(f, "invalid fault specification: {e}"),
            CampaignError::Lint(report) => {
                write!(f, "program rejected by static lint: {report}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

fn golden_run_from_result(result: RunResult) -> Result<RunResult, CampaignError> {
    if !result.exit.is_halted() {
        return Err(CampaignError::GoldenRunFailed(format!(
            "golden run exited with {:?} after {} cycles",
            result.exit, result.cycles
        )));
    }
    Ok(result)
}

/// One-pass checkpointed golden run, used by
/// [`Session::golden`](crate::Session::golden): the golden run is simulated
/// exactly once, snapshotting every `policy.min_interval` cycles and
/// thinning the store whenever it exceeds twice the policy's target count,
/// and logging every physical L1D event into the [`L1dLiveness`] log.
pub(crate) fn build_golden_checkpointed(
    program: &Arc<Program>,
    decoded: &Arc<DecodedProgram>,
    cfg: &CpuConfig,
    max_cycles: u64,
    policy: &CheckpointPolicy,
) -> Result<GoldenRun, CampaignError> {
    let mut cpu = Cpu::with_predecoded(Arc::clone(program), Arc::clone(decoded), cfg.clone())
        .map_err(|e| CampaignError::BadConfig(e.to_string()))?;
    let mut log = L1dLogger::new(cfg.l1d.total_words());
    let (result, store) = cpu.run_with_adaptive_checkpoints(
        max_cycles,
        &mut log,
        policy.min_interval,
        policy.target_checkpoints,
    );
    let result = golden_run_from_result(result)?;
    let timeout_cycles = GoldenRun::timeout_for(result.cycles);
    Ok(GoldenRun {
        result,
        timeout_cycles,
        checkpoints: Arc::new(GoldenCheckpoints {
            store,
            l1d: log.finish(),
        }),
    })
}

/// What one faulty run did, beyond its classification — folded into
/// [`ScheduleStats`] by [`ScheduleStats::record`].
pub(crate) struct FaultRun {
    /// The classified effect.
    pub effect: FaultEffect,
    /// Whether the boundary convergence probe retired the run before the
    /// program's end.
    pub early_exit: bool,
    /// Cycles the faulty core simulated: from its fork point (cycle 0 on
    /// the from-scratch path) to wherever the run ended.
    pub suffix_cycles: u64,
}

/// From-scratch single-fault run over a shared program image (no per-fault
/// program clone): the oracle every checkpointed campaign is pinned
/// against.  The fault's site must exist in `cfg` (callers resolve absent
/// sites first).  A panic unwinds to the scheduler's containment.
pub(crate) fn run_single_fault_shared(
    program: &Arc<Program>,
    decoded: &Arc<DecodedProgram>,
    cfg: &CpuConfig,
    golden: &GoldenRun,
    fault: FaultSpec,
) -> FaultRun {
    let mut cpu = Cpu::with_predecoded(Arc::clone(program), Arc::clone(decoded), cfg.clone())
        .expect("the golden run was built under this configuration");
    crate::chaos::maybe_panic_fault(fault.cycle);
    cpu.inject_fault(fault)
        .expect("absent fault sites are resolved before simulation");
    let result = cpu.run(golden.timeout_cycles, &mut NullProbe);
    FaultRun {
        effect: classify(&golden.result, &result),
        early_exit: false,
        suffix_cycles: result.cycles,
    }
}

/// Whether `fault` targets an entry `cfg` does not have.  Such a fault
/// cannot affect the run: it is classified Masked without simulating
/// anything and counted in [`ScheduleStats::skipped_sites`].
pub(crate) fn site_absent(cfg: &CpuConfig, fault: FaultSpec) -> bool {
    fault.entry >= cfg.structure_entries(fault.structure)
}

/// Outcome of one injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Its observed effect.
    pub effect: FaultEffect,
}

/// Result of a full injection campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// Per-fault outcomes, in the order of the input fault list.
    pub outcomes: Vec<FaultOutcome>,
    /// Aggregate histogram.
    pub classification: Classification,
    /// Number of faults the campaign classified, always `outcomes.len()`:
    /// faults resolved without simulation (static prunes) count too.
    pub runs_executed: u64,
    /// Faults the checkpointed engine classified Masked by state
    /// re-convergence with the golden checkpoint stream, without simulating
    /// to the program's end — the same count as
    /// [`ScheduleStats::forks_retired`] (always 0 on the from-scratch path).
    pub early_exits: u64,
    /// How the scheduler executed the campaign: ranges, restores, forks and
    /// total suffix cycles simulated.  Classification outcomes never depend
    /// on these — they vary with thread count and checkpoint spacing while
    /// [`CampaignResult::outcomes`] stays byte-identical.
    pub schedule: ScheduleStats,
}
