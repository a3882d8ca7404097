//! Restore-aware campaign scheduling: checkpoint-range buckets, worker
//! binding and whole-range work stealing.
//!
//! # Why ranges, not single faults
//!
//! The first dynamic engine handed faults to workers one at a time through a
//! global atomic index over the cycle-sorted order.  That balances load, but
//! consecutive grabs by one worker rarely restore from the *same* golden
//! snapshot — between two of its faults, other workers have claimed the
//! faults in between — so the restore source keeps leaving the worker's
//! cache.  The [`CampaignScheduler`] keeps dynamic scheduling but changes
//! the unit of work:
//!
//! 1. The cycle-sorted fault list is bucketed into **checkpoint ranges**:
//!    all faults whose restore source is the same golden snapshot (the
//!    latest checkpoint at or before their injection cycle) share a bucket.
//! 2. Each worker **binds** to a range — it claims a whole bucket and runs
//!    every fault in it against the one hot restore snapshot.
//! 3. When a worker drains its bucket it **steals a whole range**, never a
//!    single fault, so restore locality survives stealing.  Steals are
//!    counted in [`ScheduleStats::range_steals`].
//!
//! Combined with suffix-work checkpoint spacing
//! ([`SpacingStrategy::SuffixWork`](merlin_cpu::SpacingStrategy)) the
//! buckets carry roughly equal expected *work*, not equal fault counts, so
//! range-bound workers finish together instead of one worker dragging the
//! campaign's tail.
//!
//! Without a usable checkpoint store (from-scratch campaigns) the same
//! machinery runs over contiguous chunks of the cycle-sorted order — there
//! is no restore source to keep hot, but whole-chunk claiming keeps the
//! scheduling overhead independent of the fault count.
//!
//! # Determinism
//!
//! Scheduling decides only *who* simulates a fault and *when*; every fault's
//! classification is a pure function of (program, configuration, fault).
//! Outcomes are collected per original fault-list index and merged, so
//! [`CampaignResult::outcomes`] is byte-identical across thread counts and
//! against the from-scratch path.  Only [`ScheduleStats`] varies.

use crate::batch::{run_batched_range, BatchingPolicy, ForkPool};
use crate::campaign::{
    run_fault_from_checkpoint, run_single_fault_shared, CampaignResult, DiffCache, FaultOutcome,
    GoldenCheckpoints, GoldenRun,
};
use crate::classify::{Classification, FaultEffect};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{Cpu, CpuConfig, FaultSpec, RestoredBytes, Structure};
use merlin_isa::{DecodedProgram, Program};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How many ranges per worker the from-scratch path chunks the fault list
/// into: enough that a slow chunk can be compensated by stealing, few enough
/// that claiming stays negligible.
const SCRATCH_RANGES_PER_WORKER: usize = 4;

/// A checkpoint range holding more than this multiple of the mean per-range
/// fault count is split into near-mean-sized sub-ranges (same restore
/// source), so one hot range no longer serialises on a single worker.
const SPLIT_FACTOR: usize = 2;

/// Aggregate scheduling statistics of one campaign (attached to
/// [`CampaignResult::schedule`]).
///
/// These describe *how* the campaign executed, never *what* it computed:
/// outcomes are byte-identical across thread counts while these counters
/// vary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Non-empty ranges the fault list was bucketed into (checkpoint ranges
    /// on the restore path, contiguous chunks on the from-scratch path).
    pub ranges: u64,
    /// Checkpoint restores performed (one per fault that reached the core on
    /// the restore path; 0 from scratch).
    pub restores: u64,
    /// Whole ranges claimed by workers beyond their initial binding.
    pub range_steals: u64,
    /// Extra ranges created by splitting oversized checkpoint ranges (a
    /// range whose fault count exceeds twice the mean is cut into
    /// near-mean-sized sub-ranges sharing the restore source).
    pub range_splits: u64,
    /// Restores that rewrote the full checkpoint state (the first restore a
    /// worker performs from a given snapshot).
    pub full_restores: u64,
    /// Restores served by the incremental same-snapshot path (only state
    /// touched since the worker's previous restore of the same snapshot was
    /// rewritten) — with range-bound workers, the overwhelming majority.
    pub incremental_restores: u64,
    /// Bytes rewritten across all restores, over *every* restored structure:
    /// memory chunks, cache lines, register file, rename state, fetch
    /// buffer, ROB, load/store queues and predictor tables.
    pub restored_bytes: u64,
    /// The same bytes broken down per pipeline structure — the honest
    /// account of where restore work goes, and the direct measure of how
    /// much the epoch-tagged incremental path avoids rewriting.
    pub restored_breakdown: RestoredBytes,
    /// Total cycles simulated across all faulty runs, from each fault's
    /// restore point (cycle 0 from scratch) to wherever its run ended — the
    /// work the checkpoint engine actually paid, directly comparable across
    /// spacing strategies and against `faults × golden_cycles` from scratch.
    pub suffix_cycles: u64,
    /// Faults classified [`Assert`](crate::FaultEffect::Assert) by the
    /// engine's failure containment: a panic during the fault's own
    /// simulation, a range whose retry also failed, a core that could not be
    /// constructed, or a worker that died without reporting.
    pub asserts: u64,
    /// Restores that lifted a core out of quarantine — the forced full
    /// restore following a per-fault panic on that core.
    pub poisoned_restores: u64,
    /// Ranges whose first attempt panicked at range level and were returned
    /// to the pool for one retry on a fresh core.
    pub range_retries: u64,
    /// Faults whose site does not exist in this configuration: classified
    /// Masked without simulating anything (previously invisible in stats).
    pub skipped_sites: u64,
    /// Faults proven Masked by static dataflow analysis before any
    /// simulation: register-file faults into a physical entry whose
    /// architectural register appears in no micro-op of the program text
    /// (see `merlin_analyze::ProgramAnalysis::rf_entry_statically_dead`).
    /// Zero work is paid for them — no restore, no suffix cycles.
    pub static_prunes: u64,
    /// Ranges executed by the fork-on-divergence batched driver (always 0
    /// under [`BatchingPolicy::PerFault`](crate::BatchingPolicy) and on
    /// the from-scratch path).
    pub batched_ranges: u64,
    /// Faulty cores forked from a live golden replay by the batched
    /// driver (one per simulated fault in a batched range).
    pub forks_spawned: u64,
    /// Forks retired early by the boundary re-convergence probe — the
    /// batched driver's share of [`CampaignResult::early_exits`].
    ///
    /// [`CampaignResult::early_exits`]: crate::CampaignResult::early_exits
    pub forks_retired: u64,
    /// Faults the batched driver resolved Masked at their injection cycle
    /// because [`Cpu::fault_site_dead`](merlin_cpu::Cpu::fault_site_dead)
    /// held on the golden core: the flipped entry is overwritten before any
    /// read.  No core is restored, forked or stepped for them, so they are
    /// counted neither in [`ScheduleStats::forks_spawned`] nor in
    /// `early_exits`.  Always 0 on the per-fault and from-scratch paths,
    /// which simulate these faults in full.
    pub dead_sites: u64,
    /// Cycles the batched driver's shared golden cores replayed — the
    /// per-range prefix work paid *once* instead of per fault.  Kept
    /// separate from [`ScheduleStats::suffix_cycles`], which counts
    /// faulty-core cycles only, so batched and per-fault suffix work
    /// stay directly comparable.
    pub golden_replay_cycles: u64,
    /// Bytes the batched driver's copy-on-write forks actually copied at
    /// fork time.  Structural sharing makes [`Cpu::fork_from`](merlin_cpu::Cpu::fork_from)
    /// O(metadata): handles are adopted instead of bytes moved, so this
    /// stays tiny regardless of how much state the golden core touched.
    pub fork_bytes_copied: u64,
    /// Bytes an eager fork — the pre-CoW touched-entry copy — would have
    /// moved for the same forks: the baseline `fork_bytes_copied` is
    /// measured against.
    pub fork_bytes_eager: u64,
    /// Bytes whose content the forks adopted by O(1) handle sharing
    /// instead of copying.
    pub fork_bytes_shared: u64,
    /// Copy-on-write sharing breaks: structures privatised (copied after
    /// all) on their first write following a fork or a handle-sharing
    /// restore.  The deferred remainder of the copy work `fork_bytes_copied`
    /// avoided up front — only state a fork actually touches is ever paid
    /// for.
    pub cow_breaks: u64,
}

/// Per-worker tallies, merged into [`ScheduleStats`] after the join.  Also
/// used as the per-range-attempt delta, so a panicked attempt's partial
/// tallies are discarded wholesale with its partial outcomes.
#[derive(Default)]
struct WorkerStats {
    restores: u64,
    full_restores: u64,
    incremental_restores: u64,
    restored_bytes: u64,
    restored_breakdown: RestoredBytes,
    range_steals: u64,
    suffix_cycles: u64,
    early_exits: u64,
    asserts: u64,
    poisoned_restores: u64,
    range_retries: u64,
    skipped_sites: u64,
    static_prunes: u64,
    batched_ranges: u64,
    forks_spawned: u64,
    forks_retired: u64,
    dead_sites: u64,
    golden_replay_cycles: u64,
    fork_bytes_copied: u64,
    fork_bytes_eager: u64,
    fork_bytes_shared: u64,
    cow_breaks: u64,
}

impl WorkerStats {
    fn merge(&mut self, other: WorkerStats) {
        self.restores += other.restores;
        self.full_restores += other.full_restores;
        self.incremental_restores += other.incremental_restores;
        self.restored_bytes += other.restored_bytes;
        self.restored_breakdown += other.restored_breakdown;
        self.range_steals += other.range_steals;
        self.suffix_cycles += other.suffix_cycles;
        self.early_exits += other.early_exits;
        self.asserts += other.asserts;
        self.poisoned_restores += other.poisoned_restores;
        self.range_retries += other.range_retries;
        self.skipped_sites += other.skipped_sites;
        self.static_prunes += other.static_prunes;
        self.batched_ranges += other.batched_ranges;
        self.forks_spawned += other.forks_spawned;
        self.forks_retired += other.forks_retired;
        self.dead_sites += other.dead_sites;
        self.golden_replay_cycles += other.golden_replay_cycles;
        self.fork_bytes_copied += other.fork_bytes_copied;
        self.fork_bytes_eager += other.fork_bytes_eager;
        self.fork_bytes_shared += other.fork_bytes_shared;
        self.cow_breaks += other.cow_breaks;
    }
}

/// Executes one injection campaign: buckets the cycle-sorted fault list by
/// checkpoint range, binds workers to ranges and steals whole ranges on
/// drain (see the [module docs](self)).
///
/// Built once per campaign by [`Session::campaign`](crate::Session::campaign)
/// /[`Session::campaign_from_scratch`](crate::Session::campaign_from_scratch);
/// constructible directly for callers that want to inspect the bucketing or
/// drive a campaign without a session.
pub struct CampaignScheduler<'a> {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cfg: Arc<CpuConfig>,
    golden: &'a GoldenRun,
    ckpts: Option<Arc<GoldenCheckpoints>>,
    /// Ascending checkpoint cycles of the usable store (empty from scratch).
    boundaries: Vec<u64>,
    faults: &'a [FaultSpec],
    /// Fault-list indices per range, cycle-sorted within each range; no
    /// range is empty.
    buckets: Vec<Vec<usize>>,
    /// Extra ranges produced by splitting oversized buckets.
    splits: u64,
    threads: usize,
    /// Static dataflow analysis of the program, when the caller computed
    /// one: register-file faults into statically-dead entries are then
    /// classified Masked without touching a core.
    analysis: Option<&'a ProgramAnalysis>,
    /// How each range's faults are simulated: per-fault restore (the
    /// oracle) or the fork-on-divergence batched driver (see
    /// [`crate::batch`](crate::BatchingPolicy)).
    batching: BatchingPolicy,
}

impl<'a> CampaignScheduler<'a> {
    /// Plans a campaign over `faults`.  With `use_checkpoints` (and a golden
    /// run whose store is usable) faults are bucketed by restore source;
    /// otherwise the cycle-sorted order is chunked contiguously and every
    /// fault simulates from cycle 0.
    pub fn new(
        program: &Arc<Program>,
        cfg: &Arc<CpuConfig>,
        golden: &'a GoldenRun,
        use_checkpoints: bool,
        faults: &'a [FaultSpec],
        threads: usize,
    ) -> Self {
        let decoded = Arc::new(DecodedProgram::new(program));
        Self::with_predecoded(
            program,
            &decoded,
            cfg,
            golden,
            use_checkpoints,
            faults,
            threads,
        )
    }

    /// Like [`CampaignScheduler::new`] with an already-built pre-decoded
    /// micro-op table, so sessions share one table across the golden run and
    /// every campaign worker instead of re-decoding per scheduler.
    #[allow(clippy::too_many_arguments)]
    pub fn with_predecoded(
        program: &Arc<Program>,
        decoded: &Arc<DecodedProgram>,
        cfg: &Arc<CpuConfig>,
        golden: &'a GoldenRun,
        use_checkpoints: bool,
        faults: &'a [FaultSpec],
        threads: usize,
    ) -> Self {
        let threads = threads.max(1).min(faults.len().max(1));
        // Cycle-sorted, stable on the original index, so bucketing — and
        // therefore the whole schedule — is reproducible.
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&i| (faults[i].cycle, i));
        let ckpts = if use_checkpoints {
            // A store without the cycle-0 snapshot cannot serve arbitrary
            // injection cycles; fall back to from-scratch simulation rather
            // than panicking a worker on the first early fault.
            golden
                .checkpoints
                .clone()
                .filter(|c| c.usable_for_campaigns())
        } else {
            None
        };
        let boundaries: Vec<u64> = ckpts
            .as_ref()
            .map(|c| c.store.cycles().collect())
            .unwrap_or_default();
        let mut splits = 0u64;
        let buckets = match &ckpts {
            Some(_) => {
                // One bucket per checkpoint range [c_k, c_{k+1}): every
                // fault in it restores from the snapshot at c_k.
                let mut buckets = Vec::new();
                let mut start = 0;
                for &upper in &boundaries[1..] {
                    let end = start + order[start..].partition_point(|&i| faults[i].cycle < upper);
                    if end > start {
                        buckets.push(order[start..end].to_vec());
                    }
                    start = end;
                }
                if start < order.len() {
                    buckets.push(order[start..].to_vec());
                }
                // Work-estimate-driven splitting: faults are sampled
                // uniformly over cycles, so a range's fault count is its
                // work estimate.  A range holding more than SPLIT_FACTOR×
                // the mean would serialise one worker while the rest drain;
                // cut it into near-mean-sized sub-ranges.  Sub-ranges keep
                // the shared restore source (same snapshot, still hot) and
                // the cycle-sorted order, so outcomes are untouched.
                if buckets.len() > 1 {
                    let mean = (order.len() / buckets.len()).max(1);
                    let threshold = SPLIT_FACTOR * mean;
                    if buckets.iter().any(|b| b.len() > threshold) {
                        let mut split_buckets = Vec::with_capacity(buckets.len());
                        for bucket in buckets {
                            if bucket.len() > threshold {
                                let pieces = bucket.len().div_ceil(mean);
                                let size = bucket.len().div_ceil(pieces);
                                splits += (bucket.len().div_ceil(size) - 1) as u64;
                                split_buckets.extend(bucket.chunks(size).map(<[usize]>::to_vec));
                            } else {
                                split_buckets.push(bucket);
                            }
                        }
                        buckets = split_buckets;
                    }
                }
                buckets
            }
            None if order.is_empty() => Vec::new(),
            None => {
                let chunks = (threads * SCRATCH_RANGES_PER_WORKER).min(order.len());
                let size = order.len().div_ceil(chunks);
                order.chunks(size).map(<[usize]>::to_vec).collect()
            }
        };
        CampaignScheduler {
            program: Arc::clone(program),
            decoded: Arc::clone(decoded),
            cfg: Arc::clone(cfg),
            golden,
            ckpts,
            boundaries,
            faults,
            // Never spawn more workers than ranges: the extras would only
            // contend on the claim counter and exit.
            threads: threads.min(buckets.len().max(1)),
            buckets,
            splits,
            analysis: None,
            batching: BatchingPolicy::default(),
        }
    }

    /// Attaches a static program analysis: register-file faults whose
    /// physical entry is [`statically dead`] are classified Masked with
    /// zero simulation and accounted as [`ScheduleStats::static_prunes`].
    ///
    /// The prune is *sound* — a fully simulated run of such a fault always
    /// classifies Masked — so outcomes stay byte-identical with and
    /// without it; property tests pin this.
    ///
    /// [`statically dead`]: ProgramAnalysis::rf_entry_statically_dead
    pub fn with_static_analysis(mut self, analysis: &'a ProgramAnalysis) -> Self {
        self.analysis = Some(analysis);
        self
    }

    /// Selects how each range's faults are simulated.
    /// [`BatchingPolicy::Batched`] drives one golden core per checkpoint
    /// range and forks faulty cores at their injection cycles instead of
    /// restoring and replaying the fault-free prefix per fault; outcomes
    /// are byte-identical to [`BatchingPolicy::PerFault`] at any thread
    /// count (only [`ScheduleStats`] differs).  Ignored on the
    /// from-scratch path, which has no checkpoint store to batch over.
    pub fn with_batching(mut self, batching: BatchingPolicy) -> Self {
        self.batching = batching;
        self
    }

    /// Number of non-empty ranges the fault list was bucketed into
    /// (oversized-range splits included).
    pub fn ranges(&self) -> usize {
        self.buckets.len()
    }

    /// Extra ranges created by splitting oversized checkpoint ranges.
    pub fn range_splits(&self) -> u64 {
        self.splits
    }

    /// Whether faults will restore golden checkpoints (false when the golden
    /// run has no usable store, or checkpointing was explicitly bypassed).
    pub fn uses_checkpoints(&self) -> bool {
        self.ckpts.is_some()
    }

    /// Executes one range on the per-fault path: restore, replay to the
    /// injection cycle and simulate the suffix, once per fault.  This is
    /// both the [`BatchingPolicy::PerFault`] engine and the fallback a
    /// batched range aborts to.
    fn run_bucket_per_fault(
        &self,
        bucket: &[usize],
        cpu: &mut Option<Cpu>,
        diffs: &mut DiffCache,
        local: &mut Vec<(usize, FaultOutcome)>,
        delta: &mut WorkerStats,
    ) {
        for &idx in bucket {
            let fault = self.faults[idx];
            // Static prune: a fault into a provably-dead register-file
            // entry is Masked by construction — skip the restore and the
            // suffix entirely.
            if let Some(analysis) = self.analysis {
                if fault.structure == Structure::RegisterFile
                    && analysis.rf_entry_statically_dead(fault.entry)
                {
                    delta.static_prunes += 1;
                    local.push((
                        idx,
                        FaultOutcome {
                            fault,
                            effect: FaultEffect::Masked,
                        },
                    ));
                    continue;
                }
            }
            let run = match &self.ckpts {
                Some(ckpts) => {
                    // One core per worker, restored per fault.
                    if cpu.is_none() {
                        *cpu = Cpu::with_predecoded(
                            Arc::clone(&self.program),
                            Arc::clone(&self.decoded),
                            (*self.cfg).clone(),
                        )
                        .ok();
                    }
                    match cpu.as_mut() {
                        Some(core) => run_fault_from_checkpoint(
                            core,
                            self.golden,
                            ckpts,
                            &self.boundaries,
                            diffs,
                            fault,
                        ),
                        None => {
                            delta.asserts += 1;
                            local.push((
                                idx,
                                FaultOutcome {
                                    fault,
                                    effect: FaultEffect::Assert,
                                },
                            ));
                            continue;
                        }
                    }
                }
                None => run_single_fault_shared(
                    &self.program,
                    &self.decoded,
                    &self.cfg,
                    self.golden,
                    fault,
                ),
            };
            delta.restores += u64::from(run.restored);
            delta.full_restores += u64::from(run.restored && !run.incremental);
            delta.incremental_restores += u64::from(run.restored && run.incremental);
            delta.restored_bytes += run.bytes.total();
            delta.restored_breakdown += run.bytes;
            delta.early_exits += u64::from(run.early_exit);
            delta.suffix_cycles += run.suffix_cycles;
            delta.asserts += u64::from(run.effect == FaultEffect::Assert);
            delta.poisoned_restores += u64::from(run.from_quarantine);
            delta.skipped_sites += u64::from(run.skipped_site);
            local.push((
                idx,
                FaultOutcome {
                    fault,
                    effect: run.effect,
                },
            ));
        }
        // Handle-sharing restores defer copies to first write; harvest the
        // break tally so per-fault campaigns report their CoW traffic too.
        if let Some(core) = cpu.as_mut() {
            delta.cow_breaks += core.take_cow_breaks();
        }
    }

    /// Executes one range through the fork-on-divergence batched driver
    /// (see [`crate::batch`](crate::BatchingPolicy)).  Statically-pruned
    /// and absent-site faults are resolved here without a core, exactly
    /// as on the per-fault path; the rest are handed to the driver as
    /// the cycle-sorted simulation list.  Returns `None` when the driver
    /// aborted (a panic or an unconstructible core), in which case
    /// nothing is committed and the caller re-runs the whole range per
    /// fault.
    fn run_bucket_batched(
        &self,
        bucket: &[usize],
        ckpts: &GoldenCheckpoints,
        pool: &mut ForkPool,
        diffs: &mut DiffCache,
    ) -> Option<(Vec<(usize, FaultOutcome)>, WorkerStats)> {
        let mut local: Vec<(usize, FaultOutcome)> = Vec::with_capacity(bucket.len());
        let mut delta = WorkerStats::default();
        let mut sim: Vec<usize> = Vec::with_capacity(bucket.len());
        for &idx in bucket {
            let fault = self.faults[idx];
            if let Some(analysis) = self.analysis {
                if fault.structure == Structure::RegisterFile
                    && analysis.rf_entry_statically_dead(fault.entry)
                {
                    delta.static_prunes += 1;
                    local.push((
                        idx,
                        FaultOutcome {
                            fault,
                            effect: FaultEffect::Masked,
                        },
                    ));
                    continue;
                }
            }
            if fault.entry >= self.cfg.structure_entries(fault.structure) {
                // Same semantics as the per-fault engine's site check: an
                // absent fault site cannot affect this configuration.
                delta.skipped_sites += 1;
                local.push((
                    idx,
                    FaultOutcome {
                        fault,
                        effect: FaultEffect::Masked,
                    },
                ));
                continue;
            }
            sim.push(idx);
        }
        let (runs, bstats) = run_batched_range(
            pool,
            self.golden,
            ckpts,
            &self.boundaries,
            diffs,
            self.faults,
            &sim,
        )?;
        delta.batched_ranges += 1;
        delta.forks_spawned += bstats.forks_spawned;
        delta.forks_retired += bstats.forks_retired;
        delta.dead_sites += bstats.dead_sites;
        delta.golden_replay_cycles += bstats.golden_replay_cycles;
        delta.fork_bytes_copied += bstats.fork_bytes.copied.total();
        delta.fork_bytes_eager += bstats.fork_bytes.eager.total();
        delta.fork_bytes_shared += bstats.fork_bytes.shared.total();
        delta.cow_breaks += bstats.cow_breaks;
        delta.restores += bstats.golden_restores;
        delta.full_restores += bstats.golden_full_restores;
        delta.incremental_restores += bstats.golden_incremental_restores;
        delta.poisoned_restores += bstats.golden_poisoned_restores;
        delta.restored_bytes += bstats.golden_restored_bytes.total();
        delta.restored_breakdown += bstats.golden_restored_bytes;
        for (idx, run) in runs {
            delta.restores += u64::from(run.restored);
            delta.full_restores += u64::from(run.restored && !run.incremental);
            delta.incremental_restores += u64::from(run.restored && run.incremental);
            delta.restored_bytes += run.bytes.total();
            delta.restored_breakdown += run.bytes;
            delta.early_exits += u64::from(run.early_exit);
            delta.suffix_cycles += run.suffix_cycles;
            delta.asserts += u64::from(run.effect == FaultEffect::Assert);
            delta.poisoned_restores += u64::from(run.from_quarantine);
            delta.skipped_sites += u64::from(run.skipped_site);
            local.push((
                idx,
                FaultOutcome {
                    fault: self.faults[idx],
                    effect: run.effect,
                },
            ));
        }
        Some((local, delta))
    }

    /// Runs the campaign to completion and aggregates the result.
    ///
    /// Outcomes are byte-identical across thread counts; only
    /// [`CampaignResult::schedule`] (and `early_exits`, which counts the
    /// same events wherever they land) reflects the execution.
    ///
    /// # Failure containment
    ///
    /// A panic during one fault's simulation is caught inside the engine,
    /// classified [`Assert`](crate::FaultEffect::Assert), and quarantines
    /// the worker's core (next restore is a forced full restore).  A panic
    /// that tears through a worker's whole range attempt — outside the
    /// per-fault catch — discards that attempt's partial outcomes, returns
    /// the range to a retry pool and re-runs it once on a fresh core; a
    /// second range-level failure classifies every fault in the range
    /// deterministically as `Assert`.  Both classifications are pure
    /// functions of (program, configuration, fault), so outcomes stay
    /// byte-identical across thread counts even under panics.
    pub fn run(&self) -> CampaignResult {
        let threads = self.threads.max(1).min(self.buckets.len().max(1));
        let next = AtomicUsize::new(0);
        // Ranges whose first attempt panicked, awaiting their one retry.  A
        // poisoned lock only means a probe panicked while pushing is not in
        // progress (panics never unwind while the lock is held), so the
        // contents are always valid.
        let retries: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let pop_retry = || match retries.lock() {
            Ok(mut g) => g.pop(),
            Err(poisoned) => poisoned.into_inner().pop(),
        };
        let push_retry = |b: usize| match retries.lock() {
            Ok(mut g) => g.push(b),
            Err(poisoned) => poisoned.into_inner().push(b),
        };
        let run_worker = |collected: &mut Vec<(usize, FaultOutcome)>, stats: &mut WorkerStats| {
            let mut cpu: Option<Cpu> = None;
            // Core pool for the batched driver (golden replay core + one
            // per live fork); empty and unused under PerFault.
            let mut pool = ForkPool::new(&self.program, &self.decoded, &self.cfg);
            // Golden-to-golden diffs never depend on the core's state, so the
            // cache survives retries and core replacement.
            let mut diffs = DiffCache::new();
            let mut claimed = 0usize;
            loop {
                // Failed ranges take priority over fresh ones, and the
                // worker that pushed a retry always loops back to re-check
                // the pool — so a retry can never be stranded by the other
                // workers having already exited.
                let (b, is_retry) = match pop_retry() {
                    Some(b) => (b, true),
                    None => {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b < self.buckets.len() {
                            (b, false)
                        } else {
                            match pop_retry() {
                                Some(b) => (b, true),
                                None => break,
                            }
                        }
                    }
                };
                let bucket = &self.buckets[b];
                if !is_retry {
                    claimed += 1;
                    if claimed > 1 {
                        stats.range_steals += 1;
                    }
                } else {
                    // The issue under retry may have been the core itself:
                    // retries always start from fresh cores.
                    cpu = None;
                    pool.clear();
                }
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crate::chaos::maybe_panic_range(bucket.iter().map(|&i| self.faults[i].cycle));
                    // Partial work is collected locally so a mid-range panic
                    // discards it atomically and the retry re-runs the whole
                    // range.
                    let mut local: Vec<(usize, FaultOutcome)> = Vec::with_capacity(bucket.len());
                    let mut delta = WorkerStats::default();
                    let mut done = false;
                    let batched = self.batching == BatchingPolicy::Batched && self.ckpts.is_some();
                    if batched {
                        let ckpts = self.ckpts.as_ref().expect("checked above");
                        match self.run_bucket_batched(bucket, ckpts, &mut pool, &mut diffs) {
                            Some((l, d)) => {
                                local = l;
                                delta = d;
                                done = true;
                            }
                            // An aborted batched attempt committed nothing;
                            // the whole range re-runs below on the per-fault
                            // path, counted like a range retry.
                            None => delta.range_retries += 1,
                        }
                    }
                    if !done {
                        if batched {
                            // The fallback reuses pool cores — the driver
                            // parks a quarantined core on top of the pool so
                            // its forced full restore happens here instead
                            // of the core rotting unobserved.
                            let mut slot = pool.take();
                            self.run_bucket_per_fault(
                                bucket, &mut slot, &mut diffs, &mut local, &mut delta,
                            );
                            if let Some(core) = slot {
                                pool.put(core);
                            }
                            delta.cow_breaks += pool.take_cow_breaks();
                        } else {
                            self.run_bucket_per_fault(
                                bucket, &mut cpu, &mut diffs, &mut local, &mut delta,
                            );
                        }
                    }
                    (local, delta)
                }));
                match attempt {
                    Ok((local, delta)) => {
                        collected.extend(local);
                        stats.merge(delta);
                    }
                    Err(_) => {
                        // The panic unwound outside the per-fault catch, so
                        // the worker's cores are in an unknown state: drop
                        // them, pool included.
                        cpu = None;
                        pool.clear();
                        if is_retry {
                            // Second failure: the range is deterministically
                            // poisoned — classify every fault in it Assert
                            // rather than retrying forever.
                            stats.asserts += bucket.len() as u64;
                            collected.extend(bucket.iter().map(|&idx| {
                                (
                                    idx,
                                    FaultOutcome {
                                        fault: self.faults[idx],
                                        effect: FaultEffect::Assert,
                                    },
                                )
                            }));
                        } else {
                            stats.range_retries += 1;
                            push_retry(b);
                        }
                    }
                }
            }
        };

        let mut per_thread: Vec<(Vec<(usize, FaultOutcome)>, WorkerStats)> = Vec::new();
        if threads == 1 {
            let mut collected = Vec::with_capacity(self.faults.len());
            let mut stats = WorkerStats::default();
            run_worker(&mut collected, &mut stats);
            per_thread.push((collected, stats));
        } else {
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for _ in 0..threads {
                    handles.push(scope.spawn(|| {
                        let mut collected = Vec::new();
                        let mut stats = WorkerStats::default();
                        run_worker(&mut collected, &mut stats);
                        (collected, stats)
                    }));
                }
                for h in handles {
                    // A worker that somehow died outside its range-level
                    // containment loses its outcomes; the merge below
                    // classifies whatever is missing as Assert instead of
                    // tearing the campaign down.
                    if let Ok(result) = h.join() {
                        per_thread.push(result);
                    }
                }
            });
        }

        let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; self.faults.len()];
        let mut schedule = ScheduleStats {
            ranges: self.buckets.len() as u64,
            range_splits: self.splits,
            ..ScheduleStats::default()
        };
        let mut early_exits = 0u64;
        for (collected, stats) in per_thread {
            schedule.restores += stats.restores;
            schedule.full_restores += stats.full_restores;
            schedule.incremental_restores += stats.incremental_restores;
            schedule.restored_bytes += stats.restored_bytes;
            schedule.restored_breakdown += stats.restored_breakdown;
            schedule.range_steals += stats.range_steals;
            schedule.suffix_cycles += stats.suffix_cycles;
            schedule.asserts += stats.asserts;
            schedule.poisoned_restores += stats.poisoned_restores;
            schedule.range_retries += stats.range_retries;
            schedule.skipped_sites += stats.skipped_sites;
            schedule.static_prunes += stats.static_prunes;
            schedule.batched_ranges += stats.batched_ranges;
            schedule.forks_spawned += stats.forks_spawned;
            schedule.forks_retired += stats.forks_retired;
            schedule.dead_sites += stats.dead_sites;
            schedule.golden_replay_cycles += stats.golden_replay_cycles;
            schedule.fork_bytes_copied += stats.fork_bytes_copied;
            schedule.fork_bytes_eager += stats.fork_bytes_eager;
            schedule.fork_bytes_shared += stats.fork_bytes_shared;
            schedule.cow_breaks += stats.cow_breaks;
            early_exits += stats.early_exits;
            for (idx, outcome) in collected {
                outcomes[idx] = Some(outcome);
            }
        }
        let outcomes: Vec<FaultOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or_else(|| {
                    schedule.asserts += 1;
                    FaultOutcome {
                        fault: self.faults[i],
                        effect: FaultEffect::Assert,
                    }
                })
            })
            .collect();
        let mut classification = Classification::default();
        for o in &outcomes {
            classification.record(o.effect, 1);
        }
        let runs_executed = outcomes.len() as u64;
        CampaignResult {
            outcomes,
            classification,
            runs_executed,
            early_exits,
            schedule,
        }
    }
}

/// Clone-free campaign entry used by the session layer: schedule and run in
/// one call.  `analysis` enables the static register-file prune; the
/// from-scratch path passes `None` so it stays the pure differential
/// baseline the soundness tests compare against.  `batching` selects the
/// per-range execution engine (per-fault restore vs fork-on-divergence
/// batching); it never changes outcomes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn campaign_shared(
    program: &Arc<Program>,
    decoded: &Arc<DecodedProgram>,
    cfg: &Arc<CpuConfig>,
    golden: &GoldenRun,
    use_checkpoints: bool,
    faults: &[FaultSpec],
    threads: usize,
    analysis: Option<&ProgramAnalysis>,
    batching: BatchingPolicy,
) -> CampaignResult {
    let mut sched = CampaignScheduler::with_predecoded(
        program,
        decoded,
        cfg,
        golden,
        use_checkpoints,
        faults,
        threads,
    )
    .with_batching(batching);
    if let Some(analysis) = analysis {
        sched = sched.with_static_analysis(analysis);
    }
    sched.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{
        build_golden_checkpointed, build_golden_plain, CampaignError, FaultInjector,
    };
    use crate::classify::FaultEffect;
    use crate::sampling::generate_fault_list;
    use merlin_cpu::{CheckpointPolicy, NullProbe, SpacingStrategy, Structure};
    use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};

    fn golden_plain(
        program: &Program,
        cfg: &CpuConfig,
        max: u64,
    ) -> Result<GoldenRun, CampaignError> {
        let program = Arc::new(program.clone());
        let decoded = Arc::new(DecodedProgram::new(&program));
        build_golden_plain(&program, &decoded, cfg, max)
    }

    fn golden_ck(
        program: &Program,
        cfg: &CpuConfig,
        max: u64,
        policy: &CheckpointPolicy,
    ) -> Result<GoldenRun, CampaignError> {
        let program = Arc::new(program.clone());
        let decoded = Arc::new(DecodedProgram::new(&program));
        build_golden_checkpointed(&program, &decoded, cfg, max, policy)
    }

    fn campaign(
        program: &Program,
        cfg: &CpuConfig,
        golden: &GoldenRun,
        faults: &[FaultSpec],
        threads: usize,
    ) -> CampaignResult {
        campaign_shared(
            &Arc::new(program.clone()),
            &Arc::new(DecodedProgram::new(program)),
            &Arc::new(cfg.clone()),
            golden,
            true,
            faults,
            threads,
            None,
            BatchingPolicy::PerFault,
        )
    }

    fn campaign_scratch(
        program: &Program,
        cfg: &CpuConfig,
        golden: &GoldenRun,
        faults: &[FaultSpec],
        threads: usize,
    ) -> CampaignResult {
        campaign_shared(
            &Arc::new(program.clone()),
            &Arc::new(DecodedProgram::new(program)),
            &Arc::new(cfg.clone()),
            golden,
            false,
            faults,
            threads,
            None,
            BatchingPolicy::PerFault,
        )
    }

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let data = b.alloc_words(&[11, 22, 33, 44, 55, 66, 77, 88]);
        b.movi(reg(10), data as i64);
        b.movi(reg(1), 0);
        b.movi(reg(2), 0);
        let top = b.bind_label();
        b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
        b.store(reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
        b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
        b.branch_ri(Cond::Lt, reg(1), 8, top);
        b.out(reg(2));
        b.halt();
        b.build().unwrap()
    }

    fn small_policy() -> CheckpointPolicy {
        CheckpointPolicy {
            enabled: true,
            target_checkpoints: 8,
            min_interval: 8,
            early_exit: true,
            ..CheckpointPolicy::default()
        }
    }

    #[test]
    fn golden_run_succeeds_and_sets_timeout() {
        let g = golden_plain(&tiny_program(), &CpuConfig::default(), 1_000_000).unwrap();
        assert!(g.result.exit.is_halted());
        assert!(g.timeout_cycles >= 3 * g.result.cycles);
        assert!(g.checkpoints.is_none());
    }

    #[test]
    fn checkpointed_golden_run_matches_plain_golden_run() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let plain = golden_plain(&program, &cfg, 1_000_000).unwrap();
        for spacing in [SpacingStrategy::EqualCycles, SpacingStrategy::SuffixWork] {
            let ck = golden_ck(
                &program,
                &cfg,
                1_000_000,
                &small_policy().with_spacing(spacing),
            )
            .unwrap();
            assert_eq!(plain.result, ck.result);
            assert_eq!(plain.timeout_cycles, ck.timeout_cycles);
            let ckpts = ck.checkpoints.as_ref().unwrap();
            assert!(ckpts.store.len() >= 2);
        }
        // Disabled policy produces no store.
        let off = golden_ck(&program, &cfg, 1_000_000, &CheckpointPolicy::disabled()).unwrap();
        assert!(off.checkpoints.is_none());
    }

    #[test]
    fn golden_run_failure_is_reported() {
        let mut b = ProgramBuilder::new();
        let top = b.bind_label();
        b.jump(top);
        b.halt();
        let program = b.build().unwrap();
        let err = golden_plain(&program, &CpuConfig::default(), 10_000);
        assert!(matches!(err, Err(CampaignError::GoldenRunFailed(_))));
        let err = golden_ck(&program, &CpuConfig::default(), 10_000, &small_policy());
        assert!(matches!(err, Err(CampaignError::GoldenRunFailed(_))));
    }

    #[test]
    fn outcomes_are_identical_across_thread_counts() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        for spacing in [SpacingStrategy::EqualCycles, SpacingStrategy::SuffixWork] {
            let golden = golden_ck(
                &program,
                &cfg,
                1_000_000,
                &small_policy().with_spacing(spacing),
            )
            .unwrap();
            let faults = generate_fault_list(
                Structure::RegisterFile,
                cfg.phys_int_regs,
                golden.result.cycles,
                60,
                7,
            );
            let seq = campaign(&program, &cfg, &golden, &faults, 1);
            for threads in [2, 4, 8] {
                let par = campaign(&program, &cfg, &golden, &faults, threads);
                assert_eq!(seq.outcomes, par.outcomes, "{spacing:?} x{threads}");
                assert_eq!(seq.classification, par.classification);
            }
            assert_eq!(seq.classification.total(), 60);
        }
    }

    #[test]
    fn checkpointed_campaign_is_byte_identical_to_from_scratch() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let mut early_exits_with_policy_on = 0u64;
        for policy in [
            small_policy(),
            CheckpointPolicy {
                early_exit: false,
                ..small_policy()
            },
            small_policy().with_spacing(SpacingStrategy::EqualCycles),
        ] {
            let golden = golden_ck(&program, &cfg, 1_000_000, &policy).unwrap();
            for structure in [Structure::RegisterFile, Structure::StoreQueue] {
                let entries = cfg.structure_entries(structure);
                let faults = generate_fault_list(structure, entries, golden.result.cycles, 150, 13);
                let checkpointed = campaign(&program, &cfg, &golden, &faults, 4);
                let scratch = campaign_scratch(&program, &cfg, &golden, &faults, 4);
                assert_eq!(checkpointed.outcomes, scratch.outcomes, "{structure}");
                assert_eq!(checkpointed.classification, scratch.classification);
                assert_eq!(scratch.early_exits, 0);
                assert_eq!(scratch.schedule.restores, 0);
                // Every in-range fault restored a checkpoint.
                assert!(checkpointed.schedule.restores > 0);
                assert!(checkpointed.schedule.suffix_cycles > 0);
                assert!(
                    checkpointed.schedule.suffix_cycles < scratch.schedule.suffix_cycles,
                    "restore must cut simulated cycles ({} vs {})",
                    checkpointed.schedule.suffix_cycles,
                    scratch.schedule.suffix_cycles
                );
                if !policy.early_exit {
                    assert_eq!(checkpointed.early_exits, 0);
                }
                early_exits_with_policy_on +=
                    u64::from(policy.early_exit) * checkpointed.early_exits;
            }
        }
        // The convergence early exit must actually fire somewhere (dead
        // engine paths would hide bugs behind the identical-results check).
        assert!(early_exits_with_policy_on > 0);
    }

    #[test]
    fn scheduler_buckets_by_restore_source_and_steals_ranges() {
        let program = Arc::new(tiny_program());
        let cfg = Arc::new(CpuConfig::default());
        let decoded = Arc::new(DecodedProgram::new(&program));
        let golden =
            build_golden_checkpointed(&program, &decoded, &cfg, 1_000_000, &small_policy())
                .unwrap();
        let store_cycles: Vec<u64> = golden
            .checkpoints
            .as_ref()
            .unwrap()
            .store
            .cycles()
            .collect();
        let faults = generate_fault_list(
            Structure::RegisterFile,
            cfg.phys_int_regs,
            golden.result.cycles,
            120,
            3,
        );
        let sched = CampaignScheduler::new(&program, &cfg, &golden, true, &faults, 4);
        assert!(sched.uses_checkpoints());
        // No more ranges than checkpoints plus splits, and every bucket's
        // faults share one restore source (splitting preserves the source).
        assert!(sched.ranges() >= 1);
        assert!(sched.ranges() <= store_cycles.len() + sched.range_splits() as usize);
        for bucket in &sched.buckets {
            assert!(!bucket.is_empty());
            let restore_of = |f: FaultSpec| {
                store_cycles
                    .iter()
                    .rev()
                    .find(|&&c| c <= f.cycle)
                    .copied()
                    .unwrap()
            };
            let first = restore_of(faults[bucket[0]]);
            assert!(bucket.iter().all(|&i| restore_of(faults[i]) == first));
        }
        let result = sched.run();
        assert_eq!(result.schedule.ranges, sched.ranges() as u64);
        // A single worker claims every range: all but its binding are steals.
        let solo = CampaignScheduler::new(&program, &cfg, &golden, true, &faults, 1).run();
        assert_eq!(solo.schedule.range_steals, solo.schedule.ranges - 1);
        assert_eq!(solo.outcomes, result.outcomes);
    }

    #[test]
    fn oversized_ranges_are_split_with_shared_restore_source() {
        let program = Arc::new(tiny_program());
        let cfg = Arc::new(CpuConfig::default());
        let decoded = Arc::new(DecodedProgram::new(&program));
        let golden =
            build_golden_checkpointed(&program, &decoded, &cfg, 1_000_000, &small_policy())
                .unwrap();
        let store_cycles: Vec<u64> = golden
            .checkpoints
            .as_ref()
            .unwrap()
            .store
            .cycles()
            .collect();
        assert!(store_cycles.len() >= 3, "test needs several ranges");
        // A lopsided list: nearly every fault lands in the first checkpoint
        // range, a token few elsewhere — the hot range must be split instead
        // of serialising one worker.
        let hot_upper = store_cycles[1];
        let mut faults: Vec<FaultSpec> = (0..90)
            .map(|i| FaultSpec::new(Structure::RegisterFile, (i % 8) as usize, 5, i % hot_upper))
            .collect();
        for (i, &c) in store_cycles[1..].iter().enumerate() {
            faults.push(FaultSpec::new(Structure::RegisterFile, i % 8, 3, c + 1));
        }
        let sched = CampaignScheduler::new(&program, &cfg, &golden, true, &faults, 4);
        assert!(
            sched.range_splits() > 0,
            "a range holding ~90% of the faults must split"
        );
        let restore_of = |f: FaultSpec| {
            store_cycles
                .iter()
                .rev()
                .find(|&&c| c <= f.cycle)
                .copied()
                .unwrap()
        };
        // Splitting preserves the per-bucket shared restore source.
        for bucket in &sched.buckets {
            assert!(!bucket.is_empty());
            let first = restore_of(faults[bucket[0]]);
            assert!(bucket.iter().all(|&i| restore_of(faults[i]) == first));
        }
        let split = sched.run();
        assert_eq!(split.schedule.range_splits, sched.range_splits());
        assert_eq!(split.schedule.ranges, sched.ranges() as u64);
        // Outcomes are untouched by splitting: identical to from-scratch.
        let scratch = campaign_scratch(&program, &cfg, &golden, &faults, 4);
        assert_eq!(split.outcomes, scratch.outcomes);
        assert_eq!(scratch.schedule.range_splits, 0);
    }

    #[test]
    fn range_bound_workers_restore_incrementally() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let faults = generate_fault_list(
            Structure::RegisterFile,
            cfg.phys_int_regs,
            golden.result.cycles,
            80,
            21,
        );
        let result = campaign(&program, &cfg, &golden, &faults, 2);
        let sched = result.schedule;
        assert_eq!(
            sched.full_restores + sched.incremental_restores,
            sched.restores,
            "every restore is exactly one of full/incremental"
        );
        // Workers run whole ranges against one snapshot: with far fewer
        // ranges than faults, back-to-back same-snapshot restores dominate.
        assert!(
            sched.incremental_restores > sched.full_restores,
            "expected mostly incremental restores, got {} incremental vs {} full",
            sched.incremental_restores,
            sched.full_restores
        );
        assert!(sched.restored_bytes > 0);
        // The from-scratch path never restores anything.
        let scratch = campaign_scratch(&program, &cfg, &golden, &faults, 2);
        assert_eq!(scratch.schedule.full_restores, 0);
        assert_eq!(scratch.schedule.incremental_restores, 0);
        assert_eq!(scratch.schedule.restored_bytes, 0);
        assert_eq!(result.outcomes, scratch.outcomes);
    }

    #[test]
    fn empty_fault_list_schedules_nothing() {
        let program = Arc::new(tiny_program());
        let cfg = Arc::new(CpuConfig::default());
        let decoded = Arc::new(DecodedProgram::new(&program));
        let golden =
            build_golden_checkpointed(&program, &decoded, &cfg, 1_000_000, &small_policy())
                .unwrap();
        for use_ck in [true, false] {
            let sched = CampaignScheduler::new(&program, &cfg, &golden, use_ck, &[], 4);
            assert_eq!(sched.ranges(), 0);
            let result = sched.run();
            assert!(result.outcomes.is_empty());
            assert_eq!(result.schedule, ScheduleStats::default());
        }
    }

    #[test]
    fn campaign_finds_both_masked_and_non_masked_faults() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let faults = generate_fault_list(
            Structure::RegisterFile,
            cfg.phys_int_regs,
            golden.result.cycles,
            200,
            99,
        );
        let result = campaign(&program, &cfg, &golden, &faults, 2);
        assert!(result.classification.masked > 0);
        // With 256 mostly-idle registers the masked fraction must dominate.
        assert!(result.classification.avf() < 0.5);
    }

    #[test]
    fn timeout_rule_is_single_sourced() {
        assert_eq!(GoldenRun::timeout_for(0), 1000);
        assert_eq!(GoldenRun::timeout_for(100), 1000);
        assert_eq!(GoldenRun::timeout_for(10_000), 30_000);
        assert_eq!(GoldenRun::timeout_for(u64::MAX), u64::MAX);
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let plain = golden_plain(&program, &cfg, 1_000_000).unwrap();
        let ck = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        assert_eq!(
            plain.timeout_cycles,
            GoldenRun::timeout_for(plain.result.cycles)
        );
        assert_eq!(ck.timeout_cycles, plain.timeout_cycles);
    }

    #[test]
    fn degenerate_store_falls_back_instead_of_panicking() {
        // Regression: a checkpoint store without the cycle-0 snapshot (built
        // on a mid-run core, or decoded from a foreign `.golden` file) used
        // to panic the campaign worker on the first fault before its first
        // checkpoint.  It now degrades to from-scratch simulation.
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let mut cpu = Cpu::new(Arc::new(program.clone()), cfg.clone()).unwrap();
        for _ in 0..17 {
            cpu.step(&mut NullProbe);
        }
        let (_, late_store) = cpu.run_with_checkpoints(1_000_000, &mut NullProbe, 8);
        assert!(!late_store.starts_at_reset());
        let crippled = GoldenRun {
            checkpoints: Some(Arc::new(GoldenCheckpoints {
                store: late_store,
                policy: small_policy(),
            })),
            ..golden.clone()
        };
        assert!(!crippled
            .checkpoints
            .as_ref()
            .unwrap()
            .usable_for_campaigns());
        let faults = [
            FaultSpec::new(Structure::RegisterFile, 3, 5, 2), // before cycle 17
            FaultSpec::new(Structure::RegisterFile, 3, 5, 40),
        ];
        let via_crippled = campaign(&program, &cfg, &crippled, &faults, 1);
        let via_scratch = campaign_scratch(&program, &cfg, &golden, &faults, 1);
        assert_eq!(via_crippled.outcomes, via_scratch.outcomes);
        assert_eq!(
            via_crippled.early_exits, 0,
            "fallback path cannot early-exit"
        );
        assert_eq!(via_crippled.schedule.restores, 0);
        // The single-fault injector degrades the same way.
        let mut injector = FaultInjector::new(&program, &cfg, &crippled);
        assert_eq!(injector.run(faults[0]), via_scratch.outcomes[0].effect);
    }

    #[test]
    fn out_of_range_fault_sites_are_masked() {
        let program = tiny_program();
        let cfg = CpuConfig::default().with_phys_regs(64);
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let mut injector = FaultInjector::new(&program, &cfg, &golden);
        let absent = FaultSpec::new(Structure::RegisterFile, 200, 1, 10);
        let (effect, cycles) = injector.run_with_cycles(absent);
        assert_eq!(effect, FaultEffect::Masked);
        assert_eq!(cycles, 0, "absent fault sites simulate nothing");
        // Same through the scheduler, which now accounts for the skip
        // instead of silently reporting Masked with zero context.
        let out = campaign(&program, &cfg, &golden, &[absent], 1);
        assert_eq!(out.outcomes[0].effect, FaultEffect::Masked);
        assert_eq!(out.schedule.restores, 0);
        assert_eq!(out.schedule.skipped_sites, 1);
        // A present site is not counted as skipped.
        let present = FaultSpec::new(Structure::RegisterFile, 3, 1, 10);
        let out = campaign(&program, &cfg, &golden, &[absent, present], 1);
        assert_eq!(out.schedule.skipped_sites, 1);
        // The from-scratch path counts skips identically.
        let scratch = campaign_scratch(&program, &cfg, &golden, &[absent, present], 1);
        assert_eq!(scratch.schedule.skipped_sites, 1);
        assert_eq!(out.outcomes, scratch.outcomes);
    }

    #[test]
    fn statically_dead_sites_are_pruned_without_simulation() {
        let program = tiny_program(); // touches r1, r2, r10 (+ temps)
        let cfg = CpuConfig::default().with_phys_regs(64);
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let decoded = DecodedProgram::new(&program);
        let analysis = ProgramAnalysis::of(&program, &decoded);
        assert!(analysis.rf_entry_statically_dead(7));
        assert!(!analysis.rf_entry_statically_dead(2));

        let dead = FaultSpec::new(Structure::RegisterFile, 7, 3, 50);
        let live = FaultSpec::new(Structure::RegisterFile, 2, 3, 50);
        let faults = [dead, live];
        let arc_program = Arc::new(program.clone());
        let arc_cfg = Arc::new(cfg.clone());
        let pruned = CampaignScheduler::new(&arc_program, &arc_cfg, &golden, true, &faults, 1)
            .with_static_analysis(&analysis)
            .run();
        assert_eq!(pruned.schedule.static_prunes, 1);
        assert_eq!(pruned.outcomes[0].effect, FaultEffect::Masked);
        // Only the live fault paid for a restore.
        assert_eq!(pruned.schedule.restores, 1);

        // Soundness, differentially: the unpruned run — which fully
        // simulates the dead-entry fault — produces byte-identical outcomes.
        let plain = campaign(&program, &cfg, &golden, &faults, 1);
        assert_eq!(plain.schedule.static_prunes, 0);
        assert_eq!(plain.schedule.restores, 2);
        assert_eq!(plain.outcomes, pruned.outcomes);
    }

    #[test]
    fn injector_reports_per_fault_cycles() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let mut injector = FaultInjector::new(&program, &cfg, &golden);
        // A late fault must simulate fewer cycles than an early one with the
        // same (masked-at-end) fate — that is the whole point of restoring.
        let early = FaultSpec::new(Structure::RegisterFile, 3, 5, 2);
        let late = FaultSpec::new(Structure::RegisterFile, 3, 5, golden.result.cycles - 2);
        let (_, early_cycles) = injector.run_with_cycles(early);
        let (_, late_cycles) = injector.run_with_cycles(late);
        assert!(early_cycles > 0 && late_cycles > 0);
        assert!(
            late_cycles < early_cycles,
            "late fault simulated {late_cycles} >= early fault's {early_cycles}"
        );
    }
}
