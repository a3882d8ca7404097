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
//! Each checkpoint range runs through the batched driver (see the `batch`
//! module); statically-pruned and absent-site faults, and L1D faults the
//! golden run never reads again, are resolved first, without a core.
//! Without a usable checkpoint store (from-scratch campaigns) the same
//! machinery runs over contiguous chunks of the cycle-sorted order and
//! simulates every fault from cycle 0 — there is no restore source to keep
//! hot, but whole-chunk claiming keeps the scheduling overhead independent
//! of the fault count.
//!
//! # Determinism
//!
//! Scheduling decides only *who* simulates a fault and *when*; every fault's
//! classification is a pure function of (program, configuration, fault).
//! Outcomes are collected per original fault-list index and merged, so
//! [`CampaignResult::outcomes`] is byte-identical across thread counts and
//! against the from-scratch path.  Only [`ScheduleStats`] varies.

use crate::batch::{run_batched_range, ForkPool};
use crate::campaign::{
    run_single_fault_shared, site_absent, CampaignResult, FaultOutcome, FaultRun,
    GoldenCheckpoints, GoldenRun,
};
use crate::classify::{Classification, FaultEffect};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{CpuConfig, FaultSpec, RestoreStats, RestoredBytes, Structure};
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
    /// Checkpoint restores performed: one per range that reaches the
    /// batched driver, for its golden core (forks adopt the golden core's
    /// state without a restore; 0 from scratch).
    pub restores: u64,
    /// Whole ranges claimed by workers beyond their initial binding.
    pub range_steals: u64,
    /// Extra ranges created by splitting oversized checkpoint ranges (a
    /// range whose fault count exceeds twice the mean is cut into
    /// near-mean-sized sub-ranges sharing the restore source).
    pub range_splits: u64,
    /// Bytes made equal to the checkpoint across all restores, over *every*
    /// restored structure: memory chunks, cache lines, register file,
    /// rename state, fetch buffer, ROB, load/store queues and predictor
    /// tables.
    pub restored_bytes: u64,
    /// The same bytes broken down per pipeline structure.
    pub restored_breakdown: RestoredBytes,
    /// Total cycles simulated by faulty cores, from each fault's fork point
    /// (cycle 0 from scratch) to wherever its run ended.  The shared golden
    /// replay is counted apart, in
    /// [`ScheduleStats::golden_replay_cycles`]; the two together are the
    /// simulation work the engine paid, comparable against
    /// `faults × golden_cycles` from scratch.
    pub suffix_cycles: u64,
    /// Faults classified [`Assert`](crate::FaultEffect::Assert) by the
    /// engine's failure containment: a panic during the fault's own
    /// simulation, a range whose retry also failed, a core that could not be
    /// constructed, or a worker that died without reporting.
    pub asserts: u64,
    /// Restores that lifted a core out of quarantine — the first restore
    /// following a panic on that core.
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
    /// Faulty cores forked from a live golden replay: one per simulated
    /// fault on the checkpoint path.  A one-fault range counts its golden
    /// core, which takes the fault itself instead of being forked.
    pub forks_spawned: u64,
    /// Forks retired early by the boundary re-convergence probe; reported
    /// as [`CampaignResult::early_exits`].
    ///
    /// [`CampaignResult::early_exits`]: crate::CampaignResult::early_exits
    pub forks_retired: u64,
    /// Faults resolved Masked because the flipped entry is overwritten (or
    /// evicted) before anything reads it, in two places:
    ///
    /// - L1D faults, before any restore: the golden run's
    ///   [`L1dLiveness`](crate::L1dLiveness) log says the word's first
    ///   event at or after the injection cycle is not a read;
    /// - register-file and store-queue faults, in the batched driver at
    ///   their injection cycle, when
    ///   [`Cpu::fault_site_dead`](merlin_cpu::Cpu::fault_site_dead) holds
    ///   on the golden core.
    ///
    /// No core is forked or stepped for them, so they are counted neither
    /// in [`ScheduleStats::forks_spawned`] nor in `early_exits`.  Always 0
    /// on the from-scratch path, which simulates these faults in full.
    pub dead_sites: u64,
    /// Cycles the batched driver's shared golden cores replayed — the
    /// per-range prefix work paid *once* instead of per fault.  Kept
    /// separate from [`ScheduleStats::suffix_cycles`], which counts
    /// faulty-core cycles only.
    pub golden_replay_cycles: u64,
    /// Bytes the batched driver's copy-on-write forks actually copied at
    /// fork time.  Structural sharing makes [`Cpu::fork_from`](merlin_cpu::Cpu::fork_from)
    /// O(metadata): handles are adopted instead of bytes moved, so this
    /// stays tiny regardless of how much state the golden core touched.
    pub fork_bytes_copied: u64,
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

impl std::ops::AddAssign for ScheduleStats {
    fn add_assign(&mut self, rhs: Self) {
        self.ranges += rhs.ranges;
        self.restores += rhs.restores;
        self.range_steals += rhs.range_steals;
        self.range_splits += rhs.range_splits;
        self.restored_bytes += rhs.restored_bytes;
        self.restored_breakdown += rhs.restored_breakdown;
        self.suffix_cycles += rhs.suffix_cycles;
        self.asserts += rhs.asserts;
        self.poisoned_restores += rhs.poisoned_restores;
        self.range_retries += rhs.range_retries;
        self.skipped_sites += rhs.skipped_sites;
        self.static_prunes += rhs.static_prunes;
        self.forks_spawned += rhs.forks_spawned;
        self.forks_retired += rhs.forks_retired;
        self.dead_sites += rhs.dead_sites;
        self.golden_replay_cycles += rhs.golden_replay_cycles;
        self.fork_bytes_copied += rhs.fork_bytes_copied;
        self.fork_bytes_shared += rhs.fork_bytes_shared;
        self.cow_breaks += rhs.cow_breaks;
    }
}

impl ScheduleStats {
    /// Accounts one simulated fault: its suffix cycles, its probe
    /// retirement and its Assert classification.
    pub(crate) fn record(&mut self, run: &FaultRun) {
        self.suffix_cycles += run.suffix_cycles;
        self.forks_retired += u64::from(run.early_exit);
        self.asserts += u64::from(run.effect == FaultEffect::Assert);
    }

    /// Accounts one checkpoint restore.
    pub(crate) fn record_restore(&mut self, restore: &RestoreStats) {
        self.restores += 1;
        self.poisoned_restores += u64::from(restore.from_quarantine);
        self.restored_bytes += restore.bytes.total();
        self.restored_breakdown += restore.bytes;
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

    /// Executes one range.  Statically-pruned and absent-site faults, and
    /// L1D faults the golden run never reads, are resolved first, without a
    /// core; the rest go through the batched driver on the worker's pool
    /// (a range with no fault left performs no restore), or, without a
    /// usable store, simulate from cycle 0 one by one.
    ///
    /// When the batched driver aborts (a panic or an unconstructible core),
    /// the attempt's tallies are dropped and each of the range's faults is
    /// re-run as its own one-fault range on the same pool.  The driver
    /// parks the quarantined core on top of the pool, so the first re-run
    /// restores it and lifts the quarantine.  A one-fault range that aborts again
    /// classifies its fault Assert; its tallies are kept, so the restores
    /// it paid (a poisoned one included) are counted.
    fn run_range(
        &self,
        bucket: &[usize],
        pool: &mut ForkPool,
        stats: &mut ScheduleStats,
    ) -> Vec<(usize, FaultEffect)> {
        let mut out = Vec::with_capacity(bucket.len());
        let mut sim = Vec::with_capacity(bucket.len());
        for &idx in bucket {
            let fault = self.faults[idx];
            // Static prune: a fault into a provably-dead register-file
            // entry is Masked by construction.
            let pruned = self.analysis.is_some_and(|a| {
                fault.structure == Structure::RegisterFile
                    && a.rf_entry_statically_dead(fault.entry)
            });
            if pruned {
                stats.static_prunes += 1;
                out.push((idx, FaultEffect::Masked));
            } else if site_absent(&self.cfg, fault) {
                stats.skipped_sites += 1;
                out.push((idx, FaultEffect::Masked));
            } else if self
                .ckpts
                .as_ref()
                .is_some_and(|c| c.masked_by_golden_future(fault))
            {
                stats.dead_sites += 1;
                out.push((idx, FaultEffect::Masked));
            } else {
                sim.push((idx, fault));
            }
        }
        let Some(ckpts) = &self.ckpts else {
            for (idx, fault) in sim {
                let run = run_single_fault_shared(
                    &self.program,
                    &self.decoded,
                    &self.cfg,
                    self.golden,
                    fault,
                );
                stats.record(&run);
                out.push((idx, run.effect));
            }
            return out;
        };
        let mut run = |sim: &[(usize, FaultSpec)], stats: &mut ScheduleStats| {
            run_batched_range(pool, self.golden, ckpts, &self.boundaries, sim, stats)
        };
        let mut attempt = ScheduleStats::default();
        if let Some(effects) = run(&sim, &mut attempt) {
            *stats += attempt;
            out.extend(effects);
            return out;
        }
        // The aborted attempt is counted like a range retry.
        stats.range_retries += 1;
        for &one in &sim {
            match run(&[one], stats) {
                Some(effects) => out.extend(effects),
                None => {
                    stats.asserts += 1;
                    out.push((one.0, FaultEffect::Assert));
                }
            }
        }
        out
    }

    /// Runs the campaign to completion and aggregates the result.
    ///
    /// Outcomes are byte-identical across thread counts; only
    /// [`CampaignResult::schedule`] (and `early_exits`, which counts the
    /// same events wherever they land) reflects the execution.
    ///
    /// # Failure containment
    ///
    /// A panic inside the batched driver quarantines the panicking core and
    /// re-runs the range's faults one at a time, so only the fault whose
    /// own simulation panics is classified
    /// [`Assert`](crate::FaultEffect::Assert) (see `run_range`).  A panic
    /// that tears through a worker's whole range attempt — outside the
    /// driver's catches — discards that attempt's partial outcomes, returns
    /// the range to a retry pool and re-runs it once on fresh cores; a
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
        let run_worker = |collected: &mut Vec<(usize, FaultEffect)>, stats: &mut ScheduleStats| {
            // Core pool for the batched driver (golden replay core + one
            // live fork); unused from scratch.
            let mut pool = ForkPool::new(&self.program, &self.decoded, &self.cfg);
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
                    pool.clear();
                }
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crate::chaos::maybe_panic_range(bucket.iter().map(|&i| self.faults[i].cycle));
                    // Partial work is collected locally so a mid-range panic
                    // discards it atomically and the retry re-runs the whole
                    // range.
                    let mut delta = ScheduleStats::default();
                    let local = self.run_range(bucket, &mut pool, &mut delta);
                    (local, delta)
                }));
                match attempt {
                    Ok((local, delta)) => {
                        collected.extend(local);
                        *stats += delta;
                    }
                    Err(_) => {
                        // The panic unwound outside the driver's catches, so
                        // the worker's cores are in an unknown state: drop
                        // them.
                        pool.clear();
                        if is_retry {
                            // Second failure: the range is deterministically
                            // poisoned — classify every fault in it Assert
                            // rather than retrying forever.
                            stats.asserts += bucket.len() as u64;
                            collected.extend(bucket.iter().map(|&idx| (idx, FaultEffect::Assert)));
                        } else {
                            stats.range_retries += 1;
                            push_retry(b);
                        }
                    }
                }
            }
        };

        let mut schedule = ScheduleStats {
            ranges: self.buckets.len() as u64,
            range_splits: self.splits,
            ..ScheduleStats::default()
        };
        let mut effects: Vec<Option<FaultEffect>> = vec![None; self.faults.len()];
        let mut merge = |collected: Vec<(usize, FaultEffect)>, stats: ScheduleStats| {
            schedule += stats;
            for (idx, effect) in collected {
                effects[idx] = Some(effect);
            }
        };
        if threads == 1 {
            let mut collected = Vec::with_capacity(self.faults.len());
            let mut stats = ScheduleStats::default();
            run_worker(&mut collected, &mut stats);
            merge(collected, stats);
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut collected = Vec::new();
                            let mut stats = ScheduleStats::default();
                            run_worker(&mut collected, &mut stats);
                            (collected, stats)
                        })
                    })
                    .collect();
                for h in handles {
                    // A worker that somehow died outside its range-level
                    // containment loses its outcomes; the merge below
                    // classifies whatever is missing as Assert instead of
                    // tearing the campaign down.
                    if let Ok((collected, stats)) = h.join() {
                        merge(collected, stats);
                    }
                }
            });
        }

        let outcomes: Vec<FaultOutcome> = effects
            .into_iter()
            .zip(self.faults)
            .map(|(effect, &fault)| FaultOutcome {
                fault,
                effect: effect.unwrap_or_else(|| {
                    schedule.asserts += 1;
                    FaultEffect::Assert
                }),
            })
            .collect();
        let mut classification = Classification::default();
        for o in &outcomes {
            classification.record(o.effect, 1);
        }
        CampaignResult {
            runs_executed: outcomes.len() as u64,
            outcomes,
            classification,
            early_exits: schedule.forks_retired,
            schedule,
        }
    }
}

/// Clone-free campaign entry used by the session layer: schedule and run in
/// one call.  `analysis` enables the static register-file prune; the
/// from-scratch path passes `None` so it stays the pure differential
/// baseline the soundness tests compare against.
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
) -> CampaignResult {
    let mut sched = CampaignScheduler::with_predecoded(
        program,
        decoded,
        cfg,
        golden,
        use_checkpoints,
        faults,
        threads,
    );
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
    use merlin_cpu::{CheckpointPolicy, Cpu, NullProbe, SpacingStrategy, Structure};
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
        let mut dead_sites = 0u64;
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
                dead_sites += checkpointed.schedule.dead_sites;
            }
        }
        // Dead-site resolution must actually fire somewhere (dead engine
        // paths would hide bugs behind the identical-results check).  This
        // program halts before any fork re-converges; probe retirement is
        // pinned on a real workload in `tests/batched_determinism.rs`.
        assert!(dead_sites > 0);
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
    fn each_range_restores_once() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let faults = generate_fault_list(
            Structure::RegisterFile,
            cfg.phys_int_regs,
            golden.result.cycles,
            400,
            21,
        );
        let result = campaign(&program, &cfg, &golden, &faults, 2);
        let sched = result.schedule;
        // Only a range's golden core restores; every fork adopts the golden
        // core's live state instead.  No fault here is pruned before the
        // driver (no static analysis, no absent site), so every range
        // restores exactly once.  Most faults land on dead sites and fork
        // nothing, hence the long list: ranges still fork several times
        // each.
        assert_eq!(sched.range_retries, 0);
        assert_eq!(
            sched.restores, sched.ranges,
            "{} restores for {} forks over {} ranges",
            sched.restores, sched.forks_spawned, sched.ranges
        );
        assert!(
            sched.forks_spawned > sched.ranges,
            "the bound is not vacuous"
        );
        assert!(sched.restored_bytes > 0);
        // The from-scratch path never restores anything.
        let scratch = campaign_scratch(&program, &cfg, &golden, &faults, 2);
        assert_eq!(scratch.schedule.restores, 0);
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
                l1d: golden.checkpoints.as_ref().unwrap().l1d.clone(),
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
    fn l1d_faults_the_golden_run_never_reads_take_no_restore() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let log = &golden.checkpoints.as_ref().unwrap().l1d;
        // The cold cache is refilled before anything reads it.
        let dead = FaultSpec::new(Structure::L1DCache, 0, 3, 0);
        assert!(!log.is_live(dead.entry, dead.cycle));
        let live = (0..golden.result.cycles)
            .flat_map(|c| (0..log.words()).map(move |e| (e, c)))
            .find(|&(e, c)| log.is_live(e, c))
            .map(|(e, c)| FaultSpec::new(Structure::L1DCache, e, 3, c))
            .expect("the tiny program reads the L1D");
        let out = campaign(&program, &cfg, &golden, &[dead], 1);
        assert_eq!(out.outcomes[0].effect, FaultEffect::Masked);
        assert_eq!(out.schedule.dead_sites, 1);
        assert_eq!(out.schedule.restores, 0, "resolved before any restore");
        let faults = [dead, live];
        let out = campaign(&program, &cfg, &golden, &faults, 1);
        let scratch = campaign_scratch(&program, &cfg, &golden, &faults, 1);
        assert_eq!(out.outcomes, scratch.outcomes);
        assert_eq!(
            (out.schedule.dead_sites, out.schedule.forks_spawned),
            (1, 1)
        );
        let mut injector = FaultInjector::new(&program, &cfg, &golden);
        assert_eq!(injector.run_with_cycles(dead), (FaultEffect::Masked, 0));
        assert_eq!(injector.run(live), scratch.outcomes[1].effect);
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
        // Only the live fault reached a core.
        let reached = |r: &CampaignResult| r.schedule.dead_sites + r.schedule.forks_spawned;
        assert_eq!(reached(&pruned), 1);

        // Soundness, differentially: the unpruned run — which simulates
        // the dead-entry fault — produces byte-identical outcomes.
        let plain = campaign(&program, &cfg, &golden, &faults, 1);
        assert_eq!(plain.schedule.static_prunes, 0);
        assert_eq!(reached(&plain), 2);
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
