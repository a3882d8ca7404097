//! Restore-aware campaign scheduling: checkpoint-range buckets claimed
//! whole by workers, and the engine's failure containment.
//!
//! # Why ranges, not single faults
//!
//! The first dynamic engine handed faults to workers one at a time through a
//! global atomic index over the cycle-sorted order.  That balances load, but
//! consecutive grabs by one worker rarely restore from the *same* golden
//! snapshot — between two of its faults, other workers have claimed the
//! faults in between — so the restore source keeps leaving the worker's
//! cache.  The campaign scheduler keeps dynamic scheduling but changes the
//! unit of work:
//!
//! 1. The cycle-sorted fault list is bucketed into **checkpoint ranges**:
//!    all faults whose restore source is the same golden snapshot (the
//!    latest checkpoint at or before their injection cycle) share a bucket.
//! 2. Workers claim **whole ranges** from one shared atomic index: a
//!    worker runs every fault of its range against the one hot restore
//!    snapshot, then claims the next unclaimed range, never a single
//!    fault.
//!
//! Each checkpoint range runs through the batched driver (see the `batch`
//! module); statically-pruned and absent-site faults, and L1D faults the
//! golden run never reads again, are resolved first, without a core.
//! From-scratch campaigns (the oracle) run the same machinery over
//! contiguous chunks of the cycle-sorted order and simulate every fault
//! from cycle 0 — there is no restore source to keep hot, but whole-chunk
//! claiming keeps the scheduling overhead independent of the fault count.
//!
//! # Determinism
//!
//! Scheduling decides only *who* simulates a fault and *when*; every fault's
//! classification is a pure function of (program, configuration, fault).
//! Outcomes are collected per original fault-list index and merged, so
//! [`CampaignResult::outcomes`] is byte-identical across thread counts and
//! against the from-scratch path.  Only [`ScheduleStats`] varies.
//!
//! # Failure containment
//!
//! A run the simulator itself cannot finish is classified
//! [`Assert`](crate::FaultEffect::Assert), and a panic is such a run.  The
//! engine catches panics in two places only:
//!
//! 1. once per **range attempt**, in the worker.  The range's cores are
//!    locals of the batched driver, so a panic drops them and the worker's
//!    pool keeps only cores that finished cleanly.  The attempt's outcomes
//!    and tallies are discarded (counted in
//!    [`ScheduleStats::range_retries`]), and each of the range's faults is
//!    re-run as its own one-fault range;
//! 2. once per **single-fault run**, in `contain_fault`: the re-runs
//!    above.  A fault that panics there is Assert, counted in
//!    [`ScheduleStats::asserts`].
//!
//! The same holds on the checkpointed and the from-scratch path.  Whether
//! a fault's own simulation panics is a pure function of (program,
//! configuration, fault), so outcomes stay byte-identical across thread
//! counts even under panics.

use crate::batch::{run_batched_range, ForkPool};
use crate::campaign::{
    run_single_fault_shared, site_absent, CampaignResult, FaultOutcome, FaultRun, GoldenRun,
};
use crate::classify::{Classification, FaultEffect};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{CpuConfig, FaultSpec, Structure};
use merlin_isa::{DecodedProgram, Program};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How many ranges per worker the from-scratch path chunks the fault list
/// into: enough that other workers can take up the slack of a slow chunk,
/// few enough that claiming stays negligible.
const SCRATCH_RANGES_PER_WORKER: usize = 4;

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
    /// Total cycles simulated by faulty cores, from each fault's fork point
    /// (cycle 0 from scratch) to wherever its run ended.  The shared golden
    /// replay is counted apart, in
    /// [`ScheduleStats::golden_replay_cycles`]; the two together are the
    /// simulation work the engine paid, comparable against
    /// `faults × golden_cycles` from scratch.
    pub suffix_cycles: u64,
    /// Faults classified [`Assert`](crate::FaultEffect::Assert) by the
    /// engine's failure containment: a fault whose own simulation panicked,
    /// or a worker that died without reporting.  A run the model itself
    /// ends with an assertion (a store into the code region) is classified
    /// Assert too, but is not counted here.
    pub asserts: u64,
    /// Range attempts that panicked and were re-run one fault at a time.
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
    /// fault on the checkpoint path.
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
    /// Copy-on-write sharing breaks: pages privatised (copied after all) on
    /// their first write following a fork or a handle-sharing restore.
    /// [`Cpu::fork_from`](merlin_cpu::Cpu::fork_from) and restores adopt
    /// page handles for the backing memory, the L1D's tag and byte pages,
    /// the L2's tag pages, the branch predictor and the BTB, so this counts
    /// the copy work a campaign defers on those.  The per-cycle arrays
    /// (register file, ROB, queues) and the output stream are copied whole
    /// by every fork and restore and never count.
    ///
    /// Read it as a spread, not as a figure that repeats exactly: a write
    /// copies a shared page only when another core or snapshot holds it at
    /// that moment (otherwise the page is taken back by move), and with
    /// more than one worker that depends on thread interleaving.
    pub cow_breaks: u64,
}

impl std::ops::AddAssign for ScheduleStats {
    fn add_assign(&mut self, rhs: Self) {
        self.ranges += rhs.ranges;
        self.restores += rhs.restores;
        self.suffix_cycles += rhs.suffix_cycles;
        self.asserts += rhs.asserts;
        self.range_retries += rhs.range_retries;
        self.skipped_sites += rhs.skipped_sites;
        self.static_prunes += rhs.static_prunes;
        self.forks_spawned += rhs.forks_spawned;
        self.forks_retired += rhs.forks_retired;
        self.dead_sites += rhs.dead_sites;
        self.golden_replay_cycles += rhs.golden_replay_cycles;
        self.cow_breaks += rhs.cow_breaks;
    }
}

impl ScheduleStats {
    /// Accounts one simulated fault: its suffix cycles and its probe
    /// retirement.  A run the model itself classifies Assert is not a
    /// containment event, so it leaves [`ScheduleStats::asserts`] alone.
    pub(crate) fn record(&mut self, run: &FaultRun) {
        self.suffix_cycles += run.suffix_cycles;
        self.forks_retired += u64::from(run.early_exit);
    }
}

/// The engine's single-fault panic catch (see the [module docs](self)):
/// runs one fault's simulation and adds its tallies into `stats` when it
/// completes.  A panic drops the cores the run held and classifies the
/// fault Assert, counted in [`ScheduleStats::asserts`].
fn contain_fault(
    stats: &mut ScheduleStats,
    run: impl FnOnce(&mut ScheduleStats) -> FaultEffect,
) -> FaultEffect {
    let mut delta = ScheduleStats::default();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut delta))) {
        Ok(effect) => {
            *stats += delta;
            effect
        }
        Err(_) => {
            stats.asserts += 1;
            FaultEffect::Assert
        }
    }
}

/// Executes one injection campaign: buckets the cycle-sorted fault list by
/// checkpoint range and lets workers claim whole ranges (see the
/// [module docs](self)).
///
/// Built once per campaign by [`Session::campaign`](crate::Session::campaign)
/// /[`Session::campaign_from_scratch`](crate::Session::campaign_from_scratch),
/// over the golden run the session built.
pub(crate) struct CampaignScheduler<'a> {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cfg: Arc<CpuConfig>,
    golden: &'a GoldenRun,
    /// Whether faults restore golden checkpoints (false from scratch).
    use_checkpoints: bool,
    /// Ascending checkpoint cycles of the golden store (empty from scratch).
    boundaries: Vec<u64>,
    faults: &'a [FaultSpec],
    /// Fault-list indices per range, cycle-sorted within each range; no
    /// range is empty.
    buckets: Vec<Vec<usize>>,
    threads: usize,
    /// Static dataflow analysis of the program, when the caller computed
    /// one: register-file faults into statically-dead entries are then
    /// classified Masked without touching a core.
    analysis: Option<&'a ProgramAnalysis>,
}

impl<'a> CampaignScheduler<'a> {
    /// Plans a campaign over `faults`.  With `use_checkpoints` faults are
    /// bucketed by restore source; otherwise the cycle-sorted order is
    /// chunked contiguously and every fault simulates from cycle 0.
    /// `decoded` is the session's pre-decoded micro-op table, shared across
    /// the golden run and every campaign worker.
    ///
    /// With an `analysis`, register-file faults whose physical entry is
    /// [`statically dead`] are classified Masked with zero simulation and
    /// accounted as [`ScheduleStats::static_prunes`].  The prune is sound —
    /// a fully simulated run of such a fault always classifies Masked — so
    /// outcomes are byte-identical with and without it; the from-scratch
    /// oracle passes `None` so it stays the pure differential baseline.
    ///
    /// [`statically dead`]: ProgramAnalysis::rf_entry_statically_dead
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: &Arc<Program>,
        decoded: &Arc<DecodedProgram>,
        cfg: &Arc<CpuConfig>,
        golden: &'a GoldenRun,
        use_checkpoints: bool,
        faults: &'a [FaultSpec],
        threads: usize,
        analysis: Option<&'a ProgramAnalysis>,
    ) -> Self {
        let threads = threads.max(1).min(faults.len().max(1));
        // Cycle-sorted, stable on the original index, so bucketing — and
        // therefore the whole schedule — is reproducible.
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&i| (faults[i].cycle, i));
        let boundaries: Vec<u64> = if use_checkpoints {
            golden.checkpoints.store.cycles().collect()
        } else {
            Vec::new()
        };
        let buckets = if use_checkpoints {
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
            buckets
        } else if order.is_empty() {
            Vec::new()
        } else {
            let chunks = (threads * SCRATCH_RANGES_PER_WORKER).min(order.len());
            let size = order.len().div_ceil(chunks);
            order.chunks(size).map(<[usize]>::to_vec).collect()
        };
        CampaignScheduler {
            program: Arc::clone(program),
            decoded: Arc::clone(decoded),
            cfg: Arc::clone(cfg),
            golden,
            use_checkpoints,
            boundaries,
            faults,
            // Never spawn more workers than ranges: the extras would only
            // contend on the claim counter and exit.
            threads: threads.min(buckets.len().max(1)),
            buckets,
            analysis,
        }
    }

    /// Executes one range.  Statically-pruned and absent-site faults, and
    /// L1D faults the golden run never reads, are resolved first, without a
    /// core; the rest go through the batched driver on the worker's pool
    /// (a range with no fault left performs no restore), or, from scratch,
    /// simulate from cycle 0 one by one.  Catches nothing: a panic unwinds
    /// to the worker (see `run`).
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
            } else if self.use_checkpoints && self.golden.checkpoints.masked_by_golden_future(fault)
            {
                stats.dead_sites += 1;
                out.push((idx, FaultEffect::Masked));
            } else {
                sim.push((idx, fault));
            }
        }
        if self.use_checkpoints {
            out.extend(run_batched_range(
                pool,
                self.golden,
                &self.boundaries,
                &sim,
                stats,
            ));
        } else {
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
        }
        out
    }

    /// Runs the campaign to completion and aggregates the result.
    ///
    /// Outcomes are byte-identical across thread counts; only
    /// [`CampaignResult::schedule`] (and `early_exits`, which counts the
    /// same events wherever they land) reflects the execution.  A range
    /// attempt that panics is re-run one fault at a time under
    /// [`contain_fault`] (see the [module docs](self)).
    pub(crate) fn run(&self) -> CampaignResult {
        let next = AtomicUsize::new(0);
        let run_worker = |collected: &mut Vec<(usize, FaultEffect)>, stats: &mut ScheduleStats| {
            // Core pool for the batched driver (golden replay core + one
            // live fork); unused from scratch.
            let mut pool = ForkPool::new(&self.program, &self.decoded, &self.cfg);
            loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                let Some(bucket) = self.buckets.get(b) else {
                    break;
                };
                // Outcomes and tallies are collected locally, so a
                // mid-range panic discards them atomically.
                let mut delta = ScheduleStats::default();
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.run_range(bucket, &mut pool, &mut delta)
                }));
                match attempt {
                    Ok(local) => {
                        collected.extend(local);
                        *stats += delta;
                    }
                    Err(_) => {
                        stats.range_retries += 1;
                        for &idx in bucket {
                            let effect =
                                contain_fault(stats, |s| self.run_range(&[idx], &mut pool, s)[0].1);
                            collected.push((idx, effect));
                        }
                    }
                }
            }
        };

        let mut schedule = ScheduleStats {
            ranges: self.buckets.len() as u64,
            ..ScheduleStats::default()
        };
        let mut effects: Vec<Option<FaultEffect>> = vec![None; self.faults.len()];
        let mut merge = |collected: Vec<(usize, FaultEffect)>, stats: ScheduleStats| {
            schedule += stats;
            for (idx, effect) in collected {
                effects[idx] = Some(effect);
            }
        };
        if self.threads == 1 {
            let mut collected = Vec::with_capacity(self.faults.len());
            let mut stats = ScheduleStats::default();
            run_worker(&mut collected, &mut stats);
            merge(collected, stats);
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
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
                    // A worker that somehow died outside its containment
                    // loses its outcomes; the merge below classifies
                    // whatever is missing as Assert instead of tearing the
                    // campaign down.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{build_golden_checkpointed, CampaignError};
    use crate::classify::FaultEffect;
    use crate::sampling::generate_fault_list;
    use merlin_cpu::{CheckpointPolicy, Cpu, NullProbe, Structure};
    use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};

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

    fn scheduler<'a>(
        program: &Arc<Program>,
        cfg: &Arc<CpuConfig>,
        golden: &'a GoldenRun,
        use_checkpoints: bool,
        faults: &'a [FaultSpec],
        threads: usize,
        analysis: Option<&'a ProgramAnalysis>,
    ) -> CampaignScheduler<'a> {
        let decoded = Arc::new(DecodedProgram::new(program));
        CampaignScheduler::new(
            program,
            &decoded,
            cfg,
            golden,
            use_checkpoints,
            faults,
            threads,
            analysis,
        )
    }

    fn campaign(
        program: &Program,
        cfg: &CpuConfig,
        golden: &GoldenRun,
        faults: &[FaultSpec],
        threads: usize,
    ) -> CampaignResult {
        let (program, cfg) = (Arc::new(program.clone()), Arc::new(cfg.clone()));
        scheduler(&program, &cfg, golden, true, faults, threads, None).run()
    }

    fn campaign_scratch(
        program: &Program,
        cfg: &CpuConfig,
        golden: &GoldenRun,
        faults: &[FaultSpec],
        threads: usize,
    ) -> CampaignResult {
        let (program, cfg) = (Arc::new(program.clone()), Arc::new(cfg.clone()));
        scheduler(&program, &cfg, golden, false, faults, threads, None).run()
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
            target_checkpoints: 8,
            min_interval: 8,
        }
    }

    #[test]
    fn checkpointed_golden_run_matches_plain_golden_run() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let mut cpu = Cpu::new(Arc::new(program.clone()), cfg.clone()).unwrap();
        let plain = cpu.run(1_000_000, &mut NullProbe);
        let ck = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        assert_eq!(plain, ck.result);
        assert!(ck.checkpoints.store.len() >= 2);
        assert!(ck.checkpoints.store.starts_at_reset());
    }

    #[test]
    fn golden_run_failure_is_reported() {
        let mut b = ProgramBuilder::new();
        let top = b.bind_label();
        b.jump(top);
        b.halt();
        let program = b.build().unwrap();
        let err = golden_ck(&program, &CpuConfig::default(), 10_000, &small_policy());
        assert!(matches!(err, Err(CampaignError::GoldenRunFailed(_))));
    }

    #[test]
    fn outcomes_are_identical_across_thread_counts() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
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
            assert_eq!(seq.outcomes, par.outcomes, "x{threads}");
            assert_eq!(seq.classification, par.classification);
        }
        assert_eq!(seq.classification.total(), 60);
    }

    #[test]
    fn checkpointed_campaign_is_byte_identical_to_from_scratch() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let mut dead_sites = 0u64;
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
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
            dead_sites += checkpointed.schedule.dead_sites;
        }
        // Dead-site resolution must actually fire somewhere (dead engine
        // paths would hide bugs behind the identical-results check).  This
        // program halts before any fork re-converges; probe retirement is
        // pinned on a real workload in `tests/batched_determinism.rs`.
        assert!(dead_sites > 0);
    }

    #[test]
    fn scheduler_buckets_by_restore_source() {
        let program = Arc::new(tiny_program());
        let cfg = Arc::new(CpuConfig::default());
        let decoded = Arc::new(DecodedProgram::new(&program));
        let golden =
            build_golden_checkpointed(&program, &decoded, &cfg, 1_000_000, &small_policy())
                .unwrap();
        let store_cycles: Vec<u64> = golden.checkpoints.store.cycles().collect();
        let faults = generate_fault_list(
            Structure::RegisterFile,
            cfg.phys_int_regs,
            golden.result.cycles,
            120,
            3,
        );
        let sched = scheduler(&program, &cfg, &golden, true, &faults, 4, None);
        // No more ranges than checkpoints, and every bucket's faults share
        // one restore source.
        assert!(!sched.buckets.is_empty());
        assert!(sched.buckets.len() <= store_cycles.len());
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
        assert_eq!(result.schedule.ranges, sched.buckets.len() as u64);
        // A single worker claiming every range computes the same outcomes.
        let solo = scheduler(&program, &cfg, &golden, true, &faults, 1, None).run();
        assert_eq!(solo.schedule.ranges, result.schedule.ranges);
        assert_eq!(solo.outcomes, result.outcomes);
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
        // The from-scratch path never restores anything.
        let scratch = campaign_scratch(&program, &cfg, &golden, &faults, 2);
        assert_eq!(scratch.schedule.restores, 0);
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
            let sched = scheduler(&program, &cfg, &golden, use_ck, &[], 4, None);
            assert!(sched.buckets.is_empty());
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
        let ck = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        assert!(ck.result.exit.is_halted());
        assert_eq!(ck.timeout_cycles, GoldenRun::timeout_for(ck.result.cycles));
    }

    #[test]
    fn l1d_faults_the_golden_run_never_reads_take_no_restore() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let log = &golden.checkpoints.l1d;
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
    }

    #[test]
    fn out_of_range_fault_sites_are_masked() {
        let program = tiny_program();
        let cfg = CpuConfig::default().with_phys_regs(64);
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        let absent = FaultSpec::new(Structure::RegisterFile, 200, 1, 10);
        // The scheduler accounts for the skip instead of silently reporting
        // Masked with zero context.
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
        let pruned = scheduler(
            &arc_program,
            &arc_cfg,
            &golden,
            true,
            &faults,
            1,
            Some(&analysis),
        )
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
    fn modelled_asserts_are_not_containment_asserts() {
        use merlin_cpu::RecordingProbe;
        use merlin_isa::DATA_BASE;
        // r10 holds DATA_BASE + off.  The load's cold miss delays the store,
        // whose address depends on the loaded zero, long after r10 is
        // written and read by the load.
        let mut b = ProgramBuilder::new();
        let data = b.alloc_words(&[0; 8]);
        assert_eq!(data & DATA_BASE, DATA_BASE);
        b.movi(reg(10), data as i64);
        let load_rip = b.load(reg(1), MemRef::base(reg(10)));
        let store_rip = b.store(reg(1), MemRef::base(reg(10)).indexed(reg(1), 8));
        b.out(reg(1));
        b.halt();
        let program = b.build().unwrap();
        let cfg = CpuConfig::default();

        // Find r10's physical entry (read by both the load and the store)
        // and a cycle after the load read it but before the store did.
        let mut probe = RecordingProbe::default();
        Cpu::new(program.clone(), cfg.clone())
            .unwrap()
            .run(1_000_000, &mut probe);
        let rf_reads = |rip| {
            probe.reads.iter().filter_map(move |(s, r)| {
                (*s == Structure::RegisterFile && r.rip == rip).then_some((r.entry, r.cycle))
            })
        };
        let (entry, load_cycle) = rf_reads(load_rip).next().unwrap();
        let (_, store_cycle) = rf_reads(store_rip).find(|&(e, _)| e == entry).unwrap();
        assert!(load_cycle + 1 < store_cycle, "the window is not empty");

        // Clearing bit 16 moves the store below DATA_BASE: the model's own
        // StoreToCode assertion, not a containment event.
        let faults = [FaultSpec::new(
            Structure::RegisterFile,
            entry,
            16,
            load_cycle + 1,
        )];
        let session = crate::Session::builder(&program, &cfg)
            .checkpoints(small_policy())
            .build()
            .unwrap();
        for result in [
            session.campaign(&faults).unwrap(),
            session.campaign_from_scratch(&faults).unwrap(),
        ] {
            assert_eq!(result.outcomes[0].effect, FaultEffect::Assert);
            assert_eq!(result.schedule.asserts, 0);
        }
    }

    #[test]
    fn a_late_fault_simulates_fewer_cycles_than_an_early_one() {
        let program = tiny_program();
        let cfg = CpuConfig::default();
        let golden = golden_ck(&program, &cfg, 1_000_000, &small_policy()).unwrap();
        // A late fault must simulate fewer cycles than an early one with the
        // same (masked-at-end) fate — that is the whole point of restoring.
        // Each runs as a one-fault campaign, so its schedule counts its own
        // golden replay and suffix alone.
        let cycles = |fault: FaultSpec| {
            let s = campaign(&program, &cfg, &golden, &[fault], 1).schedule;
            assert_eq!(s.forks_spawned, 1, "{fault} reached a core");
            s.golden_replay_cycles + s.suffix_cycles
        };
        let early_cycles = cycles(FaultSpec::new(Structure::RegisterFile, 3, 5, 2));
        let late_cycles = cycles(FaultSpec::new(
            Structure::RegisterFile,
            3,
            5,
            golden.result.cycles - 2,
        ));
        assert!(early_cycles > 0 && late_cycles > 0);
        assert!(
            late_cycles < early_cycles,
            "late fault simulated {late_cycles} >= early fault's {early_cycles}"
        );
    }
}
