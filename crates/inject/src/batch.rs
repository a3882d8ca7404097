//! Fork-on-divergence batched suffix simulation: one golden replay per
//! checkpoint range, dead-site resolution at each injection cycle, faulty
//! cores forked lazily from the live golden state and probe-driven
//! retirement.
//!
//! # The inversion
//!
//! The per-fault engine ([`run_fault_from_checkpoint`]) restores a golden
//! snapshot *per fault* and replays the fault-free prefix from the restore
//! point to the injection cycle before any faulty behaviour exists.  For a
//! range holding `k` faults that prefix replay is paid `k` times, and every
//! replayed cycle is — by the determinism of the core — bit-identical to
//! the golden run the checkpoint was taken from.
//!
//! The batched driver inverts the loop.  Per checkpoint range it:
//!
//! 1. restores **one golden core** from the range's shared snapshot and
//!    drives it forward exactly once, stopping at each injection cycle
//!    (`golden_replay_cycles`),
//! 2. **resolves dead sites** there: the golden core now holds exactly the
//!    state the fault's flip would land in, so [`Cpu::fault_site_dead`]
//!    tells whether the flipped entry is overwritten before anything reads
//!    it.  Such a fault is Masked by construction (`dead_sites`): no core
//!    is taken, restored, forked, injected or stepped for it.  This is the
//!    first step of MeRLiN's ACE-like analysis applied per fault,
//! 3. **forks** a faulty core for every other fault: a pool core is
//!    restored from the same snapshot, then [`Cpu::fork_from`] adopts the
//!    golden core's copy-on-write page handles — O(metadata); a page is
//!    copied only when the fork first writes it — and the fault is
//!    injected,
//! 4. runs the fork **to retirement on the spot** — the same
//!    boundary-probe loop as the per-fault engine, verbatim: at each
//!    retained checkpoint boundary the fork crosses, its state is compared
//!    against the golden checkpoint through the memoised golden-to-golden
//!    diff ([`Cpu::matches_state_with_diff`]); a fork that re-converged
//!    with the golden stream is retired Masked immediately
//!    (`forks_retired`), anything else runs to halt or timeout and is
//!    classified against the golden result.  Forks run one after another,
//!    so one faulty core's working set is hot at a time.
//!
//! # Determinism
//!
//! A fork spawned while the golden core sits at the fault's injection
//! cycle is bit-identical to a per-fault core restored from the same
//! snapshot and stepped fault-free to that cycle, and both apply the fault
//! at the same step.  From there the fork's simulation loop *is* the
//! per-fault engine's loop.  A dead-site fault, simulated in full, runs
//! exactly the golden run (its flip is overwritten unread), so its Masked
//! classification is the one simulation would produce.  Batched campaigns
//! therefore produce byte-identical
//! [`CampaignResult::outcomes`](crate::CampaignResult::outcomes) to the
//! per-fault path at any thread count.  The per-fault engine and
//! from-scratch simulation query no dead sites and simulate every fault,
//! so they stay wired in as independent oracles;
//! `tests/batched_determinism.rs` pins the equivalence.
//!
//! # Failure containment
//!
//! Every golden-replay segment, dead-site query, fork spawn and fork run
//! executes under its own `catch_unwind`.  A panic quarantines *only the
//! panicking core* (the golden core for replay and dead-site queries),
//! returns every other core to the pool, and abandons the batched attempt;
//! the scheduler then re-runs the whole range inline on the per-fault path,
//! whose own per-fault containment classifies a deterministically
//! panicking fault as [`Assert`](crate::FaultEffect::Assert) exactly as it
//! always did.
//!
//! [`run_fault_from_checkpoint`]: crate::campaign::run_fault_from_checkpoint

use crate::campaign::{DiffCache, FaultRun, GoldenCheckpoints, GoldenRun};
use crate::classify::{classify, FaultEffect};
use merlin_cpu::{Cpu, CpuConfig, FaultSpec, ForkStats, NullProbe, RestoreStats, RestoredBytes};
use merlin_isa::{DecodedProgram, Program};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How a campaign simulates the faults of one checkpoint range.
///
/// Selected per session via
/// [`SessionBuilder::batching`](crate::SessionBuilder::batching) or per
/// scheduler via
/// [`CampaignScheduler::with_batching`](crate::CampaignScheduler::with_batching).
/// Outcomes are byte-identical across both modes (and across thread
/// counts); only [`ScheduleStats`](crate::ScheduleStats) differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchingPolicy {
    /// One restore and one fault-free prefix replay per fault — the
    /// original engine, kept as the differential oracle for the batched
    /// path.
    #[default]
    PerFault,
    /// One golden replay per checkpoint range; faults on dead sites are
    /// resolved at their injection cycles, the rest fork from the live
    /// golden core and retire on re-convergence.  Falls back to
    /// [`BatchingPolicy::PerFault`] per range on any panic and on
    /// from-scratch campaigns (which have no checkpoint store).
    Batched,
}

/// Per-worker pool of reusable cores for the batched driver: the golden
/// replay core plus the one live fork.  Retired forks return their cores
/// here, so a worker builds two cores, and new ones only after a range
/// retry clears the pool.
pub(crate) struct ForkPool {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cfg: Arc<CpuConfig>,
    idle: Vec<Cpu>,
    /// Copy-on-write sharing breaks drained from cores as they return to
    /// the pool (see [`Cpu::take_cow_breaks`]); harvested into
    /// [`BatchStats::cow_breaks`] at the end of each batched range.
    cow_breaks: u64,
}

impl ForkPool {
    pub(crate) fn new(
        program: &Arc<Program>,
        decoded: &Arc<DecodedProgram>,
        cfg: &Arc<CpuConfig>,
    ) -> Self {
        ForkPool {
            program: Arc::clone(program),
            decoded: Arc::clone(decoded),
            cfg: Arc::clone(cfg),
            idle: Vec::new(),
            cow_breaks: 0,
        }
    }

    /// Pops an idle core, constructing one if the pool is dry.  `None`
    /// means the configuration cannot build a core at all; the caller
    /// aborts to the per-fault path, which classifies that case.
    pub(crate) fn take(&mut self) -> Option<Cpu> {
        self.idle.pop().or_else(|| {
            Cpu::with_predecoded(
                Arc::clone(&self.program),
                Arc::clone(&self.decoded),
                (*self.cfg).clone(),
            )
            .ok()
        })
    }

    pub(crate) fn put(&mut self, mut cpu: Cpu) {
        self.cow_breaks += cpu.take_cow_breaks();
        self.idle.push(cpu);
    }

    /// Drains the sharing-break tally accumulated by [`ForkPool::put`].
    pub(crate) fn take_cow_breaks(&mut self) -> u64 {
        std::mem::take(&mut self.cow_breaks)
    }

    /// Drops every pooled core (range retries start from fresh cores).
    pub(crate) fn clear(&mut self) {
        self.idle.clear();
    }
}

/// Execution tallies of one successful batched range, merged into the
/// worker's stats by the scheduler.  The golden core's single restore is
/// reported here (it belongs to the range, not to any fault).
#[derive(Default)]
pub(crate) struct BatchStats {
    pub forks_spawned: u64,
    pub forks_retired: u64,
    /// Faults resolved Masked at their injection cycle by
    /// [`Cpu::fault_site_dead`], without a fork.
    pub dead_sites: u64,
    /// Cycles the shared golden core replayed for this range — the work
    /// the fork-on-divergence inversion pays *once* instead of per fault
    /// (kept out of `suffix_cycles`, which counts faulty-core cycles
    /// only).
    pub golden_replay_cycles: u64,
    pub golden_restores: u64,
    pub golden_full_restores: u64,
    pub golden_incremental_restores: u64,
    pub golden_poisoned_restores: u64,
    pub golden_restored_bytes: RestoredBytes,
    /// Fork copy economics of every fork the range spawned: bytes actually
    /// copied under copy-on-write, the bytes an eager (pre-CoW) fork would
    /// have copied for the same forks, and the bytes adopted by handle
    /// sharing.  Kept out of the per-fault [`FaultRun`] accounting so
    /// `restored_bytes` stays directly comparable between the batched and
    /// per-fault engines.
    pub fork_bytes: ForkStats,
    /// Copy-on-write sharing breaks drained from cores as they returned to
    /// the pool during this range (first private write after a fork or a
    /// handle-sharing restore).
    pub cow_breaks: u64,
}

fn fault_run(
    effect: FaultEffect,
    early_exit: bool,
    restore: RestoreStats,
    suffix_cycles: u64,
) -> FaultRun {
    // Fork bytes are deliberately *not* folded into `bytes`: under
    // copy-on-write a fork copies almost nothing, and what it does move is
    // reported separately as [`BatchStats::fork_bytes`] so the restore
    // accounting stays directly comparable to the per-fault engine's.
    FaultRun {
        effect,
        early_exit,
        restored: true,
        incremental: restore.incremental,
        bytes: restore.bytes,
        suffix_cycles,
        skipped_site: false,
        from_quarantine: restore.from_quarantine,
    }
}

/// Returns every surviving core to the pool, with the panicking core (if
/// any) quarantined and pushed last — so the per-fault fallback picks it
/// up first and its forced full restore is exercised (and visible as a
/// poisoned restore) instead of the core rotting at the bottom of the
/// pool.
fn abort_to_pool(pool: &mut ForkPool, golden_core: Option<Cpu>, bad: Option<Cpu>) {
    if let Some(g) = golden_core {
        pool.put(g);
    }
    if let Some(mut b) = bad {
        b.quarantine();
        pool.put(b);
    }
}

/// Runs one checkpoint range's simulated faults through the batched
/// driver.  `sim` holds the fault-list indices that actually reach a core
/// (statically-pruned and absent-site faults are resolved by the caller),
/// cycle-sorted; every fault shares the range's restore snapshot by the
/// scheduler's bucketing.  Returns `None` if any operation panicked or a
/// core could not be built — the panicking core is quarantined, every
/// other core is back in the pool, and the caller re-runs the whole range
/// on the per-fault path.
pub(crate) fn run_batched_range(
    pool: &mut ForkPool,
    golden: &GoldenRun,
    ckpts: &GoldenCheckpoints,
    boundaries: &[u64],
    diffs: &mut DiffCache,
    faults: &[FaultSpec],
    sim: &[usize],
) -> Option<(Vec<(usize, FaultRun)>, BatchStats)> {
    let mut stats = BatchStats::default();
    let mut out: Vec<(usize, FaultRun)> = Vec::with_capacity(sim.len());
    if sim.is_empty() {
        return Some((out, stats));
    }
    let state = ckpts.store.latest_at_or_before(faults[sim[0]].cycle)?;
    let restore_cycle = state.cycle();
    let timeout = golden.timeout_cycles;
    let early_exit = ckpts.policy.early_exit;

    let mut golden_core = pool.take()?;
    let golden_restore = match catch_unwind(AssertUnwindSafe(|| golden_core.restore_from(state))) {
        Ok(r) => r,
        Err(_) => {
            abort_to_pool(pool, None, Some(golden_core));
            return None;
        }
    };
    stats.golden_restores = 1;
    stats.golden_full_restores = u64::from(!golden_restore.incremental);
    stats.golden_incremental_restores = u64::from(golden_restore.incremental);
    stats.golden_poisoned_restores = u64::from(golden_restore.from_quarantine);
    stats.golden_restored_bytes = golden_restore.bytes;

    for &idx in sim {
        let fault = faults[idx];
        // Replay the golden core up to the injection cycle — never past
        // it, so the fork sees exactly the state a per-fault core has
        // after replaying to that cycle.  Once the golden run halts its
        // cycle freezes and all remaining forks clone the frozen final
        // state: their faults would never fire on the per-fault path
        // either, and the cloned cores finalise immediately with the
        // golden result.
        if !golden_core.is_finished() && golden_core.cycle() < fault.cycle {
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                let mut n = 0u64;
                while !golden_core.is_finished() && golden_core.cycle() < fault.cycle {
                    golden_core.step(&mut NullProbe);
                    n += 1;
                }
                n
            }));
            match stepped {
                Ok(n) => stats.golden_replay_cycles += n,
                Err(_) => {
                    abort_to_pool(pool, None, Some(golden_core));
                    return None;
                }
            }
        }

        // Dead-site resolution, on the golden core itself: it sits at the
        // start of the fault's cycle, exactly where the flip would apply.
        // The chaos hook fires first, so an armed fault panics whether or
        // not its site is dead.
        let at_cycle = !golden_core.is_finished() && golden_core.cycle() == fault.cycle;
        let dead = catch_unwind(AssertUnwindSafe(|| {
            crate::chaos::maybe_panic_fault(fault.cycle);
            at_cycle && golden_core.fault_site_dead(fault.structure, fault.entry)
        }));
        match dead {
            Ok(true) => {
                stats.dead_sites += 1;
                out.push((idx, FaultRun::unsimulated(FaultEffect::Masked)));
                continue;
            }
            Ok(false) => {}
            Err(_) => {
                abort_to_pool(pool, None, Some(golden_core));
                return None;
            }
        }

        let spawn_cycle = golden_core.cycle();
        let Some(mut core) = pool.take() else {
            abort_to_pool(pool, Some(golden_core), None);
            return None;
        };
        let forked = catch_unwind(AssertUnwindSafe(|| {
            let restore = core.restore_from(state);
            let fork_bytes = core.fork_from(&golden_core);
            (restore, fork_bytes)
        }));
        let (restore, fork_bytes) = match forked {
            Ok(r) => r,
            Err(_) => {
                abort_to_pool(pool, Some(golden_core), Some(core));
                return None;
            }
        };
        stats.fork_bytes += fork_bytes;
        if core.inject_fault(fault).is_err() {
            // Absent fault site: same resolution as the per-fault engine.
            out.push((idx, FaultRun::skipped(true, Some(restore))));
            pool.put(core);
            continue;
        }
        stats.forks_spawned += 1;

        // Run the fork to retirement.  This loop is the per-fault engine's
        // simulation loop verbatim, minus the prefix replay it no longer
        // needs: boundary convergence probes through the memoised
        // golden-to-golden diff, then a final run to halt or timeout.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut probe = NullProbe;
            let mut next = boundaries.partition_point(|&c| c <= fault.cycle);
            while !core.is_finished() && core.cycle() < timeout {
                if early_exit && next < boundaries.len() {
                    if boundaries[next] < core.cycle() {
                        next += 1;
                    } else if boundaries[next] == core.cycle() {
                        if let Some(g) = ckpts.store.at_cycle(core.cycle()) {
                            let diff = diffs
                                .entry((restore_cycle, core.cycle()))
                                .or_insert_with(|| state.diff_to(g));
                            if core.matches_state_with_diff(g, diff) {
                                return (FaultEffect::Masked, true, core.cycle() - spawn_cycle);
                            }
                        }
                        next += 1;
                    }
                }
                core.step(&mut probe);
            }
            let result = core.run(timeout, &mut probe);
            let suffix = result.cycles.saturating_sub(spawn_cycle);
            (classify(&golden.result, &result), false, suffix)
        }));
        match ran {
            Ok((effect, early, suffix)) => {
                stats.forks_retired += u64::from(early);
                pool.put(core);
                out.push((idx, fault_run(effect, early, restore, suffix)));
            }
            Err(_) => {
                abort_to_pool(pool, Some(golden_core), Some(core));
                return None;
            }
        }
    }
    pool.put(golden_core);
    stats.cow_breaks = pool.take_cow_breaks();
    Some((out, stats))
}
