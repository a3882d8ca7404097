//! Fork-on-divergence batched suffix simulation: one golden replay per
//! checkpoint range, dead-site resolution at each injection cycle, faulty
//! cores forked lazily from the live golden state and probe-driven
//! retirement.  This driver is the only checkpointed classification path:
//! campaigns run every checkpoint range through it, and
//! [`FaultInjector`](crate::FaultInjector) runs each fault as a one-fault
//! range.
//!
//! L1D faults never reach it when the golden run does not read the flipped
//! word again: the scheduler and the injector resolve those Masked from
//! the golden run's [`L1dLiveness`](crate::L1dLiveness) log before any
//! restore (`dead_sites`), and a range left without faults restores
//! nothing.
//!
//! # The driver
//!
//! Every faulty run is bit-identical to the golden run until its injection
//! cycle, so per checkpoint range the driver:
//!
//! 1. restores **one golden core** from the range's shared snapshot and
//!    drives it forward exactly once, stopping at each injection cycle
//!    (`golden_replay_cycles`),
//! 2. **resolves dead sites** there: the golden core now holds exactly the
//!    state the fault's flip would land in, so [`Cpu::fault_site_dead`]
//!    tells whether a flipped register or store-queue entry is overwritten
//!    before anything reads it.  Such a fault is Masked by construction
//!    (`dead_sites`): no further core is taken, forked, injected or
//!    stepped for it.  This and the L1D log are the first step of MeRLiN's
//!    ACE-like analysis applied per fault,
//! 3. **forks** a faulty core for every other fault: [`Cpu::fork_from`]
//!    makes a pool core adopt the golden core's copy-on-write page handles
//!    — O(metadata), from whatever state the pool core was left in; a page
//!    is copied only when the fork first writes it — and the fault is
//!    injected.  A one-fault range (every
//!    [`FaultInjector`](crate::FaultInjector) run) skips the fork: its
//!    golden core is not needed afterwards and takes the fault itself,
//! 4. runs the fork **to retirement on the spot**: at each retained
//!    checkpoint boundary the fork crosses, [`Cpu::matches_state`] compares
//!    its state against the golden checkpoint, skipping every page the fork
//!    still shares with it; a fork that re-converged with the golden
//!    stream is retired Masked immediately (`forks_retired`),
//!    anything else runs to halt or timeout and is classified against the
//!    golden result.  Forks run one after another, so one faulty core's
//!    working set is hot at a time.
//!
//! # Determinism
//!
//! Checkpoint restore is exact and the core is deterministic, so a fork
//! spawned while the golden core sits at the fault's injection cycle is
//! bit-identical to a core simulated from reset to that cycle, and the
//! fault applies at the same step.  From there the fork runs the faulty
//! execution itself until it halts, times out or provably re-converges.  A
//! dead-site fault, simulated in full, runs exactly the golden run (its
//! flip is overwritten unread), so its Masked classification is the one
//! simulation would produce.  Campaigns therefore produce byte-identical
//! [`CampaignResult::outcomes`](crate::CampaignResult::outcomes) to
//! from-scratch simulation at any thread count.  From-scratch simulation
//! queries no dead sites, probes no boundaries and simulates every fault
//! from cycle 0, so it is the independent oracle;
//! `tests/batched_determinism.rs` pins the equivalence.
//!
//! # Failure containment
//!
//! Every golden-replay segment, dead-site query, fork spawn and fork run
//! executes under its own `catch_unwind`.  A panic quarantines *only the
//! panicking core* (the golden core for replay and dead-site queries),
//! returns every other core to the pool, and aborts the range.  The
//! scheduler then re-runs each of the range's faults as its own one-fault
//! range on the same pool, so a deterministically panicking fault is
//! classified [`Assert`](crate::FaultEffect::Assert) on its own and every
//! other fault of the range classifies as usual.

use crate::campaign::{FaultRun, GoldenCheckpoints, GoldenRun};
use crate::classify::{classify, FaultEffect};
use crate::schedule::ScheduleStats;
use merlin_cpu::{Cpu, CpuConfig, FaultSpec, NullProbe};
use merlin_isa::{DecodedProgram, Program};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Per-worker (or per-injector) pool of reusable cores for the batched
/// driver: the golden replay core plus the one live fork.  Retired forks
/// return their cores here, so a worker builds two cores, and new ones only
/// after a range retry clears the pool.
pub(crate) struct ForkPool {
    program: Arc<Program>,
    decoded: Arc<DecodedProgram>,
    cfg: Arc<CpuConfig>,
    idle: Vec<Cpu>,
    /// Copy-on-write sharing breaks drained from cores as they return to
    /// the pool (see [`Cpu::take_cow_breaks`]); harvested into
    /// [`ScheduleStats::cow_breaks`] at the end of each range.
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
    /// means the configuration cannot build a core at all; the range
    /// aborts, and its faults end up classified Assert.
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

    /// Drops every pooled core (range retries start from fresh cores).
    pub(crate) fn clear(&mut self) {
        self.idle.clear();
    }
}

/// Returns every surviving core to the pool, with the panicking core (if
/// any) quarantined and pushed last — so the one-fault re-runs pick it up
/// first and the restore that lifts its quarantine is exercised (and
/// visible as a poisoned restore) instead of the core rotting at the
/// bottom of the pool.
fn abort_to_pool(pool: &mut ForkPool, golden_core: Option<Cpu>, bad: Option<Cpu>) {
    if let Some(g) = golden_core {
        pool.put(g);
    }
    if let Some(mut b) = bad {
        b.quarantine();
        pool.put(b);
    }
}

/// Aborts the range after its faulty core panicked: the fork, if one was
/// spawned, else the golden core that took the fault itself.
fn abort_faulty(pool: &mut ForkPool, golden_core: Cpu, fork: Option<Cpu>) {
    match fork {
        Some(core) => abort_to_pool(pool, Some(golden_core), Some(core)),
        None => abort_to_pool(pool, None, Some(golden_core)),
    }
}

/// Runs one checkpoint range's simulated faults through the batched
/// driver.  `sim` holds the (fault-list index, fault) pairs that actually
/// reach a core (statically-pruned and absent-site faults, and L1D faults
/// the golden run never reads, are resolved by the caller), cycle-sorted; every fault shares the range's restore
/// snapshot by the scheduler's bucketing.  Work is added into `stats` as
/// it happens.  Returns `None` if any operation panicked or a core could
/// not be built — the panicking core is quarantined, every other core is
/// back in the pool, and the caller decides what the partial `stats` are
/// worth.
pub(crate) fn run_batched_range(
    pool: &mut ForkPool,
    golden: &GoldenRun,
    ckpts: &GoldenCheckpoints,
    boundaries: &[u64],
    sim: &[(usize, FaultSpec)],
    stats: &mut ScheduleStats,
) -> Option<Vec<(usize, FaultEffect)>> {
    let mut out = Vec::with_capacity(sim.len());
    let &[(_, first), ..] = sim else {
        return Some(out);
    };
    let state = ckpts.store.latest_at_or_before(first.cycle)?;
    let timeout = golden.timeout_cycles;
    let early_exit = ckpts.policy.early_exit;

    let mut golden_core = pool.take()?;
    match catch_unwind(AssertUnwindSafe(|| golden_core.restore_from(state))) {
        Ok(r) => stats.record_restore(&r),
        Err(_) => {
            abort_to_pool(pool, None, Some(golden_core));
            return None;
        }
    }

    for &(idx, fault) in sim {
        // Replay the golden core up to the injection cycle — never past
        // it, so the fork sees exactly the state a core simulated from
        // reset has at that cycle.  Once the golden run halts its cycle
        // freezes and all remaining forks clone the frozen final state:
        // their faults never fire, and the cloned cores finalise
        // immediately with the golden result.
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
                out.push((idx, FaultEffect::Masked));
                continue;
            }
            Ok(false) => {}
            Err(_) => {
                abort_to_pool(pool, None, Some(golden_core));
                return None;
            }
        }

        // Spawn the faulty core.  A one-fault range needs no fork: the
        // golden core is not needed past this fault, so the fault is
        // injected into it directly.
        let spawn_cycle = golden_core.cycle();
        let mut fork = None;
        if sim.len() > 1 {
            let Some(core) = pool.take() else {
                abort_to_pool(pool, Some(golden_core), None);
                return None;
            };
            fork = Some(core);
        }
        let spawned = catch_unwind(AssertUnwindSafe(|| {
            let forked = fork.as_mut().map(|core| core.fork_from(&mut golden_core));
            fork.as_mut()
                .unwrap_or(&mut golden_core)
                .inject_fault(fault)
                .expect("absent fault sites are resolved before a range runs");
            forked
        }));
        match spawned {
            Ok(forked) => {
                if let Some(fork_bytes) = forked {
                    stats.fork_bytes_copied += fork_bytes.copied.total();
                    stats.fork_bytes_shared += fork_bytes.shared.total();
                }
                stats.forks_spawned += 1;
            }
            Err(_) => {
                abort_faulty(pool, golden_core, fork);
                return None;
            }
        }

        // Run the fork to retirement: boundary convergence probes against
        // the golden checkpoints, then a final run to halt or timeout.
        // Bit-identical state at a boundary implies an identical
        // remainder, hence Masked.  The cursor starts at the first boundary
        // strictly after the injection cycle and walks the store's cycles,
        // so equal-cycle and suffix-work stores work alike.
        let core = fork.as_mut().unwrap_or(&mut golden_core);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut probe = NullProbe;
            let mut next = boundaries.partition_point(|&c| c <= fault.cycle);
            while !core.is_finished() && core.cycle() < timeout {
                if early_exit && next < boundaries.len() {
                    if boundaries[next] < core.cycle() {
                        next += 1;
                    } else if boundaries[next] == core.cycle() {
                        if let Some(g) = ckpts.store.at_cycle(core.cycle()) {
                            if core.matches_state(g) {
                                return FaultRun {
                                    effect: FaultEffect::Masked,
                                    early_exit: true,
                                    suffix_cycles: core.cycle() - spawn_cycle,
                                };
                            }
                        }
                        next += 1;
                    }
                }
                core.step(&mut probe);
            }
            let result = core.run(timeout, &mut probe);
            FaultRun {
                effect: classify(&golden.result, &result),
                early_exit: false,
                suffix_cycles: result.cycles.saturating_sub(spawn_cycle),
            }
        }));
        match ran {
            Ok(run) => {
                stats.record(&run);
                if let Some(core) = fork {
                    pool.put(core);
                }
                out.push((idx, run.effect));
            }
            Err(_) => {
                abort_faulty(pool, golden_core, fork);
                return None;
            }
        }
    }
    pool.put(golden_core);
    stats.cow_breaks += std::mem::take(&mut pool.cow_breaks);
    Some(out)
}
