//! Fork-on-divergence batched suffix simulation: one golden replay per
//! checkpoint range, dead-site resolution at each injection cycle, faulty
//! cores forked lazily from the live golden state and probe-driven
//! retirement.  This driver is the only checkpointed classification path:
//! campaigns run every checkpoint range through it.
//!
//! L1D faults never reach it when the golden run does not read the flipped
//! word again: the scheduler resolves those Masked from the golden run's [`L1dLiveness`](crate::L1dLiveness) log before any
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
//!    makes a pool core copy the golden core's per-cycle arrays and adopt
//!    its copy-on-write page handles — from whatever state the pool core
//!    was left in; a shared page is copied only when the fork first writes
//!    it — and the fault is injected,
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
//! The driver catches nothing.  It takes its cores out of the pool and
//! puts each back only after it finished cleanly, so a panic unwinding out
//! of [`run_batched_range`] drops the range's golden core and live fork
//! with its stack frame, and a panicked core is never reused.  The
//! scheduler catches the panic (see the `schedule` module).

use crate::campaign::{FaultRun, GoldenRun};
use crate::classify::{classify, FaultEffect};
use crate::schedule::ScheduleStats;
use merlin_cpu::{Cpu, CpuConfig, FaultSpec, NullProbe};
use merlin_isa::{DecodedProgram, Program};
use std::sync::Arc;

/// Per-worker pool of reusable cores for the batched
/// driver: the golden replay core plus the one live fork.  Forks return
/// their cores here once they retire, so a worker builds two cores, and new
/// ones only after a panic dropped the ones it held.
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

    /// Pops an idle core, constructing one if the pool is dry.
    fn take(&mut self) -> Cpu {
        self.idle.pop().unwrap_or_else(|| {
            Cpu::with_predecoded(
                Arc::clone(&self.program),
                Arc::clone(&self.decoded),
                (*self.cfg).clone(),
            )
            .expect("the golden run was built under this configuration")
        })
    }

    fn put(&mut self, mut cpu: Cpu) {
        self.cow_breaks += cpu.take_cow_breaks();
        self.idle.push(cpu);
    }
}

/// Runs one checkpoint range's simulated faults through the batched
/// driver.  `sim` holds the (fault-list index, fault) pairs that actually
/// reach a core (statically-pruned and absent-site faults, and L1D faults
/// the golden run never reads, are resolved by the caller), cycle-sorted;
/// every fault shares the range's restore snapshot by the scheduler's
/// bucketing.  Work is added into `stats` as it happens.  A panic unwinds
/// out with the range's cores, which are dropped (see the module docs).
pub(crate) fn run_batched_range(
    pool: &mut ForkPool,
    golden: &GoldenRun,
    boundaries: &[u64],
    sim: &[(usize, FaultSpec)],
    stats: &mut ScheduleStats,
) -> Vec<(usize, FaultEffect)> {
    let mut out = Vec::with_capacity(sim.len());
    let &[(_, first), ..] = sim else {
        return out;
    };
    let store = &golden.checkpoints.store;
    let state = store
        .latest_at_or_before(first.cycle)
        .expect("every golden store holds cycle 0");
    let timeout = golden.timeout_cycles;

    let mut golden_core = pool.take();
    golden_core.restore_from(state);
    stats.restores += 1;

    for &(idx, fault) in sim {
        // Replay the golden core up to the injection cycle — never past
        // it, so the fork sees exactly the state a core simulated from
        // reset has at that cycle.  Once the golden run halts its cycle
        // freezes and all remaining forks clone the frozen final state:
        // their faults never fire, and the cloned cores finalise
        // immediately with the golden result.
        while !golden_core.is_finished() && golden_core.cycle() < fault.cycle {
            golden_core.step(&mut NullProbe);
            stats.golden_replay_cycles += 1;
        }

        // Dead-site resolution, on the golden core itself: it sits at the
        // start of the fault's cycle, exactly where the flip would apply.
        // The chaos hook fires first, so an armed fault panics whether or
        // not its site is dead.
        crate::chaos::maybe_panic_fault(fault.cycle);
        if !golden_core.is_finished()
            && golden_core.cycle() == fault.cycle
            && golden_core.fault_site_dead(fault.structure, fault.entry)
        {
            stats.dead_sites += 1;
            out.push((idx, FaultEffect::Masked));
            continue;
        }

        let spawn_cycle = golden_core.cycle();
        let mut core = pool.take();
        core.fork_from(&mut golden_core);
        core.inject_fault(fault)
            .expect("absent fault sites are resolved before a range runs");
        stats.forks_spawned += 1;

        // Run the fork to retirement: boundary convergence probes against
        // the golden checkpoints, then a final run to halt or timeout.
        // Bit-identical state at a boundary implies an identical
        // remainder, hence Masked.  The cursor starts at the first boundary
        // strictly after the injection cycle and walks the store's cycles.
        let run = 'run: {
            let mut next = boundaries.partition_point(|&c| c <= fault.cycle);
            while !core.is_finished() && core.cycle() < timeout {
                if next < boundaries.len() {
                    if boundaries[next] < core.cycle() {
                        next += 1;
                    } else if boundaries[next] == core.cycle() {
                        if let Some(g) = store.at_cycle(core.cycle()) {
                            if core.matches_state(g) {
                                break 'run FaultRun {
                                    effect: FaultEffect::Masked,
                                    early_exit: true,
                                    suffix_cycles: core.cycle() - spawn_cycle,
                                };
                            }
                        }
                        next += 1;
                    }
                }
                core.step(&mut NullProbe);
            }
            let result = core.run(timeout, &mut NullProbe);
            FaultRun {
                effect: classify(&golden.result, &result),
                early_exit: false,
                suffix_cycles: result.cycles.saturating_sub(spawn_cycle),
            }
        };
        stats.record(&run);
        pool.put(core);
        out.push((idx, run.effect));
    }
    pool.put(golden_core);
    stats.cow_breaks += std::mem::take(&mut pool.cow_breaks);
    out
}
