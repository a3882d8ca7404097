//! Checkpointing of golden runs: policy, store and the instrumented run that
//! builds the store.
//!
//! A fault-injection campaign re-executes the same program once per fault,
//! and every faulty run is bit-identical to the fault-free (golden) run up to
//! the fault's injection cycle.  Recording periodic [`CpuState`] snapshots
//! during one golden run lets each faulty run restore the latest checkpoint
//! at or before its injection cycle and simulate only the suffix, turning
//! per-fault cost from O(program length) into O(checkpoint interval +
//! post-injection length).
//!
//! # Snapshot representation and store footprint
//!
//! Each [`CpuState`] stores cache contents sparsely (valid lines only) and
//! the backing memory as a chunk-level delta against the pristine program
//! image ([`crate::MemoryDelta`], [`crate::CHUNK_BYTES`]-sized chunks): only
//! chunks the workload has written since program load are carried, and
//! restore resolves the delta against the pristine image the restoring core
//! already holds.  A store's in-memory footprint — and the size of the
//! `.golden` files the session cache persists under `MERLIN_CHECKPOINT_DIR`
//! — therefore scales with the data each checkpoint has actually touched
//! (typically a few KB per snapshot) instead of with the configured memory
//! size (formerly a dense ~64 KB+ image per snapshot, ~1 MB per persisted
//! store).  [`CheckpointStore::footprint_bytes`] reports the delta-based
//! footprint; [`CheckpointStore::dense_footprint_bytes`] reports what the
//! dense representation would have occupied, so the saving is measurable.
//!
//! Both instrumented runs snapshot unconditionally at entry, so a store is
//! never empty and always holds a snapshot at or before any later cycle of
//! the run that built it (the cycle-0 reset state when the core is fresh).
//!
//! Restoring a retained snapshot is cheap to repeat: the register file,
//! free list, ROB, fetch buffer, load/store queues and predictor tables sit
//! on copy-on-write pages ([`crate::CowTable`], [`crate::CowSeq`]), so a
//! restore adopts the snapshot's page handles instead of copying entries,
//! and the backing memory adopts its delta chunks by handle.  Only the
//! caches are rebuilt line by line from their sparse images.
//! [`crate::RestoreStats`] reports the bytes made equal to the snapshot per
//! structure ([`crate::RestoredBytes`]).  Sharing is runtime-only
//! bookkeeping: it is never serialised, so decoding a snapshot yields
//! fully private pages and the on-disk `binio` format is unchanged.

use crate::core::{Cpu, CpuState, RunResult};
use crate::probe::Probe;
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use serde::{Deserialize, Serialize};

/// How the retained checkpoints of a golden run are spaced over its cycles.
///
/// Campaign fault lists are sampled uniformly over cycles, so the expected
/// number of faults restoring from a checkpoint is proportional to the cycle
/// width of its range — but the *work* a fault costs is dominated by its
/// suffix (everything from the restore point to the run's end).  The two
/// strategies trade those off differently; both preserve byte-identical
/// campaign classifications, since checkpoint placement only decides where
/// restores happen, never what a faulty run computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpacingStrategy {
    /// Checkpoints every `interval` cycles — equal fault count per range.
    EqualCycles,
    /// Balances estimated *suffix work* per checkpoint range — the expected
    /// faults per range (uniform sampling density × range width) times the
    /// estimated cycles remaining at the range's checkpoint.  A uniform
    /// grid gives every range the same fault count but lets per-range
    /// suffix work vary with the full remaining-cycles factor, so the
    /// earliest ranges (whose faults simulate most of the run) carry ~3×
    /// the work of mid-run ranges.  This strategy keeps the uniform body
    /// and spends the checkpoint budget's headroom halving the ranges of
    /// the suffix-heavy head of the run — cutting the replay and
    /// early-exit wait of exactly the tail-latency faults at unchanged
    /// body cost.
    SuffixWork,
}

/// How (and whether) a golden run is checkpointed.
///
/// The default targets 32 checkpoints per run (plus the cycle-0 snapshot),
/// clamped by a minimum interval so very short runs do not snapshot every few
/// cycles for no gain, spaced by equal estimated suffix work
/// ([`SpacingStrategy::SuffixWork`]).  The density is paid for by the delta
/// snapshot representation (store size scales with touched data, not memory
/// size) and by copy-on-write restores (most of the state is adopted by
/// handle, not copied) — halving the expected per-fault suffix at small
/// marginal restore cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Whether campaigns build and use checkpoints at all.
    pub enabled: bool,
    /// Desired number of checkpoints across the golden run (8–32 is the
    /// sensible band; the cycle-0 snapshot comes on top).
    pub target_checkpoints: u32,
    /// Lower bound on the checkpoint interval in cycles.
    pub min_interval: u64,
    /// Whether faulty runs may classify as Masked early when their state
    /// re-converges with the golden checkpoint stream (sound: identical state
    /// implies an identical remainder of the run).
    pub early_exit: bool,
    /// How retained checkpoints are spaced over the run.
    pub spacing: SpacingStrategy,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            enabled: true,
            target_checkpoints: 32,
            min_interval: 256,
            early_exit: true,
            spacing: SpacingStrategy::SuffixWork,
        }
    }
}

impl CheckpointPolicy {
    /// A policy that disables checkpointing entirely (campaigns fall back to
    /// from-scratch simulation).
    pub fn disabled() -> Self {
        CheckpointPolicy {
            enabled: false,
            ..CheckpointPolicy::default()
        }
    }

    /// A policy targeting `n` checkpoints per run.
    pub fn with_target(n: u32) -> Self {
        CheckpointPolicy {
            target_checkpoints: n.max(1),
            ..CheckpointPolicy::default()
        }
    }

    /// The same policy with a different spacing strategy.
    pub fn with_spacing(self, spacing: SpacingStrategy) -> Self {
        CheckpointPolicy { spacing, ..self }
    }

    /// The snapshot interval this policy picks for a golden run of
    /// `golden_cycles` cycles.
    pub fn interval_for(&self, golden_cycles: u64) -> u64 {
        (golden_cycles / self.target_checkpoints.max(1) as u64)
            .max(self.min_interval)
            .max(1)
    }
}

/// Checkpoints of one golden run, cycle-ascending and never empty: the
/// instrumented runs snapshot unconditionally at entry, so a store built on
/// a fresh core always starts with the cycle-0 (reset) state and every
/// injection cycle has a checkpoint at or before it.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStore {
    interval: u64,
    checkpoints: Vec<CpuState>,
}

impl CheckpointStore {
    /// The body-grid interval the store converged to.  Checkpoints sit on
    /// multiples of this interval under [`SpacingStrategy::EqualCycles`];
    /// a [`SpacingStrategy::SuffixWork`] store additionally holds head
    /// midpoints at odd multiples of half this interval, so consumers must
    /// walk [`CheckpointStore::cycles`] rather than reconstruct the grid
    /// from the interval alone.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of checkpoints held (including the cycle-0 snapshot).
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// `true` when the store holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The latest checkpoint at or before `cycle` — the restore point for a
    /// fault injected at `cycle`.
    pub fn latest_at_or_before(&self, cycle: u64) -> Option<&CpuState> {
        match self.checkpoints.partition_point(|s| s.cycle() <= cycle) {
            0 => None,
            n => Some(&self.checkpoints[n - 1]),
        }
    }

    /// The checkpoint taken exactly at `cycle`, if one exists (used by the
    /// early-exit convergence test).
    pub fn at_cycle(&self, cycle: u64) -> Option<&CpuState> {
        let idx = self.checkpoints.partition_point(|s| s.cycle() < cycle);
        self.checkpoints.get(idx).filter(|s| s.cycle() == cycle)
    }

    /// Cycles at which checkpoints were taken.
    pub fn cycles(&self) -> impl Iterator<Item = u64> + '_ {
        self.checkpoints.iter().map(|s| s.cycle())
    }

    /// The checkpoints themselves, cycle-ascending (used by consumers that
    /// validate a decoded store against their simulation context).
    pub fn snapshots(&self) -> impl Iterator<Item = &CpuState> {
        self.checkpoints.iter()
    }

    /// `true` when the store begins with the cycle-0 (reset) snapshot — the
    /// precondition for serving *any* injection cycle of a campaign.  Holds
    /// for every store built on a fresh core; a store built on a mid-run
    /// core (or a hand-crafted decoded one) starts later.
    pub fn starts_at_reset(&self) -> bool {
        self.checkpoints.first().is_some_and(|s| s.cycle() == 0)
    }

    /// Approximate heap footprint of the whole store in bytes (memory held
    /// as chunk-level deltas).
    pub fn footprint_bytes(&self) -> usize {
        self.checkpoints.iter().map(|s| s.footprint_bytes()).sum()
    }

    /// What [`Self::footprint_bytes`] would be with each snapshot's memory
    /// stored densely instead of as a delta — the pre-delta representation,
    /// kept so benchmarks can report the size win.
    pub fn dense_footprint_bytes(&self) -> usize {
        self.checkpoints
            .iter()
            .map(|s| s.footprint_bytes() - s.memory_delta_bytes() + s.memory_dense_bytes())
            .sum()
    }
}

impl BinCode for SpacingStrategy {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            SpacingStrategy::EqualCycles => 0,
            SpacingStrategy::SuffixWork => 1,
        };
        tag.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(SpacingStrategy::EqualCycles),
            1 => Ok(SpacingStrategy::SuffixWork),
            _ => Err(DecodeError::Invalid("spacing strategy")),
        }
    }
}

impl BinCode for CheckpointPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.enabled.encode(out);
        self.target_checkpoints.encode(out);
        self.min_interval.encode(out);
        self.early_exit.encode(out);
        self.spacing.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CheckpointPolicy {
            enabled: BinCode::decode(r)?,
            target_checkpoints: BinCode::decode(r)?,
            min_interval: BinCode::decode(r)?,
            early_exit: BinCode::decode(r)?,
            spacing: BinCode::decode(r)?,
        })
    }
}

impl BinCode for CheckpointStore {
    fn encode(&self, out: &mut Vec<u8>) {
        self.interval.encode(out);
        self.checkpoints.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let interval = u64::decode(r)?;
        if interval == 0 {
            return Err(DecodeError::Invalid("checkpoint interval"));
        }
        // Accept exactly what `encode` can produce: any cycle-ascending
        // checkpoint list, including an empty one and one starting past
        // cycle 0 (a store built on a mid-run core).  Consumers that need
        // the cycle-0 snapshot check `starts_at_reset` instead of relying
        // on decode-time rejection — a decode stricter than encode turned
        // validly saved stores into silent, permanent cache misses.
        let checkpoints = Vec::<CpuState>::decode(r)?;
        let ascending = checkpoints.windows(2).all(|w| w[0].cycle() < w[1].cycle());
        if !ascending {
            return Err(DecodeError::Invalid("store cycles not ascending"));
        }
        Ok(CheckpointStore {
            interval,
            checkpoints,
        })
    }
}

impl Cpu {
    /// Runs like [`Cpu::run`] while snapshotting the state every `interval`
    /// cycles (including cycle 0), returning the run result together with the
    /// populated [`CheckpointStore`].
    /// Regardless of `max_cycles` and of the core's current cycle, the state
    /// at entry is always snapshotted, so the returned store is never empty
    /// and can serve any injection cycle from the entry cycle on (cycle 0 on
    /// a fresh core) — the invariant the campaign engine restores against.
    pub fn run_with_checkpoints(
        &mut self,
        max_cycles: u64,
        probe: &mut dyn Probe,
        interval: u64,
    ) -> (RunResult, CheckpointStore) {
        let interval = interval.max(1);
        let entry_cycle = self.cycle();
        let mut checkpoints = vec![self.snapshot()];
        while !self.is_finished() && self.cycle() < max_cycles {
            if self.cycle() > entry_cycle && self.cycle().is_multiple_of(interval) {
                checkpoints.push(self.snapshot());
            }
            self.step(probe);
        }
        let result = self.run(max_cycles, probe);
        (
            result,
            CheckpointStore {
                interval,
                checkpoints,
            },
        )
    }

    /// Runs like [`Cpu::run`] while building a checkpoint store in a single
    /// pass, without knowing the run length in advance.
    ///
    /// With [`SpacingStrategy::EqualCycles`], snapshots are taken every
    /// `min_interval` cycles; whenever the store exceeds `2 × target`
    /// checkpoints the interval doubles and every snapshot not on the new
    /// grid is dropped, so the store converges to `target..2 × target`
    /// equally spaced checkpoints regardless of how long the run turns out
    /// to be.
    ///
    /// With [`SpacingStrategy::SuffixWork`], the uniform body grid is built
    /// by the *identical* doubling process — the retained body checkpoints
    /// are the same cycles the equal-cycles strategy would retain — and the
    /// budget headroom left in the `2 × target` band is spent on **head
    /// midpoints**: snapshots halfway into each of the earliest body
    /// ranges, where the estimated per-fault suffix work is largest (see
    /// [`SpacingStrategy`]).  The suffix-work store is therefore a strict
    /// superset of the equal-cycles store for the same run, so every
    /// fault's restore point is at least as late and every per-fault
    /// latency at most as long — the tail (p95) can only improve.  Head
    /// midpoints exist only once the grid has doubled at least once (they
    /// are the previous, finer grid's snapshots), so they always respect
    /// `min_interval`.
    ///
    /// Under both strategies the live store never holds more than
    /// `2 × target + 1` snapshots plus the bounded head extras, and this
    /// replaces the two-pass construction (an uninstrumented pre-pass
    /// sizing the interval, then an instrumented re-run): the entire golden
    /// run is simulated exactly once.
    ///
    /// Like [`Cpu::run_with_checkpoints`], the state at entry is snapshotted
    /// unconditionally and survives every thinning round — on either
    /// strategy — so the store is never empty and a store built on a fresh
    /// core always starts at the cycle-0 reset state.
    pub fn run_with_adaptive_checkpoints(
        &mut self,
        max_cycles: u64,
        probe: &mut dyn Probe,
        min_interval: u64,
        target: u32,
        spacing: SpacingStrategy,
    ) -> (RunResult, CheckpointStore) {
        let min_interval = min_interval.max(1);
        let mut interval = min_interval;
        let target = target.max(1) as usize;
        let entry_cycle = self.cycle();
        let mut checkpoints = vec![self.snapshot()];
        let head_extras = spacing == SpacingStrategy::SuffixWork;
        while !self.is_finished() && self.cycle() < max_cycles {
            let cycle = self.cycle();
            if cycle > entry_cycle && cycle.is_multiple_of(interval) {
                checkpoints.push(self.snapshot());
                // The thinning trigger counts only body-grid snapshots
                // (entry included), so the doubling sequence — and with it
                // the retained body grid — is identical under both
                // strategies.  Head midpoints need no capture of their own:
                // when the interval doubles, the old body snapshots at odd
                // multiples of the new half-interval become the midpoints,
                // and `retain_grid` keeps the earliest of them.
                while body_len(&checkpoints, entry_cycle, interval) > 2 * target {
                    interval *= 2;
                    retain_grid(&mut checkpoints, entry_cycle, interval, target, head_extras);
                }
            }
            self.step(probe);
        }
        let result = self.run(max_cycles, probe);
        if head_extras {
            // Re-apply the retention filter: the budget headroom for head
            // midpoints depends on the now-final body count.
            retain_grid(&mut checkpoints, entry_cycle, interval, target, true);
        }
        (
            result,
            CheckpointStore {
                interval,
                checkpoints,
            },
        )
    }
}

/// Number of snapshots on the body grid (entry snapshot included) — the
/// count the doubling trigger compares against `2 × target`, identical for
/// both spacing strategies.
fn body_len(checkpoints: &[CpuState], entry_cycle: u64, interval: u64) -> usize {
    checkpoints
        .iter()
        .filter(|s| s.cycle() == entry_cycle || s.cycle().is_multiple_of(interval))
        .count()
}

/// Retains the entry snapshot, the body grid (multiples of `interval`) and
/// — for the suffix-work strategy — head midpoints: odd multiples of
/// `interval/2` within the earliest body ranges, as many as fit in the
/// `2 × target` budget after the body.
///
/// Head midpoints sit where the estimated per-fault suffix work (uniform
/// fault density × remaining cycles) is largest: the faults of the earliest
/// ranges simulate most of the run, so halving exactly those ranges cuts
/// the replay and early-exit wait of the latency tail while the body —
/// and therefore mean campaign cost — matches the equal-cycles grid.
fn retain_grid(
    checkpoints: &mut Vec<CpuState>,
    entry_cycle: u64,
    interval: u64,
    target: usize,
    head_extras: bool,
) {
    let head_end = if head_extras {
        let body = body_len(checkpoints, entry_cycle, interval);
        let allowed = (target / 2).min((2 * target + 1).saturating_sub(body)) as u64;
        entry_cycle + allowed * interval
    } else {
        entry_cycle
    };
    let half = interval / 2;
    checkpoints.retain(|s| {
        let c = s.cycle();
        c == entry_cycle
            || c.is_multiple_of(interval)
            || (half > 0 && c.is_multiple_of(half) && c <= head_end)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CpuConfig, NullProbe};
    use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};

    fn looped_program() -> merlin_isa::Program {
        let mut b = ProgramBuilder::new();
        let data = b.alloc_words(&[3, 1, 4, 1, 5, 9, 2, 6]);
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

    #[test]
    fn policy_interval_bands() {
        let p = CheckpointPolicy::default();
        assert_eq!(p.interval_for(32_000), 1_000);
        // Short runs are clamped by the minimum interval.
        assert_eq!(p.interval_for(100), p.min_interval);
        assert_eq!(
            CheckpointPolicy::with_target(8).interval_for(80_000),
            10_000
        );
        assert!(!CheckpointPolicy::disabled().enabled);
    }

    #[test]
    fn store_lookup_semantics() {
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        let (result, store) = cpu.run_with_checkpoints(100_000, &mut NullProbe, 10);
        assert!(result.exit.is_halted());
        assert!(store.len() >= 2, "expected several checkpoints");
        assert_eq!(store.latest_at_or_before(0).unwrap().cycle(), 0);
        assert_eq!(store.latest_at_or_before(9).unwrap().cycle(), 0);
        assert_eq!(store.latest_at_or_before(10).unwrap().cycle(), 10);
        assert_eq!(
            store.latest_at_or_before(u64::MAX).unwrap().cycle(),
            store.cycles().last().unwrap()
        );
        assert!(store.at_cycle(10).is_some());
        assert!(store.at_cycle(11).is_none());
        let cycles: Vec<u64> = store.cycles().collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        assert!(store.footprint_bytes() > 0);
    }

    #[test]
    fn restored_run_is_identical_to_uninterrupted_run() {
        let program = looped_program();
        let mut reference = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let expected = reference.run(100_000, &mut NullProbe);

        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        for _ in 0..17 {
            cpu.step(&mut NullProbe);
        }
        let state = cpu.snapshot();
        // Diverge: run the original to completion, then restore and re-run.
        let first = cpu.run(100_000, &mut NullProbe);
        assert_eq!(first, expected);
        cpu.restore_from(&state);
        assert_eq!(cpu.cycle(), 17);
        let second = cpu.run(100_000, &mut NullProbe);
        assert_eq!(second, expected);

        // A fresh core restored from the same state also agrees.
        let mut other = Cpu::new(program, CpuConfig::default()).unwrap();
        other.restore_from(&state);
        assert!(other.matches_state(&state));
        let third = other.run(100_000, &mut NullProbe);
        assert_eq!(third, expected);
    }

    #[test]
    fn adaptive_store_converges_to_target_band() {
        let program = looped_program();
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let (result, store) = cpu.run_with_adaptive_checkpoints(
            100_000,
            &mut NullProbe,
            2,
            8,
            SpacingStrategy::EqualCycles,
        );
        assert!(result.exit.is_halted());
        // Identical run result to the non-instrumented execution.
        let mut plain = Cpu::new(program, CpuConfig::default()).unwrap();
        assert_eq!(plain.run(100_000, &mut NullProbe), result);
        // Store shape: starts at cycle 0, strictly ascending, on the final
        // interval's grid, within the (target, 2*target] band whenever the
        // run is long enough to have thinned at least once.
        let cycles: Vec<u64> = store.cycles().collect();
        assert_eq!(cycles[0], 0);
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        assert!(cycles.iter().all(|c| c.is_multiple_of(store.interval())));
        assert!(
            store.len() <= 2 * 8 + 1,
            "store kept {} snapshots",
            store.len()
        );
        assert!(store.len() >= 2);
        assert!(store.interval() >= 2);
    }

    #[test]
    fn suffix_work_store_is_dense_early_and_retains_cycle_zero() {
        let program = looped_program();
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let target = 8;
        let (result, store) = cpu.run_with_adaptive_checkpoints(
            100_000,
            &mut NullProbe,
            2,
            target,
            SpacingStrategy::SuffixWork,
        );
        assert!(result.exit.is_halted());
        // Identical run result to the non-instrumented execution.
        let mut plain = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        assert_eq!(plain.run(100_000, &mut NullProbe), result);
        let cycles: Vec<u64> = store.cycles().collect();
        // Regression (`usable_for_campaigns`): the cycle-0 snapshot must
        // survive every suffix-work thinning round.
        assert_eq!(cycles[0], 0);
        assert!(store.starts_at_reset());
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        assert!(
            store.len() <= 2 * target as usize + 1,
            "store kept {} snapshots",
            store.len()
        );
        assert!(store.len() >= 2);
        // Denser early than late: the first retained range must be no wider
        // than the last (strictly narrower once the run thinned at least
        // once, but degenerate short runs only guarantee ≤).
        if store.len() >= 4 {
            let first = cycles[1] - cycles[0];
            let last = cycles[cycles.len() - 1] - cycles[cycles.len() - 2];
            assert!(
                first <= last,
                "suffix-work spacing must not be denser late: first {first}, last {last} ({cycles:?})"
            );
        }
        // Every retained snapshot supports exact restore.
        let mid = store.latest_at_or_before(result.cycles / 3).unwrap();
        let mut other = Cpu::new(program, CpuConfig::default()).unwrap();
        other.restore_from(mid);
        assert!(other.matches_state(mid));
        assert_eq!(other.run(100_000, &mut NullProbe), result);
    }

    #[test]
    fn suffix_work_entry_snapshot_survives_on_mid_run_cores() {
        // The entry snapshot of a store built on a mid-run core sits off
        // every ideal boundary; thinning must still retain it.
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        for _ in 0..17 {
            cpu.step(&mut NullProbe);
        }
        let (result, store) = cpu.run_with_adaptive_checkpoints(
            100_000,
            &mut NullProbe,
            2,
            4,
            SpacingStrategy::SuffixWork,
        );
        assert!(result.exit.is_halted());
        assert_eq!(store.cycles().next(), Some(17));
        assert!(!store.starts_at_reset());
        let cycles: Vec<u64> = store.cycles().collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn spacing_strategy_roundtrips_in_policies() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        for spacing in [SpacingStrategy::EqualCycles, SpacingStrategy::SuffixWork] {
            let policy = CheckpointPolicy::with_target(5).with_spacing(spacing);
            let back: CheckpointPolicy = decode_from_slice(&encode_to_vec(&policy)).unwrap();
            assert_eq!(back, policy);
            assert_eq!(back.spacing, spacing);
        }
        // A corrupt spacing tag is rejected.
        let mut bytes = encode_to_vec(&CheckpointPolicy::default());
        *bytes.last_mut().unwrap() = 9;
        assert!(decode_from_slice::<CheckpointPolicy>(&bytes).is_err());
    }

    #[test]
    fn adaptive_store_supports_exact_restore() {
        let program = looped_program();
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let (expected, store) = cpu.run_with_adaptive_checkpoints(
            100_000,
            &mut NullProbe,
            4,
            4,
            SpacingStrategy::EqualCycles,
        );
        // Restoring any kept checkpoint and re-running reproduces the run.
        let mid = store.latest_at_or_before(expected.cycles / 2).unwrap();
        let mut other = Cpu::new(program, CpuConfig::default()).unwrap();
        other.restore_from(mid);
        assert!(other.matches_state(mid));
        assert_eq!(other.run(100_000, &mut NullProbe), expected);
    }

    #[test]
    fn store_and_policy_binary_roundtrip() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        let (_, store) = cpu.run_with_checkpoints(100_000, &mut NullProbe, 10);
        let bytes = encode_to_vec(&store);
        let back: CheckpointStore = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, store);
        let policy = CheckpointPolicy::with_target(9);
        let back: CheckpointPolicy = decode_from_slice(&encode_to_vec(&policy)).unwrap();
        assert_eq!(back, policy);
        // Corrupting the interval to zero is rejected.
        let mut bytes = encode_to_vec(&store);
        bytes[..8].fill(0);
        assert!(decode_from_slice::<CheckpointStore>(&bytes).is_err());
    }

    #[test]
    fn stores_are_never_empty_even_in_degenerate_calls() {
        // Regression: these calls used to build a store with no cycle-0
        // snapshot (empty, or starting mid-run off the interval grid),
        // which later panicked the campaign worker's restore lookup.
        let program = looped_program();

        // Zero cycle budget on a fresh core.
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let (_, store) = cpu.run_with_checkpoints(0, &mut NullProbe, 10);
        assert_eq!(store.len(), 1);
        assert!(store.starts_at_reset());
        assert_eq!(store.latest_at_or_before(u64::MAX).unwrap().cycle(), 0);
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let (_, store) = cpu.run_with_adaptive_checkpoints(
            0,
            &mut NullProbe,
            4,
            4,
            SpacingStrategy::EqualCycles,
        );
        assert!(store.starts_at_reset());

        // A core that already ran 17 cycles (17 is off any power-of-two
        // interval grid): the entry state is still snapshotted and survives
        // adaptive thinning.
        for run_adaptive in [false, true] {
            let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
            for _ in 0..17 {
                cpu.step(&mut NullProbe);
            }
            let (result, store) = if run_adaptive {
                cpu.run_with_adaptive_checkpoints(
                    100_000,
                    &mut NullProbe,
                    2,
                    4,
                    SpacingStrategy::EqualCycles,
                )
            } else {
                cpu.run_with_checkpoints(100_000, &mut NullProbe, 10)
            };
            assert!(result.exit.is_halted());
            assert!(!store.is_empty());
            assert!(!store.starts_at_reset());
            assert_eq!(store.cycles().next(), Some(17));
            assert_eq!(store.latest_at_or_before(17).unwrap().cycle(), 17);
            assert!(store.latest_at_or_before(16).is_none());
            let cycles: Vec<u64> = store.cycles().collect();
            assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_and_mid_run_stores_roundtrip() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        // Regression: encode used to accept what decode rejected, so a
        // saved store could become a silent, permanent cache miss.  Both
        // now agree on every encodable store.
        let empty = CheckpointStore {
            interval: 8,
            checkpoints: Vec::new(),
        };
        let back: CheckpointStore = decode_from_slice(&encode_to_vec(&empty)).unwrap();
        assert_eq!(back, empty);
        assert!(back.is_empty());
        assert!(!back.starts_at_reset());

        // A store starting past cycle 0 round-trips too.
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        for _ in 0..17 {
            cpu.step(&mut NullProbe);
        }
        let (_, store) = cpu.run_with_checkpoints(100_000, &mut NullProbe, 10);
        let back: CheckpointStore = decode_from_slice(&encode_to_vec(&store)).unwrap();
        assert_eq!(back, store);
        assert!(!back.starts_at_reset());
    }

    #[test]
    fn delta_snapshots_shrink_store_footprint() {
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        let (result, store) = cpu.run_with_checkpoints(100_000, &mut NullProbe, 10);
        assert!(result.exit.is_halted());
        let delta = store.footprint_bytes();
        let dense = store.dense_footprint_bytes();
        // The looped program touches one 64-byte buffer out of a 64 KB+
        // memory; the delta representation must be far below dense.
        assert!(
            delta * 2 <= dense,
            "delta {delta} not at least 2x below dense {dense}"
        );
    }

    #[test]
    fn matches_state_detects_divergence() {
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        for _ in 0..5 {
            cpu.step(&mut NullProbe);
        }
        let state = cpu.snapshot();
        assert!(cpu.matches_state(&state));
        cpu.step(&mut NullProbe);
        assert!(!cpu.matches_state(&state));
    }
}
