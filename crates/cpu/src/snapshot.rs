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
//! footprint.
//!
//! The instrumented run snapshots unconditionally at entry, so a store is
//! never empty and always holds a snapshot at or before any later cycle of
//! the run that built it (the cycle-0 reset state when the core is fresh).
//!
//! Restoring a retained snapshot is cheap to repeat: the predictor tables
//! and the BTB sit on copy-on-write pages ([`crate::CowTable`]), so a
//! restore adopts the snapshot's page handles instead of copying entries,
//! and the backing memory adopts its delta chunks by handle.  The per-cycle
//! arrays (register file, free list, ROB, fetch buffer, load/store queues,
//! dynamic-instance counters) and the output stream are small and copied; the caches are rebuilt line by line from
//! their sparse images.  Sharing is runtime-only bookkeeping: it is never
//! serialised, so the on-disk `binio` format is unchanged, and decoding a
//! snapshot yields shared pages no one else holds yet, which restores adopt
//! by handle like a live snapshot's.

use crate::core::{Cpu, CpuState, RunResult};
use crate::probe::Probe;
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use serde::{Deserialize, Serialize};

/// How a golden run is checkpointed.
///
/// Every golden run a session builds is checkpointed, starting with the
/// cycle-0 snapshot.  The default targets 32 checkpoints per run (plus the
/// cycle-0 snapshot), clamped by a minimum interval so very short runs do
/// not snapshot every few cycles for no gain.  The density is paid for by
/// the delta snapshot representation (store size scales with touched data,
/// not memory size) and by copy-on-write restores (most of the state is
/// adopted by handle, not copied).  Placement is described at
/// [`Cpu::run_with_adaptive_checkpoints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Desired number of checkpoints across the golden run (8–32 is the
    /// sensible band; the cycle-0 snapshot comes on top).
    pub target_checkpoints: u32,
    /// Lower bound on the checkpoint interval in cycles.
    pub min_interval: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            target_checkpoints: 32,
            min_interval: 256,
        }
    }
}

impl CheckpointPolicy {
    /// A policy targeting `n` checkpoints per run.
    pub fn with_target(n: u32) -> Self {
        CheckpointPolicy {
            target_checkpoints: n.max(1),
            ..CheckpointPolicy::default()
        }
    }
}

/// Checkpoints of one golden run, cycle-ascending and never empty: the
/// instrumented run snapshots unconditionally at entry, so a store built on
/// a fresh core always starts with the cycle-0 (reset) state and every
/// injection cycle has a checkpoint at or before it.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointStore {
    interval: u64,
    checkpoints: Vec<CpuState>,
}

impl CheckpointStore {
    /// The grid interval the store converged to: besides the entry
    /// snapshot, every checkpoint sits on a multiple of it.
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
}

impl BinCode for CheckpointPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.target_checkpoints.encode(out);
        self.min_interval.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(CheckpointPolicy {
            target_checkpoints: BinCode::decode(r)?,
            min_interval: BinCode::decode(r)?,
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
    /// Runs like [`Cpu::run`] while building a checkpoint store in a single
    /// pass, without knowing the run length in advance.
    ///
    /// Snapshots are taken every `min_interval` cycles; whenever the store
    /// (the entry snapshot and the multiples of the interval) exceeds `2 ×
    /// target` checkpoints the interval doubles and every snapshot off the
    /// new grid is dropped, so a store that thinned holds `target + 1..=2 ×
    /// target` equally spaced checkpoints regardless of how long the run
    /// turns out to be.  The entire golden run is simulated exactly once (no
    /// sizing pre-pass).
    ///
    /// The state at entry is snapshotted unconditionally and survives every
    /// thinning round, so the store is never empty and a store built on a
    /// fresh core always starts at the cycle-0 reset state.
    pub fn run_with_adaptive_checkpoints(
        &mut self,
        max_cycles: u64,
        probe: &mut dyn Probe,
        min_interval: u64,
        target: u32,
    ) -> (RunResult, CheckpointStore) {
        let mut interval = min_interval.max(1);
        let target = target.max(1) as usize;
        let entry_cycle = self.cycle();
        let mut checkpoints = vec![self.snapshot()];
        while !self.is_finished() && self.cycle() < max_cycles {
            let cycle = self.cycle();
            if cycle > entry_cycle && cycle.is_multiple_of(interval) {
                checkpoints.push(self.snapshot());
                while checkpoints.len() > 2 * target {
                    interval *= 2;
                    checkpoints
                        .retain(|s| s.cycle() == entry_cycle || s.cycle().is_multiple_of(interval));
                }
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

    /// A store holding the entry state and every multiple of `interval`:
    /// the target is one no run here reaches, so nothing is thinned.
    fn every(cpu: &mut Cpu, max_cycles: u64, interval: u64) -> (RunResult, CheckpointStore) {
        cpu.run_with_adaptive_checkpoints(max_cycles, &mut NullProbe, interval, 1 << 20)
    }

    #[test]
    fn store_lookup_semantics() {
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        let (result, store) = every(&mut cpu, 100_000, 10);
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
    fn adaptive_store_is_a_doubling_grid_from_cycle_zero() {
        let program = looped_program();
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let target = 8;
        let (result, store) = cpu.run_with_adaptive_checkpoints(100_000, &mut NullProbe, 2, target);
        assert!(result.exit.is_halted());
        // Identical run result to the non-instrumented execution.
        let mut plain = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        assert_eq!(plain.run(100_000, &mut NullProbe), result);
        let cycles: Vec<u64> = store.cycles().collect();
        // The cycle-0 snapshot must survive every thinning round.
        assert_eq!(cycles[0], 0);
        assert!(store.starts_at_reset());
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        // Store shape: the run thinned at least once, every snapshot is the
        // entry or sits on the grid, and the store holds more than `target`
        // but at most `2 × target` snapshots.
        assert!(store.interval() >= 4);
        assert!(cycles.iter().all(|c| c.is_multiple_of(store.interval())));
        let target = target as usize;
        assert!(
            store.len() > target && store.len() <= 2 * target,
            "store kept {} snapshots",
            store.len()
        );
        // Every retained snapshot supports exact restore.
        for state in store.snapshots() {
            let mut other = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
            other.restore_from(state);
            assert!(other.matches_state(state));
            assert_eq!(other.run(100_000, &mut NullProbe), result);
        }
    }

    #[test]
    fn adaptive_store_supports_exact_restore() {
        let program = looped_program();
        let mut cpu = Cpu::new(program.clone(), CpuConfig::default()).unwrap();
        let (expected, store) = cpu.run_with_adaptive_checkpoints(100_000, &mut NullProbe, 4, 4);
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
        let (_, store) = every(&mut cpu, 100_000, 10);
        let bytes = encode_to_vec(&store);
        let back: CheckpointStore = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, store);
        let policy = CheckpointPolicy::with_target(9);
        let bytes = encode_to_vec(&policy);
        assert_eq!(bytes.len(), 12, "a policy is its two fields");
        let back: CheckpointPolicy = decode_from_slice(&bytes).unwrap();
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
        let (_, store) = cpu.run_with_adaptive_checkpoints(0, &mut NullProbe, 4, 4);
        assert_eq!(store.len(), 1);
        assert!(store.starts_at_reset());
        assert_eq!(store.latest_at_or_before(u64::MAX).unwrap().cycle(), 0);

        // A core that already ran 17 cycles (17 is off any power-of-two
        // interval grid): the entry state is still snapshotted and survives
        // adaptive thinning.
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        for _ in 0..17 {
            cpu.step(&mut NullProbe);
        }
        let (result, store) = cpu.run_with_adaptive_checkpoints(100_000, &mut NullProbe, 2, 4);
        assert!(result.exit.is_halted());
        assert!(!store.is_empty());
        assert!(!store.starts_at_reset());
        assert_eq!(store.cycles().next(), Some(17));
        assert_eq!(store.latest_at_or_before(17).unwrap().cycle(), 17);
        assert!(store.latest_at_or_before(16).is_none());
        let cycles: Vec<u64> = store.cycles().collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
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
        let (_, store) = every(&mut cpu, 100_000, 10);
        let back: CheckpointStore = decode_from_slice(&encode_to_vec(&store)).unwrap();
        assert_eq!(back, store);
        assert!(!back.starts_at_reset());
    }

    #[test]
    fn delta_snapshots_shrink_store_footprint() {
        let program = looped_program();
        let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
        let (result, store) = every(&mut cpu, 100_000, 10);
        assert!(result.exit.is_halted());
        let delta = store.footprint_bytes();
        // The footprint with every snapshot's memory stored densely.
        let dense: usize = store
            .snapshots()
            .map(|s| s.footprint_bytes() - s.memory_delta_bytes() + s.memory_dense_bytes())
            .sum();
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
