//! Test-only chaos hooks for exercising the failure-containment layer.
//!
//! The engine's robustness claims — a panic makes only the fault whose
//! simulation panicked a deterministic [`Assert`], and corrupt `.golden`
//! artifacts are quarantined — are only worth anything if they are
//! *driven* in tests by real engine-level faults.  This module is that
//! fault source: a process-global, normally disarmed probe that the engine
//! polls at each fault's simulation — in the batched driver, before the
//! dead-site query on the golden core at the fault's injection cycle, and
//! before a from-scratch run.  Arming a fault's injection cycle via
//! [`ChaosPlan::fault_panic_cycles`] makes *every* simulation attempt of
//! that fault panic: its range attempt panics, and so does its one-fault
//! re-run, which the engine must classify as [`Assert`].
//!
//! The probe costs one relaxed atomic load while disarmed, so shipping it
//! compiled-in is free; nothing outside `#[cfg(test)]`-style test code
//! should ever call [`arm`].  Arming returns a [`ChaosGuard`] that disarms
//! on drop, and tests sharing a process must serialise around it (chaos
//! state is global).
//!
//! Byte-level artifact corruption helpers ([`flip_byte`], [`truncate_file`])
//! live here too, so `.golden` corruption tests and the panic probes share
//! one chaos vocabulary.
//!
//! [`Assert`]: crate::FaultEffect::Assert

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What the armed chaos probe should do.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Injection cycles whose faults panic on every simulation attempt.
    /// Unbudgeted: the same fault panics again if re-run, so its
    /// classification must come from the engine's containment, not from
    /// the panic "wearing off".
    pub fault_panic_cycles: Vec<u64>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<ChaosPlan>> = Mutex::new(None);
static FAULT_PANICS_FIRED: AtomicU64 = AtomicU64::new(0);

fn lock_state() -> MutexGuard<'static, Option<ChaosPlan>> {
    // A chaos probe panics *on purpose* while holding no lock, but a test
    // thread may still die between arm and drop; the state itself is always
    // consistent, so poisoning carries no information.
    match STATE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Arms the chaos probe with `plan` for the lifetime of the returned guard.
///
/// Panics if the probe is already armed — chaos state is process-global, so
/// tests must serialise (e.g. behind a shared `Mutex`) rather than nest.
pub fn arm(plan: ChaosPlan) -> ChaosGuard {
    let mut state = lock_state();
    assert!(
        state.is_none(),
        "chaos probe is already armed; serialise chaos tests"
    );
    FAULT_PANICS_FIRED.store(0, Ordering::SeqCst);
    *state = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
    ChaosGuard { _private: () }
}

/// Disarms the chaos probe when dropped.  Returned by [`arm`].
#[must_use = "dropping the guard immediately disarms the probe"]
pub struct ChaosGuard {
    _private: (),
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *lock_state() = None;
    }
}

/// Number of per-fault probe panics since the probe was last armed.
pub fn fault_panics_fired() -> u64 {
    FAULT_PANICS_FIRED.load(Ordering::SeqCst)
}

/// Per-fault probe: panics if the armed plan targets `fault_cycle`.
///
/// Called by the engine at the fault's dead-site query in the batched
/// driver, and before a from-scratch run.  Disarmed cost: one relaxed load.
pub(crate) fn maybe_panic_fault(fault_cycle: u64) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let fire = lock_state()
        .as_ref()
        .is_some_and(|plan| plan.fault_panic_cycles.contains(&fault_cycle));
    if fire {
        FAULT_PANICS_FIRED.fetch_add(1, Ordering::SeqCst);
        panic!("chaos: injected per-fault panic at cycle {fault_cycle}");
    }
}

/// Flips one bit of the byte at `offset` in `path`, in place.
///
/// # Errors
///
/// Propagates I/O errors; fails with [`io::ErrorKind::InvalidInput`] if
/// `offset` is past the end of the file.
pub fn flip_byte(path: &Path, offset: usize) -> io::Result<()> {
    let mut bytes = fs::read(path)?;
    let byte = bytes
        .get_mut(offset)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "corruption offset past EOF"))?;
    *byte ^= 0x01;
    fs::write(path, bytes)
}

/// Truncates the file at `path` to its first `len` bytes.
///
/// # Errors
///
/// Propagates I/O errors; fails with [`io::ErrorKind::InvalidInput`] if
/// `len` exceeds the current file length (truncation never extends).
pub fn truncate_file(path: &Path, len: usize) -> io::Result<()> {
    let bytes = fs::read(path)?;
    if len > bytes.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "truncation length past EOF",
        ));
    }
    fs::write(path, &bytes[..len])
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests here share the process-global probe with nothing else in
    // this crate (integration tests are separate binaries), but still
    // serialise among themselves.
    static CHAOS_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        match CHAOS_TEST_LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disarmed_probes_are_inert() {
        let _s = serial();
        maybe_panic_fault(123);
    }

    #[test]
    fn fault_probe_fires_only_on_armed_cycles() {
        let _s = serial();
        let guard = arm(ChaosPlan {
            fault_panic_cycles: vec![77],
        });
        maybe_panic_fault(76); // not armed: no panic
        let caught = std::panic::catch_unwind(|| maybe_panic_fault(77));
        assert!(caught.is_err());
        assert_eq!(fault_panics_fired(), 1);
        // Unbudgeted: fires again on retry.
        let caught = std::panic::catch_unwind(|| maybe_panic_fault(77));
        assert!(caught.is_err());
        assert_eq!(fault_panics_fired(), 2);
        drop(guard);
        maybe_panic_fault(77); // disarmed again
    }

    #[test]
    fn corruption_helpers_validate_offsets() {
        let _s = serial();
        let dir = std::env::temp_dir().join(format!("merlin-chaos-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bin");
        fs::write(&path, [0u8, 1, 2, 3]).unwrap();

        flip_byte(&path, 2).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![0u8, 1, 3, 3]);
        assert!(flip_byte(&path, 4).is_err());

        truncate_file(&path, 2).unwrap();
        assert_eq!(fs::read(&path).unwrap(), vec![0u8, 1]);
        assert!(truncate_file(&path, 3).is_err());

        fs::remove_dir_all(&dir).ok();
    }
}
