//! Session extension: the ACE-like analysis as a cached method on
//! [`Session`].
//!
//! The profile is as context-determined as the golden run, so the session
//! caches it the same way: built on first use, shared by every later phase
//! that needs vulnerable intervals.  Building it is a second, instrumented
//! execution of the program (it cannot share the golden run's core, because
//! it attaches the interval-recording probe).
//!
//! A session with a disk directory ([`SessionCache::with_disk_dir`]) pays
//! that execution once per context, not once per process: the profile is
//! written beside the `.golden` file as `<id>-<fingerprint>.ace`, bound to
//! the `.golden` file's checksum, and later sessions load it (see the
//! `persist` module for the format and what a load checks).  Without a disk
//! directory every session profiles, and never builds the golden run to do
//! so.
//!
//! [`SessionCache::with_disk_dir`]: merlin_inject::SessionCache::with_disk_dir

use crate::persist::{self, ACE};
use crate::profiler::{AceAnalysis, AceError};
use merlin_inject::Session;
use std::sync::Arc;

/// Adds the ACE-like profiling phase to [`Session`].
pub trait SessionAce {
    /// The ACE-like analysis of this session's program and configuration,
    /// profiled (or, with a disk directory, loaded from its `.ace` file) on
    /// first call and cached on the session afterwards.  A session with a
    /// disk directory builds or loads its golden run first, and writes the
    /// `.ace` file when it had to profile.
    ///
    /// # Errors
    ///
    /// Returns [`AceError`] if the profiled run does not halt within the
    /// session's cycle budget (errors are not cached; a later call retries).
    fn ace_profile(&self) -> Result<Arc<AceAnalysis>, AceError>;

    /// The profile persisted beside this session's `.golden` file, without
    /// profiling: `None` without a disk directory, when the golden run
    /// fails, and when no valid `.ace` file for this golden run exists.  A
    /// file that fails its checksum or decode is renamed `<name>.ace.corrupt`
    /// and counted in [`Session::artifact_rejects`].
    fn persisted_ace_profile(&self) -> Option<AceAnalysis>;
}

impl SessionAce for Session {
    fn ace_profile(&self) -> Result<Arc<AceAnalysis>, AceError> {
        self.ext_get_or_try_init(|session| {
            if let Some(ace) = session.persisted_ace_profile() {
                return Ok(ace);
            }
            let ace = AceAnalysis::run(session.program(), session.config(), session.max_cycles())?;
            if let Some((_, checksum)) = session.persisted_golden() {
                session.save_artifact(&ACE, checksum, |buf| persist::encode(&ace, buf));
            }
            Ok(ace)
        })
    }

    fn persisted_ace_profile(&self) -> Option<AceAnalysis> {
        let (golden, checksum) = self.persisted_golden()?;
        self.load_artifact(&ACE, checksum, |payload| {
            persist::decode(payload, self, &golden.result)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_cpu::{CpuConfig, Structure};
    use merlin_workloads::workload_by_name;

    #[test]
    fn ace_profile_is_cached_per_session() {
        let w = workload_by_name("sha").unwrap();
        let session = Session::builder(&w.program, &CpuConfig::default())
            .max_cycles(10_000_000)
            .build()
            .unwrap();
        let a = session.ace_profile().unwrap();
        let b = session.ace_profile().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert!(a.structure(Structure::RegisterFile).interval_count() > 0);
        // Without a disk directory, profiling does not build the golden run.
        assert_eq!(session.golden_builds(), 0);
    }
}
