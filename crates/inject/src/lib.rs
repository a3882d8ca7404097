//! # merlin-inject
//!
//! Statistical microarchitecture-level fault injection — the GeFIN analog of
//! the MeRLiN reproduction.  It provides:
//!
//! * the session-oriented campaign API ([`Session`], [`SessionBuilder`],
//!   [`SessionCache`]): one object owns the (program, configuration,
//!   checkpoint policy) context, builds the checkpointed golden run lazily
//!   exactly once, and runs every campaign phase as a method — with keyed
//!   in-memory and on-disk caching so configuration sweeps and repeated
//!   processes share golden runs,
//! * the statistical sampling machinery of Leveugle et al. used by the paper
//!   to size its campaigns ([`SamplingPlan`], [`sample_size`],
//!   [`generate_fault_list`]),
//! * the checkpoint-and-restore injection engine behind
//!   [`Session::campaign`]: every golden run is snapshotted in one adaptive
//!   pass, from the cycle-0 snapshot on, with the earliest,
//!   suffix-heaviest ranges halved (see [`CheckpointPolicy`]), and every
//!   faulty run starts from the nearest checkpoint and simulates only its
//!   post-injection suffix, retiring Masked at the first checkpoint where
//!   its state re-converges with the golden run's — every
//!   session shares one pre-decoded micro-op arena
//!   (`merlin_isa::DecodedProgram`) across all of its cores, and restores
//!   adopt the snapshot's copy-on-write pages (memory, caches, predictor)
//!   instead of copying them,
//! * the restore-aware campaign scheduler (see the [`schedule`] module):
//!   faults are bucketed into per-checkpoint ranges, workers claim whole
//!   ranges from one shared index (keeping each range's restore snapshot
//!   hot), and oversized ranges are split into sub-ranges sharing the
//!   restore source — with per-campaign
//!   [`ScheduleStats`] on every [`CampaignResult`] and byte-identical
//!   outcomes at any thread count,
//! * fork-on-divergence batched suffix simulation (the `batch` module),
//!   the one checkpointed engine: one golden replay per checkpoint range,
//!   faults on dead sites resolved at their injection cycles, and a faulty
//!   core forked for each other fault and retired on re-convergence —
//!   byte-identical to from-scratch simulation
//!   ([`Session::campaign_from_scratch`]), the oracle,
//! * the fault-effect classification of Table 2 ([`FaultEffect`],
//!   [`classify`], [`Classification`]) and the truncated-run classification
//!   of §4.4.3.4 ([`TruncatedEffect`]).
//!
//! # Examples
//!
//! A miniature comprehensive campaign on one workload:
//!
//! ```
//! use merlin_cpu::{CpuConfig, Structure};
//! use merlin_inject::Session;
//! use merlin_workloads::workload_by_name;
//!
//! let w = workload_by_name("sha").unwrap();
//! let session = Session::builder(&w.program, &CpuConfig::default())
//!     .max_cycles(10_000_000)
//!     .threads(2)
//!     .build()
//!     .unwrap();
//! let faults = session.fault_list(Structure::RegisterFile, 8, 42).unwrap();
//! let result = session.campaign(&faults).unwrap();
//! assert_eq!(result.classification.total(), 8);
//! // The golden run was built exactly once, on first use.
//! assert_eq!(session.golden_builds(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
mod batch;
mod campaign;
pub mod chaos;
mod classify;
mod liveness;
mod sampling;
pub mod schedule;
mod session;

pub use campaign::{
    CampaignError, CampaignResult, FaultInjector, FaultOutcome, GoldenCheckpoints, GoldenRun,
};
pub use classify::{classify, Classification, FaultEffect, TruncatedEffect};
pub use liveness::L1dLiveness;
pub use sampling::{
    fault_population, generate_fault_list, probit, sample_size, z_score, SamplingPlan,
};
pub use schedule::ScheduleStats;
pub use session::{Session, SessionBuilder, SessionCache, SessionKey};

// Re-exported so downstream crates can name fault sites and checkpoint
// policies without depending on merlin-cpu directly.
pub use merlin_cpu::{CheckpointPolicy, CheckpointStore, FaultSpec, FaultSpecError, Structure};
