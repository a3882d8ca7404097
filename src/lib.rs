//! # merlin-repro
//!
//! Umbrella crate of the MeRLiN reproduction workspace.  It re-exports the
//! member crates under stable module names so examples, integration tests
//! and downstream users can depend on a single crate:
//!
//! * [`isa`] — instruction set, program builder, macro→micro-op cracker.
//! * [`cpu`] — cycle-level out-of-order core with probes and fault hooks.
//! * [`workloads`] — MiBench and SPEC CPU2006 analog kernels.
//! * [`inject`] — statistical fault sampling, sessions, campaigns,
//!   classification.
//! * [`ace`] — ACE-like vulnerable-interval analysis.
//! * [`merlin`] — the MeRLiN methodology itself (grouping, representative
//!   injection, extrapolation, metrics, statistics, Relyzer baseline).
//!
//! The session-oriented campaign API is additionally re-exported at the
//! crate root: build a [`Session`] per (workload, configuration), or draw
//! sessions from a [`SessionCache`] so sweeps share golden runs, then run
//! phases as methods ([`SessionAce::ace_profile`],
//! [`SessionMethodology::merlin`], [`SessionMethodology::comprehensive`],
//! …).  See `README.md` for a quickstart.
//!
//! # Examples
//!
//! ```
//! use merlin_repro::cpu::{CpuConfig, Structure};
//! use merlin_repro::{Session, SessionMethodology};
//!
//! let w = merlin_repro::workloads::workload_by_name("sha").unwrap();
//! let session = Session::builder(&w.program, &CpuConfig::default())
//!     .max_cycles(10_000_000)
//!     .build()
//!     .unwrap();
//! let faults = session.fault_list(Structure::RegisterFile, 8, 1).unwrap();
//! let result = session.comprehensive(&faults).unwrap();
//! assert_eq!(result.classification.total(), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use merlin_ace as ace;
pub use merlin_core as merlin;
pub use merlin_cpu as cpu;
pub use merlin_inject as inject;
pub use merlin_isa as isa;
pub use merlin_workloads as workloads;

pub use merlin_ace::SessionAce;
pub use merlin_core::SessionMethodology;
pub use merlin_inject::{ScheduleStats, Session, SessionBuilder, SessionCache, SessionKey};
