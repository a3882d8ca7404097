//! # merlin-ace
//!
//! The ACE-like analysis of the MeRLiN reproduction: a single fault-free,
//! probe-instrumented execution that records every *vulnerable interval* of
//! every entry of the physical register file, the store-queue data field and
//! the L1D data array.
//!
//! MeRLiN uses the repository twice: faults landing outside any vulnerable
//! interval are pruned as Masked without simulation (the "ACE-like" speedup
//! component), and faults inside an interval inherit the interval's
//! (RIP, uPC) reader identity for the grouping step.  The repository also
//! yields the conservative ACE-style AVF upper bound the paper contrasts
//! against injection (Figure 16).
//!
//! The profile is built as the run goes.  [`AceProfiler`] keeps one lane of
//! pending events per structure entry, and [`AceAnalysis::run`] flushes the
//! lanes every 256 cycles up to the core's event floor
//! ([`merlin_cpu::Cpu::event_floor`]), below which no event can still
//! arrive.  The intervals are exactly those of sorting each entry's whole
//! event stream stably by cycle, the same-cycle ties included, at a buffer
//! of a few hundred cycles' events instead of the whole run's.  Attached to
//! a plain [`merlin_cpu::Cpu::run`], the profiler flushes once in
//! [`AceProfiler::finish`] and gives the same result.
//!
//! # Examples
//!
//! ```
//! use merlin_ace::AceAnalysis;
//! use merlin_cpu::{CpuConfig, Structure};
//! use merlin_workloads::workload_by_name;
//!
//! let w = workload_by_name("sha").unwrap();
//! let ace = AceAnalysis::run(&w.program, &CpuConfig::default(), 10_000_000).unwrap();
//! let rf = ace.structure(Structure::RegisterFile);
//! assert!(rf.interval_count() > 0);
//! assert!(rf.ace_avf() > 0.0 && rf.ace_avf() < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod intervals;
mod persist;
mod profiler;
mod session;

pub use intervals::{Interval, VulnerableIntervals};
pub use persist::ACE;
pub use profiler::{AceAnalysis, AceError, AceProfiler, StaticViolation, StaticViolationKind};
pub use session::SessionAce;
