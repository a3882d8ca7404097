//! # merlin-core
//!
//! The MeRLiN methodology (Kaliorakis et al., ISCA 2017): fast and accurate
//! microarchitecture-level reliability assessment by pruning and grouping a
//! statistical fault list so that only a few representative faults per group
//! need to be injected.
//!
//! The pipeline mirrors Figure 2 of the paper:
//!
//! 1. **Preprocessing** — a single instrumented run builds the vulnerable
//!    interval repository (`merlin-ace`) and the statistical initial fault
//!    list is drawn ([`initial_fault_list`]).
//! 2. **Fault-list reduction** — [`reduce_fault_list`] prunes faults outside
//!    every vulnerable interval (guaranteed Masked) and groups the rest by
//!    the (RIP, uPC) of the reading micro-op and by byte position, selecting
//!    representatives from distinct dynamic instances.
//! 3. **Injection campaign** — [`SessionMethodology::merlin`] injects only
//!    the representatives (via `merlin-inject`'s restore-aware campaign
//!    scheduler) and extrapolates each observed effect to its whole group,
//!    yielding the final classification, AVF and FIT together with the
//!    speedup accounting.
//!
//! Evaluation utilities reproduce the paper's analyses: group
//! [`homogeneity`], the comprehensive and post-ACE baselines
//! ([`SessionMethodology::comprehensive`],
//! [`SessionMethodology::post_ace_baseline`]), the Relyzer
//! control-equivalence heuristic ([`relyzer_reduce`],
//! [`SessionMethodology::relyzer`]), FIT/wall-clock/exhaustive-list metrics
//! and the theoretical mean/variance analysis of §4.4.5 ([`AvfMoments`]).
//!
//! # Examples
//!
//! The whole methodology runs as methods on a
//! [`Session`](merlin_inject::Session) (see [`SessionMethodology`]), which
//! builds the checkpointed golden run lazily exactly once and caches the
//! ACE-like profile alongside it:
//!
//! ```no_run
//! use merlin_core::SessionMethodology;
//! use merlin_cpu::{CpuConfig, Structure};
//! use merlin_inject::Session;
//! use merlin_workloads::workload_by_name;
//!
//! let w = workload_by_name("qsort").unwrap();
//! let cfg = CpuConfig::default().with_phys_regs(128);
//! let session = Session::builder(&w.program, &cfg)
//!     .max_cycles(100_000_000)
//!     .build()
//!     .unwrap();
//! let campaign = session.merlin(Structure::RegisterFile, 2_000, 2017).unwrap();
//! println!(
//!     "speedup {:.1}x, AVF {:.2}%",
//!     campaign.report.speedup_total,
//!     100.0 * campaign.report.avf()
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod campaign;
mod grouping;
mod homogeneity;
mod metrics;
mod relyzer;
mod session;
mod stats;

pub use campaign::{
    classify_truncated, initial_fault_list, ExtrapolatedOutcome, MerlinCampaign, MerlinError,
    MerlinReport,
};
pub use grouping::{
    reduce_fault_list, FaultGroup, FaultListReduction, GroupKey, GroupedFault, SubGroup,
};
pub use homogeneity::{homogeneity, Homogeneity};
pub use metrics::{
    fit_rate, merlin_exhaustive_row, relyzer_exhaustive_row, structure_bits, ExhaustiveComparison,
    WallClock, RAW_FIT_PER_BIT,
};
pub use relyzer::{relyzer_reduce, ControlGroup, RelyzerReduction};
pub use session::SessionMethodology;
pub use stats::{group_stats_from_counts, AvfMoments, GroupStat};
