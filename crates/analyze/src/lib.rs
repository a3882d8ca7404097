//! # merlin-analyze
//!
//! Static analysis over predecoded merlin programs — the purely static
//! counterpart to the *dynamic* ACE-like profiling of `merlin-ace`.
//!
//! MeRLiN prunes with a dynamic profile, so the static side carries only
//! what its three consumers read:
//!
//! * a whole-program **register census** that proves some physical
//!   register-file entries can never affect an architected outcome — the
//!   basis of the zero-simulation static fault prune
//!   ([`ProgramAnalysis::rf_entry_statically_dead`]),
//! * entry **reachability** over the macro-instruction text
//!   ([`ProgramAnalysis::is_reachable`]), against which `merlin-ace`
//!   cross-checks the instructions that close its vulnerable intervals,
//! * a structured **lint** ([`LintReport`]) used as admission control at
//!   the session boundary: out-of-range control targets, reads of registers
//!   the program never writes, unreachable instructions.
//!
//! Analysis results ride a fault-injection session exactly like the
//! predecoded arena does: computed once, shared by every worker.
//!
//! # Examples
//!
//! ```
//! use merlin_analyze::ProgramAnalysis;
//! use merlin_isa::{reg, AluOp, Cond, DecodedProgram, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! b.movi(reg(1), 1);
//! b.movi(reg(2), 5);
//! let top = b.bind_label();
//! b.alu_rr(AluOp::Mul, reg(1), reg(1), reg(2));
//! b.alu_ri(AluOp::Sub, reg(2), reg(2), 1);
//! b.branch_ri(Cond::Gt, reg(2), 0, top);
//! b.out(reg(1));
//! b.halt();
//! let program = b.build().unwrap();
//! let decoded = DecodedProgram::new(&program);
//!
//! let analysis = ProgramAnalysis::of(&program, &decoded);
//! assert!(analysis.lint().is_clean());
//! // r9 is never mentioned: faults into its identity physical entry are
//! // provably Masked and need no simulation.
//! assert!(analysis.rf_entry_statically_dead(reg(9).index()));
//! assert!(!analysis.rf_entry_statically_dead(reg(1).index()));
//! assert!(analysis.is_reachable(5));
//! assert!(!analysis.is_reachable(7), "outside the text");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod cfg;
mod lint;

pub use analysis::ProgramAnalysis;
pub use lint::{LintFinding, LintKind, LintReport};
