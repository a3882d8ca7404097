//! # merlin-cpu
//!
//! A cycle-level out-of-order core with true data storage in its
//! microarchitectural structures, built as the Gem5 substitute for the MeRLiN
//! reproduction (see DESIGN.md at the workspace root).
//!
//! The model provides everything the paper's methodology depends on:
//!
//! * a physical integer register file of configurable size (256/128/64) that
//!   architectural registers are renamed onto,
//! * a store queue whose data field holds the value to be stored, with
//!   store-to-load forwarding and commit-time drain,
//! * a write-back L1D storing real bytes, behind a tags-only L2 that sets
//!   the refill latency,
//! * branch prediction with wrong-path execution and squash,
//! * precise exceptions (crashes, simulator asserts, recoverable arithmetic
//!   and alignment exceptions),
//! * a [`Probe`] interface reporting per-entry writes, reads (at issue,
//!   with the reading micro-op's sequence number, or at commit) and
//!   invalidations, and every commit — the raw material of the ACE-like
//!   analysis,
//! * a [`FaultSpec`] hook that flips one stored bit at a chosen cycle — the
//!   raw material of the injection campaigns,
//! * an architectural reference interpreter ([`interpret`]) used as the
//!   golden model.
//!
//! # Examples
//!
//! ```
//! use merlin_cpu::{interpret, Cpu, CpuConfig, NullProbe};
//! use merlin_isa::{reg, AluOp, Cond, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! b.movi(reg(1), 1);
//! b.movi(reg(2), 10);
//! let top = b.bind_label();
//! b.alu_rr(AluOp::Mul, reg(1), reg(1), reg(2));
//! b.alu_ri(AluOp::Sub, reg(2), reg(2), 1);
//! b.branch_ri(Cond::Gt, reg(2), 0, top);
//! b.out(reg(1));
//! b.halt();
//! let program = b.build().unwrap();
//!
//! // The cycle-level core and the architectural interpreter agree.
//! let golden = interpret(&program, 1_000_000);
//! let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
//! let result = cpu.run(1_000_000, &mut NullProbe);
//! assert_eq!(result.output, golden.output);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bits;
mod cache;
mod config;
mod core;
mod cow;
mod fault;
mod interp;
mod lsq;
mod memory;
mod predictor;
mod probe;
mod regfile;
mod snapshot;

pub use cache::{Cache, CacheEffects, CacheSnapshot, MemSystem, MemSystemSnapshot};
pub use config::{CacheConfig, ConfigError, CpuConfig};
pub use core::{AssertKind, Cpu, CpuState, CrashKind, ExitReason, InjectError, RunResult};
pub use cow::CowTable;
// The pre-decoded micro-op arena `Cpu::with_predecoded` shares across cores.
pub use fault::{FaultSpec, FaultSpecError};
pub use interp::{interpret, InterpExit, InterpResult};
pub use lsq::{LoadQueue, SqSlot, StoreQueue};
pub use memory::{MemError, Memory, MemoryDelta, CHUNK_BYTES};
pub use merlin_isa::DecodedProgram;
pub use predictor::{BranchPredictor, Btb};
pub use probe::{NullProbe, Probe, ReadInfo, RecordingProbe, Retired, Structure, WRITEBACK_RIP};
pub use regfile::{FreeList, PhysReg, PhysRegFile, RenameTable};
pub use snapshot::{CheckpointPolicy, CheckpointStore};
