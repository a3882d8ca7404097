//! The out-of-order core: fetch/decode, rename/dispatch, issue/execute,
//! writeback, and commit, with branch misprediction squash, store-to-load
//! forwarding, precise exceptions and fault-injection hooks.
//!
//! The model is deliberately simple where timing fidelity does not matter to
//! MeRLiN (no MSHRs, instant store drain at commit) and faithful where it
//! does: data physically lives in the physical register file, the store-queue
//! data field and the L1D data array; wrong-path micro-ops execute and are
//! squashed.  The core reports each read as it happens, tagged with the
//! reading micro-op's sequence number, and each commit, so a probe can tell
//! committed reads from squashed ones (see [`Probe`]).  What only an
//! observer needs (which reads committed, how many times each instruction
//! committed, the control-flow path) is the observer's to keep, not the
//! core's: forks, snapshots and the retire probe never carry it.

use crate::bits::{clear_bit, has_bit, set_bit};
use crate::cache::MemSystem;
use crate::config::{ConfigError, CpuConfig};
use crate::fault::FaultSpec;
use crate::lsq::{SqSlot, StoreQueue};
use crate::memory::{MemError, Memory};
use crate::predictor::{BranchPredictor, Btb};
use crate::probe::{Probe, ReadInfo, Structure};
use crate::regfile::{FreeList, PhysReg, PhysRegFile, RenameTable};
use merlin_isa::binio::{BinCode, ByteReader, DecodeError};
use merlin_isa::{DecodedProgram, Inst, Program, Rip, Uop, UopKind, NUM_ARCH_REGS};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Reasons a run ends with a crash of the simulated program or system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// A committed memory access fell outside the program's data region.
    MemoryOutOfBounds {
        /// Faulting address.
        addr: u64,
    },
    /// The committed control flow reached an instruction address outside the
    /// program text.
    InvalidFetchPc {
        /// Faulting instruction pointer.
        pc: Rip,
    },
}

/// Reasons the simulator itself refuses to continue (the paper's *Assert*
/// class: the simulator process stops on an internal assertion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssertKind {
    /// A committed store targeted the read-only code region (self-modifying
    /// code is unsupported by the model).
    StoreToCode {
        /// Faulting address.
        addr: u64,
    },
    /// An internal invariant of the model was violated (captured panic).
    InternalInvariant(String),
}

/// How a simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// The program committed its `Halt` instruction.
    Halted,
    /// The cycle limit was reached before the program halted.
    Timeout,
    /// The simulated program crashed.
    Crash(CrashKind),
    /// The simulator stopped on an internal assertion.
    Assert(AssertKind),
}

impl ExitReason {
    /// `true` when the program ran to completion.
    pub fn is_halted(&self) -> bool {
        matches!(self, ExitReason::Halted)
    }
}

impl fmt::Display for ExitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitReason::Halted => write!(f, "halted"),
            ExitReason::Timeout => write!(f, "timeout"),
            ExitReason::Crash(CrashKind::MemoryOutOfBounds { addr }) => {
                write!(f, "crash: memory access out of bounds at {addr:#x}")
            }
            ExitReason::Crash(CrashKind::InvalidFetchPc { pc }) => {
                write!(f, "crash: invalid fetch pc {pc}")
            }
            ExitReason::Assert(AssertKind::StoreToCode { addr }) => {
                write!(f, "assert: store to code region at {addr:#x}")
            }
            ExitReason::Assert(AssertKind::InternalInvariant(msg)) => {
                write!(f, "assert: {msg}")
            }
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run ended.
    pub exit: ExitReason,
    /// The architected output stream (values emitted by `Out` instructions).
    pub output: Vec<u64>,
    /// Cycles simulated.
    pub cycles: u64,
    /// Committed macro-instructions.
    pub committed_instructions: u64,
    /// Committed micro-ops.
    pub committed_uops: u64,
    /// Committed arithmetic exceptions (divide/remainder by zero).
    pub arithmetic_exceptions: u64,
    /// Committed misaligned-access exceptions.
    pub misaligned_exceptions: u64,
}

impl RunResult {
    /// Total architectural exceptions observed (the count compared against
    /// the golden run for DUE classification).
    pub fn exceptions(&self) -> u64 {
        self.arithmetic_exceptions + self.misaligned_exceptions
    }
}

/// Errors returned by [`Cpu::inject_fault`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// The fault's entry index is outside the target structure.
    EntryOutOfRange {
        /// Target structure.
        structure: Structure,
        /// Requested entry.
        entry: usize,
        /// Number of entries the structure has in this configuration.
        limit: usize,
    },
}

impl fmt::Display for InjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectError::EntryOutOfRange {
                structure,
                entry,
                limit,
            } => write!(
                f,
                "fault entry {entry} out of range for {structure} ({limit} entries)"
            ),
        }
    }
}

impl std::error::Error for InjectError {}

/// Exceptions recorded on a micro-op and handled precisely at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exception {
    MemOutOfBounds { addr: u64 },
    StoreToCode { addr: u64 },
    DivByZero,
    Misaligned,
}

/// A micro-op waiting in the fetch buffer together with the next fetch PC the
/// front end assumed after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FetchedUop {
    uop: Uop,
    pred_next: Rip,
}

/// One re-order buffer entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RobEntry {
    seq: u64,
    uop: Uop,
    src_phys: [Option<PhysReg>; 3],
    dst_phys: Option<PhysReg>,
    prev_phys: Option<PhysReg>,
    in_iq: bool,
    complete_at: Option<u64>,
    completed: bool,
    pred_next: Rip,
    actual_next: Option<Rip>,
    result: Option<u64>,
    exception: Option<Exception>,
    sq_slot: Option<usize>,
}

/// Everything about a core that changes as it runs: the one definition of
/// "the core's state" behind [`Cpu::snapshot`], [`Cpu::restore_from`],
/// [`Cpu::fork_from`] and [`Cpu::matches_state`], which clone, assign and
/// compare it whole.  The memory hierarchy sits beside it in [`Cpu`], since
/// it snapshots sparsely and compares by delta.
///
/// Fields are declared cheapest-first, so the derived `==` of the retire
/// probe bails out on a scalar before it walks an array.  The structures
/// every cycle writes (ROB, fetch buffer, free list, register file, store
/// queue) and the output stream are plain owned values that a clone copies;
/// only the predictor and the BTB sit on copy-on-write storage (see
/// [`CowTable`](crate::CowTable)).  A value derived from these fields
/// (like [`Cpu`]'s `next_fault_cycle`, or the issue-queue and load counts
/// in [`RobSets`]) belongs outside, or the retire probe would compare it as
/// state.
#[derive(Debug, Clone, PartialEq)]
struct CoreState {
    cycle: u64,
    next_seq: u64,
    committed_instructions: u64,
    committed_uops: u64,
    arithmetic_exceptions: u64,
    misaligned_exceptions: u64,
    fetch_pc: Rip,
    fetch_halted: bool,
    fetch_invalid: bool,
    pending_store_slot: Option<usize>,
    finished: Option<ExitReason>,
    // Faults pending application, sorted by cycle.
    faults: Vec<FaultSpec>,
    output: Vec<u64>,
    rat: RenameTable,
    fetch_buffer: VecDeque<FetchedUop>,
    rob: VecDeque<RobEntry>,
    free_list: FreeList,
    sq: StoreQueue,
    prf: PhysRegFile,
    bp: BranchPredictor,
    btb: Btb,
}

impl CoreState {
    /// Moves the owned pages of every copy-on-write structure behind
    /// handles, so a clone shares them instead of copying.
    fn freeze(&mut self) {
        self.bp.freeze();
        self.btb.freeze();
    }

    /// Page un-share events of every copy-on-write structure, reset.
    fn take_cow_breaks(&mut self) -> u64 {
        self.bp.take_cow_breaks() + self.btb.take_cow_breaks()
    }
}

/// The ROB entries that issue and writeback visit, as two bitsets over ring
/// positions: the issue-queue members (`in_iq`), and the issued entries
/// that have not completed (`complete_at` set, `completed` clear); and the
/// counts dispatch stalls on: the issue-queue members, and the loads in
/// the ROB (the load queue holds no data, so its occupancy is all the core
/// models of it).
///
/// Entry `i` of the ROB sits at ring position `(head + i) & mask`, where
/// the ring has a power-of-two number of positions, at least `rob_entries`
/// and at least one word.  Commit advances `head`, so an entry keeps its
/// position for its whole life in the ROB.  The sets and counts are
/// derived from the ROB, like `next_fault_cycle`: they live beside
/// `CoreState`, so snapshots, `.golden` bytes and [`Cpu::matches_state`]
/// never see them.
#[derive(Debug, PartialEq, Eq)]
struct RobSets {
    head: usize,
    mask: usize,
    iq: Vec<u64>,
    in_flight: Vec<u64>,
    iq_len: usize,
    loads: usize,
}

impl RobSets {
    fn new(rob_entries: usize) -> Self {
        let positions = rob_entries.next_power_of_two().max(64);
        RobSets {
            head: 0,
            mask: positions - 1,
            iq: vec![0; positions / 64],
            in_flight: vec![0; positions / 64],
            iq_len: 0,
            loads: 0,
        }
    }

    /// The sets and counts of `rob`, with its head at position 0.
    fn rebuild(&mut self, rob: &VecDeque<RobEntry>) {
        self.head = 0;
        self.iq.fill(0);
        self.in_flight.fill(0);
        self.iq_len = 0;
        self.loads = 0;
        for (i, e) in rob.iter().enumerate() {
            if e.in_iq {
                set_bit(&mut self.iq, i);
                self.iq_len += 1;
            }
            if e.complete_at.is_some() && !e.completed {
                set_bit(&mut self.in_flight, i);
            }
            self.loads += usize::from(e.uop.kind.is_load());
        }
    }

    /// Makes `self` equal to `src` without allocating.
    fn copy_from(&mut self, src: &RobSets) {
        self.head = src.head;
        self.mask = src.mask;
        self.iq.clone_from(&src.iq);
        self.in_flight.clone_from(&src.in_flight);
        self.iq_len = src.iq_len;
        self.loads = src.loads;
    }

    fn pos(&self, idx: usize) -> usize {
        (self.head + idx) & self.mask
    }

    /// Entry `idx`, a load if `load`, was dispatched into the issue queue.
    fn dispatched(&mut self, idx: usize, load: bool) {
        let pos = self.pos(idx);
        set_bit(&mut self.iq, pos);
        self.iq_len += 1;
        self.loads += usize::from(load);
    }

    /// Entry `idx` issued: it leaves the issue queue and is in flight.
    fn issued(&mut self, idx: usize) {
        let pos = self.pos(idx);
        clear_bit(&mut self.iq, pos);
        set_bit(&mut self.in_flight, pos);
        self.iq_len -= 1;
    }

    /// Entry `idx` completed at writeback.
    fn completed(&mut self, idx: usize) {
        let pos = self.pos(idx);
        clear_bit(&mut self.in_flight, pos);
    }

    /// Entry `idx`, a load if `load`, was squashed.
    fn squashed(&mut self, idx: usize, load: bool) {
        let pos = self.pos(idx);
        self.iq_len -= usize::from(has_bit(&self.iq, pos));
        self.loads -= usize::from(load);
        clear_bit(&mut self.iq, pos);
        clear_bit(&mut self.in_flight, pos);
    }

    /// The head, a load if `load`, committed.  Only a completed entry
    /// commits, and it left both sets on its way there, so commit only
    /// advances the ring and counts the load.
    fn committed(&mut self, load: bool) {
        debug_assert!(!has_bit(&self.iq, self.head) && !has_bit(&self.in_flight, self.head));
        self.head = (self.head + 1) & self.mask;
        self.loads -= usize::from(load);
    }

    /// The next member of `set` (`iq` or `in_flight`) on `walk`, which
    /// visits the members oldest-first: it takes one word at a time,
    /// shifted down to the walk's position, and each member by its trailing
    /// zeros, so empty stretches of the ring cost one word each.
    fn next_in(&self, set: &[u64], walk: &mut Walk) -> Option<usize> {
        while walk.bits == 0 {
            if walk.next > self.mask {
                return None;
            }
            let pos = self.pos(walk.next);
            walk.bits = set[pos / 64] >> (pos % 64);
            walk.base = walk.next;
            walk.next += 64 - pos % 64;
        }
        let found = walk.base + walk.bits.trailing_zeros() as usize;
        walk.bits &= walk.bits - 1;
        // A bit past the ring's end wraps to an older entry.
        (found <= self.mask).then_some(found)
    }
}

/// A walk over one of [`RobSets`]' sets: the ROB index of bit 0 of `bits`,
/// the members of the word being walked not yet visited, and the ROB index
/// the next word starts at.  The walk reads each word once, so a member
/// the walker removes as it visits it (issue and writeback do) does not
/// disturb it.
#[derive(Default)]
struct Walk {
    base: usize,
    bits: u64,
    next: usize,
}

/// The cycle-level out-of-order core: the program and configuration it
/// runs, its `CoreState` and its memory hierarchy.
///
/// # Examples
///
/// ```
/// use merlin_cpu::{Cpu, CpuConfig, NullProbe};
/// use merlin_isa::{reg, AluOp, Cond, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(reg(1), 0);
/// b.movi(reg(2), 1);
/// let top = b.bind_label();
/// b.alu_rr(AluOp::Add, reg(1), reg(1), reg(2));
/// b.alu_ri(AluOp::Add, reg(2), reg(2), 1);
/// b.branch_ri(Cond::Le, reg(2), 100, top);
/// b.out(reg(1));
/// b.halt();
/// let program = b.build().unwrap();
///
/// let mut cpu = Cpu::new(program, CpuConfig::default()).unwrap();
/// let result = cpu.run(1_000_000, &mut NullProbe);
/// assert!(result.exit.is_halted());
/// assert_eq!(result.output, vec![5050]);
/// ```
#[derive(Debug)]
pub struct Cpu {
    cfg: CpuConfig,
    program: Arc<Program>,
    /// Shared pre-decoded micro-op arena: every static instruction cracked
    /// exactly once, fetched from by copy (see [`merlin_isa::DecodedProgram`]).
    decoded: Arc<DecodedProgram>,
    s: CoreState,
    mem: MemSystem,
    /// Cycle of the earliest pending fault in `s.faults` (`u64::MAX` when
    /// none): the fault-free fast path of [`Cpu::step`] is one integer
    /// compare.
    next_fault_cycle: u64,
    /// The ROB entries issue and writeback visit, derived from its flags.
    sets: RobSets,
}

impl Cpu {
    /// Creates a core ready to run `program` under `cfg`.
    ///
    /// Accepts either an owned [`Program`] or an `Arc<Program>`; campaigns
    /// share one `Arc` across thousands of per-fault cores instead of cloning
    /// the program image for each one.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent.
    pub fn new(program: impl Into<Arc<Program>>, cfg: CpuConfig) -> Result<Self, ConfigError> {
        let program: Arc<Program> = program.into();
        let decoded = Arc::new(DecodedProgram::new(&program));
        Self::with_predecoded(program, decoded, cfg)
    }

    /// Creates a core sharing an already-built pre-decoded micro-op table.
    ///
    /// Campaigns decode the program exactly once ([`DecodedProgram::new`])
    /// and hand the same `Arc` to the golden run and every worker core;
    /// [`Cpu::new`] builds a private table for one-off cores.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent or
    /// `decoded` was not built from `program`'s instruction stream (checked
    /// by count and content hash, so a table from a different program of
    /// equal length is rejected too).
    pub fn with_predecoded(
        program: impl Into<Arc<Program>>,
        decoded: Arc<DecodedProgram>,
        cfg: CpuConfig,
    ) -> Result<Self, ConfigError> {
        let program: Arc<Program> = program.into();
        if !decoded.matches_program(&program) {
            return Err(ConfigError::DecodedProgramMismatch);
        }
        cfg.validate()?;
        let mem_len = program.data_size + cfg.extra_memory_bytes;
        let mut memory = Memory::new(mem_len);
        for seg in &program.data {
            memory
                .load_segment(seg.addr, &seg.bytes)
                .expect("program data segment must fit in memory");
        }
        // Seal the loaded image as the pristine baseline: snapshots encode
        // memory as a delta against it, and any core built from the same
        // (program, config) pair — campaign workers included — shares a
        // byte-identical image to resolve those deltas against.
        memory.seal_pristine();
        let mem = MemSystem::new(cfg.l1d, cfg.l2, memory, cfg.mem_latency);
        let sets = RobSets::new(cfg.rob_entries);
        let s = CoreState {
            cycle: 0,
            next_seq: 0,
            committed_instructions: 0,
            committed_uops: 0,
            arithmetic_exceptions: 0,
            misaligned_exceptions: 0,
            fetch_pc: program.entry,
            fetch_halted: false,
            fetch_invalid: false,
            pending_store_slot: None,
            finished: None,
            faults: Vec::new(),
            output: Vec::new(),
            rat: RenameTable::identity(),
            fetch_buffer: VecDeque::new(),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            free_list: FreeList::new(NUM_ARCH_REGS, cfg.phys_int_regs),
            sq: StoreQueue::new(cfg.sq_entries),
            prf: PhysRegFile::new(cfg.phys_int_regs),
            bp: BranchPredictor::new(cfg.predictor_entries),
            btb: Btb::new(cfg.btb_entries),
        };
        Ok(Cpu {
            cfg,
            program,
            decoded,
            s,
            mem,
            next_fault_cycle: u64::MAX,
            sets,
        })
    }

    /// The shared pre-decoded micro-op table this core fetches from.
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// The active configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// The program this core executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.s.cycle
    }

    /// `true` once the run has ended (halt, crash, assert).
    pub fn is_finished(&self) -> bool {
        self.s.finished.is_some()
    }

    /// The architected output stream so far.
    pub fn output(&self) -> &[u64] {
        &self.s.output
    }

    /// Number of entries a fault may target in `structure` under this
    /// configuration.
    pub fn structure_entries(&self, structure: Structure) -> usize {
        self.cfg.structure_entries(structure)
    }

    /// Schedules a transient fault to be applied at the start of its cycle.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError::EntryOutOfRange`] if the entry index does not
    /// exist in this configuration.
    pub fn inject_fault(&mut self, fault: FaultSpec) -> Result<(), InjectError> {
        let limit = self.structure_entries(fault.structure);
        if fault.entry >= limit {
            return Err(InjectError::EntryOutOfRange {
                structure: fault.structure,
                entry: fault.entry,
                limit,
            });
        }
        // Keep the pending list cycle-sorted (stable for equal cycles, so
        // same-cycle faults still apply in injection order): the per-cycle
        // check collapses to one compare against `next_fault_cycle` and
        // application walks a sorted prefix without allocating.
        let at = self.s.faults.partition_point(|f| f.cycle <= fault.cycle);
        self.s.faults.insert(at, fault);
        self.next_fault_cycle = self.s.faults[0].cycle;
        Ok(())
    }

    /// Runs until the program finishes or `max_cycles` is reached.
    pub fn run(&mut self, max_cycles: u64, probe: &mut dyn Probe) -> RunResult {
        while self.s.finished.is_none() && self.s.cycle < max_cycles {
            self.step(probe);
        }
        let exit = self.s.finished.clone().unwrap_or(ExitReason::Timeout);
        RunResult {
            exit,
            output: self.s.output.clone(),
            cycles: self.s.cycle,
            committed_instructions: self.s.committed_instructions,
            committed_uops: self.s.committed_uops,
            arithmetic_exceptions: self.s.arithmetic_exceptions,
            misaligned_exceptions: self.s.misaligned_exceptions,
        }
    }

    /// Simulates one cycle.
    pub fn step(&mut self, probe: &mut dyn Probe) {
        if self.s.finished.is_some() {
            return;
        }
        self.apply_faults();
        self.commit(probe);
        if self.s.finished.is_some() {
            self.s.cycle += 1;
            return;
        }
        self.writeback(probe);
        self.issue(probe);
        self.dispatch();
        self.fetch();
        self.s.cycle += 1;
    }

    // ----- fault application ---------------------------------------------

    fn apply_faults(&mut self) {
        // Fault-free cycles (nearly all of them) cost one compare: the
        // pending list is cycle-sorted and `next_fault_cycle` caches the
        // earliest cycle at which anything could fire.
        if self.s.cycle < self.next_fault_cycle {
            return;
        }
        let cycle = self.s.cycle;
        // Entries scheduled in the past never fire (unchanged semantics of
        // the old per-cycle equality scan); they stay pending but are
        // stepped over, and `next_fault_cycle` advances past them so the
        // fast path never scans again.
        let start = self.s.faults.partition_point(|f| f.cycle < cycle);
        let end = start + self.s.faults[start..].partition_point(|f| f.cycle == cycle);
        for i in start..end {
            let f = self.s.faults[i];
            match f.structure {
                Structure::RegisterFile => self.s.prf.flip_bit(f.entry, f.bit),
                Structure::StoreQueue => self.s.sq.flip_bit(f.entry, f.bit),
                Structure::L1DCache => {
                    let (set, way, word) = self.mem.l1d.entry_location(f.entry);
                    let byte_in_line = word * 8 + (f.bit / 8) as usize;
                    self.mem.l1d.flip_bit(set, way, byte_in_line, f.bit % 8);
                }
            }
        }
        self.s.faults.drain(start..end);
        self.next_fault_cycle = self.s.faults.get(start).map_or(u64::MAX, |f| f.cycle);
    }

    // ----- fetch -----------------------------------------------------------

    fn fetch(&mut self) {
        if self.s.fetch_halted || self.s.fetch_invalid {
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width && self.s.fetch_buffer.len() < self.cfg.fetch_width * 3
        {
            if (self.s.fetch_pc as usize) >= self.program.len() {
                self.s.fetch_invalid = true;
                return;
            }
            let inst = self.program.instructions[self.s.fetch_pc as usize];
            let pc = self.s.fetch_pc;
            let next_pc = match inst {
                Inst::Jump { target } => target,
                Inst::Call { target, .. } => target,
                Inst::BranchRR { target, .. } | Inst::BranchRI { target, .. } => {
                    if self.s.bp.predict(pc) {
                        target
                    } else {
                        pc + 1
                    }
                }
                Inst::JumpReg { .. } => self.s.btb.predict(pc).unwrap_or(pc + 1),
                _ => pc + 1,
            };
            // Copy the instruction's micro-ops out of the shared pre-decoded
            // arena: no cracking, no allocation, on any fetch ever.
            for &uop in self.decoded.uops(pc) {
                self.s.fetch_buffer.push_back(FetchedUop {
                    uop,
                    pred_next: next_pc,
                });
                fetched += 1;
            }
            self.s.fetch_pc = next_pc;
            if matches!(inst, Inst::Halt) {
                self.s.fetch_halted = true;
                return;
            }
        }
    }

    // ----- rename / dispatch ----------------------------------------------

    fn dispatch(&mut self) {
        let mut n = 0;
        while n < self.cfg.rename_width {
            let Some(front) = self.s.fetch_buffer.front() else {
                break;
            };
            let uop = front.uop;
            if self.s.rob.len() >= self.cfg.rob_entries
                || self.sets.iq_len >= self.cfg.iq_entries
                || (uop.dst.is_some() && self.s.free_list.available() == 0)
                || (uop.kind.is_load() && self.sets.loads >= self.cfg.lq_entries)
                || (uop.kind == UopKind::StoreAddr && self.s.sq.is_full())
            {
                break;
            }
            let fetched = self.s.fetch_buffer.pop_front().expect("checked front");
            let seq = self.s.next_seq;
            self.s.next_seq += 1;

            let mut src_phys = [None; 3];
            for (i, s) in fetched.uop.srcs.iter().enumerate() {
                if let Some(r) = s {
                    src_phys[i] = Some(self.s.rat.lookup(*r));
                }
            }
            let (dst_phys, prev_phys) = if let Some(d) = fetched.uop.dst {
                let p = self.s.free_list.allocate().expect("checked availability");
                self.s.prf.mark_pending(p);
                let prev = self.s.rat.remap(d, p);
                (Some(p), Some(prev))
            } else {
                (None, None)
            };
            let mut sq_slot = None;
            match fetched.uop.kind {
                UopKind::StoreAddr => {
                    let slot = self.s.sq.allocate(seq);
                    self.s.sq.slot_mut(slot).size = fetched.uop.mem_size.expect("store has a size");
                    sq_slot = Some(slot);
                    self.s.pending_store_slot = Some(slot);
                }
                UopKind::StoreData => {
                    sq_slot = self.s.pending_store_slot.take();
                    debug_assert!(sq_slot.is_some(), "STD dispatched without its STA");
                }
                _ => {}
            }
            self.sets.dispatched(self.s.rob.len(), uop.kind.is_load());
            self.s.rob.push_back(RobEntry {
                seq,
                uop: fetched.uop,
                src_phys,
                dst_phys,
                prev_phys,
                in_iq: true,
                complete_at: None,
                completed: false,
                pred_next: fetched.pred_next,
                actual_next: None,
                result: None,
                exception: None,
                sq_slot,
            });
            n += 1;
        }
    }

    // ----- issue / execute -------------------------------------------------

    fn issue(&mut self, probe: &mut dyn Probe) {
        let mut issued = 0;
        let mut alu_used = 0;
        let mut complex_used = 0;
        let mut mem_used = 0;
        let mut branch_used = 0;
        let mut walk = Walk::default();
        while issued < self.cfg.issue_width {
            let Some(idx) = self.sets.next_in(&self.sets.iq, &mut walk) else {
                break;
            };
            let kind = self.s.rob[idx].uop.kind;
            let ready = self.s.rob[idx]
                .src_phys
                .iter()
                .flatten()
                .all(|&p| self.s.prf.is_ready(p));
            if !ready {
                continue;
            }
            let fu_ok = match kind {
                UopKind::Alu(op) if op.is_complex() => complex_used < self.cfg.complex_alus,
                UopKind::Alu(_) | UopKind::Out | UopKind::Nop | UopKind::Halt => {
                    alu_used < self.cfg.int_alus
                }
                UopKind::Load | UopKind::StoreAddr | UopKind::StoreData => {
                    mem_used < self.cfg.mem_ports
                }
                UopKind::Branch(_) | UopKind::Jump | UopKind::JumpReg | UopKind::Call => {
                    branch_used < self.cfg.branch_units
                }
            };
            if !fu_ok {
                continue;
            }
            if self.execute_uop(idx, probe) {
                // The micro-op issued, so it read its register sources.
                let e = &mut self.s.rob[idx];
                for &p in e.src_phys.iter().flatten() {
                    probe.physical_read(Structure::RegisterFile, p as usize, self.s.cycle, e.seq);
                }
                e.in_iq = false;
                self.sets.issued(idx);
                issued += 1;
                match kind {
                    UopKind::Alu(op) if op.is_complex() => complex_used += 1,
                    UopKind::Alu(_) | UopKind::Out | UopKind::Nop | UopKind::Halt => alu_used += 1,
                    UopKind::Load | UopKind::StoreAddr | UopKind::StoreData => mem_used += 1,
                    _ => branch_used += 1,
                }
            }
        }
    }

    /// Attempts to execute the micro-op at ROB position `idx`.  Returns
    /// `false` if it cannot issue yet (load waiting on disambiguation or
    /// forwarding), `true` otherwise.
    fn execute_uop(&mut self, idx: usize, probe: &mut dyn Probe) -> bool {
        let cycle = self.s.cycle;
        let uop = self.s.rob[idx].uop;
        let seq = self.s.rob[idx].seq;
        let src_phys = self.s.rob[idx].src_phys;
        let mut vals = [0u64; 3];
        for (i, p) in src_phys.iter().enumerate() {
            if let Some(p) = p {
                vals[i] = self.s.prf.read(*p);
            }
        }

        match uop.kind {
            UopKind::Alu(op) => {
                let b = if uop.cmp_with_imm {
                    uop.imm as u64
                } else {
                    vals[1]
                };
                let r = op.eval(vals[0], b);
                let exception = r.arithmetic_exception.then_some(Exception::DivByZero);
                let entry = &mut self.s.rob[idx];
                entry.result = Some(r.value);
                entry.exception = exception;
                entry.complete_at = Some(cycle + op.latency());
                true
            }
            UopKind::Load => {
                if !self.s.sq.older_addresses_known(seq) {
                    return false;
                }
                let mem_ref = uop.mem.expect("load has a memory reference");
                let size = uop.mem_size.expect("load has a size");
                let index_val = if mem_ref.index.is_some() { vals[1] } else { 0 };
                let addr = mem_ref.effective_address(vals[0], index_val);
                let misaligned = !addr.is_multiple_of(size.bytes());
                // Store-to-load forwarding.
                if let Some((slot, covers)) =
                    self.s.sq.forwarding_candidate(seq, addr, size.bytes())
                {
                    let (s_addr, s_data, s_ready) = {
                        let s = self.s.sq.slot(slot);
                        (
                            s.addr.expect("candidate has an address"),
                            s.data,
                            s.data_ready,
                        )
                    };
                    if !covers || !s_ready {
                        return false;
                    }
                    let shift = ((addr - s_addr) * 8) as u32;
                    let raw = (s_data >> shift) & size.mask();
                    let value = if uop.mem_signed {
                        size.sign_extend(raw)
                    } else {
                        raw
                    };
                    probe.physical_read(Structure::StoreQueue, slot, cycle, seq);
                    let entry = &mut self.s.rob[idx];
                    entry.result = Some(value);
                    entry.exception = misaligned.then_some(Exception::Misaligned);
                    entry.complete_at = Some(cycle + self.cfg.l1d.hit_latency);
                    return true;
                }
                match self.mem.load(addr, size, cycle, seq, probe) {
                    Ok((raw, latency)) => {
                        let raw = raw & size.mask();
                        let value = if uop.mem_signed {
                            size.sign_extend(raw)
                        } else {
                            raw
                        };
                        let entry = &mut self.s.rob[idx];
                        entry.result = Some(value);
                        entry.exception = misaligned.then_some(Exception::Misaligned);
                        entry.complete_at = Some(cycle + latency);
                        true
                    }
                    Err(e) => {
                        let exception = match e {
                            MemError::OutOfBounds { addr, .. } => {
                                Exception::MemOutOfBounds { addr }
                            }
                            MemError::StoreToCode { addr } => Exception::StoreToCode { addr },
                        };
                        let entry = &mut self.s.rob[idx];
                        entry.result = Some(0);
                        entry.exception = Some(exception);
                        entry.complete_at = Some(cycle + self.cfg.l1d.hit_latency);
                        true
                    }
                }
            }
            UopKind::StoreAddr => {
                let mem_ref = uop.mem.expect("store has a memory reference");
                let size = uop.mem_size.expect("store has a size");
                let index_val = if mem_ref.index.is_some() { vals[1] } else { 0 };
                let addr = mem_ref.effective_address(vals[0], index_val);
                let slot = self.s.rob[idx].sq_slot.expect("STA has a store-queue slot");
                self.s.sq.slot_mut(slot).addr = Some(addr);
                let entry = &mut self.s.rob[idx];
                entry.exception =
                    (!addr.is_multiple_of(size.bytes())).then_some(Exception::Misaligned);
                entry.complete_at = Some(cycle + 1);
                true
            }
            UopKind::StoreData => {
                let slot = self.s.rob[idx].sq_slot.expect("STD has a store-queue slot");
                {
                    let s = self.s.sq.slot_mut(slot);
                    s.data = vals[0];
                    s.data_ready = true;
                }
                // Depositing the data is a physical write of the SQ entry.
                probe.write(Structure::StoreQueue, slot, cycle);
                let entry = &mut self.s.rob[idx];
                entry.complete_at = Some(cycle + 1);
                true
            }
            UopKind::Branch(cond) => {
                let b = if uop.cmp_with_imm {
                    uop.cmp_imm as u64
                } else {
                    vals[1]
                };
                let taken = cond.eval(vals[0], b);
                let next = if taken { uop.imm as Rip } else { uop.rip + 1 };
                let entry = &mut self.s.rob[idx];
                entry.actual_next = Some(next);
                // The direction, for the predictor's training at commit.
                entry.result = Some(taken as u64);
                entry.complete_at = Some(cycle + 1);
                true
            }
            UopKind::Jump => {
                let entry = &mut self.s.rob[idx];
                entry.actual_next = Some(uop.imm as Rip);
                entry.complete_at = Some(cycle + 1);
                true
            }
            UopKind::JumpReg => {
                let target = vals[0].min(u32::MAX as u64) as Rip;
                let entry = &mut self.s.rob[idx];
                entry.actual_next = Some(target);
                entry.complete_at = Some(cycle + 1);
                true
            }
            UopKind::Call => {
                let entry = &mut self.s.rob[idx];
                entry.result = Some(uop.rip as u64 + 1);
                entry.actual_next = Some(uop.imm as Rip);
                entry.complete_at = Some(cycle + 1);
                true
            }
            UopKind::Out => {
                let entry = &mut self.s.rob[idx];
                entry.result = Some(vals[0]);
                entry.complete_at = Some(cycle + 1);
                true
            }
            UopKind::Halt | UopKind::Nop => {
                let entry = &mut self.s.rob[idx];
                entry.complete_at = Some(cycle + 1);
                true
            }
        }
    }

    // ----- writeback --------------------------------------------------------

    fn writeback(&mut self, probe: &mut dyn Probe) {
        let cycle = self.s.cycle;
        let mut walk = Walk::default();
        while let Some(idx) = self.sets.next_in(&self.sets.in_flight, &mut walk) {
            if !matches!(self.s.rob[idx].complete_at, Some(c) if c <= cycle) {
                continue;
            }
            if let Some(p) = self.s.rob[idx].dst_phys {
                let value = self.s.rob[idx].result.unwrap_or(0);
                self.s.prf.write(p, value);
                probe.write(Structure::RegisterFile, p as usize, cycle);
            }
            self.s.rob[idx].completed = true;
            self.sets.completed(idx);
            // Branch resolution: squash on a mispredicted next PC.
            if self.s.rob[idx].uop.kind.is_control() {
                let actual = self.s.rob[idx]
                    .actual_next
                    .expect("control uop resolved its target");
                if actual != self.s.rob[idx].pred_next {
                    let seq = self.s.rob[idx].seq;
                    self.squash_after(seq, actual, probe);
                    // Indices beyond the squash point are gone; the remaining
                    // completions are picked up next cycle.
                    return;
                }
            }
        }
    }

    fn squash_after(&mut self, branch_seq: u64, new_pc: Rip, probe: &mut dyn Probe) {
        let cycle = self.s.cycle;
        while let Some(back) = self.s.rob.back() {
            if back.seq <= branch_seq {
                break;
            }
            let e = self.s.rob.pop_back().expect("checked back");
            self.sets.squashed(self.s.rob.len(), e.uop.kind.is_load());
            if let (Some(d), Some(prev)) = (e.uop.dst, e.prev_phys) {
                self.s.rat.restore(d, prev);
            }
            if let Some(p) = e.dst_phys {
                self.s.free_list.release(p);
                self.s.prf.mark_ready(p);
                probe.invalidate(Structure::RegisterFile, p as usize, cycle);
            }
            if e.uop.kind == UopKind::StoreAddr {
                if let Some(s) = e.sq_slot {
                    self.s.sq.release_tail(s);
                    probe.invalidate(Structure::StoreQueue, s, cycle);
                }
            }
        }
        self.s.fetch_buffer.clear();
        self.s.pending_store_slot = None;
        self.s.fetch_pc = new_pc;
        self.s.fetch_halted = false;
        self.s.fetch_invalid = false;
    }

    // ----- commit ------------------------------------------------------------

    fn commit(&mut self, probe: &mut dyn Probe) {
        let cycle = self.s.cycle;
        let mut committed = 0;
        while committed < self.cfg.commit_width {
            let ready = matches!(self.s.rob.front(), Some(e) if e.completed);
            if !ready {
                break;
            }
            let e = self.s.rob.pop_front().expect("checked front");
            self.sets.committed(e.uop.kind.is_load());
            committed += 1;
            self.s.committed_uops += 1;

            if let Some(exc) = e.exception {
                match exc {
                    Exception::MemOutOfBounds { addr } => {
                        self.s.finished =
                            Some(ExitReason::Crash(CrashKind::MemoryOutOfBounds { addr }));
                        return;
                    }
                    Exception::StoreToCode { addr } => {
                        self.s.finished =
                            Some(ExitReason::Assert(AssertKind::StoreToCode { addr }));
                        return;
                    }
                    Exception::DivByZero => self.s.arithmetic_exceptions += 1,
                    Exception::Misaligned => self.s.misaligned_exceptions += 1,
                }
            }

            if let Some(prev) = e.prev_phys {
                self.s.free_list.release(prev);
                self.s.prf.mark_ready(prev);
                probe.invalidate(Structure::RegisterFile, prev as usize, cycle);
            }

            let taken = match e.uop.kind {
                UopKind::Branch(_) => Some(e.result.unwrap_or(0) != 0),
                UopKind::JumpReg => Some(true),
                _ => None,
            };
            let mut drained = Ok(());
            match e.uop.kind {
                UopKind::Out => self.s.output.push(e.result.unwrap_or(0)),
                UopKind::Halt => {
                    self.s.finished = Some(ExitReason::Halted);
                }
                UopKind::StoreData => drained = self.drain_store(&e, probe),
                UopKind::Branch(_) => self.s.bp.update(e.uop.rip, taken == Some(true)),
                UopKind::JumpReg => {
                    if let Some(t) = e.actual_next {
                        self.s.btb.update(e.uop.rip, t);
                    }
                }
                _ => {}
            }
            let u = &e.uop;
            probe.retired(e.seq, u.rip, u.upc, u.last_in_inst, taken);
            if drained.is_err() {
                return;
            }

            if e.uop.last_in_inst {
                self.s.committed_instructions += 1;
            }
            if self.s.finished.is_some() {
                return;
            }
        }
        // The committed path reached an invalid instruction address: the
        // machine has drained and cannot make progress.
        if self.s.finished.is_none()
            && self.s.rob.is_empty()
            && self.s.fetch_buffer.is_empty()
            && self.s.fetch_invalid
        {
            self.s.finished = Some(ExitReason::Crash(CrashKind::InvalidFetchPc {
                pc: self.s.fetch_pc,
            }));
        }
    }

    /// Drains the committed store whose store-data micro-op is ROB entry
    /// `e` to the cache hierarchy.
    fn drain_store(&mut self, e: &RobEntry, probe: &mut dyn Probe) -> Result<(), ()> {
        let cycle = self.s.cycle;
        let slot = e.sq_slot.expect("committed store has a slot");
        let s = self.s.sq.slot(slot);
        let (addr, size, data) = (
            s.addr.expect("committed store has an address"),
            s.size,
            s.data,
        );
        // Draining reads the store-queue data field.
        probe.committed_read(
            Structure::StoreQueue,
            &ReadInfo {
                entry: slot,
                cycle,
                rip: e.uop.rip,
                upc: e.uop.upc,
            },
        );
        match self.mem.store(addr, data, size, cycle, probe) {
            Ok(_) => {
                self.s.sq.release_head(slot);
                probe.invalidate(Structure::StoreQueue, slot, cycle);
                Ok(())
            }
            Err(MemError::OutOfBounds { addr, .. }) => {
                self.s.finished = Some(ExitReason::Crash(CrashKind::MemoryOutOfBounds { addr }));
                Err(())
            }
            Err(MemError::StoreToCode { addr }) => {
                self.s.finished = Some(ExitReason::Assert(AssertKind::StoreToCode { addr }));
                Err(())
            }
        }
    }

    // ----- checkpoint/restore ---------------------------------------------

    /// Captures the complete microarchitectural state of the core.
    ///
    /// The core is deterministic (no RNG anywhere), so
    /// `snapshot → restore_from → step*` is cycle-for-cycle identical to
    /// continuing the original run — the foundation of the checkpointed
    /// injection engine in `merlin-inject`.
    ///
    /// The snapshot copies the core's plain arrays and shares its
    /// copy-on-write pages: it freezes the owned ones first, hence
    /// `&mut self`, and the core un-shares a page on its next write to it.
    pub fn snapshot(&mut self) -> CpuState {
        self.s.freeze();
        CpuState {
            core: self.s.clone(),
            mem: self.mem.snapshot(),
        }
    }

    /// Restores the core to a previously captured state.
    ///
    /// The core's `CoreState` is overwritten whole by a clone of the
    /// snapshot's, so the core behaves identically to the one the snapshot
    /// was taken from regardless of what it executed in between.
    /// Copy-on-write structures adopt the snapshot's page handles (O(pages),
    /// nothing copied until the core writes), the plain arrays are copied;
    /// the caches are rebuilt from their sparse images and the backing
    /// memory from its chunk delta.
    ///
    /// The state must come from a core running the same program under the
    /// same configuration; this is not checked.
    pub fn restore_from(&mut self, s: &CpuState) {
        self.s = s.core.clone();
        self.next_fault_cycle = self.s.faults.first().map_or(u64::MAX, |f| f.cycle);
        self.sets.rebuild(&self.s.rob);
        self.mem.restore_snapshot(&s.mem);
    }

    /// Forks this core from a live source core, making `self` bit-identical
    /// to `src` — the lazy fork-spawn of the batched suffix driver.
    ///
    /// The core's `CoreState` is overwritten whole by a clone of `src`'s,
    /// which copies the per-cycle arrays (both sides write them in their
    /// first cycle anyway) and shares the memory, caches, predictor and BTB
    /// by page handle (see [`CowTable`](crate::CowTable));
    /// sharing breaks lazily, per page, on whichever side writes first.
    /// Like [`Cpu::restore_from`] it is
    /// valid from any state of `self`.  `src` must run the same program
    /// under the same configuration.
    ///
    /// `src`'s owned pages are frozen first, hence `&mut src`.
    pub fn fork_from(&mut self, src: &mut Cpu) {
        src.s.freeze();
        self.s = src.s.clone();
        self.next_fault_cycle = src.next_fault_cycle;
        self.sets.copy_from(&src.sets);
        self.mem.fork_from(&mut src.mem);
    }

    /// Page un-share events accumulated across every CoW-backed structure
    /// (the backing memory, the L1D's tag and byte pages, the L2's tag
    /// pages, the predictor and the BTB) since the last
    /// call (see [`CowTable`](crate::CowTable)): each count is one page that
    /// was shared — with a fork sibling, a snapshot, or the pristine memory
    /// image — and had to be materialised privately on first write.  Counts
    /// are per core: a restore or fork starts the core's structures at zero
    /// and leaves the source's count with it.
    pub fn take_cow_breaks(&mut self) -> u64 {
        self.s.take_cow_breaks() + self.mem.take_cow_breaks()
    }

    /// Whether a bit flip in `entry` of `structure`, applied at the start of
    /// the current cycle, can never be observed: the entry is overwritten
    /// before anything reads it, so the fault is Masked without simulating.
    /// Each rule rests on an invariant of the core:
    ///
    /// - **Register file:** the physical register is on the free list, or
    ///   allocated but not yet ready.  Rename marks a newly allocated
    ///   register not-ready; it turns ready only when writeback overwrites
    ///   its whole value, or when a squash frees it.  Issue waits for every
    ///   source to be ready, and nothing reads a free register until it is
    ///   allocated again.
    /// - **Store queue:** the slot is not valid, or valid but its store data
    ///   has not arrived yet.  [`StoreQueue::allocate`] and the store-data
    ///   micro-op overwrite the data field; forwarding and the commit-time
    ///   drain read it only from valid slots whose data is ready.
    ///
    /// L1 data cache words are never reported here: whether the golden run
    /// reads a word again is a question about its future, which the
    /// injection engine answers from a log of the golden run's physical
    /// L1D events (see [`Probe::physical_read`]).
    ///
    /// Returns `false` for entries outside the configuration; `false` only
    /// means "not proven dead".
    pub fn fault_site_dead(&self, structure: Structure, entry: usize) -> bool {
        if entry >= self.structure_entries(structure) {
            return false;
        }
        match structure {
            Structure::RegisterFile => {
                let p = entry as PhysReg;
                !self.s.prf.is_ready(p) || self.s.free_list.contains(p)
            }
            Structure::StoreQueue => {
                let slot = self.s.sq.slot(entry);
                !slot.valid || !slot.data_ready
            }
            Structure::L1DCache => false,
        }
    }

    /// Whether the core's current state is bit-identical to `s`.
    ///
    /// Used by the injection engine's early-exit test: once a faulty run's
    /// state re-converges with a golden checkpoint, the remainder of the run
    /// is guaranteed identical to the golden run, so the fault is Masked.
    /// Cheap scalar fields are compared first so divergent states bail out
    /// without touching the memory image.  The per-cycle arrays compare by
    /// contents; every copy-on-write structure skips the pages whose handle
    /// it still shares with `s`, so there a core restored or forked from
    /// the golden stream pays only for the pages it (or the golden run
    /// between the two checkpoints) wrote.
    pub fn matches_state(&self, s: &CpuState) -> bool {
        self.s == s.core && self.mem.matches_snapshot(&s.mem)
    }
}

/// A complete snapshot of the core's microarchitectural state, produced by
/// [`Cpu::snapshot`] and consumed by [`Cpu::restore_from`]: a clone of the
/// core's `CoreState` and a snapshot of its memory hierarchy.
///
/// The snapshot does not include the program or the configuration — those
/// are immutable over a run and shared (via `Arc`) between the cores of a
/// campaign.  Cache contents are stored sparsely (valid lines only) and the
/// backing memory as a chunk-level delta against the pristine program image
/// (see [`crate::MemoryDelta`]), so a snapshot's footprint tracks the data
/// the workload actually touched, not the configured cache or memory
/// capacity.  Restoring resolves the delta against the pristine image the
/// restoring core holds, which is byte-identical for every core built from
/// the same (program, configuration) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuState {
    core: CoreState,
    mem: crate::cache::MemSystemSnapshot,
}

impl CpuState {
    /// The cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Whether the captured run had already ended.
    pub fn is_finished(&self) -> bool {
        self.core.finished.is_some()
    }

    /// Approximate heap footprint of the snapshot in bytes (dominated by the
    /// memory delta and the touched cache lines): every array the snapshot
    /// holds its own copy of, at its length.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        let c = &self.core;
        self.mem.footprint_bytes()
            + c.prf.len() * 9
            + c.output.len() * 8
            + c.rob.len() * size_of::<RobEntry>()
            + c.fetch_buffer.len() * size_of::<FetchedUop>()
            + c.free_list.available() * size_of::<PhysReg>()
            + c.sq.capacity() * size_of::<SqSlot>()
    }

    /// Bytes the chunk-level memory delta occupies within
    /// [`Self::footprint_bytes`].
    pub fn memory_delta_bytes(&self) -> usize {
        self.mem.memory_delta_bytes()
    }

    /// Size in bytes of the backing memory the snapshot was captured from,
    /// which a dense image of it would occupy.  Loading a `.golden` file
    /// checks it against the session's memory size, since restoring a
    /// snapshot of another size panics.
    pub fn memory_dense_bytes(&self) -> usize {
        self.mem.memory_dense_bytes()
    }

    /// Whether the snapshot restores without a panic into a core under
    /// `cfg` whose memory is `mem_len` bytes: every cache line inside its
    /// cache's geometry with the bytes that cache stores, and a memory of
    /// that size.  Loading a `.golden` file checks it for every snapshot.
    pub fn fits(&self, cfg: &CpuConfig, mem_len: usize) -> bool {
        let (l1d, l2) = (&self.mem.l1d, &self.mem.l2);
        l1d.fits(&cfg.l1d, cfg.l1d.line_bytes as usize)
            && l2.fits(&cfg.l2, 0)
            && self.memory_dense_bytes() == mem_len
    }
}

// --- Binary encoding of the snapshot types -------------------------------
//
// The session cache persists checkpoint stores to disk, so every type
// reachable from `CpuState` carries a hand-written `BinCode`
// implementation.  Round-trip exactness is enforced
// by `CpuState` equality tests (the snapshot types all derive `PartialEq`).

impl BinCode for Exception {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Exception::MemOutOfBounds { addr } => {
                out.push(0);
                addr.encode(out);
            }
            Exception::StoreToCode { addr } => {
                out.push(1);
                addr.encode(out);
            }
            Exception::DivByZero => out.push(2),
            Exception::Misaligned => out.push(3),
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => Exception::MemOutOfBounds {
                addr: BinCode::decode(r)?,
            },
            1 => Exception::StoreToCode {
                addr: BinCode::decode(r)?,
            },
            2 => Exception::DivByZero,
            3 => Exception::Misaligned,
            _ => return Err(DecodeError::Invalid("Exception")),
        })
    }
}

impl BinCode for CrashKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CrashKind::MemoryOutOfBounds { addr } => {
                out.push(0);
                addr.encode(out);
            }
            CrashKind::InvalidFetchPc { pc } => {
                out.push(1);
                pc.encode(out);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => CrashKind::MemoryOutOfBounds {
                addr: BinCode::decode(r)?,
            },
            1 => CrashKind::InvalidFetchPc {
                pc: BinCode::decode(r)?,
            },
            _ => return Err(DecodeError::Invalid("CrashKind")),
        })
    }
}

impl BinCode for AssertKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AssertKind::StoreToCode { addr } => {
                out.push(0);
                addr.encode(out);
            }
            AssertKind::InternalInvariant(msg) => {
                out.push(1);
                msg.encode(out);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => AssertKind::StoreToCode {
                addr: BinCode::decode(r)?,
            },
            1 => AssertKind::InternalInvariant(BinCode::decode(r)?),
            _ => return Err(DecodeError::Invalid("AssertKind")),
        })
    }
}

impl BinCode for ExitReason {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ExitReason::Halted => out.push(0),
            ExitReason::Timeout => out.push(1),
            ExitReason::Crash(k) => {
                out.push(2);
                k.encode(out);
            }
            ExitReason::Assert(k) => {
                out.push(3);
                k.encode(out);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => ExitReason::Halted,
            1 => ExitReason::Timeout,
            2 => ExitReason::Crash(BinCode::decode(r)?),
            3 => ExitReason::Assert(BinCode::decode(r)?),
            _ => return Err(DecodeError::Invalid("ExitReason")),
        })
    }
}

impl BinCode for RunResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.exit.encode(out);
        self.output.encode(out);
        self.cycles.encode(out);
        self.committed_instructions.encode(out);
        self.committed_uops.encode(out);
        self.arithmetic_exceptions.encode(out);
        self.misaligned_exceptions.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(RunResult {
            exit: BinCode::decode(r)?,
            output: BinCode::decode(r)?,
            cycles: BinCode::decode(r)?,
            committed_instructions: BinCode::decode(r)?,
            committed_uops: BinCode::decode(r)?,
            arithmetic_exceptions: BinCode::decode(r)?,
            misaligned_exceptions: BinCode::decode(r)?,
        })
    }
}

impl BinCode for FetchedUop {
    fn encode(&self, out: &mut Vec<u8>) {
        self.uop.encode(out);
        self.pred_next.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(FetchedUop {
            uop: BinCode::decode(r)?,
            pred_next: BinCode::decode(r)?,
        })
    }
}

impl BinCode for RobEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.uop.encode(out);
        self.src_phys.encode(out);
        self.dst_phys.encode(out);
        self.prev_phys.encode(out);
        self.in_iq.encode(out);
        self.complete_at.encode(out);
        self.completed.encode(out);
        self.pred_next.encode(out);
        self.actual_next.encode(out);
        self.result.encode(out);
        self.exception.encode(out);
        self.sq_slot.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(RobEntry {
            seq: BinCode::decode(r)?,
            uop: BinCode::decode(r)?,
            src_phys: BinCode::decode(r)?,
            dst_phys: BinCode::decode(r)?,
            prev_phys: BinCode::decode(r)?,
            in_iq: BinCode::decode(r)?,
            complete_at: BinCode::decode(r)?,
            completed: BinCode::decode(r)?,
            pred_next: BinCode::decode(r)?,
            actual_next: BinCode::decode(r)?,
            result: BinCode::decode(r)?,
            exception: BinCode::decode(r)?,
            sq_slot: BinCode::decode(r)?,
        })
    }
}

/// Encoded field by field, with the memory snapshot between
/// `pending_store_slot` and `bp` (the `.golden` layout since v6).
impl BinCode for CpuState {
    fn encode(&self, out: &mut Vec<u8>) {
        let c = &self.core;
        c.cycle.encode(out);
        c.next_seq.encode(out);
        c.fetch_pc.encode(out);
        c.fetch_halted.encode(out);
        c.fetch_invalid.encode(out);
        c.fetch_buffer.encode(out);
        c.rat.encode(out);
        c.free_list.encode(out);
        c.prf.encode(out);
        c.rob.encode(out);
        c.sq.encode(out);
        c.pending_store_slot.encode(out);
        self.mem.encode(out);
        c.bp.encode(out);
        c.btb.encode(out);
        c.output.encode(out);
        c.committed_instructions.encode(out);
        c.committed_uops.encode(out);
        c.arithmetic_exceptions.encode(out);
        c.misaligned_exceptions.encode(out);
        c.faults.encode(out);
        c.finished.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // A struct literal evaluates its fields in the order written, which
        // here is the wire order; `mem` is read where it sits on the wire.
        let mem;
        let core = CoreState {
            cycle: BinCode::decode(r)?,
            next_seq: BinCode::decode(r)?,
            fetch_pc: BinCode::decode(r)?,
            fetch_halted: BinCode::decode(r)?,
            fetch_invalid: BinCode::decode(r)?,
            fetch_buffer: BinCode::decode(r)?,
            rat: BinCode::decode(r)?,
            free_list: BinCode::decode(r)?,
            prf: BinCode::decode(r)?,
            rob: BinCode::decode(r)?,
            sq: BinCode::decode(r)?,
            pending_store_slot: BinCode::decode(r)?,
            bp: {
                mem = BinCode::decode(r)?;
                BinCode::decode(r)?
            },
            btb: BinCode::decode(r)?,
            output: BinCode::decode(r)?,
            committed_instructions: BinCode::decode(r)?,
            committed_uops: BinCode::decode(r)?,
            arithmetic_exceptions: BinCode::decode(r)?,
            misaligned_exceptions: BinCode::decode(r)?,
            faults: BinCode::decode(r)?,
            finished: BinCode::decode(r)?,
        };
        Ok(CpuState { core, mem })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_counts_the_queues_and_the_free_list() {
        use merlin_isa::{reg, AluOp, Cond, ProgramBuilder};
        use std::mem::size_of;
        let mut b = ProgramBuilder::new();
        b.movi(reg(1), 0);
        let top = b.bind_label();
        b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
        b.branch_ri(Cond::Lt, reg(1), 20, top);
        b.out(reg(1));
        b.halt();
        let program = b.build().unwrap();
        let footprint = |cfg: CpuConfig| {
            Cpu::new(program.clone(), cfg)
                .unwrap()
                .snapshot()
                .footprint_bytes()
        };
        let cfg = CpuConfig::default();
        let base = footprint(cfg.clone());
        // Each per-entry array is counted at its length.
        let mut sq = cfg.clone();
        sq.sq_entries += 8;
        assert_eq!(footprint(sq) - base, 8 * size_of::<SqSlot>());
        // The load queue is a count the ROB's loads are held to, not state.
        let mut lq = cfg.clone();
        lq.lq_entries += 64;
        assert_eq!(footprint(lq), base);
        let regs = cfg.clone().with_phys_regs(cfg.phys_int_regs + 8);
        assert_eq!(footprint(regs) - base, 8 * (9 + size_of::<PhysReg>()));
    }

    /// Asserts that `cpu`'s derived sets hold exactly the ROB entries its
    /// flags name: the issue-queue members and the issued entries that have
    /// not completed, and no position past the ROB's tail; and that its
    /// derived counts are the ROB's issue-queue members and loads.
    fn assert_rob_sets_exact(cpu: &Cpu) {
        let sets = &cpu.sets;
        let rob = &cpu.s.rob;
        let at = cpu.cycle();
        let in_iq = rob.iter().filter(|e| e.in_iq).count();
        assert_eq!(sets.iq_len, in_iq, "issue-queue count at cycle {at}");
        let loads = rob.iter().filter(|e| e.uop.kind.is_load()).count();
        assert_eq!(sets.loads, loads, "load count at cycle {at}");
        assert!(loads <= cpu.cfg.lq_entries && in_iq <= cpu.cfg.iq_entries);
        for idx in 0..=sets.mask {
            let e = cpu.s.rob.get(idx);
            let pos = sets.pos(idx);
            assert_eq!(
                has_bit(&sets.iq, pos),
                e.is_some_and(|e| e.in_iq),
                "issue-queue bit of ROB index {idx} at cycle {}",
                cpu.cycle()
            );
            assert_eq!(
                has_bit(&sets.in_flight, pos),
                e.is_some_and(|e| e.complete_at.is_some() && !e.completed),
                "in-flight bit of ROB index {idx} at cycle {}",
                cpu.cycle()
            );
        }
    }

    /// What [`step_checking_sets`] saw: cycles that squashed ROB entries,
    /// and cycles that ended with the ROB holding `lq_entries` loads.
    #[derive(Default)]
    struct Seen {
        squashes: usize,
        lq_full: usize,
    }

    /// Steps `cpu` to `cycle` or its end, checking the derived sets and
    /// counts every cycle.
    fn step_checking_sets(cpu: &mut Cpu, cycle: u64, seen: &mut Seen) {
        assert_rob_sets_exact(cpu);
        while !cpu.is_finished() && cpu.cycle() < cycle {
            let youngest = cpu.s.rob.back().map(|e| e.seq);
            cpu.step(&mut crate::NullProbe);
            // Only a squash removes the youngest entry while others stay.
            if matches!((youngest, cpu.s.rob.back()), (Some(y), Some(e)) if e.seq < y) {
                seen.squashes += 1;
            }
            seen.lq_full += usize::from(cpu.sets.loads == cpu.cfg.lq_entries);
            assert_rob_sets_exact(cpu);
        }
    }

    #[test]
    fn rob_sets_match_the_rob_flags_every_cycle() {
        let mut lq_full = 0;
        for rob_entries in [4, 100, 200] {
            // Few enough load-queue entries at 200 that dispatch stalls on
            // them.
            let lq_entries = if rob_entries == 200 { 6 } else { 64 };
            let cfg = CpuConfig {
                rob_entries,
                lq_entries,
                ..CpuConfig::default()
            };
            // Every workload at the default size, every fourth at the others.
            let stride = if rob_entries == 100 { 1 } else { 4 };
            for w in merlin_workloads::all_workloads()
                .into_iter()
                .step_by(stride)
            {
                let program = Arc::new(w.program);
                let fresh = || Cpu::new(Arc::clone(&program), cfg.clone()).unwrap();
                let mut cpu = fresh();
                // Register-file flips that send branches the wrong way.
                for (i, cycle) in [300, 1_500, 4_000].into_iter().enumerate() {
                    let fault = FaultSpec {
                        structure: Structure::RegisterFile,
                        entry: (7 + 13 * i) % cfg.phys_int_regs,
                        bit: i as u8,
                        cycle,
                    };
                    cpu.inject_fault(fault).unwrap();
                }
                let mut seen = Seen::default();
                step_checking_sets(&mut cpu, 1_000, &mut seen);
                let mid = cpu.snapshot();
                step_checking_sets(&mut cpu, 2_500, &mut seen);

                // A fork, and a restore of the snapshot, into cores whose
                // ring heads have moved.
                let mut fork = fresh();
                step_checking_sets(&mut fork, 777, &mut Seen::default());
                fork.fork_from(&mut cpu);
                assert_eq!(fork.sets, cpu.sets);
                let mut restored = fresh();
                step_checking_sets(&mut restored, 555, &mut Seen::default());
                restored.restore_from(&mid);
                step_checking_sets(&mut restored, 100_000, &mut seen);
                step_checking_sets(&mut fork, 100_000, &mut seen);
                let end = |cpu: &mut Cpu| cpu.run(0, &mut crate::NullProbe);
                assert_eq!(end(&mut restored), end(&mut fork), "{}", w.name);
                assert!(
                    seen.squashes > 0,
                    "{} with {rob_entries} ROB entries",
                    w.name
                );
                lq_full += seen.lq_full;
            }
        }
        // Dispatch held the loads in the ROB to the load queue's size (see
        // `assert_rob_sets_exact`), and the limit was reached.
        assert!(lq_full > 0);
    }

    /// Steps `cpu` to `cycle` or its end, checking both caches' valid-line
    /// bitsets after every cycle.
    fn step_checking_valid_sets(cpu: &mut Cpu, cycle: u64) {
        while !cpu.is_finished() && cpu.cycle() < cycle {
            cpu.step(&mut crate::NullProbe);
            assert_valid_sets_exact(cpu, "step");
        }
    }

    fn assert_valid_sets_exact(cpu: &Cpu, what: &str) {
        let what = format!("{what} at cycle {}", cpu.cycle());
        crate::cache::tests::assert_valid_set_exact(&cpu.mem.l1d, &format!("L1D, {what}"));
        crate::cache::tests::assert_valid_set_exact(&cpu.mem.l2, &format!("L2, {what}"));
    }

    #[test]
    fn cache_valid_sets_match_the_tag_flags_every_cycle() {
        for l1d_bytes in [CpuConfig::default().l1d.size_bytes, 16 * 1024] {
            let mut cfg = CpuConfig::default();
            cfg.l1d.size_bytes = l1d_bytes;
            for w in merlin_workloads::all_workloads() {
                let program = Arc::new(w.program);
                let fresh = || Cpu::new(Arc::clone(&program), cfg.clone()).unwrap();
                let mut cpu = fresh();
                step_checking_valid_sets(&mut cpu, 2_000);
                let mid = cpu.snapshot();
                step_checking_valid_sets(&mut cpu, 4_000);
                let late = cpu.snapshot();
                // A fork into a core that ran elsewhere, then a restore of a
                // core past the snapshot, which drops the lines it gained.
                let mut fork = fresh();
                step_checking_valid_sets(&mut fork, 500);
                fork.fork_from(&mut cpu);
                assert_valid_sets_exact(&fork, "fork");
                cpu.restore_from(&mid);
                assert_valid_sets_exact(&cpu, "restore");
                step_checking_valid_sets(&mut cpu, 4_000);
                assert!(cpu.matches_state(&late), "{}", w.name);
                step_checking_valid_sets(&mut fork, 6_000);
            }
        }
    }

    #[test]
    fn restored_and_forked_cores_start_with_no_unshare_count() {
        let program = merlin_workloads::workload_by_name("sha").unwrap().program;
        let mut src = Cpu::new(program, CpuConfig::default()).unwrap();
        let steps = |cpu: &mut Cpu| (0..300).for_each(|_| cpu.step(&mut crate::NullProbe));
        steps(&mut src);
        // Writes after a snapshot un-share pages the snapshot still holds,
        // so the source has breaks pending.
        let _held = src.snapshot();
        steps(&mut src);
        let mut fork = Cpu::new(Arc::clone(src.program()), CpuConfig::default()).unwrap();
        fork.fork_from(&mut src);
        assert_eq!(fork.take_cow_breaks(), 0);
        let state = src.snapshot();
        let mut restored = Cpu::new(Arc::clone(src.program()), CpuConfig::default()).unwrap();
        restored.restore_from(&state);
        assert_eq!(restored.take_cow_breaks(), 0);
        assert!(src.take_cow_breaks() > 0, "the source keeps its count");
    }
}
