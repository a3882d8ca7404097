//! The whole-program register census and the session-boundary lint,
//! combined into one [`ProgramAnalysis`].
//!
//! Both run over the predecoded micro-op arena
//! ([`merlin_isa::DecodedProgram`]) — the exact stream the cycle-level core
//! fetches — so source and destination sets match execution by
//! construction instead of by a parallel re-implementation of the cracker:
//!
//! * **register census**: which architectural registers appear anywhere in
//!   the program text.  This is what makes the static fault prune *sound*
//!   (see [`ProgramAnalysis::rf_entry_statically_dead`]).
//! * **reachability**: which instructions some control-flow path from the
//!   entry reaches ([`ProgramAnalysis::is_reachable`]).
//! * **lint**: out-of-range control targets, reads of registers the whole
//!   program never writes, and unreachable instructions.

use crate::cfg::ControlFlowGraph;
use crate::lint::{LintFinding, LintKind, LintReport};
use merlin_isa::{ArchReg, DecodedProgram, Program, Rip, NUM_ARCH_REGS};

/// A compact set of architectural registers (`NUM_ARCH_REGS` ≤ 32 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RegSet(u32);

impl RegSet {
    const EMPTY: RegSet = RegSet(0);

    fn insert(&mut self, r: ArchReg) {
        self.0 |= 1 << r.index();
    }

    fn contains(self, r: ArchReg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    fn contains_index(self, idx: usize) -> bool {
        idx < NUM_ARCH_REGS && self.0 & (1 << idx) != 0
    }
}

/// The complete static-analysis result for one program, computed once per
/// session and shared by every campaign worker (like the predecoded arena).
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// `reachable[rip]` is `true` when a path from the entry reaches `rip`.
    reachable: Vec<bool>,
    /// Registers appearing (as source or destination) in any micro-op of
    /// the whole program text, reachable or not.
    used: RegSet,
    /// The admission-control verdict.
    lint: LintReport,
}

impl ProgramAnalysis {
    /// Analyses `program` through its predecoded micro-op arena.
    ///
    /// # Panics
    ///
    /// Panics if `decoded` was not built from `program` — the same guard
    /// every other consumer of a shared arena runs.
    pub fn of(program: &Program, decoded: &DecodedProgram) -> Self {
        assert!(
            decoded.matches_program(program),
            "decoded arena does not belong to this program"
        );
        let n = program.instructions.len();
        let cfg = ControlFlowGraph::of(program);
        let (used, written) = census(decoded, n);
        let lint = lint(&cfg, decoded, written, n);
        ProgramAnalysis {
            reachable: cfg.reachable,
            used,
            lint,
        }
    }

    /// Whether a control-flow path from the program entry reaches `rip`;
    /// `false` for a RIP outside the program text.
    pub fn is_reachable(&self, rip: Rip) -> bool {
        self.reachable.get(rip as usize).copied().unwrap_or(false)
    }

    /// The admission-control lint verdict.
    pub fn lint(&self) -> &LintReport {
        &self.lint
    }

    /// Whether `reg` appears — as a source or destination — in any micro-op
    /// of the program text.
    pub fn reg_used(&self, reg: ArchReg) -> bool {
        self.used.contains(reg)
    }

    /// Architectural registers no micro-op of the program mentions at all.
    pub fn statically_dead_regs(&self) -> impl Iterator<Item = ArchReg> + '_ {
        ArchReg::all().filter(move |r| !self.used.contains(*r))
    }

    /// Whether a fault into physical register-file entry `entry` is
    /// *provably* Masked without simulating it.
    ///
    /// The argument rests on the rename discipline of the core: at reset
    /// the rename table maps every architectural register to the identity
    /// physical entry (`ArchReg::index`), and the free list starts past
    /// them, at `NUM_ARCH_REGS`.  An architectural register that appears in
    /// **no** micro-op of the whole program text is never renamed (no
    /// destination allocates a new mapping), never written (writeback only
    /// touches allocated destinations) and never read (committed reads only
    /// go through micro-op sources) — so its identity entry keeps its reset
    /// mapping for the entire run and never feeds an architected output,
    /// exception or exit. Fault classification compares exactly those
    /// observables, so any bit flip, at any cycle, in that entry is Masked.
    ///
    /// The census deliberately scans the whole text rather than the
    /// reachable slice: speculative wrong-path execution can fetch any
    /// decoded micro-op, but never one outside the text.
    ///
    /// Entries at `NUM_ARCH_REGS` and beyond cycle through the free list
    /// and are never statically dead.
    pub fn rf_entry_statically_dead(&self, entry: usize) -> bool {
        entry < NUM_ARCH_REGS && !self.used.contains_index(entry)
    }
}

/// Whole-text register census: (used anywhere, written anywhere).
fn census(decoded: &DecodedProgram, n: usize) -> (RegSet, RegSet) {
    let mut used = RegSet::EMPTY;
    let mut written = RegSet::EMPTY;
    for rip in 0..n {
        for uop in decoded.uops(rip as Rip) {
            for src in uop.sources() {
                used.insert(src);
            }
            if let Some(dst) = uop.dst {
                used.insert(dst);
                written.insert(dst);
            }
        }
    }
    (used, written)
}

/// Assembles the admission-control verdict: out-of-range direct targets,
/// reads of registers the whole program never writes, and unreachable
/// instructions.
fn lint(cfg: &ControlFlowGraph, decoded: &DecodedProgram, written: RegSet, n: usize) -> LintReport {
    let mut findings = Vec::new();
    for &(rip, target) in &cfg.out_of_range {
        findings.push(LintFinding {
            rip,
            kind: LintKind::TargetOutOfRange {
                target,
                len: n as u32,
            },
        });
    }
    for rip in 0..n {
        let rip = rip as Rip;
        if !cfg.reachable[rip as usize] {
            findings.push(LintFinding {
                rip,
                kind: LintKind::UnreachableInstruction,
            });
            continue;
        }
        for uop in decoded.uops(rip) {
            for src in uop.sources() {
                if src.is_gpr() && !written.contains(src) {
                    findings.push(LintFinding {
                        rip,
                        kind: LintKind::ReadOfNeverWrittenReg {
                            upc: uop.upc,
                            reg: src,
                        },
                    });
                }
            }
        }
    }
    LintReport::new(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_isa::{reg, AluOp, Cond, Inst, MemRef, ProgramBuilder};

    fn analyse(p: &Program) -> ProgramAnalysis {
        let decoded = DecodedProgram::new(p);
        ProgramAnalysis::of(p, &decoded)
    }

    fn sum_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.movi(reg(1), 0); // 0: sum
        b.movi(reg(2), 1); // 1: i
        let top = b.bind_label();
        b.alu_rr(AluOp::Add, reg(1), reg(1), reg(2)); // 2
        b.alu_ri(AluOp::Add, reg(2), reg(2), 1); // 3
        b.branch_ri(Cond::Le, reg(2), 10, top); // 4
        b.out(reg(1)); // 5
        b.halt(); // 6
        b.build().unwrap()
    }

    #[test]
    fn clean_kernel_lints_clean() {
        let a = analyse(&sum_loop());
        assert!(a.lint().is_clean(), "{}", a.lint());
    }

    #[test]
    fn census_and_static_death() {
        let a = analyse(&sum_loop());
        assert!(a.reg_used(reg(1)));
        assert!(!a.reg_used(reg(7)));
        let dead: Vec<ArchReg> = a.statically_dead_regs().collect();
        assert!(dead.contains(&reg(0)));
        assert!(dead.contains(&reg(7)));
        assert!(!dead.contains(&reg(1)));
        // Identity physical entries of unused registers are provably dead…
        assert!(a.rf_entry_statically_dead(reg(7).index()));
        assert!(!a.rf_entry_statically_dead(reg(1).index()));
        // …but free-list entries never are.
        assert!(!a.rf_entry_statically_dead(NUM_ARCH_REGS));
        assert!(!a.rf_entry_statically_dead(63));
    }

    #[test]
    fn read_of_never_written_reg_is_a_lint() {
        let mut b = ProgramBuilder::new();
        b.out(reg(5)); // 0: r5 never written anywhere
        b.halt(); // 1
        let a = analyse(&b.build().unwrap());
        assert_eq!(a.lint().len(), 1);
        assert_eq!(
            a.lint().findings()[0].kind,
            LintKind::ReadOfNeverWrittenReg {
                upc: 0,
                reg: reg(5)
            }
        );
    }

    #[test]
    fn unreachable_instruction_is_a_lint() {
        let mut b = ProgramBuilder::new();
        let end = b.label();
        b.jump(end); // 0
        b.movi(reg(1), 1); // 1: unreachable
        b.bind(end);
        b.halt(); // 2
        let a = analyse(&b.build().unwrap());
        assert_eq!(a.lint().len(), 1);
        assert_eq!(a.lint().findings()[0].rip, 1);
        assert_eq!(
            a.lint().findings()[0].kind,
            LintKind::UnreachableInstruction
        );
        assert!(a.is_reachable(0));
        assert!(!a.is_reachable(1));
        assert!(a.is_reachable(2));
        assert!(!a.is_reachable(3), "outside the text");
    }

    #[test]
    fn out_of_range_target_is_a_lint() {
        let p = Program {
            instructions: vec![Inst::Jump { target: 77 }, Inst::Halt],
            data: vec![],
            data_size: 0,
            entry: 0,
        };
        let a = analyse(&p);
        let kinds: Vec<&LintKind> = a.lint().findings().iter().map(|f| &f.kind).collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, LintKind::TargetOutOfRange { target: 77, len: 2 })));
        // The halt behind the broken jump is unreachable too.
        assert!(kinds
            .iter()
            .any(|k| matches!(k, LintKind::UnreachableInstruction)));
        assert!(a.is_reachable(0));
        assert!(!a.is_reachable(1));
        assert!(!a.is_reachable(77), "the broken target is outside the text");
    }

    #[test]
    fn load_op_temporary_flows_within_the_instruction() {
        let mut b = ProgramBuilder::new();
        let data = b.alloc_words(&[5]);
        b.movi(reg(10), data as i64); // 0
        b.movi(reg(2), 1); // 1
        b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10))); // 2
        b.out(reg(2)); // 3
        b.halt(); // 4
        let a = analyse(&b.build().unwrap());
        assert!(a.lint().is_clean(), "{}", a.lint());
        // The load-op temporary is used, so its identity entry is not dead.
        assert!(!a.rf_entry_statically_dead(ArchReg::temp(0).index()));
    }
}
