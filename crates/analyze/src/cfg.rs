//! Entry reachability over a program's macro-instruction stream.
//!
//! Built once per program from the static instruction text — the same text
//! the predecoded micro-op arena derives from.  Successor rules
//! (instruction granularity, one node per RIP):
//!
//! * `Halt` has no successors,
//! * `Jump` flows only to its target,
//! * conditional branches flow to the target and the fall-through,
//! * `Call` flows to the target *and* the fall-through: the return RIP is
//!   reachable precisely because the callee's `JumpReg` return can land
//!   there,
//! * `JumpReg` is an indirect jump whose target is a register value, so it
//!   conservatively flows to **every** instruction — static analysis must
//!   never assume an indirect target it cannot prove,
//! * every other instruction falls through to `rip + 1` when in bounds.
//!
//! Direct targets outside the program text produce no edge; they are
//! recorded and surfaced as lint findings by
//! [`ProgramAnalysis`](crate::ProgramAnalysis).

use merlin_isa::{Inst, Program, Rip};

/// Which instructions the entry reaches, and which direct targets leave
/// the text.
pub(crate) struct ControlFlowGraph {
    /// `reachable[rip]` is `true` when `rip` is reachable from the entry.
    pub(crate) reachable: Vec<bool>,
    /// Direct `(rip, target)` pairs whose target lies outside the text.
    pub(crate) out_of_range: Vec<(Rip, Rip)>,
}

impl ControlFlowGraph {
    /// Builds the graph for `program`.
    pub(crate) fn of(program: &Program) -> Self {
        let insts = &program.instructions;
        let len = insts.len() as Rip;
        let out_of_range = (0..len)
            .zip(insts)
            .filter_map(|(rip, inst)| Some((rip, inst.direct_target().filter(|&t| t >= len)?)))
            .collect();

        // Depth-first from the entry; a pushed RIP outside the text (an
        // out-of-range target, or the fall-through past the last
        // instruction) is no edge.
        let mut reachable = vec![false; insts.len()];
        let mut work = vec![program.entry];
        while let Some(rip) = work.pop() {
            if rip >= len || reachable[rip as usize] {
                continue;
            }
            reachable[rip as usize] = true;
            let inst = &insts[rip as usize];
            match inst {
                Inst::Halt => {}
                Inst::Jump { target } => work.push(*target),
                Inst::JumpReg { .. } => work.extend(0..len),
                _ => work.extend(inst.direct_target().into_iter().chain([rip + 1])),
            }
        }

        ControlFlowGraph {
            reachable,
            out_of_range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_isa::{reg, AluOp, Cond, ProgramBuilder};

    #[test]
    fn loop_is_reachable_throughout() {
        let mut b = ProgramBuilder::new();
        b.movi(reg(1), 0); // 0
        let top = b.bind_label(); // 1
        b.alu_ri(AluOp::Add, reg(1), reg(1), 1); // 1
        b.branch_ri(Cond::Lt, reg(1), 4, top); // 2
        b.out(reg(1)); // 3
        b.halt(); // 4
        let cfg = ControlFlowGraph::of(&b.build().unwrap());
        assert_eq!(cfg.reachable, vec![true; 5]);
        assert!(cfg.out_of_range.is_empty());
    }

    #[test]
    fn unreachable_after_jump_is_detected() {
        let mut b = ProgramBuilder::new();
        let done = b.label();
        b.jump(done); // 0
        b.movi(reg(1), 7); // 1: unreachable
        b.bind(done);
        b.halt(); // 2
        let cfg = ControlFlowGraph::of(&b.build().unwrap());
        assert_eq!(cfg.reachable, vec![true, false, true]);
    }

    #[test]
    fn jumpreg_reaches_everything() {
        let mut b = ProgramBuilder::new();
        b.movi(reg(15), 2); // 0
        b.jump_reg(reg(15)); // 1
        b.halt(); // 2
        b.movi(reg(1), 1); // 3: no direct path, but indirect target set is
        b.halt(); // 4:    unknown, so statically reachable
        let cfg = ControlFlowGraph::of(&b.build().unwrap());
        assert_eq!(cfg.reachable, vec![true; 5]);
    }

    #[test]
    fn out_of_range_target_records_no_edge() {
        // `ProgramBuilder::build` rejects out-of-range targets, so assemble
        // the broken program directly.
        let p = Program {
            instructions: vec![Inst::Jump { target: 99 }, Inst::Halt],
            data: vec![],
            data_size: 0,
            entry: 0,
        };
        let cfg = ControlFlowGraph::of(&p);
        assert_eq!(cfg.out_of_range, vec![(0, 99)]);
        assert_eq!(cfg.reachable, vec![true, false]);
    }
}
