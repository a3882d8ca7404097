//! Every built-in workload must pass the session-boundary lint with zero
//! findings — the suite CI's `analysis` job runs.
//!
//! A finding here means either a workload kernel regressed (bad branch
//! target, uninitialised register, dead code) or the linter grew a false
//! positive; both block admission of the workload into a session, so both
//! fail the build.

use merlin_analyze::ProgramAnalysis;
use merlin_isa::DecodedProgram;
use merlin_workloads::all_workloads;

#[test]
fn all_builtin_workloads_lint_clean() {
    let workloads = all_workloads();
    assert!(!workloads.is_empty());
    for w in &workloads {
        let decoded = DecodedProgram::new(&w.program);
        let analysis = ProgramAnalysis::of(&w.program, &decoded);
        assert!(
            analysis.lint().is_clean(),
            "workload {}: {}",
            w.name,
            analysis.lint()
        );
    }
}

#[test]
fn every_workload_prunes_at_least_one_register_file_entry() {
    // The whole point of the static prune is that real kernels do not use
    // the full architectural register set: every built-in workload must
    // leave at least one identity physical entry provably dead.
    for w in all_workloads() {
        let decoded = DecodedProgram::new(&w.program);
        let analysis = ProgramAnalysis::of(&w.program, &decoded);
        let dead = analysis.statically_dead_regs().count();
        assert!(
            dead > 0,
            "workload {} uses every architectural register",
            w.name
        );
    }
}
