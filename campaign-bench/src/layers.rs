//! Traced-run probes of the lower layers, timed from outside through their
//! public APIs: pre-decoding (`isa`), static analysis (`analyze`), and the
//! core's step rate and snapshot cost (`cpu`).

use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{Cpu, NullProbe};
use merlin_inject::Session;
use merlin_isa::DecodedProgram;
use std::hint::black_box;
use std::sync::Arc;

/// Calls per program for the sub-millisecond probes (median taken).
const SHORT_REPS: usize = 5;
/// From-reset runs per session for the step rate (fastest taken).
const STEP_REPS: usize = 3;

#[derive(Debug, Default)]
pub struct LayerNumbers {
    /// Summed over sessions: median `DecodedProgram::new` time.
    pub predecode_ms: f64,
    /// Summed over sessions: median `ProgramAnalysis::of` time.
    pub analysis_ms: f64,
    /// Cycles over time of from-reset `Cpu::run`s on one thread, fastest of
    /// [`STEP_REPS`] per session.
    pub step_mcycles_per_s: f64,
    /// Median `Cpu::snapshot` time at the golden run's checkpoint cycles.
    pub snapshot_us: f64,
}

pub fn probe(
    sessions: &[Arc<Session>],
    tracer: &Tracer,
    parent: SpanId,
) -> Result<LayerNumbers, String> {
    let mut out = LayerNumbers::default();
    let (mut cycles, mut step_s) = (0u64, 0.0);
    let mut snapshots = Vec::new();
    for session in sessions {
        let program = session.program();
        let times: Vec<f64> = (0..SHORT_REPS)
            .map(|_| {
                tracer
                    .span(parent, "DecodedProgram::new", "isa", None, |_| {
                        black_box(DecodedProgram::new(program))
                    })
                    .1
            })
            .collect();
        out.predecode_ms += median(&times).unwrap_or(0.0) * 1e3;
        let times: Vec<f64> = (0..SHORT_REPS)
            .map(|_| {
                tracer
                    .span(parent, "ProgramAnalysis::of", "analyze", None, |_| {
                        black_box(ProgramAnalysis::of(program, session.decoded()))
                    })
                    .1
            })
            .collect();
        out.analysis_ms += median(&times).unwrap_or(0.0) * 1e3;

        // Step from reset through every checkpoint cycle of the golden run,
        // snapshotting at each, then on to halt.
        let stops: Vec<u64> = session
            .golden_checkpoints()
            .map(|g| g.store.cycles().collect())
            .unwrap_or_default();
        let (mut fastest, mut run_cycles) = (f64::INFINITY, 0);
        for _ in 0..STEP_REPS {
            let mut cpu = Cpu::with_predecoded(
                Arc::clone(program),
                Arc::clone(session.decoded()),
                session.config().clone(),
            )
            .map_err(|e| e.to_string())?;
            let mut stepping = 0.0;
            for &stop in &stops {
                stepping += tracer
                    .span(parent, "Cpu::run", "cpu", None, |_| {
                        black_box(cpu.run(stop, &mut NullProbe))
                    })
                    .1;
                let (snap, secs) =
                    tracer.span(parent, "Cpu::snapshot", "cpu", None, |_| cpu.snapshot());
                drop(black_box(snap));
                snapshots.push(secs);
            }
            let (result, secs) = tracer.span(parent, "Cpu::run", "cpu", None, |_| {
                cpu.run(session.max_cycles(), &mut NullProbe)
            });
            fastest = fastest.min(stepping + secs);
            run_cycles = result.cycles;
        }
        cycles += run_cycles;
        step_s += fastest;
    }
    out.step_mcycles_per_s = cycles as f64 / 1e6 / step_s;
    out.snapshot_us = median(&snapshots).unwrap_or(0.0) * 1e6;
    Ok(out)
}
