//! One benchmark run: set-up, the timed campaign passes, the untimed oracle
//! check, the traced-run probes, and the result lines.
//!
//! All load comes from this process and its [`THREADS`] campaign threads.
//! The other processes it starts run one at a time and end before the
//! campaign starts: the child that persists golden runs for the warm
//! workload, and the children that repeat the set-up.

use crate::json::Json;
use crate::layers;
use crate::spec::Spec;
use crate::speed::{self, Probe};
use crate::stats::{self, add_fields, cpu_seconds, debug_fields, median, mix, percentile, Fnv};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{self, CellSpec, Method, Plan, SessionSpec};
use merlin_ace::SessionAce;
use merlin_bench::{session_for, ExperimentScale};
use merlin_core::{reduce_fault_list, SessionMethodology};
use merlin_cpu::{AssertKind, Cpu, ExitReason, FaultSpec, NullProbe, Structure};
use merlin_inject::{CampaignResult, FaultEffect, Session};
use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Campaign threads, whatever the host's core count.
pub const THREADS: usize = 2;
/// Set-ups per run: all but the last in child processes, each with a cold
/// harness cache; the last in this process, whose sessions are measured.
const SETUP_REPS: usize = 3;
/// Sessions in which the oracle check re-runs faults from scratch.  A
/// from-scratch run costs about a golden run, so checking every cell would
/// add a fifth to a run; a set of ten runs still checks 200 faults.
const VERIFY_SESSIONS: usize = 10;
/// Scratch space (persisted golden runs, span files), under the directory
/// the benchmark runs from.
const WORK_DIR: &str = ".campaign-bench";

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<PathBuf>,
    pub programs: Option<Vec<String>>,
    pub faults: Option<usize>,
}

impl Options {
    pub fn parse(args: &[String], default_seconds: f64) -> Result<Options, String> {
        let mut o = Options {
            workload: String::new(),
            seed: 2017,
            seconds: default_seconds,
            trace: false,
            spans: None,
            programs: None,
            faults: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => o.workload = value()?.clone(),
                "--seed" => o.seed = number(arg, value()?)?,
                "--seconds" => o.seconds = number(arg, value()?)?,
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--spans" => o.spans = Some(value()?.into()),
                "--programs" => {
                    o.programs = Some(value()?.split(',').map(str::to_string).collect());
                }
                "--faults" => o.faults = Some(number(arg, value()?)?),
                flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
                name if o.workload.is_empty() => o.workload = name.to_string(),
                extra => return Err(format!("unexpected argument `{extra}`")),
            }
        }
        if o.workload.is_empty() {
            return Err("no workload given".into());
        }
        if !o.seconds.is_finite() || o.seconds < 0.0 {
            return Err("--seconds must be a finite non-negative number".into());
        }
        Ok(o)
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

fn experiment_scale(seed: u64) -> ExperimentScale {
    ExperimentScale {
        threads: THREADS,
        seed,
        benchmark_filter: None,
        ..ExperimentScale::from_env()
    }
}

/// `run`: one measured run, printing the result lines.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let opts = Options::parse(args, spec.run_seconds)?;
    let def = workloads::find(&opts.workload)?;
    if !spec.workloads.contains(&opts.workload) {
        return Err(format!(
            "workload `{}` is not in BENCHMARK.json",
            opts.workload
        ));
    }
    // `--seconds` is the whole campaign phase: every pass gets its share.
    let plan = Plan::new(
        def,
        opts.seed,
        opts.seconds / def.passes as f64,
        opts.programs.as_deref(),
        opts.faults,
    )?;
    let work_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(WORK_DIR);
    let golden_dir = def
        .warm
        .then(|| work_dir.join(format!("golden-{}", std::process::id())));
    let result =
        prepare(&opts, golden_dir.as_deref()).and_then(|earlier| measure(&opts, &plan, earlier));
    if let Some(dir) = &golden_dir {
        let _ = std::fs::remove_dir_all(dir);
        // Only succeeds when nothing else is left in it.
        let _ = std::fs::remove_dir(&work_dir);
    }
    let (tracer, out) = result?;
    if opts.trace {
        let path = opts.spans.clone().unwrap_or_else(|| {
            work_dir.join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed))
        });
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans {}", path.display());
    }
    out.print(&spec, &opts)?;
    Ok(ExitCode::SUCCESS)
}

/// Everything before this process's own set-up.  On the warm workload a
/// child persists every golden run into `golden_dir`; then children repeat
/// the set-up.  Returns those repetitions' times.
fn prepare(opts: &Options, golden_dir: Option<&Path>) -> Result<Vec<Vec<SessionSetup>>, String> {
    match golden_dir {
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
            // Set before the first session is requested: the harness'
            // session cache reads it once.  The children inherit it.
            std::env::set_var("MERLIN_CHECKPOINT_DIR", dir);
            child(opts, "persist")?;
        }
        None => std::env::remove_var("MERLIN_CHECKPOINT_DIR"),
    }
    (1..SETUP_REPS)
        .map(|_| child(opts, "setup").and_then(|out| SessionSetup::parse_all(&out)))
        .collect()
}

/// Runs this executable's internal `command` for the same workload, seed
/// and programs, and returns its standard output.
fn child(opts: &Options, command: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([command, "--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .stderr(Stdio::inherit());
    if let Some(p) = &opts.programs {
        cmd.args(["--programs", &p.join(",")]);
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("starting the {command} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {command} child failed: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("the {command} child's output: {e}"))
}

/// `persist` (internal): the warm workload's child process.  Builds every
/// session's golden run through the harness, which writes each to a
/// `.golden` file in `MERLIN_CHECKPOINT_DIR`.
pub fn persist_main(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args, 0.0)?;
    if std::env::var_os("MERLIN_CHECKPOINT_DIR").is_none() {
        return Err("persist needs MERLIN_CHECKPOINT_DIR".into());
    }
    let def = workloads::find(&opts.workload)?;
    let scale = experiment_scale(opts.seed);
    for s in workloads::sessions(def, opts.programs.as_deref())? {
        session_for(&s.workload, &s.cfg, &scale)
            .golden()
            .map_err(|e| format!("{}: {e}", s.label))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `setup` (internal): one set-up repetition in a fresh process, so that
/// `session_for` builds every session anew.  Prints the times as one line.
pub fn setup_main(args: &[String]) -> Result<ExitCode, String> {
    let opts = Options::parse(args, 0.0)?;
    let def = workloads::find(&opts.workload)?;
    let sessions = workloads::sessions(def, opts.programs.as_deref())?;
    let (_, times) = setup(
        &sessions,
        def.method == Method::Merlin,
        &experiment_scale(opts.seed),
        &Tracer::new(false),
        SpanId::ROOT,
    )?;
    println!(
        "{}",
        Json::Arr(times.iter().copied().map(SessionSetup::to_json).collect())
    );
    Ok(ExitCode::SUCCESS)
}

// --- Set-up ---------------------------------------------------------------

/// Time one session's set-up took, by call, scaled to the reference speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SessionSetup {
    build_s: f64,
    golden_s: f64,
    ace_s: f64,
}

impl SessionSetup {
    fn total(&self) -> f64 {
        self.build_s + self.golden_s + self.ace_s
    }

    fn to_json(self) -> Json {
        Json::Arr(vec![
            Json::Num(self.build_s),
            Json::Num(self.golden_s),
            Json::Num(self.ace_s),
        ])
    }

    /// The last line of a `setup` child's output.
    fn parse_all(out: &str) -> Result<Vec<SessionSetup>, String> {
        let bad = || format!("unreadable set-up times: `{}`", out.trim());
        let line = Json::parse(out.lines().last().unwrap_or("")).map_err(|_| bad())?;
        line.as_array()
            .ok_or_else(bad)?
            .iter()
            .map(|s| match s.as_array() {
                Some([Json::Num(b), Json::Num(g), Json::Num(a)]) => Ok(SessionSetup {
                    build_s: *b,
                    golden_s: *g,
                    ace_s: *a,
                }),
                _ => Err(bad()),
            })
            .collect()
    }
}

/// Every set-up repetition's times, per session.
struct SetupTimes(Vec<Vec<SessionSetup>>);

impl SetupTimes {
    /// The sum over sessions of each session's median over the
    /// repetitions of `f`.
    fn median_sum(&self, f: impl Fn(&SessionSetup) -> f64) -> f64 {
        let sessions = self.0.first().map_or(0, Vec::len);
        (0..sessions)
            .map(|i| {
                let per_rep: Vec<f64> = self.0.iter().map(|rep| f(&rep[i])).collect();
                median(&per_rep).unwrap_or(0.0)
            })
            .sum()
    }
}

/// Sets every session up through `session_for`, one after another on this
/// thread (in parallel, the allocator's per-thread arenas made the peak
/// resident size vary by a quarter from run to run): the session itself,
/// its golden run and, for MeRLiN workloads, its ACE-like profile.  Each
/// session's times are scaled to the reference speed.
fn setup(
    specs: &[SessionSpec],
    ace: bool,
    scale: &ExperimentScale,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(Vec<Arc<Session>>, Vec<SessionSetup>), String> {
    let mut probe = Probe::new();
    let (done, _) = tracer.span(parent, "setup", "bench", None, |rep| {
        specs
            .iter()
            .map(|spec| {
                let (one, speed) = probe.around(|| set_up_one(spec, ace, scale, tracer, rep));
                let (session, t) = one?;
                let setup = SessionSetup {
                    build_s: t.build_s * speed,
                    golden_s: t.golden_s * speed,
                    ace_s: t.ace_s * speed,
                };
                Ok((session, setup))
            })
            .collect::<Result<Vec<_>, String>>()
    });
    Ok(done?.into_iter().unzip())
}

fn set_up_one(
    spec: &SessionSpec,
    ace: bool,
    scale: &ExperimentScale,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(Arc<Session>, SessionSetup), String> {
    // Requesting the session builds it: pre-decoding, static analysis and
    // lint happen in `SessionBuilder::build`.
    let (session, build_s) = tracer.span(parent, "SessionBuilder::build", "inject", None, |_| {
        session_for(&spec.workload, &spec.cfg, scale)
    });
    let (golden, golden_s) = tracer.span(parent, "Session::golden", "inject", None, |_| {
        session.golden().map(|_| ())
    });
    golden.map_err(|e| format!("{}: {e}", spec.label))?;
    let mut ace_s = 0.0;
    if ace {
        let (profile, secs) = tracer.span(parent, "SessionAce::ace_profile", "ace", None, |_| {
            session.ace_profile().map(|_| ())
        });
        profile.map_err(|e| format!("{}: {e}", spec.label))?;
        ace_s = secs;
    }
    Ok((
        session,
        SessionSetup {
            build_s,
            golden_s,
            ace_s,
        },
    ))
}

// --- Campaign cells -------------------------------------------------------

/// Totals over one or more `CampaignResult`s.
#[derive(Debug, Default, Clone)]
struct CampaignCounts {
    /// `ScheduleStats`, read through its `Debug` form.
    schedule: BTreeMap<String, f64>,
    early_exits: f64,
    runs_executed: f64,
    seconds: f64,
}

impl CampaignCounts {
    fn add_result(&mut self, r: &CampaignResult, seconds: f64) {
        add_fields(
            &mut self.schedule,
            &debug_fields(&format!("{:?}", r.schedule)),
        );
        self.early_exits += r.early_exits as f64;
        self.runs_executed += r.runs_executed as f64;
        self.seconds += seconds;
    }

    fn add(&mut self, other: &CampaignCounts) {
        add_fields(&mut self.schedule, &other.schedule);
        self.early_exits += other.early_exits;
        self.runs_executed += other.runs_executed;
        self.seconds += other.seconds;
    }

    fn get(&self, key: &str) -> Option<f64> {
        self.schedule.get(key).copied()
    }
}

/// Totals of the MeRLiN fault-list reduction.
#[derive(Debug, Default, Clone, Copy)]
struct CoreCounts {
    injections: f64,
    groups: f64,
    ace_pruned: f64,
    static_pruned: f64,
    /// Time in `reduce_fault_list` (traced runs only).
    reduce_s: f64,
}

impl CoreCounts {
    fn add(&mut self, o: &CoreCounts) {
        self.injections += o.injections;
        self.groups += o.groups;
        self.ace_pruned += o.ace_pruned;
        self.static_pruned += o.static_pruned;
        self.reduce_s += o.reduce_s;
    }
}

/// What one cell produced in the timed campaign.
struct CellOutput {
    faults: Vec<FaultSpec>,
    /// The effect of every initial fault (extrapolated in a MeRLiN cell).
    outcomes: Vec<(FaultSpec, FaultEffect)>,
    /// The faults actually simulated: the representatives in a MeRLiN cell.
    injected: Vec<(FaultSpec, FaultEffect)>,
    core: Option<CoreCounts>,
    campaign: Option<CampaignCounts>,
}

/// One timed cell: `fault_list`, then the workload's method.
fn run_cell(
    session: &Session,
    cell: &CellSpec,
    id: usize,
    method: Method,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<CellOutput, String> {
    let (faults, _) = tracer.span(parent, "Session::fault_list", "inject", Some(id), |_| {
        session.fault_list(cell.structure, cell.faults, cell.seed)
    });
    let faults = faults.map_err(|e| e.to_string())?;
    match method {
        Method::Merlin => {
            let (campaign, _) = tracer.span(
                parent,
                "SessionMethodology::merlin_with_faults",
                "core",
                Some(id),
                |_| session.merlin_with_faults(cell.structure, &faults),
            );
            let campaign = campaign.map_err(|e| e.to_string())?;
            let outcomes = campaign
                .outcomes
                .iter()
                .map(|o| (o.fault, o.effect))
                .collect();
            let injected = campaign
                .outcomes
                .iter()
                .filter(|o| o.injected)
                .map(|o| (o.fault, o.effect))
                .collect();
            let r = &campaign.report;
            Ok(CellOutput {
                faults,
                outcomes,
                injected,
                core: Some(CoreCounts {
                    injections: r.injections as f64,
                    groups: r.groups as f64,
                    ace_pruned: r.ace_pruned as f64,
                    static_pruned: r.static_pruned as f64,
                    reduce_s: 0.0,
                }),
                campaign: None,
            })
        }
        Method::Comprehensive => {
            // `comprehensive` forwards to `Session::campaign`: the work is
            // the inject layer's.
            let (result, secs) = tracer.span(
                parent,
                "SessionMethodology::comprehensive",
                "inject",
                Some(id),
                |_| session.comprehensive(&faults),
            );
            let result = result.map_err(|e| e.to_string())?;
            let outcomes: Vec<_> = result
                .outcomes
                .iter()
                .map(|o| (o.fault, o.effect))
                .collect();
            let mut campaign = CampaignCounts::default();
            campaign.add_result(&result, secs);
            Ok(CellOutput {
                faults,
                injected: outcomes.clone(),
                outcomes,
                core: None,
                campaign: Some(campaign),
            })
        }
    }
}

/// Traced MeRLiN runs only, after the timed passes: every cell again, split
/// into its calls — the static prune and `reduce_fault_list` (core), then
/// `Session::campaign` over the representatives (inject) — so each layer
/// gets its own numbers.  The split's effects must match the cell's; each
/// representative that differs counts as failed.
fn split_merlin(
    plan: &Plan,
    sessions: &[Arc<Session>],
    timed: &mut Timed,
    tracer: &Tracer,
    parent: SpanId,
) {
    for (id, run) in timed.cells.iter_mut().enumerate() {
        let Some(run) = run else { continue };
        let cell = &plan.cells[id];
        match split_cell(
            &sessions[cell.session],
            cell,
            id,
            &mut run.out,
            tracer,
            parent,
        ) {
            Ok(mismatches) => timed.failed += mismatches,
            Err(e) => {
                eprintln!("cell {}: {e}", plan.cell_label(id));
                timed.failed += cell.faults;
            }
        }
    }
}

/// Returns how many representatives' effects differ from the cell's.
fn split_cell(
    session: &Session,
    cell: &CellSpec,
    id: usize,
    out: &mut CellOutput,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<usize, String> {
    let ace = session.ace_profile().map_err(|e| e.to_string())?;
    let dynamic = statically_live(session, &out.faults);
    let (reduction, reduce_s) = tracer.span(parent, "reduce_fault_list", "core", Some(id), |_| {
        reduce_fault_list(&dynamic, ace.structure(cell.structure))
    });
    let representatives = reduction.reduced_fault_list();
    let (result, secs) = tracer.span(parent, "Session::campaign", "inject", Some(id), |_| {
        session.campaign(&representatives)
    });
    let result = result.map_err(|e| e.to_string())?;
    let mut campaign = CampaignCounts::default();
    campaign.add_result(&result, secs);
    out.campaign = Some(campaign);
    if let Some(core) = &mut out.core {
        core.reduce_s = reduce_s;
    }
    let expected: HashMap<FaultSpec, FaultEffect> = out.injected.iter().copied().collect();
    Ok(result
        .outcomes
        .iter()
        .filter(|o| expected.get(&o.fault).is_some_and(|e| *e != o.effect))
        .count())
}

/// The faults MeRLiN's static prune keeps: all but register-file faults
/// into entries the program text never uses.
fn statically_live(session: &Session, faults: &[FaultSpec]) -> Vec<FaultSpec> {
    let analysis = session.analysis();
    faults
        .iter()
        .copied()
        .filter(|f| {
            !(f.structure == Structure::RegisterFile && analysis.rf_entry_statically_dead(f.entry))
        })
        .collect()
}

fn outcome_digest(outcomes: &[(FaultSpec, FaultEffect)]) -> u64 {
    let mut h = Fnv::default();
    for (f, e) in outcomes {
        h.write(&[f.structure as u8, f.bit, *e as u8]);
        h.write(&(f.entry as u64).to_le_bytes());
        h.write(&f.cycle.to_le_bytes());
    }
    h.0
}

// --- The timed passes -------------------------------------------------------

/// One cell over all passes: its fastest times, scaled to the reference
/// speed, and its first pass's output.
struct CellRun {
    wall_s: f64,
    /// The unscaled wall time of the pass `wall_s` comes from.
    raw_s: f64,
    /// Process CPU time while the cell ran.
    cpu_s: Option<f64>,
    digest: u64,
    out: CellOutput,
}

struct Timed {
    /// Per cell; `None` where a pass's call failed.
    cells: Vec<Option<CellRun>>,
    /// Faults of cells whose call failed or whose outcomes did not repeat
    /// across passes, plus representatives the traced split disagreed on.
    failed: usize,
    /// The host's speed, sampled around every call.
    probe: Probe,
}

impl Timed {
    fn live(&self) -> impl Iterator<Item = (usize, &CellRun)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|run| (i, run)))
    }
}

/// Runs every cell as many times as the workload has passes, pass after
/// pass, one cell at a time, sampling the host's speed between cells.  A
/// cell's times are those of its fastest pass after scaling to the
/// reference speed; its outcomes must repeat exactly in every pass.  Each
/// cell's fault count scales with `--seconds`, so the passes together last
/// about that long at the reference speed.  On a shared host the speed
/// swings within a second while other tenants load the same cores; a cell
/// takes well under a second and its passes are a whole pass apart, so the
/// faster one is less often slowed.
fn timed(plan: &Plan, sessions: &[Arc<Session>], tracer: &Tracer, parent: SpanId) -> Timed {
    let mut t = Timed {
        cells: plan.cells.iter().map(|_| None).collect(),
        failed: 0,
        probe: Probe::new(),
    };
    tracer.span(parent, "campaign", "bench", None, |campaign| {
        for pass in 0..plan.def.passes {
            for (id, cell) in plan.cells.iter().enumerate() {
                if pass > 0 && t.cells[id].is_none() {
                    continue;
                }
                // CPU time is read inside, so that the probe's threads are
                // not counted.
                let ((out, raw_s, cpu_s), speed) = t.probe.around(|| {
                    let cpu_start = cpu_seconds();
                    let (out, raw_s) = tracer.span(campaign, "cell", "bench", Some(id), |span| {
                        run_cell(
                            &sessions[cell.session],
                            cell,
                            id,
                            plan.def.method,
                            tracer,
                            span,
                        )
                    });
                    let cpu_s = cpu_seconds().zip(cpu_start).map(|(end, start)| end - start);
                    (out, raw_s, cpu_s)
                });
                let wall_s = raw_s * speed;
                let cpu_s = cpu_s.map(|c| c * speed);
                let out = match out {
                    Ok(out) => out,
                    Err(e) => {
                        eprintln!("cell {}: {e}", plan.cell_label(id));
                        t.failed += cell.faults;
                        t.cells[id] = None;
                        continue;
                    }
                };
                let digest = outcome_digest(&out.outcomes);
                match &mut t.cells[id] {
                    None => {
                        t.cells[id] = Some(CellRun {
                            wall_s,
                            raw_s,
                            cpu_s,
                            digest,
                            out,
                        })
                    }
                    Some(run) => {
                        if digest != run.digest {
                            eprintln!("cell {}: outcomes did not repeat", plan.cell_label(id));
                            t.failed += cell.faults;
                        }
                        if wall_s < run.wall_s {
                            run.wall_s = wall_s;
                            run.raw_s = raw_s;
                        }
                        run.cpu_s = run.cpu_s.zip(cpu_s).map(|(a, b)| a.min(b));
                    }
                }
            }
        }
    });
    t
}

// --- The oracle check -------------------------------------------------------

#[derive(Debug, Default)]
struct Verified {
    checked: usize,
    mismatches: usize,
    /// Faults whose from-scratch campaign returned an error.
    errors: usize,
    /// Assert outcomes that are the model's own store-to-code assertion.
    modelled_asserts: usize,
    /// Assert outcomes that are not: a caught panic of the simulator or
    /// the engine.
    engine_asserts: usize,
    /// Time in `Session::campaign_from_scratch`.
    scratch_s: f64,
    seconds: f64,
}

/// Untimed: in [`VERIFY_SESSIONS`] seed-chosen sessions, re-runs
/// [`THREADS`] seed-chosen simulated faults of the session's cells through
/// `Session::campaign_from_scratch`, comparing effects one by one.  Every
/// Assert outcome is also re-run on a fresh core, where it must be the
/// model's own assertion (the Assert class of the paper's Table 2) and not
/// a caught panic.
fn verify(
    plan: &Plan,
    sessions: &[Arc<Session>],
    timed: &Timed,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> Verified {
    let mut v = Verified::default();
    let start = Instant::now();
    // Every simulated fault, by session: (cell, fault, effect in the cell).
    let mut by_session: BTreeMap<usize, Vec<(usize, FaultSpec, FaultEffect)>> = BTreeMap::new();
    for (id, run) in timed.live() {
        let injected = &run.out.injected;
        let session = plan.cells[id].session;
        by_session
            .entry(session)
            .or_default()
            .extend(injected.iter().map(|&(fault, effect)| (id, fault, effect)));
        for &(fault, effect) in injected {
            if effect != FaultEffect::Assert {
                continue;
            }
            match modelled_assert(&sessions[session], fault) {
                Ok(true) => v.modelled_asserts += 1,
                Ok(false) => {
                    eprintln!(
                        "cell {}: {fault:?} asserts in the engine",
                        plan.cell_label(id)
                    );
                    v.engine_asserts += 1;
                }
                Err(e) => {
                    eprintln!("cell {}: {fault:?}: {e}", plan.cell_label(id));
                    v.engine_asserts += 1;
                }
            }
        }
    }
    let chosen = pick(by_session.len(), VERIFY_SESSIONS, mix(seed, u64::MAX));
    for (k, (session, simulated)) in by_session.into_iter().enumerate() {
        if !chosen.contains(&k) {
            continue;
        }
        // One fault per thread keeps both threads busy.
        let checks: Vec<_> = pick(simulated.len(), THREADS, mix(seed, session as u64))
            .into_iter()
            .map(|i| simulated[i])
            .collect();
        let faults: Vec<FaultSpec> = checks.iter().map(|c| c.1).collect();
        let (result, secs) = tracer.span(
            parent,
            "Session::campaign_from_scratch",
            "inject",
            None,
            |_| sessions[session].campaign_from_scratch(&faults),
        );
        v.scratch_s += secs;
        let outcomes = match result {
            Ok(r) => r.outcomes,
            Err(e) => {
                eprintln!(
                    "{}: from-scratch check failed: {e}",
                    plan.sessions[session].label
                );
                v.errors += faults.len();
                continue;
            }
        };
        for ((id, fault, effect), o) in checks.into_iter().zip(outcomes) {
            v.checked += 1;
            if o.effect != effect {
                eprintln!(
                    "cell {}: {fault:?} is {:?} from scratch but {effect:?} in the campaign",
                    plan.cell_label(id),
                    o.effect,
                );
                v.mismatches += 1;
            }
        }
    }
    v.seconds = start.elapsed().as_secs_f64();
    v
}

/// Whether `fault`, run from reset on a fresh core, ends in the model's
/// store-to-code assertion rather than in a panic.
fn modelled_assert(session: &Session, fault: FaultSpec) -> Result<bool, String> {
    let golden = session.golden().map_err(|e| e.to_string())?;
    let mut cpu = Cpu::with_predecoded(
        Arc::clone(session.program()),
        Arc::clone(session.decoded()),
        session.config().clone(),
    )
    .map_err(|e| e.to_string())?;
    cpu.inject_fault(fault).map_err(|e| format!("{e:?}"))?;
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        cpu.run(golden.timeout_cycles, &mut NullProbe)
    }));
    Ok(matches!(
        run.map(|r| r.exit),
        Ok(ExitReason::Assert(AssertKind::StoreToCode { .. }))
    ))
}

/// `k` distinct indices below `n` chosen by `seed` (a partial
/// Fisher–Yates shuffle).
fn pick(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (mix(seed, i as u64) % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

// --- Traced-run probes ------------------------------------------------------

/// Traced comprehensive runs: profile every session (the ace layer) and
/// reduce every cell's fault list (the core layer), so both layers
/// report on these workloads too.
fn reduce_probe(
    plan: &Plan,
    sessions: &[Arc<Session>],
    timed: &Timed,
    tracer: &Tracer,
    parent: SpanId,
) -> Result<(CoreCounts, f64), String> {
    let mut ace_s = 0.0;
    for s in sessions {
        let (profile, secs) = tracer.span(parent, "SessionAce::ace_profile", "ace", None, |_| {
            s.ace_profile()
        });
        profile.map_err(|e| e.to_string())?;
        ace_s += secs;
    }
    let mut core = CoreCounts::default();
    for (id, run) in timed.live() {
        let cell = &plan.cells[id];
        let session = &sessions[cell.session];
        let ace = session.ace_profile().map_err(|e| e.to_string())?;
        let dynamic = statically_live(session, &run.out.faults);
        let (reduction, secs) = tracer.span(parent, "reduce_fault_list", "core", Some(id), |_| {
            reduce_fault_list(&dynamic, ace.structure(cell.structure))
        });
        core.add(&CoreCounts {
            injections: reduction.reduced_fault_list().len() as f64,
            groups: reduction.groups.len() as f64,
            ace_pruned: reduction.ace_masked.len() as f64,
            static_pruned: (run.out.faults.len() - dynamic.len()) as f64,
            reduce_s: secs,
        });
    }
    Ok((core, ace_s))
}

// --- Measurement and results -------------------------------------------------

#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

struct Output {
    metrics: Vec<Metric>,
    provenance: Vec<(&'static str, Json)>,
    self_times: BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: usize,
    failed: usize,
}

fn measure(
    opts: &Options,
    plan: &Plan,
    earlier_setups: Vec<Vec<SessionSetup>>,
) -> Result<(Tracer, Output), String> {
    let tracer = Tracer::new(opts.trace);
    let scale = experiment_scale(opts.seed);
    let merlin = plan.def.method == Method::Merlin;
    let (out, _) = tracer.span(SpanId::ROOT, "run", "bench", None, |root| {
        let (sessions, own) = setup(&plan.sessions, merlin, &scale, &tracer, root)?;
        let mut reps = earlier_setups;
        reps.push(own);
        if reps.iter().any(|r| r.len() != sessions.len()) {
            return Err("a set-up repetition timed another number of sessions".into());
        }
        let setup = SetupTimes(reps);
        let mut timed = timed(plan, &sessions, &tracer, root);
        if opts.trace && merlin {
            tracer.span(root, "split", "bench", None, |s| {
                split_merlin(plan, &sessions, &mut timed, &tracer, s)
            });
        }
        let verified = tracer
            .span(root, "verify", "bench", None, |v| {
                verify(plan, &sessions, &timed, opts.seed, &tracer, v)
            })
            .0;
        let probes = if opts.trace {
            let (p, _) = tracer.span(root, "layers", "bench", None, |l| {
                let layers = layers::probe(&sessions, &tracer, l)?;
                let reduce = match plan.def.method {
                    Method::Comprehensive => {
                        Some(reduce_probe(plan, &sessions, &timed, &tracer, l)?)
                    }
                    Method::Merlin => None,
                };
                Ok::<_, String>((layers, reduce))
            });
            Some(p?)
        } else {
            None
        };
        results(plan, opts, &sessions, &setup, &timed, &verified, probes)
    });
    let mut out = out?;
    out.self_times = tracer.layer_self_times();
    Ok((tracer, out))
}

fn results(
    plan: &Plan,
    opts: &Options,
    sessions: &[Arc<Session>],
    setup: &SetupTimes,
    timed: &Timed,
    verified: &Verified,
    probes: Option<(layers::LayerNumbers, Option<(CoreCounts, f64)>)>,
) -> Result<Output, String> {
    let cells: Vec<f64> = timed.live().map(|(_, run)| run.wall_s).collect();
    let campaign_s: f64 = cells.iter().sum();
    let campaign_cpu_s: Option<f64> = timed.live().map(|(_, run)| run.cpu_s).sum();
    let live_faults: usize = timed.live().map(|(i, _)| plan.cells[i].faults).sum();
    let failed = timed.failed + verified.mismatches + verified.errors + verified.engine_asserts;
    let attempted = plan.faults().max(1);

    let mut all_outcomes = Fnv::default();
    let (mut core, mut campaign) = (None::<CoreCounts>, None::<CampaignCounts>);
    for (_, run) in timed.live() {
        all_outcomes.write(&run.digest.to_le_bytes());
        if let Some(c) = &run.out.core {
            core.get_or_insert_with(Default::default).add(c);
        }
        if let Some(c) = &run.out.campaign {
            campaign.get_or_insert_with(Default::default).add(c);
        }
    }
    let merlin = plan.def.method == Method::Merlin;
    let (layer_numbers, reduced) = match probes {
        Some((l, r)) => (Some(l), r),
        None => (None, None),
    };
    let mut ace_s = merlin.then(|| setup.median_sum(|s| s.ace_s));
    if let Some((c, secs)) = reduced {
        core = Some(c);
        ace_s = Some(secs);
    }
    let ace_cycles = match ace_s {
        Some(_) => {
            let mut total = 0u64;
            for s in sessions {
                total += s.ace_profile().map_err(|e| e.to_string())?.golden.cycles;
            }
            Some(total as f64)
        }
        None => None,
    };
    // On MeRLiN workloads the campaigns are the traced split's.
    let inject_campaign_s = if merlin {
        campaign.as_ref().map(|c| c.seconds)
    } else {
        Some(campaign_s)
    };
    let sched = |key: &str| campaign.as_ref().and_then(|c| c.get(key));
    let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    };
    let sim_cycles = sched("suffix_cycles")
        .zip(sched("golden_replay_cycles"))
        .map(|(s, r)| s + r);
    let (mut golden_cycles, mut checkpoints, mut footprint) = (0u64, 0usize, 0usize);
    for s in sessions {
        golden_cycles += s.golden().map_err(|e| e.to_string())?.result.cycles;
        checkpoints += s.golden_checkpoints().map_or(0, |g| g.store.len());
        footprint += s.checkpoint_footprint_bytes();
    }
    let tail_p = stats::tail_percentile(cells.len()).unwrap_or(50.0);
    let traced_core = |f: fn(&CoreCounts) -> f64| core.as_ref().filter(|_| opts.trace).map(f);

    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric(
            "faults_per_s",
            ratio(Some(live_faults as f64), Some(campaign_s)),
            "1/s",
        ),
        metric("setup_s", Some(setup.median_sum(SessionSetup::total)), "s"),
        metric(
            "cpu_ms_per_fault",
            ratio(campaign_cpu_s.map(|c| c * 1e3), Some(live_faults as f64)),
            "ms",
        ),
        metric("peak_rss_mib", stats::peak_rss_mib(), "MiB"),
        metric(
            "failed_frac",
            Some(failed as f64 / attempted as f64),
            "frac",
        ),
        metric(
            "isa.predecode_ms",
            layer_numbers.as_ref().map(|l| l.predecode_ms),
            "ms",
        ),
        metric(
            "analyze.analysis_ms",
            layer_numbers.as_ref().map(|l| l.analysis_ms),
            "ms",
        ),
        metric(
            "cpu.step_mcycles_per_s",
            layer_numbers.as_ref().map(|l| l.step_mcycles_per_s),
            "Mcycle/s",
        ),
        metric(
            "cpu.snapshot_us",
            layer_numbers.as_ref().map(|l| l.snapshot_us),
            "us",
        ),
        metric(
            "inject.session_build_ms",
            Some(setup.median_sum(|s| s.build_s) * 1e3),
            "ms",
        ),
        metric(
            "inject.golden_s",
            Some(setup.median_sum(|s| s.golden_s)),
            "s",
        ),
        metric(
            "inject.golden_mcycles",
            Some(golden_cycles as f64 / 1e6),
            "Mcycle",
        ),
        metric("inject.checkpoints", Some(checkpoints as f64), "count"),
        metric(
            "inject.checkpoint_mib",
            Some(footprint as f64 / f64::from(1 << 20)),
            "MiB",
        ),
        metric("inject.campaign_s", inject_campaign_s, "s"),
        metric(
            "inject.sim_mcycles_per_s_thread",
            ratio(
                sim_cycles.map(|c| c / 1e6),
                inject_campaign_s.map(|s| s * THREADS as f64),
            ),
            "Mcycle/s",
        ),
        metric(
            "inject.suffix_mcycles",
            sched("suffix_cycles").map(|c| c / 1e6),
            "Mcycle",
        ),
        metric(
            "inject.replay_mcycles",
            sched("golden_replay_cycles").map(|c| c / 1e6),
            "Mcycle",
        ),
        metric("inject.forks_spawned", sched("forks_spawned"), "count"),
        metric("inject.forks_retired", sched("forks_retired"), "count"),
        metric(
            "inject.retire_frac",
            ratio(sched("forks_retired"), sched("forks_spawned")),
            "frac",
        ),
        metric(
            "inject.early_exits",
            campaign.as_ref().map(|c| c.early_exits),
            "count",
        ),
        metric(
            "inject.runs_executed",
            campaign.as_ref().map(|c| c.runs_executed),
            "count",
        ),
        metric("inject.restores", sched("restores"), "count"),
        metric("inject.ranges", sched("ranges"), "count"),
        metric("inject.range_steals", sched("range_steals"), "count"),
        metric("inject.range_retries", sched("range_retries"), "count"),
        metric("inject.asserts", sched("asserts"), "count"),
        metric("inject.static_prunes", sched("static_prunes"), "count"),
        metric("inject.cow_breaks", sched("cow_breaks"), "count"),
        metric(
            "inject.fork_copied_kib",
            sched("fork_bytes_copied").map(|b| b / 1024.0),
            "KiB",
        ),
        metric("inject.cells", Some(cells.len() as f64), "count"),
        metric("inject.cell_p50_s", percentile(&cells, 50.0), "s"),
        metric("inject.cell_tail_s", percentile(&cells, tail_p), "s"),
        metric(
            "inject.scratch_faults_per_s",
            ratio(Some(verified.checked as f64), Some(verified.scratch_s)),
            "1/s",
        ),
        metric("ace.profile_s", ace_s, "s"),
        metric(
            "ace.profile_mcycles_per_s",
            ratio(ace_cycles.map(|c| c / 1e6), ace_s),
            "Mcycle/s",
        ),
        metric("core.reduce_ms", traced_core(|c| c.reduce_s * 1e3), "ms"),
        metric(
            "core.injections",
            core.as_ref().map(|c| c.injections),
            "count",
        ),
        metric("core.groups", core.as_ref().map(|c| c.groups), "count"),
        metric(
            "core.ace_pruned",
            core.as_ref().map(|c| c.ace_pruned),
            "count",
        ),
        metric(
            "core.static_pruned",
            core.as_ref().map(|c| c.static_pruned),
            "count",
        ),
    ];

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
        ("seconds", Json::Num(opts.seconds)),
        (
            "programs",
            match &opts.programs {
                Some(p) => Json::Str(p.join(",")),
                None => Json::Null,
            },
        ),
        ("faults_per_cell", Json::num(opts.faults.map(|f| f as f64))),
        ("rev", Json::Str(git_revision())),
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(THREADS as f64)),
        ("passes", Json::Num(plan.def.passes as f64)),
        ("setup_reps", Json::Num(SETUP_REPS as f64)),
        ("sessions", Json::Num(plan.sessions.len() as f64)),
        ("cells", Json::Num(plan.cells.len() as f64)),
        ("faults", Json::Num(plan.faults() as f64)),
        ("cell_tail_percentile", Json::Num(tail_p)),
        ("verified", Json::Num(verified.checked as f64)),
        (
            "modelled_asserts",
            Json::Num(verified.modelled_asserts as f64),
        ),
        ("verify_s", Json::Num(verified.seconds)),
        ("reference_s", Json::Num(speed::REFERENCE_S)),
        ("probe_median_s", Json::num(timed.probe.median_s())),
        (
            "campaign_raw_s",
            Json::Num(timed.live().map(|(_, run)| run.raw_s).sum()),
        ),
        ("digest", Json::Str(format!("{:016x}", all_outcomes.0))),
    ];
    Ok(Output {
        metrics,
        provenance,
        self_times: BTreeMap::new(),
        correct: failed == 0,
        attempted,
        failed,
    })
}

/// `git rev-parse HEAD` of the directory the benchmark runs from, or
/// `unknown`; git is kept from searching above that directory.
fn git_revision() -> String {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).stderr(Stdio::null());
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

impl Output {
    /// Prints the provenance and layer self times as `#` lines, every
    /// measured metric as `name value unit`, a record line for `compare`,
    /// and last the result line: the end-to-end metrics, or with tracing
    /// the per-layer ones.
    fn print(&self, spec: &Spec, opts: &Options) -> Result<(), String> {
        for (key, value) in &self.provenance {
            println!("# {key} {value}");
        }
        for (layer, secs) in &self.self_times {
            println!("# self_s {layer} {secs}");
        }
        let wanted = if opts.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let mut selected = Vec::new();
        for w in wanted {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == w.name)
                .ok_or(format!(
                    "BENCHMARK.json names `{}`, which is not measured",
                    w.name
                ))?;
            if m.unit != w.unit {
                return Err(format!(
                    "{}: unit {} here, {} in BENCHMARK.json",
                    m.name, m.unit, w.unit
                ));
            }
            selected.push(m);
        }
        let rest = self
            .metrics
            .iter()
            .filter(|m| !selected.iter().any(|s| s.name == m.name));
        for m in selected
            .iter()
            .copied()
            .chain(rest.filter(|m| m.value.is_some()))
        {
            println!("{} {} {}", m.name, Json::num(m.value), m.unit);
        }
        let as_json = |ms: &mut dyn Iterator<Item = &Metric>| {
            Json::obj(ms.map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            }))
        };
        let mut record: Vec<(&str, Json)> = self.provenance.clone();
        record.extend(self.summary());
        record.push(("metrics", as_json(&mut self.metrics.iter())));
        println!("{}", Json::obj(record));
        let mut last = self.summary();
        last.push(("metrics", as_json(&mut selected.into_iter())));
        println!("{}", Json::obj(last));
        Ok(())
    }

    fn summary(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_times_round_trip_and_take_each_sessions_median() {
        let rep = |t: [f64; 2]| {
            t.map(|g| SessionSetup {
                build_s: 0.001,
                golden_s: g,
                ace_s: 0.5,
            })
            .to_vec()
        };
        let reps = vec![rep([1.0, 4.0]), rep([3.0, 2.0]), rep([2.0, 9.0])];
        let line =
            Json::Arr(reps[1].iter().copied().map(SessionSetup::to_json).collect()).to_string();
        assert_eq!(
            SessionSetup::parse_all(&format!("noise\n{line}\n")),
            Ok(reps[1].clone())
        );
        assert!(SessionSetup::parse_all("[[1, 2]]").is_err());
        assert!(SessionSetup::parse_all("").is_err());
        let times = SetupTimes(reps);
        // Medians 2.0 and 4.0: neither repetition's total is their sum.
        assert_eq!(times.median_sum(|s| s.golden_s), 6.0);
        assert_eq!(times.median_sum(|s| s.ace_s), 1.0);
    }

    #[test]
    fn picks_are_distinct_and_bounded() {
        let p = pick(10, 4, 7);
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|&i| i < 10));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert_eq!(pick(3, 5, 1).len(), 3);
        assert_eq!(pick(10, 4, 7), p);
    }
}
