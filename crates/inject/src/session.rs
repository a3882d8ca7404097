//! Session-oriented campaign API: one object owns the (program,
//! configuration, checkpoint policy) context of a fault-injection study and
//! every campaign phase runs as a method on it.
//!
//! The paper's methodology executes several phases over the *same* golden
//! run — representative injection, the comprehensive baseline, the post-ACE
//! baseline, the Relyzer comparison — and before this module existed every
//! caller re-threaded `(program, cfg, golden, policy, threads)` through free
//! functions by hand, with "build the golden run once" being caller
//! discipline rather than an invariant.  A [`Session`] makes it structural:
//!
//! * the program and configuration live behind `Arc`s shared by every
//!   campaign worker the session ever spawns,
//! * the checkpointed [`GoldenRun`] is built lazily, exactly once, in a
//!   single adaptive pass (no sizing pre-pass), and
//! * a [`SessionCache`] keyed by `(workload id, context fingerprint)` lets
//!   configuration sweeps and repeated phases share sessions — in memory
//!   within a process, and optionally on disk across processes via a
//!   bincode-style serialisation of the golden run and its checkpoint store,
//!   which a load replays in part before trusting it, and beside which higher
//!   layers persist their own artifacts (see the [`artifact`](crate::artifact)
//!   module).
//!
//! Higher layers extend the session by trait: `merlin-ace` adds
//! `ace_profile()` and `merlin-core` adds `merlin()`, `comprehensive()`,
//! `post_ace_baseline()` and `relyzer()`, all sharing this golden run.
//!
//! # Examples
//!
//! ```
//! use merlin_cpu::{CpuConfig, Structure};
//! use merlin_inject::Session;
//! use merlin_workloads::workload_by_name;
//!
//! let w = workload_by_name("sha").unwrap();
//! let session = Session::builder(&w.program, &CpuConfig::default())
//!     .max_cycles(10_000_000)
//!     .threads(2)
//!     .build()
//!     .unwrap();
//! let faults = session.fault_list(Structure::RegisterFile, 8, 42).unwrap();
//! let result = session.campaign(&faults).unwrap();
//! assert_eq!(result.classification.total(), 8);
//! assert_eq!(session.golden_builds(), 1);
//! ```

use crate::artifact::{self, fnv1a_bytes, fnv1a_words, quarantine, write_atomic, ArtifactFormat};
use crate::campaign::{
    build_golden_checkpointed, CampaignError, CampaignResult, GoldenCheckpoints, GoldenRun,
};
use crate::liveness::L1dLiveness;
use crate::sampling::generate_fault_list;
use crate::schedule::CampaignScheduler;
use merlin_analyze::ProgramAnalysis;
use merlin_cpu::{CheckpointPolicy, Cpu, CpuConfig, FaultSpec, NullProbe, Structure};
use merlin_isa::binio::{BinCode, ByteReader};
use merlin_isa::{DecodedProgram, Program};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Builder for a [`Session`].
///
/// Obtained from [`Session::builder`]; every knob has a sensible default
/// (default checkpoint policy, 200 M-cycle budget, available parallelism).
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    program: Arc<Program>,
    cfg: Arc<CpuConfig>,
    policy: CheckpointPolicy,
    max_cycles: u64,
    threads: usize,
    persist_path: Option<PathBuf>,
    /// Counter receiving corrupt-artifact rejections (see
    /// [`Session::artifact_rejects`]); a cache installs its shared counter
    /// here so rejections aggregate across its sessions.
    artifact_rejects: Arc<AtomicU64>,
    /// Memoised [`SessionBuilder::fingerprint`]; cleared by every setter
    /// that participates in the fingerprint.
    fingerprint: std::cell::Cell<Option<u64>>,
}

impl SessionBuilder {
    fn new(program: &Program, cfg: &CpuConfig) -> Self {
        SessionBuilder {
            program: Arc::new(program.clone()),
            cfg: Arc::new(cfg.clone()),
            policy: CheckpointPolicy::default(),
            max_cycles: 200_000_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            persist_path: None,
            artifact_rejects: Arc::new(AtomicU64::new(0)),
            fingerprint: std::cell::Cell::new(None),
        }
    }

    /// Sets the checkpoint policy for the session's golden run.
    pub fn checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.policy = policy;
        self.fingerprint.set(None);
        self
    }

    /// Sets the cycle budget for the golden run.
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self.fingerprint.set(None);
        self
    }

    /// Sets the worker-thread count for the session's campaigns.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Persists the golden run (checkpoint store included) to `path` on
    /// first build, and loads it from there instead of simulating when a
    /// file with a matching fingerprint already exists.  Artifacts saved
    /// through [`Session::save_artifact`] go beside it, under the same name
    /// with their own extension.  Set by [`SessionCache::session`] for a
    /// cache with a disk directory, so a persisting session always has the
    /// cache's file name and shares its rejection counter.
    pub(crate) fn persist_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist_path = Some(path.into());
        self
    }

    /// Shares `counter` as the session's corrupt-artifact rejection counter
    /// (execution-only: not part of the fingerprint).  Used by
    /// [`SessionCache`] so rejections aggregate across its sessions.
    pub(crate) fn reject_counter(mut self, counter: Arc<AtomicU64>) -> Self {
        self.artifact_rejects = counter;
        self
    }

    /// The fingerprint of the simulation context this builder describes:
    /// a stable 64-bit hash over the program image, the configuration, the
    /// checkpoint policy and the cycle budget — everything that determines
    /// the golden run, and nothing that does not (the thread count is
    /// deliberately excluded; campaign results are thread-count invariant).
    /// Memoised, so repeated calls (cache lookup, then [`Self::build`]) hash
    /// the program once.
    pub fn fingerprint(&self) -> u64 {
        if let Some(hash) = self.fingerprint.get() {
            return hash;
        }
        let mut bytes = Vec::new();
        self.cfg.encode(&mut bytes);
        self.policy.encode(&mut bytes);
        self.max_cycles.encode(&mut bytes);
        self.program.data_size.encode(&mut bytes);
        self.program.entry.encode(&mut bytes);
        // Data segments, injectively: segment count up front and every
        // segment length-prefixed, so `[{a, 0x01 0x02}]` can never hash like
        // `[{a, 0x01}, {b, 0x02}]`.
        self.program.data.len().encode(&mut bytes);
        for seg in &self.program.data {
            seg.addr.encode(&mut bytes);
            seg.bytes.encode(&mut bytes);
        }
        let mut hash = fnv1a_bytes(&bytes);
        // The instruction stream, via its canonical listing (one line per
        // instruction, so the encoding is unambiguous; the ISA types predate
        // the binary codec and need no byte-exact encoding of their own for
        // identity purposes).
        hash = artifact::fnv1a_from(hash, self.program.listing().as_bytes());
        self.fingerprint.set(Some(hash));
        hash
    }

    /// Builds the session, validating the configuration and linting the
    /// program up front.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::BadConfig`] for inconsistent configurations
    /// and [`CampaignError::Lint`] for programs that fail admission control
    /// (out-of-range control targets, reads of never-written registers,
    /// unreachable instructions) — caught here, at the session boundary,
    /// instead of panicking a worker core mid-campaign.
    pub fn build(self) -> Result<Session, CampaignError> {
        self.cfg
            .validate()
            .map_err(|e| CampaignError::BadConfig(e.to_string()))?;
        let fingerprint = self.fingerprint();
        // Decode the whole program exactly once per session: the golden run
        // and every campaign worker fetch micro-ops from this shared table
        // instead of cracking per fetched instruction.
        let decoded = Arc::new(DecodedProgram::new(&self.program));
        // Static analysis rides the session the same way: computed once,
        // shared by every campaign (the register-file prune) and by higher
        // layers (ACE cross-validation).  Its lint is admission control.
        let analysis = Arc::new(ProgramAnalysis::of(&self.program, &decoded));
        if !analysis.lint().is_clean() {
            return Err(CampaignError::Lint(analysis.lint().clone()));
        }
        Ok(Session {
            program: self.program,
            decoded,
            analysis,
            cfg: self.cfg,
            policy: self.policy,
            max_cycles: self.max_cycles,
            threads: self.threads,
            persist_path: self.persist_path,
            fingerprint,
            golden: OnceLock::new(),
            golden_checksum: OnceLock::new(),
            golden_builds: AtomicU64::new(0),
            artifact_rejects: self.artifact_rejects,
            ext: Mutex::new(HashMap::new()),
        })
    }
}

/// One fault-injection study over one (program, configuration) pair.
///
/// See the `session` module documentation for the design; the short version:
/// the golden run is built lazily exactly once per session, every campaign
/// phase is a method, and sessions are shared through a [`SessionCache`].
#[derive(Debug)]
pub struct Session {
    program: Arc<Program>,
    /// Pre-decoded micro-op arena shared by every core this session spawns.
    decoded: Arc<DecodedProgram>,
    /// Static CFG/dataflow analysis, computed once at build; powers the
    /// static register-file prune and downstream cross-validation.
    analysis: Arc<ProgramAnalysis>,
    cfg: Arc<CpuConfig>,
    policy: CheckpointPolicy,
    max_cycles: u64,
    threads: usize,
    persist_path: Option<PathBuf>,
    fingerprint: u64,
    golden: OnceLock<Result<GoldenRun, CampaignError>>,
    /// Checksum of the `.golden` file the golden run was loaded from or
    /// written to; set only when the session persists.
    golden_checksum: OnceLock<u64>,
    golden_builds: AtomicU64,
    /// Artifacts rejected at load (shared with the owning [`SessionCache`]
    /// when the session came from one).
    artifact_rejects: Arc<AtomicU64>,
    /// Type-keyed storage for per-session artifacts owned by higher layers
    /// (e.g. the cached ACE analysis of `merlin-ace`).
    ext: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

impl Session {
    /// Starts building a session for `program` under `cfg` (both cloned once
    /// into `Arc`s here, never again per phase or per fault).
    pub fn builder(program: &Program, cfg: &CpuConfig) -> SessionBuilder {
        SessionBuilder::new(program, cfg)
    }

    /// The shared program image.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The shared pre-decoded micro-op table (built once per session; every
    /// golden-run and campaign-worker core fetches from it).
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// The session's static program analysis (CFG, liveness, register
    /// census), computed once at build time.  Programs reaching this point
    /// always lint clean — [`SessionBuilder::build`] rejects the rest.
    pub fn analysis(&self) -> &Arc<ProgramAnalysis> {
        &self.analysis
    }

    /// The shared configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// The checkpoint policy golden runs are built under.
    pub fn policy(&self) -> &CheckpointPolicy {
        &self.policy
    }

    /// The cycle budget for the golden run.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Worker threads used by this session's campaigns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The context fingerprint (see [`SessionBuilder::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The golden run, built (or loaded from the persist path) on first use
    /// and shared by every subsequent phase.
    ///
    /// A loaded file is trusted only if this build of the core reproduces
    /// it: restoring a checkpoint chosen by the fingerprint must step to
    /// exactly the next checkpoint's state, and the last checkpoint must
    /// run to the stored result.  The fingerprint cannot see a change to
    /// the core's behaviour, so this is what keeps a file written by an
    /// older core from classifying campaigns.  A file that fails is renamed
    /// `<name>.golden.stale`, counted in [`Session::artifact_rejects`], and
    /// rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::GoldenRunFailed`] if the program does not
    /// halt within the cycle budget, [`CampaignError::BadConfig`] for
    /// invalid configurations.  The error is sticky: a failed build is not
    /// retried.
    pub fn golden(&self) -> Result<&GoldenRun, CampaignError> {
        self.golden
            .get_or_init(|| self.build_golden())
            .as_ref()
            .map_err(Clone::clone)
    }

    /// How many times this session actually *simulated* a golden run (0 or
    /// 1; disk-cache hits do not count).  The regression
    /// suite uses this to prove the once-per-session invariant.
    pub fn golden_builds(&self) -> u64 {
        self.golden_builds.load(Ordering::Relaxed)
    }

    /// Artifacts this session rejected at load and rebuilt, each renamed
    /// so it is never read again:
    ///
    /// - a `.golden` or `.ace` file whose header matched this context but
    ///   whose content failed the checksum or decode, renamed
    ///   `<name>.corrupt`;
    /// - a `.golden` file that decoded but that this build of the core does
    ///   not replay exactly (see [`Session::golden`]), renamed
    ///   `<name>.golden.stale`.
    ///
    /// When the session came from a [`SessionCache`], the counter is shared
    /// cache-wide ([`SessionCache::artifact_rejects`]).
    pub fn artifact_rejects(&self) -> u64 {
        self.artifact_rejects.load(Ordering::Relaxed)
    }

    /// With a disk directory: the golden run, built or loaded, and the
    /// checksum of its `.golden` file, which artifacts persisted beside it
    /// record to bind themselves to it.  `None` without a disk directory,
    /// and when the golden run fails.
    pub fn persisted_golden(&self) -> Option<(&GoldenRun, u64)> {
        self.persist_path.as_ref()?;
        let golden = self.golden().ok()?;
        let checksum = *self
            .golden_checksum
            .get()
            .expect("a persisting session records its golden checksum");
        Some((golden, checksum))
    }

    /// Loads the artifact of `format` persisted beside this session's
    /// `.golden` file (the same name with `format.extension`), if its
    /// header names this session's fingerprint and `binding`.  `decode`
    /// gets the checksum-verified payload and returns `None` to reject it.
    /// A missing file, or one for another format, version, fingerprint or
    /// binding, is a silent miss; a file that fails its checksum or decode
    /// is quarantined and counted in [`Session::artifact_rejects`].
    /// Always `None` without a disk directory.
    pub fn load_artifact<T>(
        &self,
        format: &ArtifactFormat,
        binding: u64,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let path = self.persist_path.as_ref()?.with_extension(format.extension);
        let key = [self.fingerprint, binding];
        format
            .load(&path, &key, &self.artifact_rejects, decode)
            .map(|(value, _)| value)
    }

    /// Persists an artifact of `format` beside this session's `.golden`
    /// file for [`Session::load_artifact`] to find, its payload appended by
    /// `payload`.  Best-effort, like the `.golden` file itself: a write
    /// that fails is dropped.  Does nothing without a disk directory.
    pub fn save_artifact(
        &self,
        format: &ArtifactFormat,
        binding: u64,
        payload: impl FnOnce(&mut Vec<u8>),
    ) {
        if let Some(path) = &self.persist_path {
            let file = format.frame(&[self.fingerprint, binding], payload);
            let _ = write_atomic(&path.with_extension(format.extension), &file);
        }
    }

    fn build_golden(&self) -> Result<GoldenRun, CampaignError> {
        if let Some(path) = &self.persist_path {
            if let Some((golden, checksum)) = self.load_golden(path) {
                let _ = self.golden_checksum.set(checksum);
                return Ok(golden);
            }
        }
        self.golden_builds.fetch_add(1, Ordering::Relaxed);
        let golden = build_golden_checkpointed(
            &self.program,
            &self.decoded,
            &self.cfg,
            self.max_cycles,
            &self.policy,
        )?;
        if let Some(path) = &self.persist_path {
            let file = golden_file(self.fingerprint, &golden);
            let _ = self.golden_checksum.set(artifact::trailer(&file));
            // Persistence is best-effort: a read-only disk must not fail the
            // campaign.
            let _ = write_atomic(path, &file);
        }
        Ok(golden)
    }

    /// The golden run persisted at `path` and its checksum, if the file is
    /// this context's, intact, and replayed exactly by this build of the
    /// core.  A file that decodes but does not replay is renamed
    /// `<path>.stale` and counted.
    fn load_golden(&self, path: &Path) -> Option<(GoldenRun, u64)> {
        let mem_len = (self.program.data_size + self.cfg.extra_memory_bytes) as usize;
        let (golden, checksum) = GOLDEN.load(
            path,
            &[self.fingerprint],
            &self.artifact_rejects,
            |payload| decode_golden_payload(payload, &self.cfg, mem_len),
        )?;
        if !self.replays_exactly(&golden) {
            return quarantine(path, "stale", &self.artifact_rejects);
        }
        Some((golden, checksum))
    }

    /// Whether this build of the core reproduces a decoded golden run.  The
    /// fingerprint covers the program, the configuration and the policy,
    /// but not the core's behaviour, so a file written before the core's
    /// timing changed still decodes.  These replays catch it:
    ///
    /// - restore checkpoint 0 and step to checkpoint 1: from reset the
    ///   caches are cold, so the first accesses miss all the way to memory
    ///   whatever the checkpoints' placement;
    /// - restore checkpoint `k` (chosen by the fingerprint, so different
    ///   files check different ranges) and step to checkpoint `k + 1`.
    ///
    /// Each must end in the stored state exactly.  Last, restore the last
    /// checkpoint and run to the end, whose result must equal the stored
    /// one, and the stored timeout must be the one the result implies.
    ///
    /// Together they cost about three checkpoint intervals of simulation.
    fn replays_exactly(&self, golden: &GoldenRun) -> bool {
        if golden.timeout_cycles != GoldenRun::timeout_for(golden.result.cycles) {
            return false;
        }
        let snapshots: Vec<_> = golden.checkpoints.store.snapshots().collect();
        let Ok(mut cpu) = Cpu::with_predecoded(
            Arc::clone(&self.program),
            Arc::clone(&self.decoded),
            (*self.cfg).clone(),
        ) else {
            return false;
        };
        // Decode admits only stores that start at reset, so there is a last.
        let last = snapshots.len() - 1;
        if last > 0 {
            let k = (self.fingerprint % last as u64) as usize;
            for i in [0, k] {
                let (from, to) = (snapshots[i], snapshots[i + 1]);
                cpu.restore_from(from);
                while !cpu.is_finished() && cpu.cycle() < to.cycle() {
                    cpu.step(&mut NullProbe);
                }
                if !cpu.matches_state(to) {
                    return false;
                }
            }
        }
        cpu.restore_from(snapshots[last]);
        cpu.run(self.max_cycles, &mut NullProbe) == golden.result
    }

    /// Checks a fault list against the fault model — the session boundary
    /// where hand-rolled `FaultSpec` literals with out-of-range bit indices
    /// are rejected as an error instead of panicking a campaign worker.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidFault`] naming the first offending
    /// fault.
    pub fn validate_faults(&self, faults: &[FaultSpec]) -> Result<(), CampaignError> {
        for (i, fault) in faults.iter().enumerate() {
            fault
                .validate()
                .map_err(|e| CampaignError::InvalidFault(format!("fault #{i} ({fault}): {e}")))?;
        }
        Ok(())
    }

    /// Number of fault-injectable entries `structure` has under this
    /// session's configuration.
    pub fn structure_entries(&self, structure: Structure) -> usize {
        self.cfg.structure_entries(structure)
    }

    /// Draws a statistically sampled fault list for `structure` over this
    /// session's golden execution length (phase 1, task 2 of the paper).
    ///
    /// # Errors
    ///
    /// Propagates golden-run errors.
    pub fn fault_list(
        &self,
        structure: Structure,
        count: usize,
        seed: u64,
    ) -> Result<Vec<FaultSpec>, CampaignError> {
        let cycles = self.golden()?.result.cycles;
        Ok(generate_fault_list(
            structure,
            self.structure_entries(structure),
            cycles,
            count,
            seed,
        ))
    }

    /// Runs an injection campaign over `faults` with this session's thread
    /// count.  Each checkpoint range restores once, replays its golden
    /// prefix once and forks a faulty core per fault (see the
    /// [`schedule`](crate::schedule) module).  Register-file faults into
    /// statically-dead entries are classified Masked without simulation and
    /// accounted as
    /// [`ScheduleStats::static_prunes`](crate::ScheduleStats::static_prunes).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidFault`] for fault specifications that
    /// violate the fault model, and propagates golden-run errors.
    pub fn campaign(&self, faults: &[FaultSpec]) -> Result<CampaignResult, CampaignError> {
        self.validate_faults(faults)?;
        let golden = self.golden()?;
        Ok(CampaignScheduler::new(
            &self.program,
            &self.decoded,
            &self.cfg,
            golden,
            true,
            faults,
            self.threads,
            Some(&self.analysis),
        )
        .run())
    }

    /// Runs a campaign with checkpoint restoration forcibly disabled (every
    /// fault simulates from cycle 0) and without the static prune — the
    /// differential-testing and benchmarking baseline of the checkpointed
    /// engine.  Because this path fully simulates every fault, the standing
    /// byte-identity assertions against [`Session::campaign`] double as a
    /// continuous soundness check of the static prune.
    ///
    /// # Errors
    ///
    /// Same contract as [`Session::campaign`].
    pub fn campaign_from_scratch(
        &self,
        faults: &[FaultSpec],
    ) -> Result<CampaignResult, CampaignError> {
        self.validate_faults(faults)?;
        let golden = self.golden()?;
        Ok(CampaignScheduler::new(
            &self.program,
            &self.decoded,
            &self.cfg,
            golden,
            false,
            faults,
            self.threads,
            None,
        )
        .run())
    }

    /// Peak heap footprint of the session's checkpoint store and L1D
    /// liveness log in bytes (0 until the golden run is built, and when
    /// its build failed).
    pub fn checkpoint_footprint_bytes(&self) -> usize {
        self.golden_checkpoints().map_or(0, |ck| {
            ck.store.footprint_bytes() + ck.l1d.footprint_bytes()
        })
    }

    /// The golden checkpoints, once the golden run is built (mainly for
    /// tests and diagnostics).
    pub fn golden_checkpoints(&self) -> Option<Arc<GoldenCheckpoints>> {
        match self.golden.get() {
            Some(Ok(g)) => Some(Arc::clone(&g.checkpoints)),
            _ => None,
        }
    }

    /// Gets or initialises a per-session extension value of type `T`.
    ///
    /// Extension traits in higher crates use this to cache expensive
    /// per-session artifacts (the ACE-like analysis, for instance) without
    /// `merlin-inject` depending on their types: values are keyed by
    /// `TypeId` and shared as `Arc<T>`.
    ///
    /// The initialiser runs under the extension-map lock, so it must not
    /// recursively call `ext_get_or_try_init` (calling [`Session::golden`]
    /// and the campaign methods is fine).
    ///
    /// # Errors
    ///
    /// Propagates the initialiser's error; nothing is cached on failure.
    pub fn ext_get_or_try_init<T, E, F>(&self, init: F) -> Result<Arc<T>, E>
    where
        T: Any + Send + Sync,
        F: FnOnce(&Session) -> Result<T, E>,
    {
        let mut map = lock_unpoisoned(&self.ext);
        if let Some(existing) = map.get(&TypeId::of::<T>()) {
            return Ok(Arc::clone(existing)
                .downcast::<T>()
                .expect("extension map entries are keyed by their TypeId"));
        }
        let value = Arc::new(init(self)?);
        map.insert(TypeId::of::<T>(), value.clone());
        Ok(value)
    }
}

fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking initialiser poisons the lock but leaves the map in a
    // consistent state (entries are inserted only after successful init).
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Key of one cached session: a caller-chosen workload identifier plus the
/// context fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Workload identifier (benchmark name for the bundled workloads).
    pub id: String,
    /// Context fingerprint (see [`SessionBuilder::fingerprint`]).
    pub fingerprint: u64,
}

/// A keyed cache of [`Session`]s, so configuration sweeps and repeated
/// campaign phases over the same `(workload, configuration)` pair share one
/// golden run.
///
/// With a disk directory attached, golden runs (checkpoint store included)
/// are serialised to `<dir>/<id>-<fingerprint>.golden` and re-loaded by
/// later processes — the instrumented golden run is then paid once per
/// context *ever*, not once per process.  A load checks the file's checksum,
/// decodes it against the context, and replays part of it on the current
/// core (see [`Session::golden`]); a file that fails is renamed, counted in
/// [`SessionCache::artifact_rejects`], and rebuilt.  Higher layers persist
/// their own per-context artifacts beside it through
/// [`Session::save_artifact`] and [`Session::load_artifact`]: `merlin-ace`
/// keeps the ACE-like profile in `<id>-<fingerprint>.ace`.
///
/// # Examples
///
/// ```
/// use merlin_cpu::CpuConfig;
/// use merlin_inject::SessionCache;
/// use merlin_workloads::workload_by_name;
///
/// let cache = SessionCache::new();
/// let w = workload_by_name("sha").unwrap();
/// let cfg = CpuConfig::default();
/// let a = cache
///     .session(w.name, &w.program, &cfg, |b| b.max_cycles(10_000_000))
///     .unwrap();
/// let b = cache
///     .session(w.name, &w.program, &cfg, |b| b.max_cycles(10_000_000))
///     .unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b), "same context, same session");
/// ```
#[derive(Debug, Default)]
pub struct SessionCache {
    sessions: Mutex<HashMap<SessionKey, Arc<Session>>>,
    disk_dir: Option<PathBuf>,
    /// Artifacts rejected at load, summed over every session this cache
    /// created (shared into each via [`SessionBuilder::reject_counter`]).
    artifact_rejects: Arc<AtomicU64>,
}

impl SessionCache {
    /// An in-memory cache (sessions shared within this process only).
    pub fn new() -> Self {
        SessionCache::default()
    }

    /// A cache that additionally persists golden runs, and the artifacts
    /// higher layers keep beside them, under `dir` for cross-process reuse.
    /// The directory is created on first save.
    pub fn with_disk_dir(dir: impl Into<PathBuf>) -> Self {
        SessionCache {
            disk_dir: Some(dir.into()),
            ..SessionCache::default()
        }
    }

    /// Returns the session for `(id, context)`, creating it on first
    /// request.  `tune` adjusts the builder (policy, cycle budget, threads);
    /// two requests whose tuned builders fingerprint identically share one
    /// session, golden run and checkpoint store.
    ///
    /// Execution-only knobs of later requests (the thread count) are
    /// ignored in favour of the cached session's.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::BadConfig`] for invalid configurations.
    pub fn session(
        &self,
        id: &str,
        program: &Program,
        cfg: &CpuConfig,
        tune: impl FnOnce(SessionBuilder) -> SessionBuilder,
    ) -> Result<Arc<Session>, CampaignError> {
        let mut builder = tune(Session::builder(program, cfg));
        let key = SessionKey {
            id: id.to_string(),
            fingerprint: builder.fingerprint(),
        };
        let mut sessions = lock_unpoisoned(&self.sessions);
        if let Some(session) = sessions.get(&key) {
            return Ok(Arc::clone(session));
        }
        if let Some(dir) = &self.disk_dir {
            builder = builder.persist_to(dir.join(golden_file_name(id, key.fingerprint)));
        }
        builder = builder.reject_counter(Arc::clone(&self.artifact_rejects));
        let session = Arc::new(builder.build()?);
        sessions.insert(key, Arc::clone(&session));
        Ok(session)
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.sessions).len()
    }

    /// `true` when no session has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Artifacts rejected at load and transparently rebuilt, across every
    /// session this cache created: `.golden` and `.ace` files whose checksum
    /// or decode failed behind a matching header (renamed `<name>.corrupt`),
    /// and `.golden` files the current core does not replay exactly
    /// (renamed `<name>.golden.stale`).  See [`Session::artifact_rejects`].
    pub fn artifact_rejects(&self) -> u64 {
        self.artifact_rejects.load(Ordering::Relaxed)
    }
}

// --- Disk persistence ----------------------------------------------------

/// Version 9: the payload is the run result, the timeout, the checkpoint
/// store and the L1D liveness log; the checkpoint policy is covered by the
/// fingerprint, not stored.  Version 9 drops from every snapshot the load
/// queue, the issue-queue count, each ROB entry's load-queue slot and each
/// store-queue slot's RIP and store-data uPC.  Version 8 dropped from every snapshot what only
/// the ACE profiler reads: the per-RIP instance counts, the control-flow
/// path and its signature, and each ROB entry's read log.  Version 7
/// checksums the file one 8-byte word per step ([`fnv1a_words`]) instead
/// of one byte per step.  Version 6 stores each cache snapshot's line bytes
/// in one flat vector, and none for the tags-only L2.  Version 4 added the
/// L1D liveness log ([`L1dLiveness`](crate::L1dLiveness)).  Since version 3
/// the file ends with a little-endian FNV-1a checksum over everything
/// before it, so content corruption is *detected and quarantined* (renamed
/// to `<name>.golden.corrupt`, counted in
/// [`SessionCache::artifact_rejects`]) instead of gambling on the decoder
/// happening to fail.  Version 2 encoded checkpoint memory as chunk-level
/// deltas, version 1 as dense images; older-version files are ordinary
/// cache misses and are rebuilt, not quarantined.
const GOLDEN_VERSION: u32 = 9;

/// The `.golden` file: header `MRLNGLD\0`, the format version
/// (`GOLDEN_VERSION`) and the fingerprint, checksummed word by word.
pub const GOLDEN: ArtifactFormat = ArtifactFormat {
    magic: b"MRLNGLD\0",
    version: GOLDEN_VERSION,
    extension: "golden",
    checksum: fnv1a_words,
};

fn golden_file_name(id: &str, fingerprint: u64) -> String {
    let sanitized: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{sanitized}-{fingerprint:016x}.{}", GOLDEN.extension)
}

/// The complete `.golden` file of `golden`.
fn golden_file(fingerprint: u64, golden: &GoldenRun) -> Vec<u8> {
    GOLDEN.frame(&[fingerprint], |buf| {
        golden.result.encode(buf);
        golden.timeout_cycles.encode(buf);
        golden.checkpoints.store.encode(buf);
        golden.checkpoints.l1d.encode(buf);
    })
}

/// Decodes the payload between a `.golden` file's verified header and its
/// checksum trailer.  `None` on any decode failure or invariant violation:
/// a store that does not start with the cycle-0 snapshot, a snapshot that
/// does not fit a core under `cfg` with a `mem_len`-byte memory (see
/// [`CpuState::fits`](merlin_cpu::CpuState::fits)), or an L1D log that does
/// not fit `cfg`'s L1D.  This is where a store from outside the process
/// enters, and the fingerprint header cannot vouch for these invariants;
/// campaigns rely on them without checking again.
fn decode_golden_payload(payload: &[u8], cfg: &CpuConfig, mem_len: usize) -> Option<GoldenRun> {
    let mut r = ByteReader::new(payload);
    let result = BinCode::decode(&mut r).ok()?;
    let timeout_cycles = u64::decode(&mut r).ok()?;
    let store: merlin_cpu::CheckpointStore = BinCode::decode(&mut r).ok()?;
    // Without the cycle-0 snapshot an early fault has no restore point, and
    // a snapshot of foreign cache contents or memory size would panic a
    // campaign worker's restore.
    if !store.starts_at_reset() || !store.snapshots().all(|s| s.fits(cfg, mem_len)) {
        return None;
    }
    let l1d = L1dLiveness::decode(&mut r, cfg.l1d.total_words()).ok()?;
    if !r.is_at_end() {
        return None;
    }
    Some(GoldenRun {
        result,
        timeout_cycles,
        checkpoints: Arc::new(GoldenCheckpoints { store, l1d }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::FaultEffect;
    use merlin_isa::{reg, AluOp, Cond, MemRef, ProgramBuilder};
    use std::fs;

    /// Bytes of the `.golden` header (magic, version, fingerprint) and of
    /// its checksum trailer.
    const GOLDEN_HEADER_LEN: usize = 8 + 4 + 8;
    const GOLDEN_TRAILER_LEN: usize = 8;

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let data = b.alloc_words(&[5, 4, 3, 2, 1, 9, 8, 7]);
        b.movi(reg(10), data as i64);
        b.movi(reg(1), 0);
        b.movi(reg(2), 0);
        let top = b.bind_label();
        b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
        b.store(reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
        b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
        b.branch_ri(Cond::Lt, reg(1), 8, top);
        b.out(reg(2));
        b.halt();
        b.build().unwrap()
    }

    fn small_policy() -> CheckpointPolicy {
        CheckpointPolicy {
            target_checkpoints: 8,
            min_interval: 8,
        }
    }

    fn test_session() -> Session {
        Session::builder(&tiny_program(), &CpuConfig::default())
            .checkpoints(small_policy())
            .max_cycles(1_000_000)
            .threads(2)
            .build()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("merlin-session-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn golden_is_lazy_and_built_once() {
        let session = test_session();
        assert_eq!(session.golden_builds(), 0, "golden must be lazy");
        let cycles = session.golden().unwrap().result.cycles;
        assert!(cycles > 0);
        // Repeated phases reuse the same build.
        let faults = session.fault_list(Structure::RegisterFile, 40, 7).unwrap();
        let a = session.campaign(&faults).unwrap();
        let b = session.campaign_from_scratch(&faults).unwrap();
        assert_eq!(session.golden_builds(), 1);
        assert_eq!(a.outcomes, b.outcomes);
        assert!(session.checkpoint_footprint_bytes() > 0);
        assert!(session.golden_checkpoints().is_some());
    }

    #[test]
    fn invalid_faults_are_rejected_at_the_boundary() {
        let session = test_session();
        let bad = FaultSpec {
            structure: Structure::RegisterFile,
            entry: 0,
            bit: 77,
            cycle: 10,
        };
        let good = FaultSpec::new(Structure::RegisterFile, 0, 3, 10);
        let err = session.campaign(&[good, bad]).unwrap_err();
        match err {
            CampaignError::InvalidFault(msg) => {
                assert!(msg.contains("#1"), "names the offending fault: {msg}");
                assert!(msg.contains("77"));
            }
            other => panic!("expected InvalidFault, got {other:?}"),
        }
        assert!(session.campaign_from_scratch(&[bad]).is_err());
        // Out-of-range *entries* are not errors — they are Masked, exactly
        // like the engine treats fault sites absent from a configuration.
        let absent = FaultSpec::new(Structure::RegisterFile, 100_000, 1, 10);
        let result = session.campaign(&[absent]).unwrap();
        assert_eq!(result.outcomes[0].effect, FaultEffect::Masked);
    }

    #[test]
    fn builder_validates_config() {
        let bad_cfg = CpuConfig::default().with_phys_regs(4);
        let err = Session::builder(&tiny_program(), &bad_cfg).build();
        assert!(matches!(err, Err(CampaignError::BadConfig(_))));
        // Every knob set on the builder reaches the session it produces.
        let session = test_session();
        assert_eq!(session.threads(), 2);
        assert_eq!(session.max_cycles(), 1_000_000);
        assert_eq!(session.policy(), &small_policy());
    }

    #[test]
    fn golden_failure_is_sticky_and_reported() {
        // Statically clean (reachable halt, initialised registers) but
        // dynamically infinite: passes admission, exhausts the budget.
        let mut b = ProgramBuilder::new();
        b.movi(reg(1), 0);
        let top = b.bind_label();
        b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
        b.branch_ri(Cond::Ge, reg(1), 0, top);
        b.halt();
        let session = Session::builder(&b.build().unwrap(), &CpuConfig::default())
            .max_cycles(10_000)
            .build()
            .unwrap();
        assert!(matches!(
            session.golden(),
            Err(CampaignError::GoldenRunFailed(_))
        ));
        assert!(session.campaign(&[]).is_err());
        // The failed build is not retried.
        assert!(session.golden().is_err());
        assert_eq!(session.golden_builds(), 1);
    }

    #[test]
    fn lint_rejects_bad_programs_at_the_session_boundary() {
        // An infinite jump loop leaves its halt unreachable.
        let mut b = ProgramBuilder::new();
        let top = b.bind_label();
        b.jump(top);
        b.halt();
        match Session::builder(&b.build().unwrap(), &CpuConfig::default()).build() {
            Err(CampaignError::Lint(report)) => {
                assert!(!report.is_clean());
                assert!(report.to_string().contains("unreachable"));
            }
            other => panic!("expected lint rejection, got {other:?}"),
        }
        // A read of a register no instruction ever writes.
        let mut b = ProgramBuilder::new();
        b.out(reg(5));
        b.halt();
        assert!(matches!(
            Session::builder(&b.build().unwrap(), &CpuConfig::default()).build(),
            Err(CampaignError::Lint(_))
        ));
    }

    #[test]
    fn session_campaign_statically_prunes_dead_register_sites() {
        let session = test_session(); // tiny_program touches r1, r2, r10
        assert!(session.analysis().rf_entry_statically_dead(7));
        assert!(!session.analysis().rf_entry_statically_dead(2));
        let dead = FaultSpec::new(Structure::RegisterFile, 7, 1, 10);
        let live = FaultSpec::new(Structure::RegisterFile, 2, 1, 10);
        let pruned = session.campaign(&[dead, live]).unwrap();
        assert_eq!(pruned.schedule.static_prunes, 1);
        // The count covers every classified fault, the pruned one included.
        assert_eq!(pruned.runs_executed, 2);
        assert_eq!(pruned.outcomes[0].effect, FaultEffect::Masked);
        // The from-scratch baseline runs unpruned and fully simulates the
        // dead-entry fault; byte-identity is the soundness check.
        let scratch = session.campaign_from_scratch(&[dead, live]).unwrap();
        assert_eq!(scratch.schedule.static_prunes, 0);
        assert_eq!(pruned.outcomes, scratch.outcomes);
    }

    #[test]
    fn fingerprint_tracks_context_not_threads() {
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let base = Session::builder(&p, &cfg).threads(1).fingerprint();
        assert_eq!(base, Session::builder(&p, &cfg).threads(8).fingerprint());
        assert_ne!(
            base,
            Session::builder(&p, &cfg.clone().with_phys_regs(64)).fingerprint()
        );
        assert_ne!(base, Session::builder(&p, &cfg).max_cycles(1).fingerprint());
        assert_ne!(
            base,
            Session::builder(&p, &cfg)
                .checkpoints(CheckpointPolicy::with_target(8))
                .fingerprint()
        );
        assert_ne!(
            base,
            Session::builder(&p, &cfg)
                .checkpoints(CheckpointPolicy {
                    min_interval: 512,
                    ..CheckpointPolicy::default()
                })
                .fingerprint()
        );
        let mut other = ProgramBuilder::new();
        other.out(reg(0));
        other.halt();
        assert_ne!(
            base,
            Session::builder(&other.build().unwrap(), &cfg).fingerprint()
        );
    }

    #[test]
    fn fingerprint_distinguishes_segment_layouts() {
        // A one-segment program whose byte stream happens to contain what a
        // naive (unprefixed) concatenation would produce for a two-segment
        // program must not collide with that two-segment program.
        use merlin_isa::DataSegment;
        let base = tiny_program();
        let addr2: u64 = 0x2_0000;
        let mut merged = addr2.to_le_bytes().to_vec();
        merged.push(7);
        let mut one_segment = base.clone();
        one_segment.data = vec![DataSegment {
            addr: 0x1_0000,
            bytes: {
                let mut b = vec![9];
                b.extend_from_slice(&merged);
                b
            },
        }];
        let mut two_segments = base.clone();
        two_segments.data = vec![
            DataSegment {
                addr: 0x1_0000,
                bytes: vec![9],
            },
            DataSegment {
                addr: addr2,
                bytes: vec![7],
            },
        ];
        let cfg = CpuConfig::default();
        assert_ne!(
            Session::builder(&one_segment, &cfg).fingerprint(),
            Session::builder(&two_segments, &cfg).fingerprint(),
            "segment layout must be part of the cache key"
        );
    }

    #[test]
    fn cache_shares_sessions_per_key() {
        let cache = SessionCache::new();
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let a = cache
            .session("w", &p, &cfg, |b| b.max_cycles(1_000_000))
            .unwrap();
        let b = cache
            .session("w", &p, &cfg, |b| b.max_cycles(1_000_000))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        // A different configuration gets its own session.
        let c = cache
            .session("w", &p, &cfg.clone().with_store_queue(16), |b| {
                b.max_cycles(1_000_000)
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // A different workload id never collides, even with equal contexts.
        let d = cache
            .session("x", &p, &cfg, |b| b.max_cycles(1_000_000))
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(!cache.is_empty());
    }

    #[test]
    fn disk_cache_round_trips_the_golden_run() {
        let dir = temp_dir("roundtrip");
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let tune = |b: SessionBuilder| b.checkpoints(small_policy()).max_cycles(1_000_000);

        let first = SessionCache::with_disk_dir(&dir);
        let s1 = first.session("tiny", &p, &cfg, tune).unwrap();
        let faults = s1.fault_list(Structure::RegisterFile, 50, 13).unwrap();
        let r1 = s1.campaign(&faults).unwrap();
        assert_eq!(s1.golden_builds(), 1);

        // A second cache (standing in for a second process) loads the golden
        // run — checkpoint store included — without simulating.
        let second = SessionCache::with_disk_dir(&dir);
        let s2 = second.session("tiny", &p, &cfg, tune).unwrap();
        let golden2 = s2.golden().unwrap().clone();
        assert_eq!(s2.golden_builds(), 0, "disk hit must not re-simulate");
        assert_eq!(golden2.result, s1.golden().unwrap().result);
        assert_eq!(golden2.timeout_cycles, s1.golden().unwrap().timeout_cycles);
        let (ck1, ck2) = (s1.golden_checkpoints().unwrap(), golden2.checkpoints);
        assert_eq!(ck1.store, ck2.store);
        assert_eq!(ck1.l1d, ck2.l1d);
        // And campaigns over the restored store classify identically.
        let r2 = s2.campaign(&faults).unwrap();
        assert_eq!(r1.outcomes, r2.outcomes);

        // A corrupt cache file falls back to rebuilding.
        let file = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        fs::write(&file, b"garbage").unwrap();
        let third = SessionCache::with_disk_dir(&dir);
        let s3 = third.session("tiny", &p, &cfg, tune).unwrap();
        assert_eq!(s3.golden().unwrap().result, golden2.result);
        assert_eq!(s3.golden_builds(), 1);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_delta_golden_is_compact_and_round_trips() {
        // The tiny program writes one 64-byte buffer out of a 64 KB+ memory,
        // so delta-encoded snapshots must beat the dense representation by
        // far more than the acceptance bar of 2x — on disk and in memory.
        let dir = temp_dir("deltasize");
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let tune = |b: SessionBuilder| b.checkpoints(small_policy()).max_cycles(1_000_000);

        let cache = SessionCache::with_disk_dir(&dir);
        let s1 = cache.session("tiny", &p, &cfg, tune).unwrap();
        s1.golden().unwrap();
        let ck = s1.golden_checkpoints().unwrap();
        // The store's footprint with every snapshot's memory stored densely.
        let dense: usize = ck
            .store
            .snapshots()
            .map(|s| s.footprint_bytes() - s.memory_delta_bytes() + s.memory_dense_bytes())
            .sum();
        let delta = ck.store.footprint_bytes();
        // The session's footprint counts the store and the L1D log.
        assert_eq!(
            delta + ck.l1d.footprint_bytes(),
            s1.checkpoint_footprint_bytes()
        );
        assert!(
            delta * 2 <= dense,
            "in-memory store: delta {delta} vs dense {dense}"
        );

        let file = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let file_len = fs::metadata(&file).unwrap().len() as usize;
        assert!(
            file_len * 2 <= dense,
            "on-disk .golden: {file_len} bytes vs dense {dense}"
        );

        // The compact file restores byte-identically in a fresh cache.
        let second = SessionCache::with_disk_dir(&dir);
        let s2 = second.session("tiny", &p, &cfg, tune).unwrap();
        assert_eq!(s2.golden().unwrap(), s1.golden().unwrap());
        assert_eq!(s2.golden_builds(), 0);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_golden_is_quarantined_counted_and_rebuilt() {
        let dir = temp_dir("checksum-reject");
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let tune = |b: SessionBuilder| b.checkpoints(small_policy()).max_cycles(1_000_000);

        let first = SessionCache::with_disk_dir(&dir);
        let s1 = first.session("tiny", &p, &cfg, tune).unwrap();
        let golden1 = s1.golden().unwrap().clone();
        assert_eq!(first.artifact_rejects(), 0);

        // Flip one payload bit: the header still matches, so the file claims
        // to be this exact artifact — the checksum must catch it.
        let file = dir.join(golden_file_name("tiny", s1.fingerprint()));
        let mut bytes = fs::read(&file).unwrap();
        let mid = GOLDEN_HEADER_LEN + (bytes.len() - GOLDEN_HEADER_LEN - GOLDEN_TRAILER_LEN) / 2;
        bytes[mid] ^= 0x01;
        fs::write(&file, &bytes).unwrap();

        let second = SessionCache::with_disk_dir(&dir);
        let s2 = second.session("tiny", &p, &cfg, tune).unwrap();
        assert_eq!(s2.golden().unwrap(), &golden1, "rebuild matches original");
        assert_eq!(s2.golden_builds(), 1, "the corrupt file must not be used");
        assert_eq!(second.artifact_rejects(), 1);
        assert_eq!(s2.artifact_rejects(), 1, "session shares the counter");
        // The rejected bytes were quarantined, not destroyed; the rebuild
        // then re-persisted a fresh artifact next to them.
        let corrupt = {
            let mut os = file.as_os_str().to_owned();
            os.push(".corrupt");
            PathBuf::from(os)
        };
        assert_eq!(fs::read(&corrupt).unwrap(), bytes);
        let third = SessionCache::with_disk_dir(&dir);
        let s3 = third.session("tiny", &p, &cfg, tune).unwrap();
        assert_eq!(s3.golden().unwrap(), &golden1);
        assert_eq!(s3.golden_builds(), 0, "the re-persisted artifact is live");
        assert_eq!(third.artifact_rejects(), 0);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_golden_with_a_valid_checksum_is_quarantined() {
        let dir = temp_dir("decode-reject");
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let tune = |b: SessionBuilder| b.checkpoints(small_policy()).max_cycles(1_000_000);

        let first = SessionCache::with_disk_dir(&dir);
        let s1 = first.session("tiny", &p, &cfg, tune).unwrap();
        let golden1 = s1.golden().unwrap().clone();
        // A payload the decoder rejects (here: a trailing byte) behind a
        // checksum that matches it, as a broken writer would produce.
        let file = dir.join(golden_file_name("tiny", s1.fingerprint()));
        let bytes = fs::read(&file).unwrap();
        let mut forged = bytes[..bytes.len() - GOLDEN_TRAILER_LEN].to_vec();
        forged.push(0);
        (GOLDEN.checksum)(&forged).encode(&mut forged);
        fs::write(&file, &forged).unwrap();

        let second = SessionCache::with_disk_dir(&dir);
        let s2 = second.session("tiny", &p, &cfg, tune).unwrap();
        assert_eq!(s2.golden().unwrap(), &golden1, "rebuild matches original");
        assert_eq!(
            s2.golden_builds(),
            1,
            "the undecodable file must not be used"
        );
        assert_eq!(second.artifact_rejects(), 1);
        let mut corrupt = file.as_os_str().to_owned();
        corrupt.push(".corrupt");
        assert_eq!(fs::read(PathBuf::from(corrupt)).unwrap(), forged);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn golden_whose_l1d_snapshot_has_a_wrong_byte_count_is_quarantined() {
        use merlin_isa::binio::{decode_from_slice, encode_to_vec};
        let dir = temp_dir("l1d-bytes-reject");
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let tune = |b: SessionBuilder| b.checkpoints(small_policy()).max_cycles(1_000_000);

        let first = SessionCache::with_disk_dir(&dir);
        let s1 = first.session("tiny", &p, &cfg, tune).unwrap();
        let golden1 = s1.golden().unwrap().clone();
        // The last checkpoint, which every load replays from.  Its L1D
        // snapshot is a line count, that many 25-byte tag records, and a
        // byte vector of `lines × line_bytes`; forge one line's bytes away,
        // keeping the vector's own length prefix consistent.
        let last = s1
            .golden_checkpoints()
            .unwrap()
            .store
            .snapshots()
            .last()
            .unwrap()
            .clone();
        let state = encode_to_vec(&last);
        let line_bytes = cfg.l1d.line_bytes as usize;
        let word = |at: usize| u64::from_le_bytes(state[at..at + 8].try_into().unwrap()) as usize;
        let (count_at, lines) = (0..state.len() - 8)
            .map(|at| (at, word(at)))
            .find(|&(at, n)| {
                let bytes_at = at + 8 + 25 * n;
                (1..=cfg.l1d.lines()).contains(&n)
                    && bytes_at + 8 <= state.len()
                    && word(bytes_at) == n * line_bytes
            })
            .expect("the last checkpoint holds L1D lines");
        let bytes_at = count_at + 8 + 25 * lines;
        let mut forged = state[..bytes_at].to_vec();
        ((lines - 1) * line_bytes).encode(&mut forged);
        forged.extend_from_slice(&state[bytes_at + 8..bytes_at + 8 + (lines - 1) * line_bytes]);
        forged.extend_from_slice(&state[bytes_at + 8 + lines * line_bytes..]);
        let decoded: merlin_cpu::CpuState = decode_from_slice(&forged).unwrap();
        assert!(!decoded.fits(&cfg, last.memory_dense_bytes()));

        // Splice the forged checkpoint in behind a checksum that matches.
        let file = dir.join(golden_file_name("tiny", s1.fingerprint()));
        let bytes = fs::read(&file).unwrap();
        let at = (bytes.windows(state.len()).rposition(|w| w == state)).unwrap();
        let mut spliced = bytes[..at].to_vec();
        spliced.extend_from_slice(&forged);
        spliced.extend_from_slice(&bytes[at + state.len()..bytes.len() - GOLDEN_TRAILER_LEN]);
        (GOLDEN.checksum)(&spliced).encode(&mut spliced);
        fs::write(&file, &spliced).unwrap();

        let second = SessionCache::with_disk_dir(&dir);
        let s2 = second.session("tiny", &p, &cfg, tune).unwrap();
        assert_eq!(s2.golden().unwrap(), &golden1, "rebuild matches original");
        assert_eq!(s2.golden_builds(), 1, "the forged file must not be used");
        assert_eq!(second.artifact_rejects(), 1);
        let mut corrupt = file.as_os_str().to_owned();
        corrupt.push(".corrupt");
        assert_eq!(fs::read(PathBuf::from(corrupt)).unwrap(), spliced);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_version_files_are_silent_misses_not_corruption() {
        let dir = temp_dir("version-miss");
        let p = tiny_program();
        let cfg = CpuConfig::default();
        let tune = |b: SessionBuilder| b.checkpoints(small_policy()).max_cycles(1_000_000);

        let first = SessionCache::with_disk_dir(&dir);
        let s1 = first.session("tiny", &p, &cfg, tune).unwrap();
        s1.golden().unwrap();
        // Rewrite the version field to the previous format's.
        let file = dir.join(golden_file_name("tiny", s1.fingerprint()));
        let mut bytes = fs::read(&file).unwrap();
        bytes[GOLDEN.magic.len()..GOLDEN.magic.len() + 4]
            .copy_from_slice(&(GOLDEN_VERSION - 1).to_le_bytes());
        fs::write(&file, &bytes).unwrap();

        let second = SessionCache::with_disk_dir(&dir);
        let s2 = second.session("tiny", &p, &cfg, tune).unwrap();
        s2.golden().unwrap();
        assert_eq!(s2.golden_builds(), 1, "old version is a miss");
        assert_eq!(second.artifact_rejects(), 0, "a miss is not corruption");
        let mut corrupt_os = file.as_os_str().to_owned();
        corrupt_os.push(".corrupt");
        assert!(!PathBuf::from(corrupt_os).exists());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ext_slots_cache_by_type() {
        let session = test_session();
        let mut calls = 0;
        let a: Arc<u64> = session
            .ext_get_or_try_init::<u64, (), _>(|_| {
                calls += 1;
                Ok(41)
            })
            .unwrap();
        let b: Arc<u64> = session
            .ext_get_or_try_init::<u64, (), _>(|_| {
                calls += 1;
                Ok(99)
            })
            .unwrap();
        assert_eq!((*a, *b, calls), (41, 41, 1));
        // Errors are not cached.
        let err: Result<Arc<String>, &str> = session.ext_get_or_try_init(|_| Err("nope"));
        assert!(err.is_err());
        let ok: Arc<String> = session
            .ext_get_or_try_init::<String, (), _>(|_| Ok("yes".into()))
            .unwrap();
        assert_eq!(&*ok, "yes");
    }
}
