//! End-to-end MeRLiN campaigns: preprocessing (ACE-like profiling + initial
//! fault list), fault-list reduction, injection of the representatives and
//! extrapolation of their effects to the whole group, plus the comprehensive
//! baseline campaign used for accuracy comparisons.

use crate::grouping::{reduce_fault_list, FaultListReduction};
use merlin_ace::{AceAnalysis, AceError, VulnerableIntervals};
use merlin_cpu::{CpuConfig, FaultSpec, Structure};
use merlin_inject::{
    generate_fault_list, CampaignError, Classification, FaultEffect, GoldenRun, Session,
    TruncatedEffect,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-fault effect after extrapolation (every fault of a sub-group inherits
/// its representative's observed effect; ACE-pruned faults are Masked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtrapolatedOutcome {
    /// The fault.
    pub fault: FaultSpec,
    /// Its (extrapolated or directly observed) effect.
    pub effect: FaultEffect,
    /// `true` if this fault was actually injected (it was a representative).
    pub injected: bool,
}

/// Result of one MeRLiN campaign on one (benchmark, structure, configuration)
/// triple.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MerlinReport {
    /// Target structure.
    pub structure: Structure,
    /// Size of the initial statistical fault list.
    pub initial_faults: usize,
    /// Faults pruned by the static liveness analysis before any dynamic
    /// profile was consulted (register-file faults into identity entries of
    /// architectural registers the program text never mentions).
    #[serde(default)]
    pub static_pruned: usize,
    /// Faults pruned by the ACE-like step.
    pub ace_pruned: usize,
    /// Faults remaining after the ACE-like step.
    pub post_ace_faults: usize,
    /// Number of (RIP, uPC) groups.
    pub groups: usize,
    /// Number of injections actually performed (representatives).
    pub injections: usize,
    /// Average step-1 group size.
    pub mean_group_size: f64,
    /// Extrapolated classification over the full initial list.
    pub classification: Classification,
    /// Classification restricted to the post-ACE fault list (used by the
    /// Figure 14 comparison).
    pub post_ace_classification: Classification,
    /// Per-representative observed effects keyed by sub-group index order.
    pub representative_effects: Vec<FaultEffect>,
    /// The ACE-like AVF upper bound of the structure.
    pub ace_avf: f64,
    /// Golden-run cycle count.
    pub golden_cycles: u64,
    /// Speedup of the ACE-like step alone.
    pub speedup_ace: f64,
    /// Final speedup (initial faults / injections).
    pub speedup_total: f64,
}

impl MerlinReport {
    /// The AVF MeRLiN reports (non-masked fraction of the initial list).
    pub fn avf(&self) -> f64 {
        self.classification.avf()
    }
}

/// A full MeRLiN campaign plus everything needed to evaluate it against the
/// baselines (the reduction itself and the golden run are kept).
#[derive(Debug, Clone)]
pub struct MerlinCampaign {
    /// The target structure.
    pub structure: Structure,
    /// The reduction produced in phase 2.
    pub reduction: FaultListReduction,
    /// The golden run used for classification.
    pub golden: GoldenRun,
    /// The initial statistical fault list.
    pub initial_faults: Vec<FaultSpec>,
    /// Extrapolated outcome for every initial fault.
    pub outcomes: Vec<ExtrapolatedOutcome>,
    /// The report summarising the campaign.
    pub report: MerlinReport,
}

/// Errors from MeRLiN campaign execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MerlinError {
    /// The underlying golden/profiling run failed.
    Preprocessing(String),
}

impl std::fmt::Display for MerlinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MerlinError::Preprocessing(e) => write!(f, "MeRLiN preprocessing failed: {e}"),
        }
    }
}

impl std::error::Error for MerlinError {}

impl From<CampaignError> for MerlinError {
    fn from(e: CampaignError) -> Self {
        MerlinError::Preprocessing(e.to_string())
    }
}

impl From<AceError> for MerlinError {
    fn from(e: AceError) -> Self {
        MerlinError::Preprocessing(e.to_string())
    }
}

/// Generates the initial statistical fault list for `structure` given the
/// golden execution length (phase 1, task 2 of the paper).
pub fn initial_fault_list(
    cfg: &CpuConfig,
    structure: Structure,
    golden_cycles: u64,
    count: usize,
    seed: u64,
) -> Vec<FaultSpec> {
    generate_fault_list(
        structure,
        cfg.structure_entries(structure),
        golden_cycles,
        count,
        seed,
    )
}

/// The methodology proper, over a session: reduce, inject representatives,
/// extrapolate.  The engine behind
/// [`SessionMethodology`](crate::SessionMethodology).
pub(crate) fn merlin_over_session(
    session: &Session,
    structure: Structure,
    ace: &AceAnalysis,
    initial: &[FaultSpec],
) -> Result<MerlinCampaign, MerlinError> {
    let golden = session.golden()?;
    let intervals = ace.structure(structure);

    // Phase 2a: the static prune.  A register-file fault into the identity
    // entry of an architectural register the program text never mentions is
    // provably Masked, so it never reaches the dynamic ACE-like step.
    let analysis = session.analysis();
    let (static_dead, dynamic): (Vec<FaultSpec>, Vec<FaultSpec>) =
        initial.iter().copied().partition(|f| {
            f.structure == Structure::RegisterFile && analysis.rf_entry_statically_dead(f.entry)
        });
    let reduction = reduce_fault_list(&dynamic, intervals);

    // Phase 3: inject only the representatives.
    let representatives = reduction.reduced_fault_list();
    let rep_result = session.campaign(&representatives)?;
    let rep_effects: HashMap<FaultSpec, FaultEffect> = rep_result
        .outcomes
        .iter()
        .map(|o| (o.fault, o.effect))
        .collect();

    // Extrapolate: pruned faults are Masked, grouped faults inherit their
    // representative's effect.
    let mut outcomes = Vec::with_capacity(initial.len());
    let mut classification = Classification::default();
    let mut post_ace_classification = Classification::default();
    for &fault in &static_dead {
        classification.record(FaultEffect::Masked, 1);
        outcomes.push(ExtrapolatedOutcome {
            fault,
            effect: FaultEffect::Masked,
            injected: false,
        });
    }
    for &fault in &reduction.ace_masked {
        classification.record(FaultEffect::Masked, 1);
        outcomes.push(ExtrapolatedOutcome {
            fault,
            effect: FaultEffect::Masked,
            injected: false,
        });
    }
    let mut representative_effects = Vec::new();
    for group in &reduction.groups {
        for sub in &group.subgroups {
            let effect = rep_effects[&sub.representative];
            representative_effects.push(effect);
            for f in &sub.faults {
                classification.record(effect, 1);
                post_ace_classification.record(effect, 1);
                outcomes.push(ExtrapolatedOutcome {
                    fault: f.fault,
                    effect,
                    injected: f.fault == sub.representative,
                });
            }
        }
    }

    // Speedups over the *full* initial list: the static prune removes
    // faults before the ACE-like step, so both numerators start from
    // `initial.len()`, not from the dynamic remainder.
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            num as f64
        } else {
            num as f64 / den as f64
        }
    };
    let report = MerlinReport {
        structure,
        initial_faults: initial.len(),
        static_pruned: static_dead.len(),
        ace_pruned: reduction.ace_masked.len(),
        post_ace_faults: reduction.post_ace_faults(),
        groups: reduction.groups.len(),
        injections: reduction.injections(),
        mean_group_size: reduction.mean_group_size(),
        classification,
        post_ace_classification,
        representative_effects,
        ace_avf: intervals.ace_avf(),
        golden_cycles: golden.result.cycles,
        speedup_ace: ratio(initial.len(), reduction.post_ace_faults()),
        speedup_total: ratio(initial.len(), reduction.injections()),
    };
    Ok(MerlinCampaign {
        structure,
        reduction,
        golden: golden.clone(),
        initial_faults: initial.to_vec(),
        outcomes,
        report,
    })
}

/// Flattens a reduction back into the post-ACE fault list (every fault that
/// survived the pruning step).
pub(crate) fn post_ace_fault_list(reduction: &FaultListReduction) -> Vec<FaultSpec> {
    reduction
        .groups
        .iter()
        .flat_map(|g| {
            g.subgroups
                .iter()
                .flat_map(|s| s.faults.iter().map(|f| f.fault))
        })
        .collect()
}

/// Truncated-run classification (§4.4.3.4, Table 4): the faulty run is
/// compared against the golden run at the end of a truncated interval; faults
/// that are still architecturally live are `Unknown`.
///
/// A pure function of the fault's observed full-run `effect` (from a
/// campaign over the same golden run), the fault itself, the structure's
/// vulnerable `intervals` and the truncation horizon.
pub fn classify_truncated(
    effect: FaultEffect,
    fault: FaultSpec,
    intervals: &VulnerableIntervals,
    horizon_cycles: u64,
) -> TruncatedEffect {
    // A fault injected after the horizon is masked within the interval.
    if fault.cycle > horizon_cycles {
        return TruncatedEffect::Masked;
    }
    match effect {
        FaultEffect::Crash => TruncatedEffect::Crash,
        FaultEffect::Assert => TruncatedEffect::Assert,
        FaultEffect::Due => TruncatedEffect::Due,
        FaultEffect::Masked => match intervals.lookup(fault.entry, fault.cycle) {
            // Read after the horizon: whether it stays masked is unknown.
            Some(iv) if iv.end > horizon_cycles => TruncatedEffect::Unknown,
            // Never read, or consumed within the interval without
            // architectural effect.
            _ => TruncatedEffect::Masked,
        },
        // SDC or Timeout manifest only after the truncation horizon in the
        // paper's setting; before the horizon their eventual fate is unknown.
        FaultEffect::Sdc | FaultEffect::Timeout => TruncatedEffect::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionMethodology;
    use merlin_ace::SessionAce;
    use merlin_workloads::workload_by_name;

    fn small_cfg() -> CpuConfig {
        CpuConfig::default().with_phys_regs(64).with_store_queue(16)
    }

    fn small_session(name: &str) -> Session {
        let w = workload_by_name(name).unwrap();
        Session::builder(&w.program, &small_cfg())
            .max_cycles(50_000_000)
            .threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn merlin_campaign_accounts_for_every_fault() {
        let session = small_session("stringsearch");
        let campaign = session.merlin(Structure::RegisterFile, 400, 7).unwrap();
        let r = &campaign.report;
        assert_eq!(r.initial_faults, 400);
        assert_eq!(r.static_pruned + r.ace_pruned + r.post_ace_faults, 400);
        assert!(
            r.static_pruned > 0,
            "the static prune found no dead register-file site in 400 samples"
        );
        assert_eq!(r.classification.total(), 400);
        assert_eq!(campaign.outcomes.len(), 400);
        assert!(r.injections <= r.post_ace_faults);
        assert!(r.injections >= r.groups);
        assert!(r.speedup_total >= r.speedup_ace);
        assert!(r.speedup_ace >= 1.0);
        // Extrapolation bookkeeping: injected representatives equal the
        // reported injection count.
        assert_eq!(
            campaign.outcomes.iter().filter(|o| o.injected).count(),
            r.injections
        );
    }

    #[test]
    fn merlin_matches_comprehensive_campaign_closely() {
        let session = small_session("sha");
        let initial = session
            .fault_list(Structure::RegisterFile, 500, 13)
            .unwrap();
        let merlin = session
            .merlin_with_faults(Structure::RegisterFile, &initial)
            .unwrap();
        let comprehensive = session.comprehensive(&initial).unwrap();
        let inaccuracy = merlin
            .report
            .classification
            .max_inaccuracy(&comprehensive.classification);
        assert!(
            inaccuracy < 6.0,
            "MeRLiN vs comprehensive inaccuracy {inaccuracy:.2} percentile units\nmerlin: {}\nbaseline: {}",
            merlin.report.classification,
            comprehensive.classification
        );
        // And it must be much cheaper.
        assert!(merlin.report.injections * 3 < initial.len());
        // Both phases shared one golden simulation.
        assert_eq!(session.golden_builds(), 1);
    }

    #[test]
    fn store_queue_campaign_runs() {
        let session = small_session("qsort");
        let campaign = session.merlin(Structure::StoreQueue, 300, 7).unwrap();
        assert_eq!(campaign.report.classification.total(), 300);
        assert!(campaign.report.speedup_total > 1.0);
    }

    #[test]
    fn classify_truncated_covers_every_branch() {
        let session = small_session("stringsearch");
        let ace = session.ace_profile().unwrap();
        let golden_cycles = session.golden().unwrap().result.cycles;
        let horizon = golden_cycles / 2;
        let faults = session
            .fault_list(Structure::RegisterFile, 300, 23)
            .unwrap();
        let outcomes = session.campaign(&faults).unwrap().outcomes;
        let intervals = ace.structure(Structure::RegisterFile);
        let mut seen: HashMap<TruncatedEffect, u64> = HashMap::new();
        for o in &outcomes {
            let fault = o.fault;
            let effect = classify_truncated(o.effect, fault, intervals, horizon);
            *seen.entry(effect).or_default() += 1;
            // Branch contracts, checked per fault:
            if fault.cycle > horizon {
                assert_eq!(effect, TruncatedEffect::Masked, "{fault}: past the horizon");
            }
            let covering = intervals.lookup(fault.entry, fault.cycle);
            if covering.is_none() && fault.cycle <= horizon {
                // ACE-pruned faults inside the horizon are really masked.
                assert_eq!(
                    effect,
                    TruncatedEffect::Masked,
                    "{fault}: outside intervals"
                );
            }
            if effect == TruncatedEffect::Unknown {
                // Unknown requires an interval that outlives the horizon or
                // a fault whose eventual fate (SDC/Timeout) manifests later.
                assert!(fault.cycle <= horizon, "{fault}");
            }
        }
        // The dominant classes must actually occur on a real workload.
        assert!(seen[&TruncatedEffect::Masked] > 0);
        assert!(
            seen.get(&TruncatedEffect::Unknown).copied().unwrap_or(0) > 0,
            "no fault was live across the horizon: {seen:?}"
        );
        // A fault injected after the horizon is masked by definition, and
        // its campaign outcome agrees.
        let late = FaultSpec::new(Structure::RegisterFile, 0, 1, horizon + 1);
        let late_effect = session.campaign(&[late]).unwrap().outcomes[0].effect;
        assert_eq!(
            classify_truncated(late_effect, late, intervals, horizon),
            TruncatedEffect::Masked
        );
    }
}
