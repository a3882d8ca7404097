//! The Relyzer control-equivalence heuristic, re-implemented at the
//! microarchitecture level for the §4.4.4 / Figure 17 comparison.
//!
//! Relyzer groups the dynamic instances of a static instruction by the
//! control-flow path (depth 5) that leads to them and injects a single
//! randomly chosen *pilot* per path.  Applied to MeRLiN's post-ACE fault
//! list, the group key becomes (reading RIP, path signature) and — unlike
//! MeRLiN — there is no per-byte splitting and only one pilot per group.

use crate::grouping::GroupedFault;
use merlin_ace::VulnerableIntervals;
use merlin_cpu::FaultSpec;
use merlin_inject::{CampaignResult, Classification, FaultEffect};
use merlin_isa::Rip;
use std::collections::{BTreeMap, HashMap};

/// One control-equivalence group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlGroup {
    /// RIP of the reading static instruction.
    pub rip: Rip,
    /// Depth-5 control-flow-path signature.
    pub path_sig: u64,
    /// Faults in the group.
    pub faults: Vec<FaultSpec>,
    /// The single pilot injected for the group.
    pub pilot: FaultSpec,
}

/// The reduction produced by the control-equivalence heuristic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelyzerReduction {
    /// Faults pruned by the ACE-like step (shared with MeRLiN).
    pub ace_masked: Vec<FaultSpec>,
    /// Control-equivalence groups.
    pub groups: Vec<ControlGroup>,
}

impl RelyzerReduction {
    /// Number of injections (one pilot per group).
    pub fn injections(&self) -> usize {
        self.groups.len()
    }

    /// Total faults in the initial list.
    pub fn initial_faults(&self) -> usize {
        self.ace_masked.len() + self.groups.iter().map(|g| g.faults.len()).sum::<usize>()
    }

    /// Final speedup (initial faults / injections).
    pub fn total_speedup(&self) -> f64 {
        let inj = self.injections();
        if inj == 0 {
            self.initial_faults() as f64
        } else {
            self.initial_faults() as f64 / inj as f64
        }
    }

    /// Fraction of groups with more than `threshold` faults that have only a
    /// single pilot — the paper's explanation for Relyzer's inaccuracy
    /// (§4.4.4: 9% of large groups vs less than 2% for MeRLiN).
    pub fn large_single_pilot_fraction(&self, threshold: usize) -> f64 {
        let large: Vec<&ControlGroup> = self
            .groups
            .iter()
            .filter(|g| g.faults.len() > threshold)
            .collect();
        if large.is_empty() {
            0.0
        } else {
            // Every control group has exactly one pilot by construction.
            1.0
        }
    }
}

/// Groups a post-ACE fault list with the control-equivalence heuristic.
pub fn relyzer_reduce(initial: &[FaultSpec], intervals: &VulnerableIntervals) -> RelyzerReduction {
    let mut ace_masked = Vec::new();
    let mut by_key: BTreeMap<(Rip, u64), Vec<GroupedFault>> = BTreeMap::new();
    for &fault in initial {
        match intervals.lookup(fault.entry, fault.cycle) {
            None => ace_masked.push(fault),
            Some(iv) => by_key
                .entry((iv.rip, iv.path_sig))
                .or_default()
                .push(GroupedFault {
                    fault,
                    dyn_instance: iv.dyn_instance,
                    path_sig: iv.path_sig,
                }),
        }
    }
    let groups = by_key
        .into_iter()
        .map(|((rip, path_sig), faults)| {
            // Deterministic "random" pilot: the fault with the smallest
            // (cycle, entry, bit) tuple.
            let pilot = faults
                .iter()
                .map(|f| f.fault)
                .min_by_key(|f| (f.cycle, f.entry, f.bit))
                .expect("group is never empty");
            ControlGroup {
                rip,
                path_sig,
                faults: faults.into_iter().map(|f| f.fault).collect(),
                pilot,
            }
        })
        .collect();
    RelyzerReduction { ace_masked, groups }
}

/// The pilot list of a reduction (one injection per control group).
pub(crate) fn relyzer_pilots(reduction: &RelyzerReduction) -> Vec<FaultSpec> {
    reduction.groups.iter().map(|g| g.pilot).collect()
}

/// Extrapolates the injected pilot outcomes to the whole reduction.
pub(crate) fn relyzer_extrapolate(
    reduction: &RelyzerReduction,
    pilot_result: &CampaignResult,
) -> Classification {
    let effects: HashMap<FaultSpec, FaultEffect> = pilot_result
        .outcomes
        .iter()
        .map(|o| (o.fault, o.effect))
        .collect();
    let mut classification = Classification::default();
    classification.record(FaultEffect::Masked, reduction.ace_masked.len() as u64);
    for g in &reduction.groups {
        let effect = effects[&g.pilot];
        classification.record(effect, g.faults.len() as u64);
    }
    classification
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_ace::Interval;
    use merlin_cpu::Structure;

    fn repo() -> VulnerableIntervals {
        let mut r = VulnerableIntervals::new(Structure::RegisterFile, 8, 1000);
        // Two intervals of the same static reader reached through different
        // control paths, plus one different reader.
        r.push(
            0,
            Interval {
                start: 0,
                end: 100,
                rip: 5,
                upc: 0,
                dyn_instance: 0,
                path_sig: 111,
            },
        );
        r.push(
            0,
            Interval {
                start: 100,
                end: 200,
                rip: 5,
                upc: 0,
                dyn_instance: 1,
                path_sig: 222,
            },
        );
        r.push(
            1,
            Interval {
                start: 0,
                end: 200,
                rip: 9,
                upc: 0,
                dyn_instance: 0,
                path_sig: 111,
            },
        );
        r
    }

    #[test]
    fn groups_by_rip_and_path() {
        let faults = vec![
            FaultSpec::new(Structure::RegisterFile, 0, 0, 50),
            FaultSpec::new(Structure::RegisterFile, 0, 9, 60),
            FaultSpec::new(Structure::RegisterFile, 0, 0, 150),
            FaultSpec::new(Structure::RegisterFile, 1, 0, 50),
            FaultSpec::new(Structure::RegisterFile, 7, 0, 50), // pruned
        ];
        let red = relyzer_reduce(&faults, &repo());
        assert_eq!(red.ace_masked.len(), 1);
        // (rip 5, path 111), (rip 5, path 222), (rip 9, path 111).
        assert_eq!(red.groups.len(), 3);
        assert_eq!(red.injections(), 3);
        assert_eq!(red.initial_faults(), 5);
        // Unlike MeRLiN, faults in different bytes of the same group share a
        // single pilot.
        let g = red
            .groups
            .iter()
            .find(|g| g.rip == 5 && g.path_sig == 111)
            .unwrap();
        assert_eq!(g.faults.len(), 2);
        assert_eq!(g.pilot.cycle, 50);
        assert!((red.total_speedup() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn large_groups_have_single_pilots() {
        let faults: Vec<FaultSpec> = (0..150)
            .map(|i| FaultSpec::new(Structure::RegisterFile, 0, (i % 64) as u8, 1 + (i % 99)))
            .collect();
        let red = relyzer_reduce(&faults, &repo());
        assert_eq!(red.groups.len(), 1);
        assert_eq!(red.large_single_pilot_fraction(100), 1.0);
        assert_eq!(red.large_single_pilot_fraction(1000), 0.0);
    }
}
