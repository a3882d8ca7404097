//! Homogeneity of fault effects within MeRLiN groups (Eq. 1, §4.4.1).
//!
//! Homogeneity is an *evaluation* metric, not part of the methodology: it
//! requires injecting the whole post-ACE fault list (not just the
//! representatives) and measures how often all faults of a group really do
//! behave like their representative.

use crate::grouping::FaultListReduction;
use merlin_cpu::FaultSpec;
use merlin_inject::FaultEffect;
use std::collections::HashMap;

/// Homogeneity measurements for one reduction + full-injection pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Homogeneity {
    /// Eq. (1) over the six fine-grained classes of Table 2.
    pub fine_grained: f64,
    /// Eq. (1) with all non-masked classes merged (masked vs non-masked).
    pub coarse: f64,
    /// Fraction of groups whose faults all share exactly the same
    /// masked/non-masked outcome (the "perfect homogeneity" percentage at
    /// the bottom of Figure 7's bars).
    pub perfect_group_fraction: f64,
    /// Number of groups measured.
    pub groups: usize,
    /// Total faults measured (post-ACE).
    pub total_faults: usize,
}

/// Computes homogeneity from a reduction and the observed effect of every
/// post-ACE fault (as produced by a full injection of the remaining list).
///
/// Groups here are the *final* groups of the algorithm (byte sub-groups),
/// matching the paper's definition that all faults of a final group are
/// expected to behave identically.
pub fn homogeneity(
    reduction: &FaultListReduction,
    effects: &HashMap<FaultSpec, FaultEffect>,
) -> Homogeneity {
    let mut fine_weighted = 0.0;
    let mut coarse_weighted = 0.0;
    let mut perfect_groups = 0usize;
    let mut groups = 0usize;
    let mut total_faults = 0usize;
    for group in &reduction.groups {
        for sub in &group.subgroups {
            let outcomes: Vec<FaultEffect> = sub
                .faults
                .iter()
                .filter_map(|f| effects.get(&f.fault).copied())
                .collect();
            if outcomes.is_empty() {
                continue;
            }
            groups += 1;
            total_faults += outcomes.len();
            // Fine-grained dominant class.
            let mut counts: HashMap<FaultEffect, usize> = HashMap::new();
            for &e in &outcomes {
                *counts.entry(e).or_insert(0) += 1;
            }
            let dominant_fine = counts.values().copied().max().unwrap_or(0);
            fine_weighted += dominant_fine as f64;
            // Coarse dominant class (masked vs non-masked).
            let masked = outcomes
                .iter()
                .filter(|e| **e == FaultEffect::Masked)
                .count();
            let non_masked = outcomes.len() - masked;
            let dominant_coarse = masked.max(non_masked);
            coarse_weighted += dominant_coarse as f64;
            if masked == 0 || non_masked == 0 {
                perfect_groups += 1;
            }
        }
    }
    if total_faults == 0 {
        return Homogeneity {
            fine_grained: 1.0,
            coarse: 1.0,
            perfect_group_fraction: 1.0,
            groups: 0,
            total_faults: 0,
        };
    }
    Homogeneity {
        fine_grained: fine_weighted / total_faults as f64,
        coarse: coarse_weighted / total_faults as f64,
        perfect_group_fraction: perfect_groups as f64 / groups as f64,
        groups,
        total_faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::reduce_fault_list;
    use merlin_ace::{Interval, VulnerableIntervals};
    use merlin_cpu::Structure;

    fn setup() -> (FaultListReduction, Vec<FaultSpec>) {
        let mut repo = VulnerableIntervals::new(Structure::RegisterFile, 8, 1000);
        repo.push(
            0,
            Interval {
                start: 0,
                end: 1000,
                rip: 1,
                upc: 0,
                dyn_instance: 0,
                path_sig: 0,
            },
        );
        repo.push(
            1,
            Interval {
                start: 0,
                end: 1000,
                rip: 2,
                upc: 0,
                dyn_instance: 0,
                path_sig: 0,
            },
        );
        let faults: Vec<FaultSpec> = vec![
            FaultSpec::new(Structure::RegisterFile, 0, 0, 10),
            FaultSpec::new(Structure::RegisterFile, 0, 1, 20),
            FaultSpec::new(Structure::RegisterFile, 0, 2, 30),
            FaultSpec::new(Structure::RegisterFile, 0, 3, 40),
            FaultSpec::new(Structure::RegisterFile, 1, 8, 50),
            FaultSpec::new(Structure::RegisterFile, 1, 9, 60),
        ];
        (reduce_fault_list(&faults, &repo), faults)
    }

    #[test]
    fn perfectly_homogeneous_groups_score_one() {
        let (red, faults) = setup();
        let effects: HashMap<FaultSpec, FaultEffect> = faults
            .iter()
            .map(|&f| {
                let e = if f.entry == 0 {
                    FaultEffect::Sdc
                } else {
                    FaultEffect::Masked
                };
                (f, e)
            })
            .collect();
        let h = homogeneity(&red, &effects);
        assert!((h.fine_grained - 1.0).abs() < 1e-12);
        assert!((h.coarse - 1.0).abs() < 1e-12);
        assert!((h.perfect_group_fraction - 1.0).abs() < 1e-12);
        assert_eq!(h.total_faults, 6);
    }

    #[test]
    fn mixed_groups_reduce_homogeneity() {
        let (red, faults) = setup();
        // Entry-0 byte-0 group (4 faults): 3 SDC + 1 Masked; entry-1 group:
        // 2 Masked.
        let effects: HashMap<FaultSpec, FaultEffect> = faults
            .iter()
            .map(|&f| {
                let e = if f.entry == 0 && f.bit != 3 {
                    FaultEffect::Sdc
                } else {
                    FaultEffect::Masked
                };
                (f, e)
            })
            .collect();
        let h = homogeneity(&red, &effects);
        // Dominant classes: 3 of 4, and 2 of 2 → (3+2)/6.
        assert!((h.fine_grained - 5.0 / 6.0).abs() < 1e-12);
        assert!((h.coarse - 5.0 / 6.0).abs() < 1e-12);
        // One of the two groups is perfect.
        assert!((h.perfect_group_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_reduction_is_trivially_homogeneous() {
        let red = FaultListReduction::default();
        let h = homogeneity(&red, &HashMap::new());
        assert_eq!(h.groups, 0);
        assert_eq!(h.fine_grained, 1.0);
    }
}
