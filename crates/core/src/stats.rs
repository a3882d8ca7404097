//! Theoretical analysis of MeRLiN's statistical behaviour (§4.4.5).
//!
//! A campaign of `F` independent injections is a binomial experiment; MeRLiN
//! replaces the per-fault outcomes of each group `i` (size `s_i`, per-fault
//! non-masking probability `p_i`) by a single representative whose outcome is
//! extrapolated to the whole group.  The section shows that the AVF estimator
//! keeps the same mean and a variance inflated by at most the group sizes —
//! still orders of magnitude below the mean.  This module reproduces those
//! formulas so the claim can be checked numerically against measured group
//! statistics.

/// One group's statistics: its size and its per-fault probability of
/// non-masking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupStat {
    /// Group size `s_i`.
    pub size: u64,
    /// Per-fault non-masking probability `p_i` (estimated from observed
    /// outcomes in evaluation mode, or assumed).
    pub p: f64,
}

/// Mean and variance of the AVF estimator of a comprehensive campaign and of
/// MeRLiN's extrapolated campaign over the same faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvfMoments {
    /// Total faults `F` (including the `m·F` faults pruned as Masked).
    pub total_faults: u64,
    /// Expected AVF of the comprehensive campaign (equals MeRLiN's).
    pub mean: f64,
    /// Variance of the comprehensive campaign's AVF estimator.
    pub variance_comprehensive: f64,
    /// Variance of MeRLiN's AVF estimator.
    pub variance_merlin: f64,
}

impl AvfMoments {
    /// Computes both estimators' moments from the group statistics and the
    /// number of ACE-pruned (guaranteed-masked) faults.
    ///
    /// The comprehensive estimator is `k = Σ_i Σ_j r_j / F`; MeRLiN's is
    /// `k_M = Σ_i s_i·r_i / F` with one Bernoulli draw per group.
    pub fn from_groups(groups: &[GroupStat], pruned_masked: u64) -> AvfMoments {
        let grouped: u64 = groups.iter().map(|g| g.size).sum();
        let total = grouped + pruned_masked;
        if total == 0 {
            return AvfMoments {
                total_faults: 0,
                mean: 0.0,
                variance_comprehensive: 0.0,
                variance_merlin: 0.0,
            };
        }
        let f = total as f64;
        let mean = groups.iter().map(|g| g.size as f64 * g.p).sum::<f64>() / f;
        let variance_comprehensive = groups
            .iter()
            .map(|g| g.size as f64 * g.p * (1.0 - g.p))
            .sum::<f64>()
            / (f * f);
        let variance_merlin = groups
            .iter()
            .map(|g| (g.size as f64) * (g.size as f64) * g.p * (1.0 - g.p))
            .sum::<f64>()
            / (f * f);
        AvfMoments {
            total_faults: total,
            mean,
            variance_comprehensive,
            variance_merlin,
        }
    }

    /// Ratio of MeRLiN's standard deviation to the comprehensive standard
    /// deviation (≥ 1; bounded by the maximum group size's square root).
    pub fn stddev_inflation(&self) -> f64 {
        if self.variance_comprehensive == 0.0 {
            1.0
        } else {
            (self.variance_merlin / self.variance_comprehensive).sqrt()
        }
    }
}

/// Estimates per-group non-masking probabilities from observed outcomes
/// (evaluation mode): `p_i` = non-masked fraction within the group.
pub fn group_stats_from_counts(counts: &[(u64, u64)]) -> Vec<GroupStat> {
    counts
        .iter()
        .map(|&(size, non_masked)| GroupStat {
            size,
            p: if size == 0 {
                0.0
            } else {
                non_masked as f64 / size as f64
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_are_identical_by_construction() {
        let groups = vec![
            GroupStat { size: 10, p: 0.0 },
            GroupStat { size: 20, p: 1.0 },
            GroupStat { size: 30, p: 0.5 },
        ];
        let m = AvfMoments::from_groups(&groups, 40);
        assert_eq!(m.total_faults, 100);
        // Mean AVF = (0 + 20 + 15) / 100.
        assert!((m.mean - 0.35).abs() < 1e-12);
        // Perfectly homogeneous groups (p = 0 or 1) contribute no variance.
        let only_homogeneous = AvfMoments::from_groups(
            &[
                GroupStat { size: 10, p: 0.0 },
                GroupStat { size: 20, p: 1.0 },
            ],
            0,
        );
        assert_eq!(only_homogeneous.variance_comprehensive, 0.0);
        assert_eq!(only_homogeneous.variance_merlin, 0.0);
        assert_eq!(only_homogeneous.stddev_inflation(), 1.0);
    }

    #[test]
    fn merlin_variance_is_inflated_by_group_size_but_stays_small() {
        // The paper's argument: with group sizes below ~100 and a 60K-fault
        // list, MeRLiN's variance stays 6–8 orders of magnitude below the
        // mean.
        let groups: Vec<GroupStat> = (0..1000)
            .map(|i| GroupStat {
                size: 5 + (i % 40),
                p: if i % 10 == 0 { 0.9 } else { 0.02 },
            })
            .collect();
        let pruned = 40_000u64;
        let m = AvfMoments::from_groups(&groups, pruned);
        assert!(m.variance_merlin >= m.variance_comprehensive);
        let max_size = groups.iter().map(|g| g.size).max().unwrap() as f64;
        assert!(m.stddev_inflation() <= max_size.sqrt() + 1e-9);
        // Variance is many orders of magnitude below the mean.
        assert!(m.variance_merlin < m.mean * 1e-3);
        assert!(m.mean > 0.0 && m.mean < 1.0);
    }

    #[test]
    fn group_stats_from_observed_counts() {
        let stats = group_stats_from_counts(&[(10, 5), (4, 0), (0, 0)]);
        assert_eq!(stats.len(), 3);
        assert!((stats[0].p - 0.5).abs() < 1e-12);
        assert_eq!(stats[1].p, 0.0);
        assert_eq!(stats[2].p, 0.0);
    }

    #[test]
    fn empty_input_is_well_behaved() {
        let m = AvfMoments::from_groups(&[], 0);
        assert_eq!(m.mean, 0.0);
        assert_eq!(m.total_faults, 0);
    }
}
