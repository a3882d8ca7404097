//! Statistical fault sampling following Leveugle et al. (DATE 2009), the
//! procedure the paper uses to size its 60,000-fault (0.63% error margin,
//! 99.8% confidence) and 600,000-fault (0.19% margin) campaigns.

use merlin_cpu::{FaultSpec, Structure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Statistical parameters of an injection campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingPlan {
    /// Confidence level in (0, 1), e.g. 0.998.
    pub confidence: f64,
    /// Error margin in (0, 1), e.g. 0.0063.
    pub error_margin: f64,
}

impl SamplingPlan {
    /// The paper's baseline plan: 99.8% confidence, 0.63% error margin
    /// (≈60,000 faults for the populations considered there).
    pub fn paper_baseline() -> Self {
        SamplingPlan {
            confidence: 0.998,
            error_margin: 0.0063,
        }
    }

    /// The paper's scaling-study plan: 99.8% confidence, 0.19% error margin
    /// (≈600,000 faults).
    pub fn paper_scaled() -> Self {
        SamplingPlan {
            confidence: 0.998,
            error_margin: 0.0019,
        }
    }

    /// Number of faults required for a population of `population` possible
    /// (bit, cycle) fault sites.
    ///
    /// Uses the finite-population corrected formula
    /// `n = N / (1 + e²(N−1)/(t²·p(1−p)))` with `p = 0.5`.
    pub fn sample_size(&self, population: u64) -> u64 {
        sample_size(population, self.confidence, self.error_margin)
    }
}

/// Inverse standard-normal CDF (probit) via Acklam's rational approximation;
/// accurate to ~1e-9 over (0, 1), far more than sampling needs.
pub fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit argument must be in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let p_high = 1.0 - p_low;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= p_high {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The two-sided z-score ("cut-off point" t in Leveugle et al.) for a given
/// confidence level.
pub fn z_score(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    probit(0.5 + confidence / 2.0)
}

/// Finite-population sample size for proportion estimation with worst-case
/// variance (`p = 0.5`).
pub fn sample_size(population: u64, confidence: f64, error_margin: f64) -> u64 {
    assert!(error_margin > 0.0 && error_margin < 1.0);
    let n = population as f64;
    if population == 0 {
        return 0;
    }
    let t = z_score(confidence);
    let p = 0.5;
    let denom = 1.0 + error_margin * error_margin * (n - 1.0) / (t * t * p * (1.0 - p));
    (n / denom).ceil() as u64
}

/// Number of possible fault sites (bit × cycle pairs) for a structure with
/// `bits` storage bits over an execution of `cycles` cycles.
pub fn fault_population(bits: u64, cycles: u64) -> u64 {
    bits.saturating_mul(cycles)
}

/// Generates a uniformly sampled initial fault list: each fault picks an
/// entry, a bit within the entry and a cycle in `[1, cycles]`, independently
/// and uniformly, from a seeded deterministic RNG.
pub fn generate_fault_list(
    structure: Structure,
    entries: usize,
    cycles: u64,
    count: usize,
    seed: u64,
) -> Vec<FaultSpec> {
    assert!(entries > 0, "structure must have at least one entry");
    assert!(cycles > 0, "execution must last at least one cycle");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            FaultSpec::new(
                structure,
                rng.gen_range(0..entries),
                rng.gen_range(0..structure.bits_per_entry()) as u8,
                rng.gen_range(1..=cycles),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probit_matches_known_quantiles() {
        assert!((probit(0.5)).abs() < 1e-9);
        assert!((probit(0.975) - 1.959_964).abs() < 1e-4);
        assert!((probit(0.995) - 2.575_829).abs() < 1e-4);
        assert!((probit(0.999) - 3.090_232).abs() < 1e-4);
        assert!((probit(0.025) + 1.959_964).abs() < 1e-4);
    }

    #[test]
    fn z_scores_for_common_confidences() {
        assert!((z_score(0.95) - 1.96).abs() < 0.01);
        assert!((z_score(0.99) - 2.576).abs() < 0.01);
        assert!((z_score(0.998) - 3.09).abs() < 0.01);
    }

    #[test]
    fn paper_sample_sizes_are_reproduced() {
        // §3.1.2: 256 64-bit registers over 100M cycles, 2.88% margin at 99%
        // confidence → about 2,000 faults.
        let population = fault_population(256 * 64, 100_000_000);
        let n = sample_size(population, 0.99, 0.0288);
        assert!((1_900..=2_100).contains(&n), "got {n}");
        // 0.63% margin at 99.8% confidence → about 60,000 faults.
        let n = SamplingPlan::paper_baseline().sample_size(population);
        assert!((58_000..=62_000).contains(&n), "got {n}");
        // 0.19% margin at 99.8% confidence → several hundred thousand.
        let n = SamplingPlan::paper_scaled().sample_size(population);
        assert!((550_000..=700_000).contains(&n), "got {n}");
    }

    #[test]
    fn probit_tail_behaviour() {
        // Deep tails stay finite, symmetric and monotone — the regime the
        // rational approximation switches branches in (p < 0.02425).
        for p in [1e-12, 1e-9, 1e-6, 1e-3, 0.02, 0.024249, 0.024251] {
            let lo = probit(p);
            let hi = probit(1.0 - p);
            assert!(lo.is_finite() && hi.is_finite(), "p={p}");
            assert!(lo < 0.0 && hi > 0.0, "p={p}");
            // Symmetry of the standard normal: probit(p) == -probit(1-p).
            // Tolerance is bounded by the rounding of `1.0 - p` itself (an
            // absolute error of ~1e-16 in p maps to ~1e-5 in z at p=1e-12),
            // not by the approximation.
            assert!((lo + hi).abs() < 1e-4, "p={p}: {lo} vs {hi}");
        }
        // Monotonicity across the branch boundaries.
        let grid: Vec<f64> = [1e-9, 1e-6, 0.01, 0.024, 0.025, 0.3, 0.5, 0.7, 0.976, 0.999]
            .into_iter()
            .collect();
        for w in grid.windows(2) {
            assert!(probit(w[0]) < probit(w[1]), "{} vs {}", w[0], w[1]);
        }
        // Known deep-tail quantile: Φ⁻¹(1e-9) ≈ -5.9978.
        assert!((probit(1e-9) + 5.9978).abs() < 1e-3);
    }

    #[test]
    #[should_panic]
    fn probit_rejects_zero() {
        let _ = probit(0.0);
    }

    #[test]
    #[should_panic]
    fn probit_rejects_one() {
        let _ = probit(1.0);
    }

    #[test]
    fn z_scores_cover_the_common_confidence_levels() {
        for (confidence, expected) in [
            (0.80, 1.2816),
            (0.90, 1.6449),
            (0.95, 1.9600),
            (0.98, 2.3263),
            (0.99, 2.5758),
            (0.995, 2.8070),
            (0.998, 3.0902),
            (0.999, 3.2905),
        ] {
            let z = z_score(confidence);
            assert!(
                (z - expected).abs() < 1e-3,
                "z({confidence}) = {z}, expected {expected}"
            );
        }
    }

    #[test]
    fn sample_size_edge_populations() {
        // Tiny populations: never over-sampled, and a population of 1 needs
        // exactly 1 sample.
        assert_eq!(sample_size(0, 0.998, 0.0063), 0);
        assert_eq!(sample_size(1, 0.998, 0.0063), 1);
        for n in [2u64, 3, 10, 50] {
            let s = sample_size(n, 0.998, 0.0063);
            assert!(s >= 1 && s <= n, "population {n} -> sample {s}");
        }
        // Huge populations: the size converges to the infinite-population
        // limit t²p(1-p)/e² and stops growing.
        let plan = SamplingPlan::paper_baseline();
        let big = plan.sample_size(u64::MAX);
        let medium = plan.sample_size(1 << 50);
        let t = z_score(plan.confidence);
        let limit = (t * t * 0.25 / (plan.error_margin * plan.error_margin)).ceil() as u64;
        assert_eq!(big, medium, "saturated regime must be flat");
        assert!(big.abs_diff(limit) <= 1, "got {big}, limit {limit}");
        // The paper's population (see fault_population) sits below but near
        // the limit.
        assert!(plan.sample_size(fault_population(256 * 64, 100_000_000)) <= limit);
        // Saturating population arithmetic for absurd inputs.
        assert_eq!(fault_population(u64::MAX, 2), u64::MAX);
    }

    #[test]
    fn sample_size_is_monotone() {
        let population = fault_population(64 * 64, 10_000_000);
        let loose = sample_size(population, 0.95, 0.05);
        let tight = sample_size(population, 0.998, 0.0063);
        assert!(tight > loose);
        assert!(loose >= 1);
        // Small populations are never over-sampled.
        assert!(sample_size(100, 0.998, 0.0063) <= 100);
        assert_eq!(sample_size(0, 0.99, 0.01), 0);
    }

    #[test]
    fn fault_lists_are_deterministic_uniform_and_in_range() {
        let a = generate_fault_list(Structure::RegisterFile, 128, 50_000, 5_000, 42);
        let b = generate_fault_list(Structure::RegisterFile, 128, 50_000, 5_000, 42);
        assert_eq!(a, b);
        let c = generate_fault_list(Structure::RegisterFile, 128, 50_000, 5_000, 43);
        assert_ne!(a, c);
        for f in &a {
            assert!(f.entry < 128);
            assert!(f.bit < 64);
            assert!(f.cycle >= 1 && f.cycle <= 50_000);
            assert_eq!(f.structure, Structure::RegisterFile);
        }
        // Roughly uniform across entries: every quarter of the file gets a
        // reasonable share.
        let low = a.iter().filter(|f| f.entry < 32).count();
        assert!((900..=1_600).contains(&low), "got {low}");
    }
}
