//! Reliability metrics and cost accounting: FIT rates (Figure 16), wall-clock
//! estimation-time projection (Figure 11) and the exhaustive-fault-list
//! comparison against Relyzer (Table 3).

use merlin_cpu::{CpuConfig, Structure};

/// Raw failure rate per bit used by the paper for Figure 16 (0.01 FIT/bit).
pub const RAW_FIT_PER_BIT: f64 = 0.01;

/// Number of fault-injectable storage bits of `structure` under `cfg`.
pub fn structure_bits(cfg: &CpuConfig, structure: Structure) -> u64 {
    match structure {
        Structure::RegisterFile => cfg.register_file_bits(),
        Structure::StoreQueue => cfg.store_queue_bits(),
        Structure::L1DCache => cfg.l1d_bits(),
    }
}

/// Failures-in-time rate of a structure: `AVF × raw FIT/bit × bits`
/// (Figure 16's metric).
pub fn fit_rate(avf: f64, bits: u64) -> f64 {
    avf * RAW_FIT_PER_BIT * bits as f64
}

/// Wall-clock projection of a sequential injection campaign, mirroring the
/// assumptions of Figure 11 and Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallClock {
    /// Number of injection runs.
    pub runs: u64,
    /// Simulated cycles per run.
    pub cycles_per_run: u64,
    /// Simulator throughput in cycles per second.
    pub cycles_per_second: f64,
}

impl WallClock {
    /// Total seconds of sequential simulation.
    pub fn seconds(&self) -> f64 {
        self.runs as f64 * self.cycles_per_run as f64 / self.cycles_per_second
    }

    /// Total months (30-day months, as the paper plots).
    pub fn months(&self) -> f64 {
        self.seconds() / (30.0 * 24.0 * 3600.0)
    }

    /// Total years.
    pub fn years(&self) -> f64 {
        self.seconds() / (365.0 * 24.0 * 3600.0)
    }
}

/// One row of the Table 3 comparison (method vs exhaustive fault list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExhaustiveComparison {
    /// Size of the exhaustive fault list at the method's abstraction level.
    pub exhaustive_faults: f64,
    /// Faults remaining for injection after the method's pruning.
    pub remaining_faults: f64,
    /// Gain: exhaustive / remaining.
    pub gain: f64,
    /// Time to inject the exhaustive list (years).
    pub exhaustive_years: f64,
    /// Time to inject the remaining list (years).
    pub remaining_years: f64,
}

/// Builds the MeRLiN row of Table 3: the exhaustive microarchitectural fault
/// list is every bit of the three structures at every cycle; the remaining
/// faults follow MeRLiN's measured reduction factor.
pub fn merlin_exhaustive_row(
    cfg: &CpuConfig,
    total_cycles: u64,
    measured_reduction_factor: f64,
    microarch_cycles_per_second: f64,
) -> ExhaustiveComparison {
    let bits: u64 = Structure::all()
        .iter()
        .map(|&s| structure_bits(cfg, s))
        .sum();
    let exhaustive = bits as f64 * total_cycles as f64;
    let remaining = exhaustive / measured_reduction_factor;
    let secs_per_run = total_cycles as f64 / microarch_cycles_per_second;
    ExhaustiveComparison {
        exhaustive_faults: exhaustive,
        remaining_faults: remaining,
        gain: measured_reduction_factor,
        exhaustive_years: exhaustive * secs_per_run / (365.0 * 24.0 * 3600.0),
        remaining_years: remaining * secs_per_run / (365.0 * 24.0 * 3600.0),
    }
}

/// Builds the Relyzer row of Table 3: the exhaustive software-level fault
/// list covers the operand bits of every dynamic instruction; Relyzer's
/// published pruning leaves roughly one in 10^5, and software emulation is an
/// order of magnitude faster than cycle-accurate simulation.
pub fn relyzer_exhaustive_row(
    dynamic_instructions: u64,
    operand_bits_per_instruction: u64,
    relyzer_gain: f64,
    emulation_cycles_per_second: f64,
    cycles_per_instruction: f64,
) -> ExhaustiveComparison {
    let exhaustive = dynamic_instructions as f64 * operand_bits_per_instruction as f64;
    let remaining = exhaustive / relyzer_gain;
    let secs_per_run =
        dynamic_instructions as f64 * cycles_per_instruction / emulation_cycles_per_second;
    ExhaustiveComparison {
        exhaustive_faults: exhaustive,
        remaining_faults: remaining,
        gain: relyzer_gain,
        exhaustive_years: exhaustive * secs_per_run / (365.0 * 24.0 * 3600.0),
        remaining_years: remaining * secs_per_run / (365.0 * 24.0 * 3600.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_scales_with_avf_and_bits() {
        let cfg = CpuConfig::default();
        let bits = structure_bits(&cfg, Structure::RegisterFile);
        assert_eq!(bits, 256 * 64);
        let f = fit_rate(0.1, bits);
        assert!((f - 0.1 * 0.01 * 16384.0).abs() < 1e-9);
        assert!(fit_rate(0.0, bits) == 0.0);
        assert!(fit_rate(0.2, bits) > fit_rate(0.1, bits));
    }

    #[test]
    fn wall_clock_projection() {
        // 60,000 runs of 10M cycles at 100K cycles/s = 6e6 seconds ≈ 2.3 months.
        let w = WallClock {
            runs: 60_000,
            cycles_per_run: 10_000_000,
            cycles_per_second: 1e5,
        };
        assert!((w.seconds() - 6e6).abs() < 1.0);
        assert!((w.months() - 6e6 / (30.0 * 24.0 * 3600.0)).abs() < 1e-6);
        assert!(w.years() < w.months());
    }

    #[test]
    fn table3_shapes_hold() {
        // The paper's scenario: 1 billion cycles, Gem5-like throughput of
        // 1e5 cycles/s, MeRLiN reduction of ~1e10, Relyzer gain of 1e5 at
        // software level with 1e6 instr/s emulation.
        let cfg = CpuConfig::default()
            .with_phys_regs(64)
            .with_store_queue(16)
            .with_l1d_kb(32);
        let merlin = merlin_exhaustive_row(&cfg, 1_000_000_000, 1e10, 1e5);
        let relyzer = relyzer_exhaustive_row(1_000_000_000, 100, 1e5, 1e6, 1.0);
        // Exhaustive microarchitectural list is orders of magnitude larger
        // than the software-level list.
        assert!(merlin.exhaustive_faults > relyzer.exhaustive_faults * 10.0);
        // MeRLiN's gain is orders of magnitude larger than Relyzer's.
        assert!(merlin.gain > relyzer.gain * 1e3);
        // And the remaining-fault evaluation time is far smaller despite the
        // slower simulator.
        assert!(merlin.remaining_years < relyzer.remaining_years);
        assert!(merlin.exhaustive_years > 1e6);
    }
}
