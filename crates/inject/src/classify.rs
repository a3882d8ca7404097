//! Fault-effect classification (Table 2 of the paper) and aggregate
//! classification histograms.

use merlin_cpu::{ExitReason, RunResult};
use std::fmt;
use std::ops::{Add, AddAssign};

/// The six fault-effect classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultEffect {
    /// Output and exceptions identical to the golden run.
    Masked,
    /// Output corrupted without abnormal behaviour (silent data corruption).
    Sdc,
    /// Output intact but extra architectural exceptions were observed
    /// (detected, unrecoverable error indications).
    Due,
    /// The program exceeded three times its golden execution time
    /// (deadlock/livelock).
    Timeout,
    /// The simulated program or system crashed.
    Crash,
    /// The simulator stopped on an internal assertion.
    Assert,
}

impl FaultEffect {
    /// All classes in the order used by the paper's figures.
    pub fn all() -> &'static [FaultEffect] {
        &[
            FaultEffect::Masked,
            FaultEffect::Sdc,
            FaultEffect::Due,
            FaultEffect::Timeout,
            FaultEffect::Crash,
            FaultEffect::Assert,
        ]
    }

    /// `true` for every class other than `Masked` (the numerator of AVF).
    pub fn is_non_masked(self) -> bool {
        self != FaultEffect::Masked
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultEffect::Masked => "Masked",
            FaultEffect::Sdc => "SDC",
            FaultEffect::Due => "DUE",
            FaultEffect::Timeout => "Timeout",
            FaultEffect::Crash => "Crash",
            FaultEffect::Assert => "Assert",
        }
    }
}

impl fmt::Display for FaultEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification used for truncated (Simpoint-interval) runs, §4.4.3.4 /
/// Table 4: SDC and Timeout cannot be established before the program ends,
/// so surviving faults are reported as `Unknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TruncatedEffect {
    /// The fault was over-written or never read within the interval and the
    /// architectural behaviour so far matches the golden run.
    Masked,
    /// Extra exceptions were observed within the interval.
    Due,
    /// The program crashed within the interval.
    Crash,
    /// The simulator asserted within the interval.
    Assert,
    /// The fault is still live at the end of the interval; its eventual
    /// effect is unknown.
    Unknown,
}

impl TruncatedEffect {
    /// All truncated classes in Table 4's order.
    pub fn all() -> &'static [TruncatedEffect] {
        &[
            TruncatedEffect::Masked,
            TruncatedEffect::Due,
            TruncatedEffect::Crash,
            TruncatedEffect::Assert,
            TruncatedEffect::Unknown,
        ]
    }

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            TruncatedEffect::Masked => "Masked",
            TruncatedEffect::Due => "DUE",
            TruncatedEffect::Crash => "Crash",
            TruncatedEffect::Assert => "Assert",
            TruncatedEffect::Unknown => "Unknown",
        }
    }
}

impl fmt::Display for TruncatedEffect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Compares a faulty run against the golden run and assigns a Table 2 class.
///
/// # Examples
///
/// ```
/// use merlin_inject::{classify, FaultEffect};
/// # use merlin_cpu::{ExitReason, RunResult};
/// # fn mk(output: Vec<u64>, exceptions: u64, exit: ExitReason) -> RunResult {
/// #     RunResult { exit, output, cycles: 100, committed_instructions: 10,
/// #         committed_uops: 12, arithmetic_exceptions: exceptions, misaligned_exceptions: 0 }
/// # }
/// let golden = mk(vec![1, 2, 3], 0, ExitReason::Halted);
/// assert_eq!(classify(&golden, &mk(vec![1, 2, 3], 0, ExitReason::Halted)), FaultEffect::Masked);
/// assert_eq!(classify(&golden, &mk(vec![1, 9, 3], 0, ExitReason::Halted)), FaultEffect::Sdc);
/// assert_eq!(classify(&golden, &mk(vec![1, 2, 3], 2, ExitReason::Halted)), FaultEffect::Due);
/// ```
pub fn classify(golden: &RunResult, faulty: &RunResult) -> FaultEffect {
    match &faulty.exit {
        ExitReason::Crash(_) => FaultEffect::Crash,
        ExitReason::Assert(_) => FaultEffect::Assert,
        ExitReason::Timeout => FaultEffect::Timeout,
        ExitReason::Halted => {
            if faulty.output != golden.output {
                FaultEffect::Sdc
            } else if faulty.exceptions() != golden.exceptions() {
                FaultEffect::Due
            } else {
                FaultEffect::Masked
            }
        }
    }
}

/// Aggregate histogram over the six fault-effect classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Classification {
    /// Count of faults classified as Masked.
    pub masked: u64,
    /// Count of SDCs.
    pub sdc: u64,
    /// Count of DUEs.
    pub due: u64,
    /// Count of Timeouts.
    pub timeout: u64,
    /// Count of Crashes.
    pub crash: u64,
    /// Count of Asserts.
    pub assert: u64,
}

impl Classification {
    /// Records `count` faults of class `effect`.
    pub fn record(&mut self, effect: FaultEffect, count: u64) {
        match effect {
            FaultEffect::Masked => self.masked += count,
            FaultEffect::Sdc => self.sdc += count,
            FaultEffect::Due => self.due += count,
            FaultEffect::Timeout => self.timeout += count,
            FaultEffect::Crash => self.crash += count,
            FaultEffect::Assert => self.assert += count,
        }
    }

    /// Count for one class.
    pub fn count(&self, effect: FaultEffect) -> u64 {
        match effect {
            FaultEffect::Masked => self.masked,
            FaultEffect::Sdc => self.sdc,
            FaultEffect::Due => self.due,
            FaultEffect::Timeout => self.timeout,
            FaultEffect::Crash => self.crash,
            FaultEffect::Assert => self.assert,
        }
    }

    /// Total faults classified.
    pub fn total(&self) -> u64 {
        FaultEffect::all().iter().map(|&e| self.count(e)).sum()
    }

    /// Faults in any non-masked class.
    pub fn non_masked(&self) -> u64 {
        self.total() - self.masked
    }

    /// Architectural vulnerability factor: non-masked / total.
    pub fn avf(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.non_masked() as f64 / self.total() as f64
        }
    }

    /// Percentage of faults in one class.
    pub fn percentage(&self, effect: FaultEffect) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.count(effect) as f64 / self.total() as f64
        }
    }

    /// Largest absolute per-class difference, in percentage points, between
    /// two classifications — the paper's "inaccuracy in percentile units".
    pub fn max_inaccuracy(&self, other: &Classification) -> f64 {
        FaultEffect::all()
            .iter()
            .map(|&e| (self.percentage(e) - other.percentage(e)).abs())
            .fold(0.0, f64::max)
    }

    /// Per-class absolute difference in percentage points.
    pub fn inaccuracy(&self, other: &Classification, effect: FaultEffect) -> f64 {
        (self.percentage(effect) - other.percentage(effect)).abs()
    }
}

impl Add for Classification {
    type Output = Classification;
    fn add(self, rhs: Classification) -> Classification {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for Classification {
    fn add_assign(&mut self, rhs: Classification) {
        self.masked += rhs.masked;
        self.sdc += rhs.sdc;
        self.due += rhs.due;
        self.timeout += rhs.timeout;
        self.crash += rhs.crash;
        self.assert += rhs.assert;
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Masked {:.2}% | SDC {:.2}% | DUE {:.2}% | Timeout {:.2}% | Crash {:.2}% | Assert {:.2}% (n={})",
            self.percentage(FaultEffect::Masked),
            self.percentage(FaultEffect::Sdc),
            self.percentage(FaultEffect::Due),
            self.percentage(FaultEffect::Timeout),
            self.percentage(FaultEffect::Crash),
            self.percentage(FaultEffect::Assert),
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_cpu::{AssertKind, CrashKind};

    fn run(exit: ExitReason, output: Vec<u64>, exc: u64) -> RunResult {
        RunResult {
            exit,
            output,
            cycles: 1000,
            committed_instructions: 100,
            committed_uops: 120,
            arithmetic_exceptions: exc,
            misaligned_exceptions: 0,
        }
    }

    #[test]
    fn classification_covers_every_exit() {
        let golden = run(ExitReason::Halted, vec![1, 2], 0);
        assert_eq!(
            classify(&golden, &run(ExitReason::Halted, vec![1, 2], 0)),
            FaultEffect::Masked
        );
        assert_eq!(
            classify(&golden, &run(ExitReason::Halted, vec![1, 3], 0)),
            FaultEffect::Sdc
        );
        assert_eq!(
            classify(&golden, &run(ExitReason::Halted, vec![1, 2], 1)),
            FaultEffect::Due
        );
        assert_eq!(
            classify(&golden, &run(ExitReason::Timeout, vec![], 0)),
            FaultEffect::Timeout
        );
        assert_eq!(
            classify(
                &golden,
                &run(
                    ExitReason::Crash(CrashKind::MemoryOutOfBounds { addr: 1 }),
                    vec![],
                    0
                )
            ),
            FaultEffect::Crash
        );
        assert_eq!(
            classify(
                &golden,
                &run(
                    ExitReason::Assert(AssertKind::StoreToCode { addr: 1 }),
                    vec![],
                    0
                )
            ),
            FaultEffect::Assert
        );
    }

    #[test]
    fn output_corruption_takes_priority_over_exceptions() {
        let golden = run(ExitReason::Halted, vec![5], 0);
        let faulty = run(ExitReason::Halted, vec![6], 3);
        assert_eq!(classify(&golden, &faulty), FaultEffect::Sdc);
    }

    #[test]
    fn histogram_accounting() {
        let mut c = Classification::default();
        c.record(FaultEffect::Masked, 90);
        c.record(FaultEffect::Sdc, 5);
        c.record(FaultEffect::Crash, 5);
        assert_eq!(c.total(), 100);
        assert_eq!(c.non_masked(), 10);
        assert!((c.avf() - 0.10).abs() < 1e-12);
        assert!((c.percentage(FaultEffect::Sdc) - 5.0).abs() < 1e-12);
        let mut d = Classification::default();
        d.record(FaultEffect::Masked, 85);
        d.record(FaultEffect::Sdc, 10);
        d.record(FaultEffect::Crash, 5);
        assert!((c.max_inaccuracy(&d) - 5.0).abs() < 1e-12);
        assert!((c.inaccuracy(&d, FaultEffect::Crash)).abs() < 1e-12);
        let sum = c + d;
        assert_eq!(sum.total(), 200);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let c = Classification::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.avf(), 0.0);
        assert_eq!(c.percentage(FaultEffect::Sdc), 0.0);
        assert!(!c.to_string().is_empty());
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = FaultEffect::all().iter().map(|e| e.label()).collect();
        labels.extend(TruncatedEffect::all().iter().map(|e| e.label()));
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7); // Masked/DUE/Crash/Assert are shared labels
    }
}
