//! Core and cache configuration, mirroring Table 1 of the paper.

use merlin_isa::binio::BinCode;

/// Configuration of one set-associative cache level.
///
/// # Examples
///
/// ```
/// use merlin_cpu::CacheConfig;
/// let l1d = CacheConfig::l1d_kb(32);
/// assert_eq!(l1d.sets(), 128);
/// assert_eq!(l1d.words_per_line(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The three L1 data cache sizes evaluated in the paper (16/32/64 KB,
    /// 64-byte lines, 4-way, write-back).
    ///
    /// # Panics
    ///
    /// Panics if `kb` is not a power of two ≥ 1.
    pub fn l1d_kb(kb: u64) -> Self {
        assert!(kb.is_power_of_two(), "L1D size must be a power of two KB");
        CacheConfig {
            size_bytes: kb * 1024,
            line_bytes: 64,
            ways: 4,
            hit_latency: 3,
        }
    }

    /// The paper's 1 MB, 16-way L2.
    pub fn l2_1mb() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            ways: 16,
            hit_latency: 12,
        }
    }

    /// The paper's 32 KB, 4-way L1 instruction cache (kept for configuration
    /// completeness; instruction fetch is modelled as ideal).
    pub fn l1i_32kb() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 4,
            hit_latency: 1,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.ways as u64)) as usize
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets() * self.ways
    }

    /// Number of 8-byte words per line.
    pub fn words_per_line(&self) -> usize {
        (self.line_bytes / 8) as usize
    }

    /// Total number of 8-byte words in the data array (the entry count used
    /// by fault injection and interval tracking for the L1D).
    pub fn total_words(&self) -> usize {
        self.lines() * self.words_per_line()
    }

    /// Total data-array bits.
    pub fn total_bits(&self) -> u64 {
        self.size_bytes * 8
    }

    /// Appends the configuration to `out` field by field, for the session
    /// fingerprint to hash.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.size_bytes.encode(out);
        self.line_bytes.encode(out);
        self.ways.encode(out);
        self.hit_latency.encode(out);
    }
}

/// Full configuration of the modelled out-of-order core (Table 1).
///
/// The default configuration is the paper's baseline with the largest
/// structure sizes (256 physical integer registers, 64+64 LSQ entries,
/// 64 KB L1D); the `with_*` helpers select the alternative sizes evaluated
/// in the paper.
///
/// # Examples
///
/// ```
/// use merlin_cpu::CpuConfig;
/// let cfg = CpuConfig::default()
///     .with_phys_regs(128)
///     .with_store_queue(16)
///     .with_l1d_kb(32);
/// assert_eq!(cfg.phys_int_regs, 128);
/// assert_eq!(cfg.sq_entries, 16);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Physical integer register file size (paper: 256 / 128 / 64).
    pub phys_int_regs: usize,
    /// Re-order buffer entries (micro-ops).
    pub rob_entries: usize,
    /// Issue queue entries.
    pub iq_entries: usize,
    /// Load queue entries (paper: 64 / 32 / 16): the most loads in flight.
    pub lq_entries: usize,
    /// Store queue entries (paper: 64 / 32 / 16).
    pub sq_entries: usize,
    /// Macro-instruction fetch/decode width per cycle (in micro-ops after
    /// cracking).
    pub fetch_width: usize,
    /// Rename/dispatch width per cycle (micro-ops).
    pub rename_width: usize,
    /// Issue width per cycle (micro-ops).
    pub issue_width: usize,
    /// Commit width per cycle (micro-ops).
    pub commit_width: usize,
    /// Simple integer ALUs.
    pub int_alus: usize,
    /// Complex integer units (multiply/divide).
    pub complex_alus: usize,
    /// Load/store ports.
    pub mem_ports: usize,
    /// Branch resolution units.
    pub branch_units: usize,
    /// L1 instruction cache (not timed; kept for completeness).
    pub l1i: CacheConfig,
    /// L1 data cache configuration (fault-injection target).
    pub l1d: CacheConfig,
    /// Unified L2 configuration.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles.
    pub mem_latency: u64,
    /// Branch direction predictor table entries (2-bit counters).
    pub predictor_entries: usize,
    /// Branch target buffer entries (direct mapped).
    pub btb_entries: usize,
    /// Extra bytes of data memory beyond what the program image declares
    /// (heap/scratch head-room).
    pub extra_memory_bytes: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            phys_int_regs: 256,
            rob_entries: 100,
            iq_entries: 32,
            lq_entries: 64,
            sq_entries: 64,
            fetch_width: 6,
            rename_width: 4,
            issue_width: 6,
            commit_width: 4,
            int_alus: 6,
            complex_alus: 2,
            mem_ports: 2,
            branch_units: 2,
            l1i: CacheConfig::l1i_32kb(),
            l1d: CacheConfig::l1d_kb(64),
            l2: CacheConfig::l2_1mb(),
            mem_latency: 60,
            predictor_entries: 4096,
            btb_entries: 4096,
            extra_memory_bytes: 64 * 1024,
        }
    }
}

/// Errors returned by [`CpuConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The physical register file cannot hold the architectural state plus
    /// at least one rename.
    TooFewPhysRegs {
        /// Configured register count.
        have: usize,
        /// Minimum required.
        need: usize,
    },
    /// A structural parameter was zero.
    ZeroParameter(&'static str),
    /// Cache geometry is inconsistent (size not divisible by line × ways).
    BadCacheGeometry(&'static str),
    /// A pre-decoded micro-op table was built from a different program than
    /// the one the core is being constructed for (detected by instruction
    /// count or instruction-stream hash).
    DecodedProgramMismatch,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooFewPhysRegs { have, need } => {
                write!(f, "physical register file too small: {have} < {need}")
            }
            ConfigError::ZeroParameter(p) => write!(f, "configuration parameter {p} must be > 0"),
            ConfigError::BadCacheGeometry(c) => write!(f, "inconsistent cache geometry for {c}"),
            ConfigError::DecodedProgramMismatch => write!(
                f,
                "pre-decoded micro-op table was built from a different program"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl CpuConfig {
    /// Sets the physical integer register file size.
    pub fn with_phys_regs(mut self, n: usize) -> Self {
        self.phys_int_regs = n;
        self
    }

    /// Sets both load-queue and store-queue sizes (the paper always sizes
    /// them identically).
    pub fn with_store_queue(mut self, n: usize) -> Self {
        self.sq_entries = n;
        self.lq_entries = n;
        self
    }

    /// Sets the L1 data cache capacity in KB.
    pub fn with_l1d_kb(mut self, kb: u64) -> Self {
        self.l1d = CacheConfig::l1d_kb(kb);
        self
    }

    /// The SPEC-experiment configuration of the paper (§4.4.2.3): 128
    /// physical registers, 16+16 LSQ entries, 32 KB L1D.
    pub fn spec_experiment() -> Self {
        CpuConfig::default()
            .with_phys_regs(128)
            .with_store_queue(16)
            .with_l1d_kb(32)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let need = merlin_isa::NUM_ARCH_REGS + 4;
        if self.phys_int_regs < need {
            return Err(ConfigError::TooFewPhysRegs {
                have: self.phys_int_regs,
                need,
            });
        }
        for (name, v) in [
            ("rob_entries", self.rob_entries),
            ("iq_entries", self.iq_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
            ("fetch_width", self.fetch_width),
            ("rename_width", self.rename_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("int_alus", self.int_alus),
            ("complex_alus", self.complex_alus),
            ("mem_ports", self.mem_ports),
            ("branch_units", self.branch_units),
            ("predictor_entries", self.predictor_entries),
            ("btb_entries", self.btb_entries),
        ] {
            if v == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        for (name, c) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            if c.size_bytes % (c.line_bytes * c.ways as u64) != 0
                || c.line_bytes % 8 != 0
                || c.ways == 0
            {
                return Err(ConfigError::BadCacheGeometry(name));
            }
        }
        Ok(())
    }

    /// Number of fault-injectable entries `structure` has under this
    /// configuration (the single source of the structure → entry-count
    /// mapping; the core, the session layer and fault-list generation all
    /// delegate here).
    pub fn structure_entries(&self, structure: crate::probe::Structure) -> usize {
        use crate::probe::Structure;
        match structure {
            Structure::RegisterFile => self.phys_int_regs,
            Structure::StoreQueue => self.sq_entries,
            Structure::L1DCache => self.l1d.total_words(),
        }
    }

    /// Number of fault-injectable bits in the physical integer register file.
    pub fn register_file_bits(&self) -> u64 {
        self.phys_int_regs as u64 * 64
    }

    /// Number of fault-injectable bits in the store-queue data field.
    pub fn store_queue_bits(&self) -> u64 {
        self.sq_entries as u64 * 64
    }

    /// Number of fault-injectable bits in the L1D data array.
    pub fn l1d_bits(&self) -> u64 {
        self.l1d.total_bits()
    }

    /// Appends the configuration to `out` field by field, for the session
    /// fingerprint to hash.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.phys_int_regs.encode(out);
        self.rob_entries.encode(out);
        self.iq_entries.encode(out);
        self.lq_entries.encode(out);
        self.sq_entries.encode(out);
        self.fetch_width.encode(out);
        self.rename_width.encode(out);
        self.issue_width.encode(out);
        self.commit_width.encode(out);
        self.int_alus.encode(out);
        self.complex_alus.encode(out);
        self.mem_ports.encode(out);
        self.branch_units.encode(out);
        self.l1i.encode(out);
        self.l1d.encode(out);
        self.l2.encode(out);
        self.mem_latency.encode(out);
        self.predictor_entries.encode(out);
        self.btb_entries.encode(out);
        self.extra_memory_bytes.encode(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CpuConfig::default();
        assert_eq!(c.phys_int_regs, 256);
        assert_eq!(c.rob_entries, 100);
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.complex_alus, 2);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.l1d.ways, 4);
        c.validate().unwrap();
    }

    #[test]
    fn l1d_geometries() {
        assert_eq!(CacheConfig::l1d_kb(16).sets(), 64);
        assert_eq!(CacheConfig::l1d_kb(32).sets(), 128);
        assert_eq!(CacheConfig::l1d_kb(64).sets(), 256);
        assert_eq!(CacheConfig::l1d_kb(64).total_words(), 64 * 1024 / 8);
    }

    #[test]
    fn spec_experiment_config() {
        let c = CpuConfig::spec_experiment();
        assert_eq!(c.phys_int_regs, 128);
        assert_eq!(c.sq_entries, 16);
        assert_eq!(c.lq_entries, 16);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        c.validate().unwrap();
    }

    #[test]
    fn too_few_registers_rejected() {
        let c = CpuConfig::default().with_phys_regs(8);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::TooFewPhysRegs { .. })
        ));
    }

    #[test]
    fn zero_parameter_rejected() {
        let c = CpuConfig {
            iq_entries: 0,
            ..CpuConfig::default()
        };
        assert!(matches!(c.validate(), Err(ConfigError::ZeroParameter(_))));
    }

    #[test]
    fn bit_counts() {
        let c = CpuConfig::default();
        assert_eq!(c.register_file_bits(), 256 * 64);
        assert_eq!(c.store_queue_bits(), 64 * 64);
        assert_eq!(c.l1d_bits(), 64 * 1024 * 8);
    }

    #[test]
    fn error_display_nonempty() {
        let e = ConfigError::ZeroParameter("iq_entries");
        assert!(!e.to_string().is_empty());
    }
}
