//! The benchmark's workloads: which sessions to set up and which campaign
//! cells to run on them.  The program mix is every built-in program (10
//! MiBench + 10 SPEC-analog kernels) under each workload's configurations.
//!
//! A cell's fault count is proportional to the run's `--seconds` and
//! inversely proportional to its program's length (architectural
//! instructions, from the reference interpreter), so every program carries
//! about the same share of the campaign time.  With equal
//! counts the three longest kernels would carry most of it, and their rare
//! long-running faults (timeouts, early silent corruptions that run to
//! halt) would set the seed-to-seed spread of the whole benchmark: over 24
//! seeds, equal counts of 500 spread MeRLiN's simulated cycles by 14%
//! (quartile distance over median), length-scaled counts of the same total
//! work by 8%.

use crate::stats::mix;
use merlin_cpu::{interpret, CpuConfig, Structure};
use merlin_workloads::{all_workloads, Workload};
use std::collections::BTreeMap;

/// The campaign method a workload's cells run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `fault_list` then `SessionMethodology::merlin_with_faults`.
    Merlin,
    /// `fault_list` then `SessionMethodology::comprehensive`.
    Comprehensive,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub method: Method,
    /// Golden runs are persisted by a child process before timing, and the
    /// timed process loads them.
    pub warm: bool,
    /// Store-queue sizes of the sweep, or `None` for the default
    /// configuration alone.
    pub sq_sweep: Option<&'static [usize]>,
    pub structures: &'static [Structure],
    /// Initial faults per cell times the program's instruction count, per
    /// second of one pass over the cells: about one second of campaign at
    /// the reference speed.
    pub fault_budget: f64,
    /// Times every cell runs in the timed phase; a cell's time is its
    /// fastest pass.  A MeRLiN cell's time lies in a few long
    /// representative runs, so its runs spread mostly with the sample, and
    /// a second pass did not steady them.  A comprehensive cell's time lies
    /// in hundreds of faults, so the host's noise weighs more, and the
    /// faster of two passes lowers it.
    pub passes: usize,
}

/// Fewest initial faults a cell gets, however long its program.
const MIN_FAULTS: usize = 8;
/// Instruction limit of the interpreter run that measures program length.
const MAX_INSTRUCTIONS: u64 = 100_000_000;

const ALL_STRUCTURES: &[Structure] = &[
    Structure::RegisterFile,
    Structure::StoreQueue,
    Structure::L1DCache,
];

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "merlin",
        method: Method::Merlin,
        warm: false,
        sq_sweep: None,
        structures: ALL_STRUCTURES,
        fault_budget: 12.0e6,
        passes: 1,
    },
    WorkloadDef {
        name: "merlin-warm",
        method: Method::Merlin,
        warm: true,
        sq_sweep: None,
        structures: ALL_STRUCTURES,
        fault_budget: 12.0e6,
        passes: 1,
    },
    WorkloadDef {
        name: "comprehensive",
        method: Method::Comprehensive,
        warm: false,
        sq_sweep: None,
        structures: &[Structure::RegisterFile, Structure::L1DCache],
        fault_budget: 1.6e6,
        passes: 2,
    },
    WorkloadDef {
        name: "comprehensive-sq",
        method: Method::Comprehensive,
        warm: false,
        // The paper's Table-1 store-queue sweep.
        sq_sweep: Some(&[64, 32, 16]),
        structures: &[Structure::StoreQueue],
        fault_budget: 0.25e6,
        passes: 2,
    },
];

pub fn find(name: &str) -> Result<&'static WorkloadDef, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })
}

/// One (program, configuration) pair: one session, one golden run.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub label: String,
    pub workload: Workload,
    pub cfg: CpuConfig,
}

/// One campaign cell: a fault list over one session's structure.
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub session: usize,
    pub structure: Structure,
    pub faults: usize,
    /// Seed of the cell's fault list, derived from the run's seed.
    pub seed: u64,
}

#[derive(Debug)]
pub struct Plan {
    pub def: &'static WorkloadDef,
    pub sessions: Vec<SessionSpec>,
    pub cells: Vec<CellSpec>,
}

/// The sessions of `def`, one per program of the mix (restricted to
/// `programs` when given) and configuration.
pub fn sessions(
    def: &WorkloadDef,
    programs: Option<&[String]>,
) -> Result<Vec<SessionSpec>, String> {
    let mut mix_of_programs = all_workloads();
    if let Some(names) = programs {
        for n in names {
            if !mix_of_programs.iter().any(|w| w.name == n) {
                return Err(format!("unknown program `{n}`"));
            }
        }
        mix_of_programs.retain(|w| names.iter().any(|n| n == w.name));
    }
    let mut sessions = Vec::new();
    for w in mix_of_programs {
        match def.sq_sweep {
            None => sessions.push(SessionSpec {
                label: w.name.to_string(),
                cfg: CpuConfig::default(),
                workload: w,
            }),
            Some(sizes) => {
                for &n in sizes {
                    sessions.push(SessionSpec {
                        label: format!("{}/sq{n}", w.name),
                        cfg: CpuConfig::default().with_store_queue(n),
                        workload: w.clone(),
                    });
                }
            }
        }
    }
    Ok(sessions)
}

impl Plan {
    /// The plan of `def` for `seed`, sized for `seconds` of campaign.
    /// `programs` restricts the program mix and `faults` overrides the
    /// per-cell fault count (for quick runs and the smoke tests; the
    /// recorded benchmark uses neither).
    pub fn new(
        def: &'static WorkloadDef,
        seed: u64,
        seconds: f64,
        programs: Option<&[String]>,
        faults: Option<usize>,
    ) -> Result<Plan, String> {
        let sessions = sessions(def, programs)?;
        let mut lengths = BTreeMap::new();
        let mut cells = Vec::new();
        for (session, spec) in sessions.iter().enumerate() {
            let per_cell = faults.unwrap_or_else(|| {
                let w = &spec.workload;
                let length = *lengths
                    .entry(w.name)
                    .or_insert_with(|| interpret(&w.program, MAX_INSTRUCTIONS).instructions.max(1));
                // Saturating float-to-int conversion.
                ((def.fault_budget * seconds / length as f64) as usize).max(MIN_FAULTS)
            });
            for &structure in def.structures {
                cells.push(CellSpec {
                    session,
                    structure,
                    faults: per_cell,
                    seed: mix(seed, cells.len() as u64),
                });
            }
        }
        Ok(Plan {
            def,
            sessions,
            cells,
        })
    }

    /// Initial faults over all cells.
    pub fn faults(&self) -> usize {
        self.cells.iter().map(|c| c.faults).sum()
    }

    pub fn cell_label(&self, cell: usize) -> String {
        let c = &self.cells[cell];
        format!("{}/{:?}", self.sessions[c.session].label, c.structure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_cover_every_program_and_structure() {
        let p = Plan::new(find("merlin").unwrap(), 2017, 12.0, None, None).unwrap();
        assert_eq!((p.sessions.len(), p.cells.len()), (20, 60));
        let p = Plan::new(find("comprehensive").unwrap(), 2017, 12.0, None, None).unwrap();
        assert_eq!((p.sessions.len(), p.cells.len()), (20, 40));
        let p = Plan::new(find("comprehensive-sq").unwrap(), 2017, 12.0, None, None).unwrap();
        assert_eq!((p.sessions.len(), p.cells.len()), (60, 60));
        assert_eq!(p.sessions[1].label, "susan_c/sq32");
        assert_eq!(p.cell_label(2), "susan_c/sq16/StoreQueue");
    }

    #[test]
    fn longer_programs_get_fewer_faults() {
        let p = Plan::new(find("comprehensive").unwrap(), 2017, 12.0, None, None).unwrap();
        let faults = |name: &str| {
            let s = p.sessions.iter().position(|s| s.label == name).unwrap();
            p.cells.iter().find(|c| c.session == s).unwrap().faults
        };
        assert!(faults("sha") > 10 * faults("bzip2"));
        assert!(p.cells.iter().all(|c| c.faults >= MIN_FAULTS));
    }

    #[test]
    fn seeds_derive_per_cell_and_filters_apply() {
        let names = vec!["sha".to_string(), "fft".to_string()];
        let a = Plan::new(find("merlin").unwrap(), 1, 12.0, Some(&names), Some(8)).unwrap();
        let b = Plan::new(find("merlin").unwrap(), 2, 12.0, Some(&names), Some(8)).unwrap();
        assert_eq!(a.cells.len(), 6);
        assert_eq!(a.faults(), 48);
        assert_ne!(a.cells[0].seed, a.cells[1].seed);
        assert_ne!(a.cells[0].seed, b.cells[0].seed);
        assert!(Plan::new(
            find("merlin").unwrap(),
            1,
            12.0,
            Some(&["doom".into()]),
            None
        )
        .is_err());
        assert!(find("nope").is_err());
    }
}
