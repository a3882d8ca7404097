//! Phase 2 of MeRLiN: fault-list reduction.
//!
//! Step 1 prunes faults that hit no vulnerable interval (they are Masked by
//! construction) and groups the remaining faults by the (RIP, uPC) of the
//! micro-op that reads the faulty entry at the end of its interval.
//! Step 2 splits each group by the byte position the fault hits within the
//! 64-bit entry and picks one representative per byte sub-group, preferring
//! representatives from dynamic instances of the reading instruction that
//! have not supplied a representative yet (time diversity, §3.2.2).

use merlin_ace::VulnerableIntervals;
use merlin_cpu::FaultSpec;
use merlin_isa::{Rip, Upc};
use std::collections::{BTreeMap, HashMap};

/// Identity of a step-1 group: the static micro-op that consumes the faulty
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupKey {
    /// Instruction pointer of the reading static instruction.
    pub rip: Rip,
    /// Micro program counter of the reading micro-op.
    pub upc: Upc,
}

/// A fault that survived the ACE-like pruning, annotated with the interval
/// that will consume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedFault {
    /// The fault itself.
    pub fault: FaultSpec,
    /// Dynamic instance index of the reading instruction.
    pub dyn_instance: u64,
    /// Depth-5 control-flow-path signature at the reading instruction
    /// (used by the Relyzer control-equivalence baseline).
    pub path_sig: u64,
}

/// A step-2 sub-group: all faults of one (RIP, uPC) group that hit the same
/// byte of their entries, together with the selected representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubGroup {
    /// Byte position within the 64-bit entry (0–7).
    pub byte: u8,
    /// Every fault in the sub-group (including the representative).
    pub faults: Vec<GroupedFault>,
    /// The single fault that is actually injected.
    pub representative: FaultSpec,
}

impl SubGroup {
    /// Number of faults the representative stands for.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if the sub-group is empty (never produced by the reduction).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A step-1 group with its step-2 sub-groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultGroup {
    /// Group identity.
    pub key: GroupKey,
    /// Byte sub-groups (at most 8).
    pub subgroups: Vec<SubGroup>,
}

impl FaultGroup {
    /// Total faults across all sub-groups.
    pub fn total_faults(&self) -> usize {
        self.subgroups.iter().map(|s| s.len()).sum()
    }

    /// Number of representatives (injections) this group needs.
    pub fn representatives(&self) -> usize {
        self.subgroups.len()
    }
}

/// The outcome of MeRLiN's fault-list reduction phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultListReduction {
    /// Faults pruned by the ACE-like step (guaranteed Masked, not injected).
    pub ace_masked: Vec<FaultSpec>,
    /// Groups of the remaining faults.
    pub groups: Vec<FaultGroup>,
}

impl FaultListReduction {
    /// Number of faults in the initial list.
    pub fn initial_faults(&self) -> usize {
        self.ace_masked.len() + self.post_ace_faults()
    }

    /// Number of faults that survived the ACE-like pruning.
    pub fn post_ace_faults(&self) -> usize {
        self.groups.iter().map(|g| g.total_faults()).sum()
    }

    /// The reduced fault list: one representative per byte sub-group.
    pub fn reduced_fault_list(&self) -> Vec<FaultSpec> {
        self.groups
            .iter()
            .flat_map(|g| g.subgroups.iter().map(|s| s.representative))
            .collect()
    }

    /// Number of injections MeRLiN will perform.
    pub fn injections(&self) -> usize {
        self.groups.iter().map(|g| g.representatives()).sum()
    }

    /// Speedup of the ACE-like step alone: initial faults over post-ACE
    /// faults (the blue segments of Figures 8–10).
    pub fn ace_speedup(&self) -> f64 {
        ratio(self.initial_faults(), self.post_ace_faults())
    }

    /// Final speedup: initial faults over actual injections (the full bars
    /// of Figures 8–10 and 12).
    pub fn total_speedup(&self) -> f64 {
        ratio(self.initial_faults(), self.injections())
    }

    /// Average group size (the paper reports 5–40 for its campaigns).
    pub fn mean_group_size(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            self.post_ace_faults() as f64 / self.groups.len() as f64
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        num as f64
    } else {
        num as f64 / den as f64
    }
}

/// Runs both reduction steps over `initial` using the vulnerable intervals of
/// the target structure.
///
/// Faults whose (entry, cycle) lies outside every vulnerable interval go to
/// [`FaultListReduction::ace_masked`]; the rest are grouped by the interval's
/// (RIP, uPC) and split by byte position, and one representative per byte
/// sub-group is selected from the least-used dynamic instance.
pub fn reduce_fault_list(
    initial: &[FaultSpec],
    intervals: &VulnerableIntervals,
) -> FaultListReduction {
    let mut ace_masked = Vec::new();
    let mut by_key: BTreeMap<GroupKey, Vec<GroupedFault>> = BTreeMap::new();
    for &fault in initial {
        match intervals.lookup(fault.entry, fault.cycle) {
            None => ace_masked.push(fault),
            Some(iv) => {
                by_key
                    .entry(GroupKey {
                        rip: iv.rip,
                        upc: iv.upc,
                    })
                    .or_default()
                    .push(GroupedFault {
                        fault,
                        dyn_instance: iv.dyn_instance,
                        path_sig: iv.path_sig,
                    });
            }
        }
    }
    let mut groups = Vec::with_capacity(by_key.len());
    for (key, faults) in by_key {
        // Step 2: split by byte position.
        let mut by_byte: BTreeMap<u8, Vec<GroupedFault>> = BTreeMap::new();
        for f in faults {
            by_byte.entry(f.fault.byte()).or_default().push(f);
        }
        // Representative selection with time diversity: prefer dynamic
        // instances not already used by another byte sub-group of this group.
        let mut used_instances: HashMap<u64, usize> = HashMap::new();
        let mut subgroups = Vec::with_capacity(by_byte.len());
        for (byte, subfaults) in by_byte {
            let representative = subfaults
                .iter()
                .min_by_key(|f| {
                    (
                        used_instances.get(&f.dyn_instance).copied().unwrap_or(0),
                        f.fault.cycle,
                        f.fault.entry,
                        f.fault.bit,
                    )
                })
                .expect("sub-group is never empty")
                .fault;
            let chosen_instance = subfaults
                .iter()
                .find(|f| f.fault == representative)
                .expect("representative comes from the sub-group")
                .dyn_instance;
            *used_instances.entry(chosen_instance).or_insert(0) += 1;
            subgroups.push(SubGroup {
                byte,
                faults: subfaults,
                representative,
            });
        }
        groups.push(FaultGroup { key, subgroups });
    }
    FaultListReduction { ace_masked, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merlin_ace::{Interval, VulnerableIntervals};
    use merlin_cpu::Structure;

    fn repo_with_intervals() -> VulnerableIntervals {
        let mut r = VulnerableIntervals::new(Structure::RegisterFile, 16, 1000);
        // Entry 1: two intervals read by the same static micro-op (rip 7,
        // upc 0) in different dynamic instances, and one read by rip 9.
        r.push(
            1,
            Interval {
                start: 10,
                end: 100,
                rip: 7,
                upc: 0,
                dyn_instance: 0,
                path_sig: 11,
            },
        );
        r.push(
            1,
            Interval {
                start: 100,
                end: 200,
                rip: 7,
                upc: 0,
                dyn_instance: 1,
                path_sig: 12,
            },
        );
        r.push(
            1,
            Interval {
                start: 300,
                end: 400,
                rip: 9,
                upc: 1,
                dyn_instance: 0,
                path_sig: 13,
            },
        );
        // Entry 2: one interval read by rip 7 upc 0 again.
        r.push(
            2,
            Interval {
                start: 50,
                end: 150,
                rip: 7,
                upc: 0,
                dyn_instance: 2,
                path_sig: 14,
            },
        );
        r
    }

    fn fault(entry: usize, bit: u8, cycle: u64) -> FaultSpec {
        FaultSpec::new(Structure::RegisterFile, entry, bit, cycle)
    }

    #[test]
    fn faults_outside_intervals_are_pruned() {
        let repo = repo_with_intervals();
        let initial = vec![fault(1, 0, 5), fault(1, 0, 250), fault(3, 0, 50)];
        let red = reduce_fault_list(&initial, &repo);
        assert_eq!(red.ace_masked.len(), 3);
        assert_eq!(red.groups.len(), 0);
        assert_eq!(red.injections(), 0);
        assert_eq!(red.initial_faults(), 3);
    }

    #[test]
    fn grouping_by_rip_upc_and_byte() {
        let repo = repo_with_intervals();
        let initial = vec![
            // Same reader (7,0), same byte 0, three different sites/instances.
            fault(1, 3, 50),
            fault(1, 5, 150),
            fault(2, 2, 60),
            // Same reader (7,0), byte 7.
            fault(1, 60, 80),
            // Different reader (9,1).
            fault(1, 1, 350),
            // Pruned.
            fault(1, 0, 999),
        ];
        let red = reduce_fault_list(&initial, &repo);
        assert_eq!(red.ace_masked.len(), 1);
        assert_eq!(red.groups.len(), 2);
        assert_eq!(red.post_ace_faults(), 5);
        let g7 = red
            .groups
            .iter()
            .find(|g| g.key == GroupKey { rip: 7, upc: 0 })
            .unwrap();
        assert_eq!(g7.total_faults(), 4);
        assert_eq!(g7.representatives(), 2); // bytes 0 and 7
        let g9 = red
            .groups
            .iter()
            .find(|g| g.key == GroupKey { rip: 9, upc: 1 })
            .unwrap();
        assert_eq!(g9.total_faults(), 1);
        assert_eq!(g9.representatives(), 1);
        assert_eq!(red.injections(), 3);
        assert!((red.total_speedup() - 2.0).abs() < 1e-12);
        assert!((red.ace_speedup() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn representatives_prefer_distinct_dynamic_instances() {
        let repo = repo_with_intervals();
        // Byte 0 faults from instance 0 (cycle 50) and instance 1 (cycle
        // 150); byte 1 faults from instance 0 only.  After byte 0 picks
        // instance 0 (lowest cycle among unused), byte 1 must still pick
        // instance 0 (its only choice), but byte 2 (instances 0 and 1)
        // should then prefer instance 1.
        let initial = vec![
            fault(1, 0, 50),   // byte 0, inst 0
            fault(1, 1, 150),  // byte 0, inst 1
            fault(1, 8, 60),   // byte 1, inst 0
            fault(1, 16, 70),  // byte 2, inst 0
            fault(1, 17, 160), // byte 2, inst 1
        ];
        let red = reduce_fault_list(&initial, &repo);
        assert_eq!(red.groups.len(), 1);
        let g = &red.groups[0];
        assert_eq!(g.subgroups.len(), 3);
        let rep_bytes: Vec<(u8, u64)> = g
            .subgroups
            .iter()
            .map(|s| (s.byte, s.representative.cycle))
            .collect();
        // byte 0 takes the instance-0 fault (cycle 50); byte 1 has only the
        // instance-0 fault; byte 2 then prefers the instance-1 fault (160).
        assert_eq!(rep_bytes, vec![(0, 50), (1, 60), (2, 160)]);
    }

    #[test]
    fn every_fault_lands_in_exactly_one_place() {
        let repo = repo_with_intervals();
        let initial: Vec<FaultSpec> = (0..200)
            .map(|i| fault((i % 4) as usize, (i % 64) as u8, (i * 7 % 1000) as u64))
            .collect();
        let red = reduce_fault_list(&initial, &repo);
        assert_eq!(red.initial_faults(), initial.len());
        // Representatives belong to their own sub-groups.
        for g in &red.groups {
            for s in &g.subgroups {
                assert!(s.faults.iter().any(|f| f.fault == s.representative));
                for f in &s.faults {
                    assert_eq!(f.fault.byte(), s.byte);
                }
            }
        }
        // Reduced list size equals the number of sub-groups.
        assert_eq!(red.reduced_fault_list().len(), red.injections());
    }
}
