//! Property: the static liveness prune is *sound*.
//!
//! A register-file entry the analysis calls statically dead is the identity
//! physical entry of an architectural register the program text never
//! mentions; the prune classifies faults into such entries as Masked with
//! zero simulation.  Two properties keep that honest:
//!
//! * **any** statically-pruned site, when fully simulated from cycle 0
//!   ([`Session::campaign_from_scratch`], which never consults the
//!   analysis), really classifies Masked — for every dead entry, every bit,
//!   every injection cycle;
//! * a pruned campaign ([`Session::campaign`]) and an unpruned from-scratch
//!   campaign ([`Session::campaign_from_scratch`]) produce byte-identical
//!   outcome vectors at 1/2/4/8 worker threads, with the pruned run
//!   accounting exactly the faults the census predicts.

use merlin_cpu::{CheckpointPolicy, CpuConfig};
use merlin_inject::{FaultEffect, FaultSpec, Session, Structure};
use merlin_isa::{reg, AluOp, Cond, MemRef, Program, ProgramBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

fn tiny_program() -> Program {
    let mut b = ProgramBuilder::new();
    let data = b.alloc_words(&[3, 1, 4, 1, 5, 9, 2, 6]);
    b.movi(reg(10), data as i64);
    b.movi(reg(1), 0);
    b.movi(reg(2), 0);
    let top = b.bind_label();
    b.load_op(AluOp::Add, reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.store(reg(2), MemRef::base(reg(10)).indexed(reg(1), 8));
    b.alu_ri(AluOp::Add, reg(1), reg(1), 1);
    b.branch_ri(Cond::Lt, reg(1), 8, top);
    b.out(reg(2));
    b.halt();
    b.build().unwrap()
}

fn session(threads: usize) -> Session {
    Session::builder(&tiny_program(), &CpuConfig::default().with_phys_regs(64))
        .checkpoints(CheckpointPolicy {
            target_checkpoints: 8,
            min_interval: 8,
        })
        .max_cycles(1_000_000)
        .threads(threads)
        .build()
        .unwrap()
}

struct Shared {
    /// Sessions at 1, 2, 4 and 8 worker threads over the same program.
    sessions: Vec<Session>,
    /// Every register-file entry the analysis proves statically dead.
    dead_entries: Vec<usize>,
    golden_cycles: u64,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let sessions: Vec<Session> = [1usize, 2, 4, 8].into_iter().map(session).collect();
        let golden_cycles = sessions[0].golden().unwrap().result.cycles;
        let analysis = sessions[0].analysis().clone();
        let dead_entries: Vec<usize> = (0..64)
            .filter(|&e| analysis.rf_entry_statically_dead(e))
            .collect();
        assert!(
            !dead_entries.is_empty(),
            "the property needs at least one statically dead entry"
        );
        Shared {
            sessions,
            dead_entries,
            golden_cycles,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_statically_pruned_site_fully_simulated_is_masked(
        entry_sel in 0usize..1_000_000,
        bit in 0u8..64,
        cycle_sel in 0u64..1_000_000_000,
    ) {
        let s = shared();
        let entry = s.dead_entries[entry_sel % s.dead_entries.len()];
        let cycle = cycle_sel % s.golden_cycles + 1;
        let fault = FaultSpec::new(Structure::RegisterFile, entry, bit, cycle);
        let effect = s.sessions[0].campaign_from_scratch(&[fault]).unwrap().outcomes[0].effect;
        prop_assert_eq!(
            effect,
            FaultEffect::Masked,
            "statically pruned {} was not masked under full simulation",
            fault
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pruned_and_unpruned_campaigns_are_byte_identical_at_any_thread_count(
        seed in 0u64..1_000_000,
        count in 40usize..80,
    ) {
        let s = shared();
        let faults = s.sessions[0]
            .fault_list(Structure::RegisterFile, count, seed)
            .unwrap();
        let predicted: u64 = faults
            .iter()
            .filter(|f| s.dead_entries.contains(&f.entry))
            .count() as u64;

        // The unpruned baseline simulates every fault from cycle 0.
        let scratch = s.sessions[0].campaign_from_scratch(&faults).unwrap();
        prop_assert_eq!(scratch.schedule.static_prunes, 0);

        for session in &s.sessions {
            let pruned = session.campaign(&faults).unwrap();
            prop_assert_eq!(
                pruned.schedule.static_prunes,
                predicted,
                "x{} threads",
                session.threads()
            );
            prop_assert_eq!(
                &pruned.outcomes,
                &scratch.outcomes,
                "pruning changed an outcome at x{} threads",
                session.threads()
            );
        }
    }
}
