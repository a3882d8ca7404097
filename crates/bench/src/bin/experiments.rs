//! Regenerates every table and figure of the MeRLiN paper's evaluation.
//!
//! Usage: `experiments <id>` where `<id>` is one of
//! `table1 table2 table3 table4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 fig15 fig16 fig17 theory avf_rf lint all`.
//!
//! Scale knobs (environment): `MERLIN_BASELINE_FAULTS` (default 2000),
//! `MERLIN_THREADS`, `MERLIN_SEED`, `MERLIN_BENCHMARKS` (comma separated).
//! Reduction-only experiments (fig8–fig10, fig12, fig13) always use the
//! paper's 60,000 / 600,000-fault statistical lists because they require no
//! injection.

use merlin_ace::SessionAce;
use merlin_analyze::ProgramAnalysis;
use merlin_bench::{row, run_cell, session_for, spec_config, structure_sweep, ExperimentScale};
use merlin_core::{
    classify_truncated, fit_rate, group_stats_from_counts, homogeneity, merlin_exhaustive_row,
    reduce_fault_list, relyzer_exhaustive_row, relyzer_reduce, structure_bits, AvfMoments,
    SessionMethodology, WallClock,
};
use merlin_cpu::{Cpu, CpuConfig, FaultSpec, NullProbe, Structure};
use merlin_inject::{
    generate_fault_list, Classification, FaultEffect, SamplingPlan, TruncatedEffect,
};
use merlin_workloads::{mibench_workloads, spec_workloads, workload_by_name};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "help".to_string());
    let scale = ExperimentScale::from_env();
    println!(
        "# MeRLiN reproduction — experiment `{arg}` (baseline faults {}, threads {}, seed {})\n",
        scale.baseline_faults, scale.threads, scale.seed
    );
    match arg.as_str() {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(&scale),
        "table4" => table4(&scale),
        "fig6" | "fig7" => fig6_fig7(&scale),
        "fig8" => speedup_mibench(Structure::RegisterFile, "Figure 8", &scale),
        "fig9" => speedup_mibench(Structure::StoreQueue, "Figure 9", &scale),
        "fig10" => speedup_mibench(Structure::L1DCache, "Figure 10", &scale),
        "fig11" => fig11(&scale),
        "fig12" => fig12(&scale),
        "fig13" => fig13(&scale),
        "fig14" | "fig15" | "fig16" => accuracy_figures(&scale),
        "fig17" => fig17(&scale),
        "theory" => theory(&scale),
        "avf_rf" => avf_rf(&scale),
        "lint" => lint_workloads(),
        "all" => {
            table1();
            table2();
            table3(&scale);
            speedup_mibench(Structure::RegisterFile, "Figure 8", &scale);
            speedup_mibench(Structure::StoreQueue, "Figure 9", &scale);
            speedup_mibench(Structure::L1DCache, "Figure 10", &scale);
            fig11(&scale);
            fig12(&scale);
            fig13(&scale);
            fig6_fig7(&scale);
            accuracy_figures(&scale);
            fig17(&scale);
            table4(&scale);
            theory(&scale);
            avf_rf(&scale);
            lint_workloads();
        }
        _ => {
            println!(
                "available experiments: table1 table2 table3 table4 fig6 fig7 fig8 fig9 fig10 \
                 fig11 fig12 fig13 fig14 fig15 fig16 fig17 theory avf_rf lint all"
            );
        }
    }
}

/// Static analysis over every built-in workload: the session-boundary lint
/// (which must report zero findings) plus the register census the static
/// fault prune is built on.  Exits non-zero on any finding, so CI can run
/// it as a gate.
fn lint_workloads() {
    println!("## Static analysis — lint and register census over every built-in workload\n");
    let mut findings = 0usize;
    for w in merlin_workloads::all_workloads() {
        let decoded = merlin_isa::DecodedProgram::new(&w.program);
        let analysis = ProgramAnalysis::of(&w.program, &decoded);
        findings += analysis.lint().len();
        println!(
            "{:<14} {:>3} instructions | {:>2} statically dead regs | lint: {}",
            w.name,
            w.program.instructions.len(),
            analysis.statically_dead_regs().count(),
            analysis.lint(),
        );
    }
    if findings == 0 {
        println!("\nevery built-in workload lints clean");
    } else {
        println!("\n{findings} lint finding(s)");
        std::process::exit(1);
    }
}

/// Table 1: the modelled baseline configuration.
fn table1() {
    println!("## Table 1 — baseline microprocessor configuration\n");
    let c = CpuConfig::default();
    println!("Pipeline                 out-of-order");
    println!("Physical register file   256/128/64 int (sweep)");
    println!("Issue queue entries      {}", c.iq_entries);
    println!("Load/Store queue         64/32/16 load & store entries (sweep)");
    println!("ROB entries              {}", c.rob_entries);
    println!(
        "Functional units         {} int ALUs; {} complex int; {} mem ports; {} branch",
        c.int_alus, c.complex_alus, c.mem_ports, c.branch_units
    );
    println!(
        "L1 instruction cache     {}KB, {}B line, {}-way",
        c.l1i.size_bytes / 1024,
        c.l1i.line_bytes,
        c.l1i.ways
    );
    println!(
        "L1 data cache            16/32/64KB (sweep), {}B line, {}-way, write back",
        c.l1d.line_bytes, c.l1d.ways
    );
    println!(
        "L2 cache                 {}MB, {}B line, {} sets, {}-way, write back",
        c.l2.size_bytes / 1024 / 1024,
        c.l2.line_bytes,
        c.l2.sets(),
        c.l2.ways
    );
    println!(
        "Branch predictor         bimodal + gshare (tournament-style), {} entries",
        c.predictor_entries
    );
    println!(
        "Branch target buffer     direct mapped, {} entries\n",
        c.btb_entries
    );
}

/// Table 2: fault-effect classes.
fn table2() {
    println!("## Table 2 — fault effect classification\n");
    for e in FaultEffect::all() {
        let desc = match e {
            FaultEffect::Masked => "output and exceptions identical to the golden run",
            FaultEffect::Sdc => "output corrupted without abnormal behaviour",
            FaultEffect::Due => "output intact but extra architectural exceptions",
            FaultEffect::Timeout => "execution exceeds 3x the golden cycle count",
            FaultEffect::Crash => "simulated program/system crash",
            FaultEffect::Assert => "simulator stops on an internal assertion",
        };
        println!("{:<8} {desc}", e.label());
    }
    println!();
}

/// Table 3: MeRLiN vs Relyzer against the exhaustive fault list.
fn table3(scale: &ExperimentScale) {
    println!("## Table 3 — MeRLiN vs Relyzer on the exhaustive fault list\n");
    // Measure MeRLiN's reduction factor on a real workload/config, then apply
    // it to the paper's 1-billion-cycle scenario.
    let cfg = CpuConfig::default()
        .with_phys_regs(64)
        .with_store_queue(16)
        .with_l1d_kb(32);
    let w = workload_by_name("qsort").expect("qsort exists");
    let session = session_for(&w, &cfg, scale);
    let ace = session.ace_profile().expect("ace");
    let golden_cycles = session.golden().expect("golden").result.cycles;
    // Reduction factor measured from the exhaustive list of this run:
    // exhaustive = bits * cycles; injections = representative count scaled up
    // proportionally from the statistical list.
    let mut exhaustive = 0f64;
    let mut injections = 0f64;
    for &s in Structure::all() {
        let initial = session
            .fault_list(s, 60_000, scale.seed)
            .expect("fault list");
        let red = reduce_fault_list(&initial, ace.structure(s));
        let bits = structure_bits(&cfg, s) as f64;
        let pop = bits * golden_cycles as f64;
        exhaustive += pop;
        injections += red.injections() as f64 / initial.len() as f64 * pop;
    }
    let measured_gain = exhaustive / injections.max(1.0);
    let merlin = merlin_exhaustive_row(&cfg, 1_000_000_000, measured_gain, 1e5);
    let relyzer = relyzer_exhaustive_row(1_000_000_000, 100, 1e5, 1e6, 1.0);
    println!("method   exhaustive-faults  remaining  gain      eval-time(exhaustive)  eval-time(remaining)");
    println!(
        "MeRLiN   {:>14.2e}  {:>9.2e}  {:>8.2e}  {:>14.2e} years  {:>10.2e} years",
        merlin.exhaustive_faults,
        merlin.remaining_faults,
        merlin.gain,
        merlin.exhaustive_years,
        merlin.remaining_years
    );
    println!(
        "Relyzer  {:>14.2e}  {:>9.2e}  {:>8.2e}  {:>14.2e} years  {:>10.2e} years\n",
        relyzer.exhaustive_faults,
        relyzer.remaining_faults,
        relyzer.gain,
        relyzer.exhaustive_years,
        relyzer.remaining_years
    );
    println!(
        "(measured MeRLiN reduction factor on qsort, 64 regs/16 SQ/32KB L1D: {measured_gain:.2e})\n"
    );
}

/// Table 4: truncated-run accuracy for gcc and bzip2 (RF, 128 registers).
fn table4(scale: &ExperimentScale) {
    println!("## Table 4 — truncated-interval accuracy for gcc and bzip2 (RF, 128 regs)\n");
    let cfg = spec_config();
    println!("category     gcc(MeRLiN)  gcc(baseline)  bzip2(MeRLiN)  bzip2(baseline)");
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for name in ["gcc", "bzip2"] {
        let w = workload_by_name(name).expect("workload exists");
        let session = session_for(&w, &cfg, scale);
        let ace = session.ace_profile().expect("ace");
        // Truncation horizon: half of the execution, standing in for the end
        // of the Simpoint interval.
        let horizon = session.golden().expect("golden").result.cycles / 2;
        let faults = generate_fault_list(
            Structure::RegisterFile,
            session.structure_entries(Structure::RegisterFile),
            horizon,
            scale.baseline_faults.min(1500),
            scale.seed,
        );
        let intervals = ace.structure(Structure::RegisterFile);
        let reduction = reduce_fault_list(&faults, intervals);
        // Baseline: truncated classification of every post-ACE fault, from
        // one campaign; MeRLiN: representatives extrapolated to their
        // groups.  The representative is one of its sub-group's faults, so
        // its effect comes from the same campaign.
        let post = session
            .post_ace_baseline(&reduction)
            .expect("post-ACE baseline");
        let effects: HashMap<_, _> = post.outcomes.iter().map(|o| (o.fault, o.effect)).collect();
        let truncated =
            |fault: FaultSpec| classify_truncated(effects[&fault], fault, intervals, horizon);
        let ace_masked = reduction.ace_masked.len() as u64;
        let mut baseline = HashMap::from([(TruncatedEffect::Masked, ace_masked)]);
        let mut merlin = baseline.clone();
        for o in &post.outcomes {
            *baseline.entry(truncated(o.fault)).or_default() += 1;
        }
        for g in &reduction.groups {
            for s in &g.subgroups {
                *merlin.entry(truncated(s.representative)).or_default() += s.faults.len() as u64;
            }
        }
        let total = faults.len() as f64;
        for map in [&merlin, &baseline] {
            columns.push(
                TruncatedEffect::all()
                    .iter()
                    .map(|e| 100.0 * *map.get(e).unwrap_or(&0) as f64 / total)
                    .collect(),
            );
        }
    }
    for (i, e) in TruncatedEffect::all().iter().enumerate() {
        println!(
            "{:<12} {:>10.2}%  {:>12.2}%  {:>12.2}%  {:>14.2}%",
            e.label(),
            columns[0][i],
            columns[1][i],
            columns[2][i],
            columns[3][i]
        );
    }
    println!();
}

/// Figures 6 and 7: fine-grained and coarse homogeneity of MeRLiN's groups.
fn fig6_fig7(scale: &ExperimentScale) {
    println!("## Figures 6 & 7 — homogeneity of fault effects inside MeRLiN groups\n");
    println!("benchmark(config)            fine  coarse  perfect-groups  groups");
    let mut per_structure: HashMap<Structure, Vec<f64>> = HashMap::new();
    for &structure in Structure::all() {
        for (label, cfg) in structure_sweep(structure) {
            for w in scale.filter(mibench_workloads()) {
                let cell = run_cell(&w, &cfg, structure, scale.baseline_faults, scale);
                // Full injection of the post-ACE list for the homogeneity
                // evaluation.
                let post = cell
                    .session
                    .post_ace_baseline(&cell.campaign.reduction)
                    .expect("post-ACE baseline");
                let effects: HashMap<_, _> =
                    post.outcomes.iter().map(|o| (o.fault, o.effect)).collect();
                let h = homogeneity(&cell.campaign.reduction, &effects);
                println!(
                    "{:<28} {:>5.3} {:>6.3} {:>14.1}% {:>7}",
                    format!("{} ({label})", w.name),
                    h.fine_grained,
                    h.coarse,
                    100.0 * h.perfect_group_fraction,
                    h.groups
                );
                per_structure
                    .entry(structure)
                    .or_default()
                    .push(h.fine_grained);
            }
        }
    }
    println!();
    for (s, values) in per_structure {
        let avg = values.iter().sum::<f64>() / values.len().max(1) as f64;
        println!("average fine-grained homogeneity for {s}: {avg:.3}");
    }
    println!();
}

/// Figures 8, 9 and 10: MeRLiN speedup per MiBench benchmark and structure
/// size, using the paper's full 60,000-fault statistical lists (reduction
/// needs no injection, so the paper-scale list is used directly).
fn speedup_mibench(structure: Structure, figure: &str, scale: &ExperimentScale) {
    println!("## {figure} — MeRLiN speedup for the {structure} (60,000-fault initial lists)\n");
    let widths = [14usize, 12, 14, 12, 10];
    println!(
        "{}",
        row(
            &[
                "benchmark".into(),
                "config".into(),
                "ACE-like x".into(),
                "total x".into(),
                "groups".into()
            ],
            &widths
        )
    );
    for (label, cfg) in structure_sweep(structure) {
        let mut ace_speedups = Vec::new();
        let mut total_speedups = Vec::new();
        for w in scale.filter(mibench_workloads()) {
            let session = session_for(&w, &cfg, scale);
            let ace = session.ace_profile().expect("ace");
            let initial = session
                .fault_list(structure, 60_000, scale.seed)
                .expect("golden");
            let red = reduce_fault_list(&initial, ace.structure(structure));
            println!(
                "{}",
                row(
                    &[
                        w.name.into(),
                        label.clone(),
                        format!("{:.1}", red.ace_speedup()),
                        format!("{:.1}", red.total_speedup()),
                        format!("{}", red.groups.len()),
                    ],
                    &widths
                )
            );
            ace_speedups.push(red.ace_speedup());
            total_speedups.push(red.total_speedup());
        }
        let n = ace_speedups.len().max(1) as f64;
        println!(
            "{}\n",
            row(
                &[
                    "average".into(),
                    label.clone(),
                    format!("{:.1}", ace_speedups.iter().sum::<f64>() / n),
                    format!("{:.1}", total_speedups.iter().sum::<f64>() / n),
                    String::new(),
                ],
                &widths
            )
        );
    }
}

/// Figure 11: projected wall-clock estimation time, baseline vs MeRLiN.
fn fig11(scale: &ExperimentScale) {
    println!("## Figure 11 — projected sequential estimation time (months)\n");
    // Measure this machine's raw simulator throughput on one MiBench
    // workload (a deliberate re-simulation loop, so it bypasses the session
    // cache and drives the core directly).
    let w = workload_by_name("sha").expect("sha exists");
    let cfg = CpuConfig::default();
    let start = Instant::now();
    let mut simulated = 0u64;
    for _ in 0..5 {
        let mut cpu = Cpu::new(w.program.clone(), cfg.clone()).expect("config");
        let result = cpu.run(500_000_000, &mut NullProbe);
        assert!(result.exit.is_halted(), "golden run failed");
        simulated += result.cycles;
    }
    let cps = simulated as f64 / start.elapsed().as_secs_f64();
    println!("measured simulator throughput: {cps:.0} cycles/second\n");
    println!("structure        baseline(60K x 9 configs x 10 bench)  MeRLiN");
    for &structure in Structure::all() {
        let mut baseline_months = 0.0;
        let mut merlin_months = 0.0;
        for (_, cfg) in structure_sweep(structure) {
            for w in scale.filter(mibench_workloads()) {
                let session = session_for(&w, &cfg, scale);
                let ace = session.ace_profile().expect("ace");
                let golden_cycles = session.golden().expect("golden").result.cycles;
                let initial = session
                    .fault_list(structure, 60_000, scale.seed)
                    .expect("golden");
                let red = reduce_fault_list(&initial, ace.structure(structure));
                baseline_months += WallClock {
                    runs: initial.len() as u64,
                    cycles_per_run: golden_cycles,
                    cycles_per_second: cps,
                }
                .months();
                merlin_months += WallClock {
                    runs: red.injections() as u64,
                    cycles_per_run: golden_cycles,
                    cycles_per_second: cps,
                }
                .months();
            }
        }
        println!("{structure:<16} {baseline_months:>22.2}  {merlin_months:>10.3}");
    }
    println!();
}

/// Figure 12: SPEC CPU2006 speedups (128 regs, 16 SQ, 32 KB L1D).
fn fig12(scale: &ExperimentScale) {
    println!("## Figure 12 — MeRLiN speedup on SPEC analogs (60,000-fault lists)\n");
    let cfg = spec_config();
    let widths = [12usize, 6, 12, 12];
    println!(
        "{}",
        row(
            &[
                "benchmark".into(),
                "unit".into(),
                "ACE-like x".into(),
                "total x".into()
            ],
            &widths
        )
    );
    let mut averages: HashMap<Structure, Vec<f64>> = HashMap::new();
    for w in scale.filter(spec_workloads()) {
        let session = session_for(&w, &cfg, scale);
        let ace = session.ace_profile().expect("ace");
        for &structure in Structure::all() {
            let initial = session
                .fault_list(structure, 60_000, scale.seed)
                .expect("golden");
            let red = reduce_fault_list(&initial, ace.structure(structure));
            println!(
                "{}",
                row(
                    &[
                        w.name.into(),
                        structure.short_name().into(),
                        format!("{:.1}", red.ace_speedup()),
                        format!("{:.1}", red.total_speedup()),
                    ],
                    &widths
                )
            );
            averages
                .entry(structure)
                .or_default()
                .push(red.total_speedup());
        }
    }
    println!();
    for (s, v) in averages {
        println!(
            "average final speedup for {s}: {:.1}x",
            v.iter().sum::<f64>() / v.len().max(1) as f64
        );
    }
    println!();
}

/// Figure 13: speedup scaling from 60,000 to 600,000-fault initial lists.
fn fig13(scale: &ExperimentScale) {
    println!("## Figure 13 — speedup scaling with the initial-list size (60K vs 600K)\n");
    let plans = [
        (
            "0.63% margin (60K)",
            SamplingPlan::paper_baseline(),
            60_000usize,
        ),
        (
            "0.19% margin (600K)",
            SamplingPlan::paper_scaled(),
            600_000usize,
        ),
    ];
    println!("config           structure   faults    ACE-like x   total x");
    let mut scaling: Vec<(f64, f64)> = Vec::new();
    for &structure in Structure::all() {
        for (label, cfg) in structure_sweep(structure) {
            let mut totals = Vec::new();
            for (plan_label, _plan, count) in &plans {
                let mut ace_sp = Vec::new();
                let mut tot_sp = Vec::new();
                for w in scale.filter(mibench_workloads()) {
                    let session = session_for(&w, &cfg, scale);
                    let ace = session.ace_profile().expect("ace");
                    let initial = session
                        .fault_list(structure, *count, scale.seed)
                        .expect("golden");
                    let red = reduce_fault_list(&initial, ace.structure(structure));
                    ace_sp.push(red.ace_speedup());
                    tot_sp.push(red.total_speedup());
                }
                let n = ace_sp.len().max(1) as f64;
                let avg_total = tot_sp.iter().sum::<f64>() / n;
                println!(
                    "{label:<16} {:<10} {plan_label:<20} {:>8.1} {:>9.1}",
                    structure.short_name(),
                    ace_sp.iter().sum::<f64>() / n,
                    avg_total
                );
                totals.push(avg_total);
            }
            if totals.len() == 2 {
                scaling.push((totals[0], totals[1]));
            }
        }
    }
    let avg_scale: f64 =
        scaling.iter().map(|(a, b)| b / a).sum::<f64>() / scaling.len().max(1) as f64;
    println!("\naverage speedup scaling factor (600K vs 60K): {avg_scale:.2}x\n");
}

/// Figures 14, 15 and 16: classification accuracy after ACE-like, against
/// the comprehensive baseline, and the final FIT rates.
fn accuracy_figures(scale: &ExperimentScale) {
    println!("## Figures 14, 15 & 16 — classification accuracy and FIT (averages over MiBench)\n");
    let mut sched_sum = merlin_inject::ScheduleStats::default();
    for &structure in Structure::all() {
        for (label, cfg) in structure_sweep(structure) {
            let mut comprehensive_sum = Classification::default();
            let mut post_ace_sum = Classification::default();
            let mut merlin_post_ace_sum = Classification::default();
            let mut merlin_sum = Classification::default();
            let mut ace_avfs = Vec::new();
            for w in scale.filter(mibench_workloads()) {
                let cell = run_cell(&w, &cfg, structure, scale.baseline_faults, scale);
                let comprehensive = cell
                    .session
                    .comprehensive(&cell.campaign.initial_faults)
                    .expect("comprehensive baseline");
                sched_sum += comprehensive.schedule;
                let post_ace = cell
                    .session
                    .post_ace_baseline(&cell.campaign.reduction)
                    .expect("post-ACE baseline");
                comprehensive_sum += comprehensive.classification;
                post_ace_sum += post_ace.classification;
                merlin_post_ace_sum += cell.campaign.report.post_ace_classification;
                merlin_sum += cell.campaign.report.classification;
                ace_avfs.push(cell.ace.structure(structure).ace_avf());
            }
            println!("--- {structure} ({label}) ---");
            println!("Figure 14   post-ACE baseline: {post_ace_sum}");
            println!("Figure 14   MeRLiN (post-ACE):  {merlin_post_ace_sum}");
            println!("Figure 15   comprehensive:      {comprehensive_sum}");
            println!("Figure 15   MeRLiN (final):     {merlin_sum}");
            println!(
                "Figure 15   max inaccuracy: {:.2} percentile units",
                merlin_sum.max_inaccuracy(&comprehensive_sum)
            );
            let bits = structure_bits(&cfg, structure);
            let ace_avf = ace_avfs.iter().sum::<f64>() / ace_avfs.len().max(1) as f64;
            println!(
                "Figure 16   FIT baseline {:.3} | MeRLiN {:.3} | ACE-like {:.3}\n",
                fit_rate(comprehensive_sum.avf(), bits),
                fit_rate(merlin_sum.avf(), bits),
                fit_rate(ace_avf, bits)
            );
        }
    }
    println!(
        "scheduler totals across comprehensive baselines: {} ranges, {} restores, \
         {} suffix cycles simulated\n",
        sched_sum.ranges, sched_sum.restores, sched_sum.suffix_cycles
    );
    println!(
        "failure containment: {} engine asserts, {} range retries, \
         {} skipped sites, {} corrupt golden artifacts quarantined\n",
        sched_sum.asserts,
        sched_sum.range_retries,
        sched_sum.skipped_sites,
        merlin_bench::session_cache().artifact_rejects()
    );
    println!(
        "static analysis: {} register-file faults classified Masked with zero simulation\n",
        sched_sum.static_prunes
    );
    println!(
        "batched suffix simulation: {} dead sites resolved without a fork, \
         {} forks spawned ({} probe-retired), {} golden replay cycles shared\n",
        sched_sum.dead_sites,
        sched_sum.forks_spawned,
        sched_sum.forks_retired,
        sched_sum.golden_replay_cycles
    );
    println!(
        "copy-on-write forks: {} sharing breaks on first write\n",
        sched_sum.cow_breaks
    );
}

/// Figure 17: inaccuracy of MeRLiN vs the Relyzer control-equivalence
/// heuristic relative to injecting the whole post-ACE list.
fn fig17(scale: &ExperimentScale) {
    println!("## Figure 17 — inaccuracy vs the post-ACE baseline (percentile units)\n");
    let configs = [
        (
            Structure::RegisterFile,
            CpuConfig::default().with_phys_regs(128),
        ),
        (
            Structure::StoreQueue,
            CpuConfig::default().with_store_queue(16),
        ),
        (Structure::L1DCache, CpuConfig::default().with_l1d_kb(32)),
    ];
    println!("structure  class     Relyzer   MeRLiN");
    for (structure, cfg) in configs {
        let mut post_ace_sum = Classification::default();
        let mut merlin_sum = Classification::default();
        let mut relyzer_sum = Classification::default();
        let mut merlin_speedups = Vec::new();
        let mut relyzer_speedups = Vec::new();
        for w in scale.filter(mibench_workloads()) {
            let cell = run_cell(&w, &cfg, structure, scale.baseline_faults, scale);
            let post_ace = cell
                .session
                .post_ace_baseline(&cell.campaign.reduction)
                .expect("post-ACE baseline");
            post_ace_sum += post_ace.classification;
            merlin_sum += cell.campaign.report.post_ace_classification;
            merlin_speedups.push(cell.campaign.report.speedup_total);
            // Relyzer heuristic over the same post-ACE list.
            let relyzer_red =
                relyzer_reduce(&cell.campaign.initial_faults, cell.ace.structure(structure));
            let (mut relyzer_cls, injections) =
                cell.session.relyzer(&relyzer_red).expect("relyzer");
            // Restrict to the post-ACE portion for a like-for-like comparison.
            relyzer_cls.masked -= relyzer_red.ace_masked.len() as u64;
            relyzer_sum += relyzer_cls;
            relyzer_speedups.push(relyzer_red.initial_faults() as f64 / injections.max(1) as f64);
        }
        for &class in FaultEffect::all() {
            println!(
                "{:<10} {:<9} {:>7.2} {:>8.2}",
                structure.short_name(),
                class.label(),
                relyzer_sum.inaccuracy(&post_ace_sum, class),
                merlin_sum.inaccuracy(&post_ace_sum, class)
            );
        }
        println!(
            "{:<10} average speedup: MeRLiN {:.1}x, Relyzer heuristic {:.1}x\n",
            structure.short_name(),
            merlin_speedups.iter().sum::<f64>() / merlin_speedups.len().max(1) as f64,
            relyzer_speedups.iter().sum::<f64>() / relyzer_speedups.len().max(1) as f64
        );
    }
}

/// §4.4.5: theoretical mean/variance equivalence, evaluated on measured
/// groups.
fn theory(scale: &ExperimentScale) {
    println!("## §4.4.5 — statistical behaviour of the MeRLiN estimator\n");
    let w = workload_by_name("fft").expect("fft exists");
    let cfg = CpuConfig::default().with_phys_regs(128);
    let cell = run_cell(
        &w,
        &cfg,
        Structure::RegisterFile,
        scale.baseline_faults,
        scale,
    );
    let post_ace = cell
        .session
        .post_ace_baseline(&cell.campaign.reduction)
        .expect("post-ACE baseline");
    let effects: HashMap<_, _> = post_ace
        .outcomes
        .iter()
        .map(|o| (o.fault, o.effect))
        .collect();
    let counts: Vec<(u64, u64)> = cell
        .campaign
        .reduction
        .groups
        .iter()
        .flat_map(|g| g.subgroups.iter())
        .map(|s| {
            let non_masked = s
                .faults
                .iter()
                .filter(|f| {
                    effects
                        .get(&f.fault)
                        .map(|e| e.is_non_masked())
                        .unwrap_or(false)
                })
                .count() as u64;
            (s.len() as u64, non_masked)
        })
        .collect();
    let stats = group_stats_from_counts(&counts);
    let moments = AvfMoments::from_groups(&stats, cell.campaign.reduction.ace_masked.len() as u64);
    println!("total faults F              = {}", moments.total_faults);
    println!("E[k] = E[k_MeRLiN]          = {:.6}", moments.mean);
    println!(
        "Var[k]  (comprehensive)     = {:.3e}",
        moments.variance_comprehensive
    );
    println!(
        "Var[k_MeRLiN]               = {:.3e}",
        moments.variance_merlin
    );
    println!(
        "std-dev inflation           = {:.2}x",
        moments.stddev_inflation()
    );
    println!(
        "mean group size             = {:.1}",
        cell.campaign.report.mean_group_size
    );
    println!(
        "measured AVF (MeRLiN)        = {:.4}, measured AVF (baseline over post-ACE+pruned) = {:.4}\n",
        cell.campaign.report.avf(),
        (post_ace.classification.non_masked() as f64)
            / cell.campaign.report.initial_faults as f64
    );
}

/// §1 footnote: injection-based AVF vs register-file size, contrasted with
/// the ACE-like upper bound.
fn avf_rf(scale: &ExperimentScale) {
    println!("## AVF vs register file size (injection vs ACE-like upper bound)\n");
    println!("config    injection-AVF  ACE-like-AVF");
    for (label, cfg) in structure_sweep(Structure::RegisterFile) {
        let mut merlin_sum = Classification::default();
        let mut ace_avfs = Vec::new();
        for w in scale.filter(mibench_workloads()) {
            let cell = run_cell(
                &w,
                &cfg,
                Structure::RegisterFile,
                scale.baseline_faults,
                scale,
            );
            merlin_sum += cell.campaign.report.classification;
            ace_avfs.push(cell.ace.structure(Structure::RegisterFile).ace_avf());
        }
        println!(
            "{label:<9} {:>12.2}% {:>12.2}%",
            100.0 * merlin_sum.avf(),
            100.0 * ace_avfs.iter().sum::<f64>() / ace_avfs.len().max(1) as f64
        );
    }
    println!();
}
