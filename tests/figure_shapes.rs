//! Shape assertions for the paper's figures.
//!
//! Absolute cycle counts belong to our synthetic machines, but the
//! *qualitative* results the paper reports must hold. Each test pins one
//! such claim so regressions in any layer (SLMS, schedulers, simulator)
//! surface as figure-shape breaks.

use slc_bench::harness::{self, GapRow, LoopRow};
use slc_core::SlmsConfig;
use slc_machine::mach::MachineDesc;
use slc_pipeline::{BatchConfig, BatchEngine, CellMetrics, CompilerKind, PassPlan};
use slc_sim::presets::{arm7tdmi, itanium2};
use slc_workloads::Workload;

fn geo_mean(rows: &[LoopRow]) -> f64 {
    (rows.iter().map(|r| r.speedup.max(1e-9).ln()).sum::<f64>() / rows.len() as f64).exp()
}

/// The cells of workload `name` on `m`, one batch run with the default SLMS
/// configuration: per personality of `compilers`, the original cell then
/// the SLMS'd one.
fn cells(name: &str, m: MachineDesc, compilers: &[CompilerKind]) -> (Workload, Vec<CellMetrics>) {
    let w = slc_workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap();
    let report = BatchEngine::new().run(&BatchConfig {
        workloads: vec![w.clone()],
        machines: vec![m],
        compilers: compilers.to_vec(),
        slms: SlmsConfig::default(),
        plan: PassPlan::slms_only(),
        threads: Some(1),
        verify: false,
    });
    let cells = report
        .cells
        .into_iter()
        .map(|c| c.outcome.unwrap_or_else(|e| panic!("{name} failed: {e}")))
        .collect();
    (w, cells)
}

/// The figure row of workload `name` on `m` under `kind`.
fn row(name: &str, m: MachineDesc, kind: CompilerKind) -> LoopRow {
    let (w, c) = cells(name, m, &[kind]);
    LoopRow::new(&w, &c[0], &c[1])
}

#[test]
fn dot_product_speeds_up_on_weak_vliw() {
    let r = row("intro_dot", itanium2(), CompilerKind::Weak);
    assert!(r.transformed);
    assert!(r.speedup > 1.0, "expected speedup on weak VLIW, got {r:?}");
}

#[test]
fn gap_closure_positive_for_dot() {
    let (_, c) = cells(
        "intro_dot",
        itanium2(),
        &[CompilerKind::Weak, CompilerKind::Optimizing],
    );
    // [weak orig, weak slms, opt orig, opt slms]
    let g = GapRow::new("intro_dot", c[0].cycles, c[2].cycles, c[1].cycles);
    assert!(g.weak >= g.opt);
    assert!(g.gap_closed > 0.0, "{g:?}");
}

#[test]
fn fig14_slms_wins_over_weak_compiler_on_vliw() {
    // §9.1: SLMS improves execution times over a relatively weak compiler.
    let (_o0, o3) = harness::fig14();
    let wins = o3.rows.iter().filter(|r| r.speedup > 1.0).count();
    assert!(
        wins * 2 > o3.rows.len(),
        "majority of Livermore/Linpack loops should win: {}/{}",
        wins,
        o3.rows.len()
    );
    assert!(geo_mean(&o3.rows) > 1.2, "geomean {}", geo_mean(&o3.rows));
}

#[test]
fn fig14_has_bad_cases_too() {
    // The paper stresses SLMS must be applied selectively — some loops lose.
    let (_o0, o3) = harness::fig14();
    assert!(
        o3.rows.iter().any(|r| r.transformed && r.speedup < 1.0),
        "expected at least one regression among transformed loops"
    );
}

#[test]
fn kernel8_bundle_reduction() {
    // §9.1: kernel 8's big parallel body — GCC's assembly had 23 bundles
    // before and 16 after SLMS. Our analogue must show the same direction.
    let (_o0, o3) = harness::fig14();
    let k8 = o3.rows.iter().find(|r| r.name == "kernel8_adi").unwrap();
    assert!(k8.transformed);
    assert!(k8.slms_ii == Some(1));
    assert!(
        k8.slms_bundles < k8.base_bundles,
        "bundles {} !< {}",
        k8.slms_bundles,
        k8.base_bundles
    );
    assert!(k8.speedup > 1.1, "{k8:?}");
}

#[test]
fn fig18_coexistence_with_machine_ms() {
    // §9.2: SLMS still helps when the final compiler runs machine MS, and
    // machine MS keeps firing on most SLMS'd loops.
    let f = harness::fig18();
    assert!(geo_mean(&f.rows) > 1.0, "geomean {}", geo_mean(&f.rows));
    let both_ms = f.rows.iter().filter(|r| r.base_ms && r.slms_ms).count();
    assert!(
        both_ms * 2 > f.rows.len(),
        "machine MS should still fire after SLMS on most loops: {both_ms}/{}",
        f.rows.len()
    );
}

#[test]
fn fig18_idamax_anecdote() {
    // §9.2: for idamax2, ICC performed MS only *before* SLMS, and SLMS had
    // a negative effect of roughly 15% — our pipeline reproduces both the
    // suppression and the sign.
    let f = harness::fig18();
    let r = f.rows.iter().find(|r| r.name == "idamax2").unwrap();
    assert!(r.base_ms, "machine MS should fire on original idamax2");
    assert!(!r.slms_ms, "machine MS should not fire after SLMS");
    assert!(r.speedup < 1.0, "idamax2 should regress: {r:?}");
}

#[test]
fn arm_gains_smaller_than_vliw_gains() {
    // §9.3: ARM results are worse than the other architectures — the
    // single-issue core can only hide memory latency, not fill issue slots.
    let (_o0, vliw) = harness::fig14();
    let arm = harness::fig21_22();
    let g_vliw = geo_mean(&vliw.rows);
    let g_arm = geo_mean(&arm.rows);
    assert!(
        g_arm < g_vliw,
        "ARM geomean {g_arm} should be below VLIW geomean {g_vliw}"
    );
    // and not all loops win on ARM
    assert!(arm.rows.iter().any(|r| r.speedup < 1.0));
    // power follows cycles (paper: clear correlation)
    let improving_power = arm.rows.iter().filter(|r| r.power_ratio > 1.0).count();
    let improving_cycles = arm.rows.iter().filter(|r| r.speedup > 1.0).count();
    assert!(
        (improving_power as i64 - improving_cycles as i64).abs() <= 4,
        "power and cycle improvements should correlate: {improving_power} vs {improving_cycles}"
    );
}

#[test]
fn swap_loop_filtered_by_memref_ratio() {
    // §4: the swap loop's ratio 0.857 ≥ 0.85 keeps SLMS off.
    let r = row("sec4_swap", itanium2(), CompilerKind::Optimizing);
    assert!(!r.transformed, "{r:?}");
    assert_eq!(r.speedup, 1.0);
}

#[test]
fn sec7_register_pressure_case() {
    // Fig. 11: IMS's modulo-expanded lifetimes exceed the register file and
    // the spill traffic erases its advantage; SLMS + list scheduling stays
    // within the file and wins.
    let report = harness::sec7_cases();
    let line = report
        .lines()
        .find(|l| l.starts_with("fig11-style"))
        .unwrap();
    // parse "… spills=N cycles=A | … spills=0 cycles=B"
    let nums: Vec<i64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    // fields: [11, ims_pressure, ims_spills, ims_cycles, slms_pressure, slms_spills, slms_cycles]
    let (ims_spills, ims_cycles, slms_spills, slms_cycles) = (nums[2], nums[3], nums[5], nums[6]);
    assert!(ims_spills > 0, "IMS must spill: {line}");
    assert_eq!(slms_spills, 0, "SLMS must not spill: {line}");
    assert!(
        slms_cycles < ims_cycles,
        "SLMS should win the fig11 case: {line}"
    );
}

#[test]
fn sec6_order_of_transformations_matters() {
    let report = harness::sec6_interactions();
    let grab = |tag: &str| -> i64 {
        report
            .lines()
            .find(|l| l.starts_with(tag))
            .and_then(|l| l.split_whitespace().rev().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {tag} in:\n{report}"))
    };
    let orig = grab("original:");
    let fuse_slms = grab("fusion→SLMS:");
    assert!(
        fuse_slms < orig,
        "fusion→SLMS should beat the original: {report}"
    );
}

/// The plan-driven §6 study must measure exactly what the hand-applied
/// transforms measure: same per-loop IIs, same transformed programs.
#[test]
fn sec6_plans_match_hand_coded_transforms() {
    use slc_core::slms_program;
    use slc_pipeline::PassManager;
    use slc_transforms::fuse;

    let prog = slc_ast::parse_program(harness::SEC6_SRC).unwrap();
    let cfg = harness::nofilter_cfg();
    let pm = PassManager::new(cfg.clone());
    let (plan_slms, plan_fuse_slms) = harness::sec6_plans();

    let iis = |outcomes: &[slc_core::LoopOutcome]| -> Vec<i64> {
        outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok().map(|r| r.ii))
            .collect()
    };

    // SLMS-per-loop: plan vs direct slms_program
    let (hand, hand_outcomes) = slms_program(&prog, &cfg);
    let (via_plan, sink) = pm.run(&prog, &plan_slms).unwrap();
    assert_eq!(slc_ast::to_source(&hand), slc_ast::to_source(&via_plan));
    let plan_iis: Vec<i64> = sink
        .all_outcomes()
        .filter_map(|o| o.result.as_ref().ok().map(|r| r.ii))
        .collect();
    assert_eq!(iis(&hand_outcomes), plan_iis);
    assert_eq!(plan_iis.len(), 2, "both twin loops pipelined");

    // fusion→SLMS: plan vs hand-applied fuse + slms_program
    let fused_stmt = fuse(&prog.stmts[0], &prog.stmts[1]).expect("same headers");
    let mut fused = prog.clone();
    fused.stmts = vec![fused_stmt];
    let (hand2, hand2_outcomes) = slms_program(&fused, &cfg);
    let (via_plan2, sink2) = pm.run(&prog, &plan_fuse_slms).unwrap();
    assert_eq!(slc_ast::to_source(&hand2), slc_ast::to_source(&via_plan2));
    let plan2_iis: Vec<i64> = sink2
        .all_outcomes()
        .filter_map(|o| o.result.as_ref().ok().map(|r| r.ii))
        .collect();
    assert_eq!(iis(&hand2_outcomes), plan2_iis);
}

#[test]
fn arm_power_and_cycles_improve_for_compute_loops() {
    // ddot-like loops hide load latency on ARM → both metrics improve.
    let r = row("ddot2", arm7tdmi(), CompilerKind::Optimizing);
    assert!(r.speedup > 1.0, "{r:?}");
    assert!(r.power_ratio > 1.0, "{r:?}");
}

#[test]
fn fig16_gap_closure_positive_on_average() {
    let (rows, _) = harness::fig16();
    let avg = rows.iter().map(|r| r.gap_closed).sum::<f64>() / rows.len() as f64;
    assert!(avg > 0.05, "mean gap closed {avg}");
    assert!(
        rows.iter().any(|r| r.gap_closed > 0.25),
        "some loop should close a quarter of the gap"
    );
}

#[test]
fn expansion_ablation_reports_ties() {
    // A loop on which every expansion mode reaches the same cycle count has
    // no best mode; crediting it to one of them skews the summary.
    let report = harness::ablation_expansion();
    let mut tied = 0;
    for line in report.lines().skip(2) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 {
            continue;
        }
        if f[4] == "tie" {
            tied += 1;
        }
        if f[1] == f[2] && f[2] == f[3] {
            assert_eq!(f[4], "tie", "equal speedups must read tie: {line}");
        }
    }
    assert!(tied > 0, "{report}");
    assert!(
        report.ends_with(&format!("/ tied {tied}\n")),
        "summary must count the {tied} tied rows: {report}"
    );
}

#[test]
fn full_report_matches_checked_in_golden() {
    // Every figure table is pinned byte for byte, not just its shape: the
    // `figures` example prints `full_report()` plus a newline.
    let got = format!("{}\n", harness::full_report());
    let want = include_str!("../BENCH_figures.txt");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "figure report differs from BENCH_figures.txt at line {}; regenerate with \
             `cargo run --release -q --example figures > BENCH_figures.txt` only after \
             an intended change",
            line + 1
        );
    }
}

#[test]
fn experiments_md_quotes_the_golden_verbatim() {
    let doc = include_str!("../EXPERIMENTS.md");
    let golden = include_str!("../BENCH_figures.txt");
    assert!(
        doc.contains(&format!("```text\n{golden}```\n")),
        "EXPERIMENTS.md's fenced tables differ from BENCH_figures.txt; paste the golden in"
    );
}
