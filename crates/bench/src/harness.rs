//! Figure-regeneration harness.
//!
//! One function per figure of §9 (and per §6/§7 case study). Each returns
//! the measured rows *and* a formatted table; [`full_report`] concatenates
//! every table into the text pinned byte for byte by `BENCH_figures.txt`,
//! which EXPERIMENTS.md quotes. The absolute numbers come from the
//! workspace's synthetic machines, so only the *shape* (who wins, by
//! roughly what factor) is comparable with the paper.

use slc_core::{slms_program, Expansion, SlmsConfig};
use slc_machine::mach::MachineDesc;
use slc_pipeline::{
    format_rows, measure_gap, measure_suite_on, measure_workload, run, BatchEngine, CompilerKind,
    GapRow, LoopRow, PassManager, PassPlan,
};
use slc_sim::presets::{arm7tdmi, itanium2, pentium, power4};
use slc_workloads::{linpack, livermore, nas, stone, Workload};
use std::sync::OnceLock;

/// One artifact cache shared by every figure of the harness: fig14/fig18
/// (same workloads, different personality) share parse + SLMS + LIR work,
/// the ablations share everything but the changed axis, and so on.
fn engine() -> &'static BatchEngine {
    static ENGINE: OnceLock<BatchEngine> = OnceLock::new();
    ENGINE.get_or_init(BatchEngine::new)
}

/// Default SLMS configuration used by the figures (filter on, MVE on).
pub fn default_cfg() -> SlmsConfig {
    SlmsConfig::default()
}

/// SLMS configuration with the §4 filter disabled (ablations).
pub fn nofilter_cfg() -> SlmsConfig {
    SlmsConfig {
        apply_filter: false,
        ..SlmsConfig::default()
    }
}

/// A complete figure result.
pub struct Figure {
    /// figure identifier (`fig14`, …)
    pub id: &'static str,
    /// measured rows
    pub rows: Vec<LoopRow>,
    /// formatted table
    pub table: String,
}

fn make_figure(
    id: &'static str,
    title: &str,
    ws: &[Workload],
    m: &MachineDesc,
    kind: CompilerKind,
    cfg: &SlmsConfig,
) -> Figure {
    let rows = measure_suite_on(engine(), ws, m, kind, cfg);
    let table = format_rows(title, &rows);
    Figure { id, rows, table }
}

/// Figure 14: Livermore & Linpack over a GCC-class compiler on Itanium II.
/// Returns the −O0-class (`Weak`) and −O3-class (`Optimizing`) variants.
pub fn fig14() -> (Figure, Figure) {
    let mut ws = livermore();
    ws.extend(linpack());
    let m = itanium2();
    (
        make_figure(
            "fig14-O0",
            "Fig 14 — Livermore & Linpack, GCC-class -O0, Itanium-II-like VLIW",
            &ws,
            &m,
            CompilerKind::Weak,
            &default_cfg(),
        ),
        make_figure(
            "fig14-O3",
            "Fig 14 — Livermore & Linpack, GCC-class -O3 (list scheduling), Itanium-II-like VLIW",
            &ws,
            &m,
            CompilerKind::Optimizing,
            &default_cfg(),
        ),
    )
}

/// Figure 15: Stone & NAS over the GCC-class compiler on Itanium II.
pub fn fig15() -> (Figure, Figure) {
    let mut ws = stone();
    ws.extend(nas());
    let m = itanium2();
    (
        make_figure(
            "fig15-O0",
            "Fig 15 — Stone & NAS, GCC-class -O0, Itanium-II-like VLIW",
            &ws,
            &m,
            CompilerKind::Weak,
            &default_cfg(),
        ),
        make_figure(
            "fig15-O3",
            "Fig 15 — Stone & NAS, GCC-class -O3 (list scheduling), Itanium-II-like VLIW",
            &ws,
            &m,
            CompilerKind::Optimizing,
            &default_cfg(),
        ),
    )
}

/// Figure 16: SLMS without −O3 closing the (−O0 → −O3) gap.
///
/// Measured on the superscalar preset: with a `Weak` final compiler the
/// instruction *order* is all the hardware has to work with, so the gap a
/// scheduling `-O3` opens is exactly what source-level reordering can
/// recover. (On a VLIW a compiler that refuses to bundle wastes the width
/// regardless of source order, so no source tool can close that gap.)
pub fn fig16() -> (Vec<GapRow>, String) {
    let mut ws = livermore();
    ws.extend(linpack());
    ws.extend(nas());
    let m = power4();
    let cfg = default_cfg();
    let rows: Vec<GapRow> = ws
        .iter()
        .map(|w| measure_gap(w, &m, &cfg).expect("lowerable workload"))
        .collect();
    let mut table = String::from(
        "== Fig 16 — SLMS w/o -O3 closes the gap to -O3 (Power4-like superscalar) ==\n",
    );
    table.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>12} {:>10}\n",
        "loop", "weak(cyc)", "O3(cyc)", "slms+weak", "gap-closed"
    ));
    for r in &rows {
        table.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>12} {:>9.1}%\n",
            r.name,
            r.weak,
            r.opt,
            r.slms_weak,
            100.0 * r.gap_closed
        ));
    }
    let avg = rows.iter().map(|r| r.gap_closed).sum::<f64>() / rows.len().max(1) as f64;
    table.push_str(&format!("-- mean gap closed: {:.1}%\n", 100.0 * avg));
    (rows, table)
}

/// Figure 17: superscalar Pentium-class machine, GCC-class compiler.
pub fn fig17() -> (Figure, Figure) {
    let mut ws = livermore();
    ws.extend(linpack());
    let m = pentium();
    (
        make_figure(
            "fig17-O0",
            "Fig 17 — Livermore & Linpack, GCC-class -O0, Pentium-like superscalar",
            &ws,
            &m,
            CompilerKind::Weak,
            &default_cfg(),
        ),
        make_figure(
            "fig17-O3",
            "Fig 17 — Livermore & Linpack, GCC-class -O3, Pentium-like superscalar",
            &ws,
            &m,
            CompilerKind::Optimizing,
            &default_cfg(),
        ),
    )
}

/// Figure 18: Livermore & Linpack over an ICC-class compiler (machine-level
/// IMS enabled) on Itanium II.
pub fn fig18() -> Figure {
    let mut ws = livermore();
    ws.extend(linpack());
    make_figure(
        "fig18",
        "Fig 18 — Livermore & Linpack, ICC-class (-O3 + machine MS), Itanium-II-like VLIW",
        &ws,
        &itanium2(),
        CompilerKind::OptimizingMs,
        &default_cfg(),
    )
}

/// Figure 19: Stone & NAS over the ICC-class compiler.
pub fn fig19() -> Figure {
    let mut ws = stone();
    ws.extend(nas());
    make_figure(
        "fig19",
        "Fig 19 — Stone & NAS, ICC-class (-O3 + machine MS), Itanium-II-like VLIW",
        &ws,
        &itanium2(),
        CompilerKind::OptimizingMs,
        &default_cfg(),
    )
}

/// Figure 20: Livermore & Linpack + NAS over an XLC-class compiler on
/// Power4.
pub fn fig20() -> Figure {
    let mut ws = livermore();
    ws.extend(linpack());
    ws.extend(nas());
    make_figure(
        "fig20",
        "Fig 20 — Livermore & Linpack + NAS, XLC-class, Power4-like superscalar",
        &ws,
        &power4(),
        CompilerKind::OptimizingMs,
        &default_cfg(),
    )
}

/// Figures 21 & 22: ARM power dissipation and cycle count. Returns the rows
/// (power ratio and cycle ratio live in the same [`LoopRow`]).
pub fn fig21_22() -> Figure {
    let mut ws = livermore();
    ws.extend(linpack());
    ws.extend(stone());
    make_figure(
        "fig21-22",
        "Fig 21/22 — power dissipation and cycles, ARM7TDMI-like scalar core",
        &ws,
        &arm7tdmi(),
        CompilerKind::Optimizing,
        &default_cfg(),
    )
}

/// §7 case studies: loops engineered so machine-level IMS struggles where
/// SLMS succeeds. Returns a formatted report.
pub fn sec7_cases() -> String {
    let mut out = String::from("== §7 — cases where SLMS beats machine-level MS ==\n");
    // Case A (Fig. 11): long-latency producer feeding a tight recurrence —
    // IMS at small II keeps many stage-crossing values alive → pressure.
    // Several long-latency producer chains (x-style ops of Fig. 11) feeding
    // a 1-cycle recurrence (y/z): IMS reaches a small II, so each producer's
    // value stays live across many stages → modulo-expanded register
    // pressure beyond the 16 architected registers → spill traffic. SLMS
    // with plain list scheduling keeps one iteration in flight.
    let src = "float z[2012]; float x1[2012]; float x2[2012]; float x3[2012]; \
               float x4[2012]; float y; int i;\n\
               for (i = 1; i < 2000; i++) {\n\
                 x1[i] = z[i - 1] * z[i - 1] * 3.5;\n\
                 x2[i] = z[i - 1] * z[i - 1] * 4.5;\n\
                 x3[i] = z[i - 1] * z[i - 1] * 5.5;\n\
                 x4[i] = z[i - 1] * z[i - 1] * 6.5;\n\
                 y = y + z[i];\n\
                 z[i] = y * 0.25;\n\
               }";
    let prog = slc_ast::parse_program(src).unwrap();
    // few-register wide machine (VLIW with a Pentium-sized register file)
    let mut m = pentium();
    m.issue = slc_machine::mach::IssueModel::StaticVliw;
    m.issue_width = 6;
    m.units = [4, 2, 2, 2, 1, 2, 1];
    let base = run(&prog, &m, CompilerKind::OptimizingMs).unwrap();
    let (slmsed, _) = slms_program(&prog, &nofilter_cfg());
    let after = run(&slmsed, &m, CompilerKind::Optimizing).unwrap();
    let binfo = &base.compile.loops[0];
    let ainfo = &after.compile.loops[0];
    out.push_str(&format!(
        "fig11-style: IMS pressure={} spills={} cycles={} | SLMS+list pressure={} spills={} cycles={}\n",
        binfo.reg_pressure,
        binfo.spilled,
        base.sim.cycles,
        ainfo.reg_pressure,
        ainfo.spilled,
        after.sim.cycles
    ));
    // Case B (Fig. 12): the Rau A1..A4 shape — two loads + two FP ops that
    // collide in the reservation table rows at the recurrence II.
    let src2 = "float A[2012]; float B[2012]; float r0; float r1; float r2; int i;\n\
               for (i = 1; i < 2000; i++) {\n\
                 r1 = r0 + A[i];\n\
                 r2 = r1 * B[i];\n\
                 A[i + 1] = r2 * 0.5;\n\
                 B[i + 1] = r2 + r0;\n\
               }";
    let prog2 = slc_ast::parse_program(src2).unwrap();
    let m2 = itanium2();
    let base2 = run(&prog2, &m2, CompilerKind::OptimizingMs).unwrap();
    let (slmsed2, oc2) = slms_program(&prog2, &nofilter_cfg());
    let after2 = run(&slmsed2, &m2, CompilerKind::Optimizing).unwrap();
    out.push_str(&format!(
        "fig12-style: machine-MS applied={} cycles={} | SLMS ok={} cycles={}\n",
        base2.compile.loops[0].ms_applied,
        base2.sim.cycles,
        oc2.iter().any(|o| o.result.is_ok()),
        after2.sim.cycles
    ));
    out
}

/// Source of the §6 / Fig. 9 order-study loops, shared with the tests that
/// cross-check the plan-driven study against hand-applied transforms.
pub const SEC6_SRC: &str = "float a[2012]; float b[2012]; int i;\n\
               for (i = 1; i < 2000; i++) { a[i] = a[i - 1] * 2.0 + a[i + 1] * 2.0; }\n\
               for (i = 1; i < 2000; i++) { b[i] = b[i - 1] * 2.0 + b[i + 1] * 2.0; }";

/// The two §6 orderings as pass plans: SLMS alone vs fusion-then-SLMS.
pub fn sec6_plans() -> (PassPlan, PassPlan) {
    (
        PassPlan::parse("slms").unwrap(),
        PassPlan::parse("fuse:0+1,slms").unwrap(),
    )
}

/// §6 interaction study: SLMS∘fusion vs fusion∘SLMS (Fig. 9 loops), driven
/// by the two [`sec6_plans`] — the ordering is *data*, not code.
pub fn sec6_interactions() -> String {
    let prog = slc_ast::parse_program(SEC6_SRC).unwrap();
    let m = itanium2();
    let pm = PassManager::new(nofilter_cfg());
    let (plan_slms, plan_fuse_slms) = sec6_plans();
    let mut out = String::from("== §6 — transformation-order study (Fig. 9) ==\n");

    // original
    let base = run(&prog, &m, CompilerKind::Optimizing).unwrap();
    out.push_str(&format!("original:      {} cycles\n", base.sim.cycles));

    // SLMS → fusion order: SLMS each loop separately (kernels differ, so
    // fusion of the two SLMS'd loops is not header-compatible — the paper's
    // point is exactly that order changes the result; we measure SLMS-only).
    let (slms_first, sink_a) = pm.run(&prog, &plan_slms).expect("plan applies");
    let a = run(&slms_first, &m, CompilerKind::Optimizing).unwrap();
    out.push_str(&format!("SLMS per loop: {} cycles\n", a.sim.cycles));

    // fusion → SLMS order
    let (slms_after_fuse, sink_b) = pm.run(&prog, &plan_fuse_slms).expect("plan applies");
    let b = run(&slms_after_fuse, &m, CompilerKind::Optimizing).unwrap();
    out.push_str(&format!("fusion→SLMS:   {} cycles\n", b.sim.cycles));

    let iis = |sink: &slc_core::DiagSink| -> Vec<i64> {
        sink.all_outcomes()
            .filter_map(|o| o.result.as_ref().ok().map(|r| r.ii))
            .collect()
    };
    out.push_str(&format!(
        "plan `{plan_slms}`: per-loop II {:?} | plan `{plan_fuse_slms}`: per-loop II {:?}\n",
        iis(&sink_a),
        iis(&sink_b)
    ));
    out
}

/// §4 ablation: filter on vs off across the full suite; the filter should
/// remove most regressions while keeping the wins.
pub fn ablation_filter() -> String {
    let ws = slc_workloads::all();
    let m = itanium2();
    let on = measure_suite_on(engine(), &ws, &m, CompilerKind::Optimizing, &default_cfg());
    let off = measure_suite_on(engine(), &ws, &m, CompilerKind::Optimizing, &nofilter_cfg());
    let mut out = String::from("== §4 ablation — memory-ref-ratio filter ==\n");
    out.push_str(&format!(
        "{:<24} {:>10} {:>10} {:>9} {:>9}\n",
        "loop", "off", "on", "off-spd", "on-spd"
    ));
    for (a, b) in off.iter().zip(&on) {
        out.push_str(&format!(
            "{:<24} {:>10} {:>10} {:>9.3} {:>9.3}{}\n",
            a.name,
            a.slms_cycles,
            b.slms_cycles,
            a.speedup,
            b.speedup,
            if !b.transformed && a.transformed {
                "   [filtered]"
            } else {
                ""
            }
        ));
    }
    let regress = |rows: &[LoopRow]| rows.iter().filter(|r| r.speedup < 0.98).count();
    out.push_str(&format!(
        "-- regressions: {} with filter off, {} with filter on\n",
        regress(&off),
        regress(&on)
    ));
    out
}

/// §9 remark (2) ablation: "SLMS was tested with and without source level
/// MVE, the presented results show the best time" — compare all three
/// expansion modes per loop and report which wins.
pub fn ablation_expansion() -> String {
    let ws = slc_workloads::all();
    let m = itanium2();
    let mut out = String::from("== expansion-mode ablation (Itanium-II-like, -O3 class) ==\n");
    out.push_str(&format!(
        "{:<24} {:>9} {:>9} {:>9} {:>12}\n",
        "loop", "off", "mve", "scal-exp", "best"
    ));
    let mut best_counts = [0usize; 3];
    for w in &ws {
        let mut speeds = [0.0f64; 3];
        for (k, exp) in [Expansion::Off, Expansion::Mve, Expansion::ScalarExpand]
            .into_iter()
            .enumerate()
        {
            let cfg = SlmsConfig {
                apply_filter: false,
                expansion: exp,
                ..SlmsConfig::default()
            };
            speeds[k] = measure_workload(w, &m, CompilerKind::Optimizing, &cfg)
                .expect("lowerable")
                .speedup;
        }
        let best = (0..3)
            .max_by(|&a, &b| speeds[a].total_cmp(&speeds[b]))
            .unwrap();
        best_counts[best] += 1;
        out.push_str(&format!(
            "{:<24} {:>9.3} {:>9.3} {:>9.3} {:>12}\n",
            w.name,
            speeds[0],
            speeds[1],
            speeds[2],
            ["off", "mve", "scalar-expand"][best]
        ));
    }
    out.push_str(&format!(
        "-- best mode counts: off {} / mve {} / scalar-expand {}\n",
        best_counts[0], best_counts[1], best_counts[2]
    ));
    out
}

/// Derived II table: source-level II (placement), the paper's cycle MII,
/// and the machine scheduler's II per workload.
pub fn ii_table() -> String {
    let ws = slc_workloads::all();
    let m = itanium2();
    let cfg = nofilter_cfg();
    let mut out = String::from("== derived — initiation intervals per loop ==\n");
    out.push_str(&format!(
        "{:<24} {:>6} {:>10} {:>8} {:>8}\n",
        "loop", "MIs", "SLMS-II", "cyc-MII", "IMS-II"
    ));
    for w in &ws {
        let prog = w.program();
        let (_, outcomes) = slms_program(&prog, &cfg);
        let (ii, n, cmii) = outcomes
            .iter()
            .find_map(|o| o.result.as_ref().ok())
            .map(|r| {
                (
                    r.ii.to_string(),
                    r.n_mis.to_string(),
                    r.cycles_mii.map_or("-".into(), |v| v.to_string()),
                )
            })
            .unwrap_or(("-".into(), "-".into(), "-".into()));
        let ims_ii = run(&prog, &m, CompilerKind::OptimizingMs)
            .ok()
            .and_then(|r| r.compile.loops.iter().find_map(|l| l.ii))
            .map_or("-".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{:<24} {:>6} {:>10} {:>8} {:>8}\n",
            w.name, n, ii, cmii, ims_ii
        ));
    }
    out
}

/// Collect every figure table into one report (printed by the `figures`
/// example and pinned as `BENCH_figures.txt`).
pub fn full_report() -> String {
    let mut out = String::new();
    let (a, b) = fig14();
    out.push_str(&a.table);
    out.push('\n');
    out.push_str(&b.table);
    out.push('\n');
    let (a, b) = fig15();
    out.push_str(&a.table);
    out.push('\n');
    out.push_str(&b.table);
    out.push('\n');
    out.push_str(&fig16().1);
    out.push('\n');
    let (a, b) = fig17();
    out.push_str(&a.table);
    out.push('\n');
    out.push_str(&b.table);
    out.push('\n');
    out.push_str(&fig18().table);
    out.push('\n');
    out.push_str(&fig19().table);
    out.push('\n');
    out.push_str(&fig20().table);
    out.push('\n');
    let f = fig21_22();
    out.push_str(&f.table);
    out.push('\n');
    out.push_str(&sec7_cases());
    out.push('\n');
    out.push_str(&sec6_interactions());
    out.push('\n');
    out.push_str(&ablation_filter());
    out.push('\n');
    out.push_str(&ablation_expansion());
    out.push('\n');
    out.push_str(&ii_table());
    out
}
