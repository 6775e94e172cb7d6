//! `slc explain` must produce a complete per-loop decision trace for every
//! loop in every workload suite without panicking — for the default plan,
//! the no-filter ablation, and a structural plan — and the trace must
//! always end in a definite verdict (an achieved II or a structured
//! rejection), never silence.

use slc_core::{DiagEvent, SlmsConfig};
use slc_pipeline::{explain_all, explain_workload, PassManager, PassPlan};

/// `slc explain --all --json` is pinned: its JSONL equals the checked-in
/// `BENCH_explain.jsonl` byte for byte (regenerate with
/// `slc explain --all --json > BENCH_explain.jsonl`).
#[test]
fn explain_all_json_matches_checked_in_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_slc"))
        .args(["explain", "--all", "--json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stdout == include_bytes!("../BENCH_explain.jsonl"),
        "slc explain --all --json differs from BENCH_explain.jsonl"
    );
}

#[test]
fn explain_covers_every_workload_without_panicking() {
    let cfg = SlmsConfig::default();
    let plan = PassPlan::slms_only();
    let text = explain_all(&plan, &cfg);
    for w in slc_workloads::all() {
        assert!(
            text.contains(&format!("═══ {} [", w.name)),
            "workload {} missing from explain output",
            w.name
        );
    }
    // no workload may fail structurally under the default plan
    assert!(!text.contains("plan failed:"), "{text}");
    assert!(!text.contains("parse error:"), "{text}");
}

#[test]
fn every_loop_trace_ends_in_a_verdict() {
    let pm = PassManager::new(SlmsConfig::default());
    let plan = PassPlan::slms_only();
    for w in slc_workloads::all() {
        let prog = w.program();
        let (_, sink) = pm.run(&prog, &plan).expect("slms plan never hard-fails");
        for o in sink.all_outcomes() {
            // the trace must contain a terminal event matching the outcome
            match &o.result {
                Ok(r) => {
                    let scheduled = o
                        .trace
                        .iter()
                        .any(|e| matches!(e, DiagEvent::Scheduled { ii, .. } if *ii == r.ii));
                    assert!(scheduled, "{}: ok outcome without Scheduled event", w.name);
                }
                Err(err) => {
                    let rejected = o
                        .trace
                        .iter()
                        .any(|e| matches!(e, DiagEvent::Rejected { error } if error == err));
                    assert!(rejected, "{}: err outcome without Rejected event", w.name);
                }
            }
            // and the render must mention the loop and the verdict
            let rendered = slc_core::render_loop_trace(o);
            assert!(rendered.contains("loop#"), "{rendered}");
            assert!(
                rendered.contains("⇒ transformed") || rendered.contains("⇒ left unchanged"),
                "{rendered}"
            );
        }
    }
}

#[test]
fn filter_rejections_carry_the_measured_ratio() {
    let cfg = SlmsConfig::default();
    let plan = PassPlan::slms_only();
    let mut saw_filtered = false;
    for w in slc_workloads::all() {
        let text = explain_workload(&w, &plan, &cfg);
        if text.contains("filter: REJECTED") {
            saw_filtered = true;
            assert!(
                text.contains("memory-ref ratio LS/(LS+AO)"),
                "{}: rejection without measured numbers:\n{text}",
                w.name
            );
        }
    }
    assert!(
        saw_filtered,
        "expected at least one §4-filtered loop across the suites"
    );
}

#[test]
fn explain_with_ablations_and_structural_plans() {
    let nofilter = SlmsConfig {
        apply_filter: false,
        ..SlmsConfig::default()
    };
    let text = explain_all(&PassPlan::slms_only(), &nofilter);
    assert!(!text.contains("parse error:"), "{text}");

    // a structural plan over every workload: normalize is always
    // applicable (or a clean per-loop note), slms follows
    let plan = PassPlan::parse("normalize,slms").unwrap();
    let text = explain_all(&plan, &SlmsConfig::default());
    assert!(text.contains("── pass normalize ──"), "{text}");
    assert!(text.contains("── pass slms ──"), "{text}");
}
