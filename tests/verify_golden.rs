//! Pins of the static schedule verifier's output: `slc verify --all`
//! under both schedulers is byte-identical to the checked-in
//! `BENCH_verify.txt` / `BENCH_verify_exact.txt`, the `Debug` of every
//! corpus verdict over the whole configuration space hashes to one pinned
//! digest, and a pass plan run with verification gives the verdicts the
//! standalone verifier gives on each scheduling pass's input.

use slc::analysis::Fnv64;
use slc::pipeline::{PassManager, PassPlan, PassSpec};
use slc::slms::{Expansion, SchedulerKind, SlmsConfig};
use slc::verify::verify_slms_program;
use std::process::Command;

const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Heuristic, SchedulerKind::Exact];

#[test]
fn verify_all_matches_the_checked_in_golden() {
    let root = env!("CARGO_MANIFEST_DIR");
    for (extra, golden) in [
        (&[][..], "BENCH_verify.txt"),
        (&["--scheduler", "exact"][..], "BENCH_verify_exact.txt"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_slc"))
            .args(["verify", "--all"])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "slc verify --all {extra:?}");
        let want = std::fs::read_to_string(format!("{root}/{golden}")).unwrap();
        assert!(
            String::from_utf8_lossy(&out.stdout) == want,
            "slc verify --all {extra:?} differs from {golden}"
        );
    }
}

/// FNV-1a of the `Debug` of `verify_slms_program` over the corpus ×
/// {heuristic, exact} × {mve, scalar, off} × filter on/off (552 verdicts).
const VERDICT_DIGEST: u64 = 0xb86d_19b1_870f_6ec5;

#[test]
fn corpus_verdicts_match_the_pinned_digest() {
    let mut h = Fnv64::new();
    let mut verdicts = 0usize;
    for w in slc::workloads::all() {
        let prog = w.program();
        for scheduler in SCHEDULERS {
            for expansion in [Expansion::Mve, Expansion::ScalarExpand, Expansion::Off] {
                for apply_filter in [true, false] {
                    let cfg = SlmsConfig {
                        apply_filter,
                        expansion,
                        scheduler,
                    };
                    h.write_str(&format!("{:?}", verify_slms_program(&prog, &cfg)));
                    verdicts += 1;
                }
            }
        }
    }
    assert_eq!(verdicts, 552);
    assert_eq!(h.finish(), VERDICT_DIGEST, "digest {:#018x}", h.finish());
}

/// The base configuration a scheduling pass of `spec` resolves to.
fn resolved(base: &SlmsConfig, spec: &PassSpec) -> Option<SlmsConfig> {
    let (no_filter, exact) = match spec {
        PassSpec::Slms { no_filter } => (*no_filter, false),
        PassSpec::Exact { no_filter } => (*no_filter, true),
        _ => return None,
    };
    let mut cfg = base.clone();
    cfg.apply_filter &= !no_filter;
    if exact {
        cfg.scheduler = SchedulerKind::Exact;
    }
    Some(cfg)
}

#[test]
fn run_with_verify_matches_the_standalone_verifier() {
    let plans = ["slms", "exact:nofilter", "normalize,slms:nofilter,exact"];
    for w in slc::workloads::all() {
        let prog = w.program();
        for scheduler in SCHEDULERS {
            let base = SlmsConfig {
                scheduler,
                ..SlmsConfig::default()
            };
            let pm = PassManager::new(base.clone());
            for text in plans {
                let plan = PassPlan::parse(text).unwrap();
                let (out, _, verdicts) = pm.run_with_verify(&prog, &plan, true).unwrap();
                let mut cur = prog.clone();
                let mut want = Vec::new();
                for spec in &plan.specs {
                    if let Some(cfg) = resolved(&base, spec) {
                        want.push(format!("{:?}", verify_slms_program(&cur, &cfg)));
                    }
                    let one = PassPlan {
                        specs: vec![spec.clone()],
                    };
                    cur = pm.run_with_verify(&cur, &one, false).unwrap().0;
                }
                let got: Vec<String> = verdicts.iter().map(|v| format!("{v:?}")).collect();
                assert_eq!(got, want, "{} / {scheduler:?} / {text}", w.name);
                assert_eq!(
                    slc::ast::to_source(&out),
                    slc::ast::to_source(&cur),
                    "{} / {scheduler:?} / {text}",
                    w.name
                );
            }
        }
    }
}
