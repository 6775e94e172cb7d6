//! Differential proof harness for the exact modulo scheduler.
//!
//! The exact scheduler (`crates/exact`, SAT-backed) claims three things,
//! and this harness checks each one against the heuristic scheduler over
//! the full workload matrix:
//!
//! 1. **Dominance** — the exact II never exceeds the heuristic II, and the
//!    two schedulers agree on which loops are transformable at all;
//! 2. **Certification** — every small-enough scheduled loop carries an
//!    [`OptimalityCertificate`](slc::exact::OptimalityCertificate) whose
//!    internal invariants hold (II ≥ MII, a refutation proof exactly when
//!    II > MII, the heuristic II recorded for the gap), and where the IIs
//!    agree the certificate proves the heuristic optimal;
//! 3. **Semantics** — exact-scheduled programs remain bit-identical to
//!    their sources under the AST interpreter, and their compiled kernels
//!    simulate bit-identically under `SimFidelity::Fast` and
//!    `SimFidelity::Reference`.
//!
//! A constructed recurrence where source order is pessimal pins down the
//! interesting case: the exact scheduler must *beat* the heuristic by
//! reordering, report a positive optimality gap, and still verify.

use slc::ast::parse_program;
use slc::exact::MAX_EXACT_MIS;
use slc::pipeline::{compile, run_batch, BatchConfig, CompilerKind, PassPlan};
use slc::sim::astinterp::equivalent;
use slc::sim::cycle::{simulate_with, SimFidelity};
use slc::slms::{slms_program, Expansion, SchedulerKind, SlmsConfig};
use slc::verify::verify_slms_program;

fn cfg_pair(apply_filter: bool, expansion: Expansion) -> (SlmsConfig, SlmsConfig) {
    let heuristic = SlmsConfig {
        apply_filter,
        expansion,
        ..SlmsConfig::default()
    };
    let exact = SlmsConfig {
        scheduler: SchedulerKind::Exact,
        ..heuristic.clone()
    };
    (heuristic, exact)
}

/// The exact-scheduler batch report is pinned: the matrix `slc batch
/// --scheduler exact` runs, evaluated in process, equals the checked-in
/// `BENCH_batch_exact.json` byte for byte (regenerate with
/// `slc batch --scheduler exact --out BENCH_batch_exact.json`).
#[test]
fn exact_batch_report_matches_checked_in_baseline() {
    let mut cfg = BatchConfig::full_matrix();
    cfg.slms.scheduler = SchedulerKind::Exact;
    cfg.plan = PassPlan::exact_only();
    let report = run_batch(&cfg);
    assert_eq!(report.failed(), 0);
    assert_eq!(report.to_json(), include_str!("../BENCH_batch_exact.json"));
}

/// Dominance + certification over every workload, both filter settings and
/// every expansion mode: exact II ≤ heuristic II, same transformability,
/// and every small loop is certified — agreement means the certificate
/// proves the heuristic schedule optimal (gap 0).
#[test]
fn exact_dominates_and_certifies_the_workload_matrix() {
    let mut certified = 0usize;
    let mut agreements = 0usize;
    for w in slc::workloads::all() {
        let prog = w.program();
        for apply_filter in [true, false] {
            for expansion in [Expansion::Mve, Expansion::ScalarExpand, Expansion::Off] {
                let (hcfg, ecfg) = cfg_pair(apply_filter, expansion);
                let (_, houts) = slms_program(&prog, &hcfg);
                let (_, eouts) = slms_program(&prog, &ecfg);
                assert_eq!(houts.len(), eouts.len(), "{}", w.name);
                for (h, e) in houts.iter().zip(&eouts) {
                    let ctx = format!("{} / filter {apply_filter} / {expansion:?}", w.name);
                    match (&h.result, &e.result) {
                        (Ok(hr), Ok(er)) => {
                            assert!(
                                er.ii <= hr.ii,
                                "{ctx}: exact II {} > heuristic II {}",
                                er.ii,
                                hr.ii
                            );
                            if er.n_mis >= 2 && er.n_mis <= MAX_EXACT_MIS {
                                let cert = e
                                    .result
                                    .as_ref()
                                    .unwrap()
                                    .certificate
                                    .as_ref()
                                    .unwrap_or_else(|| panic!("{ctx}: no certificate"));
                                certified += 1;
                                assert_eq!(cert.ii, er.ii, "{ctx}");
                                assert!(cert.mii <= cert.ii, "{ctx}");
                                assert_eq!(cert.proof.is_some(), cert.ii > cert.mii, "{ctx}");
                                assert_eq!(er.heuristic_ii, Some(hr.ii), "{ctx}");
                                if er.ii == hr.ii {
                                    agreements += 1;
                                    assert_eq!(
                                        er.heuristic_ii.unwrap() - cert.ii,
                                        0,
                                        "{ctx}: agreement must certify a zero gap"
                                    );
                                }
                            }
                        }
                        (Err(_), Err(_)) => {}
                        (hr, er) => {
                            panic!("{ctx}: schedulers disagree on transformability: heuristic {hr:?} vs exact {er:?}")
                        }
                    }
                }
            }
        }
    }
    assert!(certified > 20, "only {certified} certificates issued");
    assert!(agreements > 20, "only {agreements} heuristic agreements");
}

/// Semantics under the AST interpreter: every exact-scheduled program
/// computes bit-identical final memory to its source on random inputs.
#[test]
fn exact_outputs_stay_bit_identical_under_interpretation() {
    for w in slc::workloads::all() {
        let prog = w.program();
        for apply_filter in [true, false] {
            let (_, ecfg) = cfg_pair(apply_filter, Expansion::Mve);
            let (out, outs) = slms_program(&prog, &ecfg);
            if outs.iter().all(|o| o.result.is_err()) {
                continue;
            }
            equivalent(&prog, &out, &[1, 2, 3, 5, 8])
                .unwrap_or_else(|m| panic!("{} (filter {apply_filter}): {m:?}", w.name));
        }
    }
}

/// Semantics under the cycle simulator: compiled exact-scheduled kernels
/// report bit-identical results on the fast and reference interpreters.
#[test]
fn exact_outputs_simulate_identically_fast_vs_reference() {
    let machines = [slc::sim::presets::itanium2(), slc::sim::presets::power4()];
    let (_, ecfg) = cfg_pair(true, Expansion::Mve);
    let mut cells = 0usize;
    for w in slc::workloads::all() {
        let (out, _) = slms_program(&w.program(), &ecfg);
        for m in &machines {
            let Ok(c) = compile(&out, m, CompilerKind::Optimizing) else {
                continue;
            };
            let fast = simulate_with(&c.compiled, m, SimFidelity::Fast);
            let reference = simulate_with(&c.compiled, m, SimFidelity::Reference);
            assert_eq!(fast.result, reference.result, "{} / {}", w.name, m.name);
            cells += 1;
        }
    }
    assert!(cells > 20, "matrix unexpectedly small: {cells} cells");
}

/// The constructed pessimal-order recurrence: the heuristic keeps source
/// order and lands at II = 3; the exact scheduler reorders to II = 1 (a
/// positive optimality gap of 2), the output still computes the same
/// values, and the translation validator re-proves the whole emission —
/// certificate included.
#[test]
fn exact_beats_heuristic_on_a_constructed_recurrence() {
    let src = "float A[64]; float B[64]; float C[64]; float Z[64]; int i;\n\
               for (i = 1; i < 40; i++) { A[i] = Z[i - 1]; B[i] = B[i] + 1.0; \
               C[i] = C[i] * 2.0; Z[i] = A[i] + 1.0; }";
    let prog = parse_program(src).unwrap();
    let (hcfg, ecfg) = cfg_pair(false, Expansion::Mve);

    let (_, houts) = slms_program(&prog, &hcfg);
    let hr = houts[0].result.as_ref().expect("heuristic schedules");
    assert_eq!(hr.ii, 3, "heuristic is stuck with source order");

    let (out, eouts) = slms_program(&prog, &ecfg);
    let er = eouts[0].result.as_ref().expect("exact schedules");
    assert_eq!(er.ii, 1, "exact reorders to the cycle bound");
    assert_eq!(er.heuristic_ii, Some(3));
    let order = er.exact_order.as_ref().unwrap();
    assert_ne!(order, &vec![0, 1, 2, 3], "the win requires reordering");
    let cert = er.certificate.as_ref().unwrap();
    assert_eq!((cert.ii, cert.mii), (1, 1));
    assert_eq!(er.heuristic_ii.unwrap() - cert.ii, 2, "positive gap");

    equivalent(&prog, &out, &[1, 2, 3, 5, 8]).expect("reordered emission is bit-identical");
    let verdict = verify_slms_program(&prog, &ecfg);
    assert!(verdict.clean(), "{}", verdict.render());
}

/// Proof-core minimization over one exact-scheduled sweep of the corpus
/// (every workload, default settings), counted by
/// [`minimize_counts`](slc::sat::minimize_counts): trials, trials the
/// placement search settled, and fresh sub-solves. Every sub-solve must
/// be of an unsatisfiable trial, so the placement search left no
/// satisfiable trial to the solver. kernel10_diff_predict makes the
/// corpus's one refutation (its 398-clause proof is `exact.proof_clauses`
/// in `BENCH_counters.json`). The counts are pinned, so a finder that
/// stops settling trials, or a minimization that solves more often, fails
/// here by a number.
#[test]
fn minimization_solves_only_unsatisfiable_trials_on_the_corpus() {
    let cfg = SlmsConfig {
        scheduler: SchedulerKind::Exact,
        ..SlmsConfig::default()
    };
    let mut total = slc::sat::MinimizeCounts::default();
    let mut kernel10 = None;
    for w in slc::workloads::all() {
        let before = slc::sat::minimize_counts();
        slms_program(&w.program(), &cfg);
        let c = slc::sat::minimize_counts() - before;
        assert_eq!(c.trials, c.settled + c.solves, "{}: {c:?}", w.name);
        assert_eq!(
            c.solves, c.unsat,
            "{}: a satisfiable trial reached the solver",
            w.name
        );
        if w.name == "kernel10_diff_predict" {
            kernel10 = Some(c);
        }
        total = total + c;
    }
    let kernel10 = kernel10.expect("kernel10_diff_predict is in the corpus");
    println!("kernel10_diff_predict: {kernel10:?}\ncorpus: {total:?}");
    assert_eq!(
        total, kernel10,
        "kernel10 makes the corpus's only refutation"
    );
    assert_eq!(
        (total.trials, total.settled, total.solves),
        (416, 398, 18),
        "trials, settled trials, fresh sub-solves"
    );
}
