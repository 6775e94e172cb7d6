//! Mutation harness for the static schedule verifier.
//!
//! Take genuine SLMS output, corrupt it in one targeted way, and prove the
//! verifier rejects the corruption *naming the violated rule*. Eleven distinct
//! corruptions cover every obligation family: kernel structure, headers,
//! instance completeness, dependence order (inside the kernel and in the
//! epilogue), MVE residues, expansion subscripts and live-out restores. The flip side — genuine outputs are
//! accepted across the whole workload matrix — is asserted at the bottom.

use slc::ast::visit::{map_exprs, rewrite_expr, shift_induction, substitute_scalar};
use slc::ast::{parse_program, Expr, ForLoop, LValue, Program, Stmt};
use slc::slms::{slms_loop, Expansion, SlmsConfig, SlmsOutput};
use slc::verify::{verify_emission, verify_slms_program, Violation};

/// Schedule the first (innermost) loop of `src`; return the pre-transform
/// program, the loop, and the emission.
fn scheduled(src: &str, cfg: &SlmsConfig) -> (Program, ForLoop, SlmsOutput) {
    let prog = parse_program(src).unwrap();
    let stmt = prog
        .stmts
        .iter()
        .find(|s| matches!(s, Stmt::For(_)))
        .expect("source has a loop")
        .clone();
    let Stmt::For(f) = stmt.clone() else {
        unreachable!()
    };
    let mut work = prog.clone();
    let out = slms_loop(&mut work, &stmt, cfg).expect("loop should schedule");
    (prog, f, out)
}

fn rules(
    prog: &Program,
    f: &ForLoop,
    out: &SlmsOutput,
    stmts: &[Stmt],
    cfg: &SlmsConfig,
) -> Vec<&'static str> {
    verify_emission(prog, f, &out.report, stmts, cfg)
        .violations
        .iter()
        .map(|v| v.rule())
        .collect()
}

fn kernel_mut(stmts: &mut [Stmt]) -> &mut ForLoop {
    stmts
        .iter_mut()
        .find_map(|s| match s {
            Stmt::For(f) => Some(f),
            _ => None,
        })
        .expect("emission has a kernel loop")
}

fn kernel_pos(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .position(|s| matches!(s, Stmt::For(_)))
        .expect("emission has a kernel loop")
}

const DOT: &str = "float A[64]; float B[64]; float s; float t; int i;\n\
                   for (i = 0; i < 32; i++) { t = A[i] * B[i]; s = s + t; }";
const REC: &str = "float A[96]; int i;\n\
                   for (i = 2; i < 60; i++) A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];";

const CHAIN: &str = "float A[64]; float B[64]; float C[64]; float D[64]; int i;\n\
                     for (i = 0; i < 32; i++) { B[i] = A[i] + 1.0; C[i] = B[i] * 2.0; D[i] = C[i] + B[i]; }";

fn mve_cfg() -> SlmsConfig {
    SlmsConfig {
        apply_filter: false,
        ..SlmsConfig::default()
    }
}

fn expand_cfg() -> SlmsConfig {
    SlmsConfig {
        apply_filter: false,
        expansion: Expansion::ScalarExpand,
        ..SlmsConfig::default()
    }
}

/// The uncorrupted emissions all verify — the baseline every mutation
/// deviates from.
#[test]
fn genuine_emissions_accepted() {
    for (src, cfg) in [(DOT, mve_cfg()), (REC, mve_cfg()), (REC, expand_cfg())] {
        let (prog, f, out) = scheduled(src, &cfg);
        let verdict = verify_emission(&prog, &f, &out.report, &out.stmts, &cfg);
        assert!(verdict.clean(), "{:?}", verdict.violations);
        assert!(verdict.obligations > 10);
    }
}

/// Mutation 1: swapping two kernel rows reorders copies: the un-shifted members no
/// longer agree between copies (and MVE residues break).
#[test]
fn mutation_swap_kernel_rows() {
    let (prog, f, out) = scheduled(DOT, &mve_cfg());
    let mut bad = out.stmts.clone();
    let k = kernel_mut(&mut bad);
    assert!(k.body.len() >= 2, "kernel has {} rows", k.body.len());
    k.body.swap(0, 1);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(!r.is_empty(), "swap accepted");
    assert!(
        r.iter()
            .any(|x| ["kernel-copy", "mve-residue", "mi-faithfulness"].contains(x)),
        "unexpected rules {r:?}"
    );
}

/// Mutation 2: swapping the members inside one kernel row breaks the
/// descending-MI-order placement: un-renaming applies the wrong shift.
#[test]
fn mutation_swap_row_members() {
    let (prog, f, out) = scheduled(REC, &mve_cfg());
    let mut bad = out.stmts.clone();
    let k = kernel_mut(&mut bad);
    let row = k
        .body
        .iter_mut()
        .find_map(|s| match s {
            Stmt::Par(m) if m.len() >= 2 => Some(m),
            _ => None,
        })
        .expect("a multi-member kernel row");
    row.swap(0, 1);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(!r.is_empty(), "member swap accepted");
    assert!(
        r.iter().any(|x| [
            "mi-faithfulness",
            "kernel-copy",
            "mve-residue",
            "dependence"
        ]
        .contains(x)),
        "unexpected rules {r:?}"
    );
}

/// Mutation 3: an off-by-one induction shift on one kernel member reads the wrong
/// iteration's data.
#[test]
fn mutation_off_by_one_shift() {
    let (prog, f, out) = scheduled(REC, &mve_cfg());
    let mut bad = out.stmts.clone();
    let step = f.step;
    let var = f.var.clone();
    let k = kernel_mut(&mut bad);
    let member = match &mut k.body[0] {
        Stmt::Par(m) => &mut m[0],
        other => other,
    };
    shift_induction(member, &var, step);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(!r.is_empty(), "shifted member accepted");
    assert!(
        r.iter()
            .any(|x| ["mi-faithfulness", "kernel-copy", "mve-residue"].contains(x)),
        "unexpected rules {r:?}"
    );
}

/// Mutation 4: deleting a prologue instance leaves an iteration's MI unexecuted.
#[test]
fn mutation_drop_prologue_instance() {
    let (prog, f, out) = scheduled(DOT, &mve_cfg());
    assert!(kernel_pos(&out.stmts) > 0, "emission has a prologue");
    let mut bad = out.stmts.clone();
    bad.remove(0);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(r.contains(&"missing-instance"), "got {r:?}");
}

/// Mutation 5: using the wrong MVE version in one kernel member breaks the rotation
/// residue (the defining property modulo variable expansion relies on).
#[test]
fn mutation_wrong_mve_version() {
    let (prog, f, out) = scheduled(DOT, &mve_cfg());
    let (_, vers) = out
        .report
        .renamed
        .first()
        .expect("dot product renames under MVE")
        .clone();
    assert!(vers.len() >= 2);
    let mut bad = out.stmts.clone();
    let k = kernel_mut(&mut bad);
    // Rewrite v0 -> v1 in the first row that mentions v0.
    let mut done = false;
    for row in &mut k.body {
        let members: &mut [Stmt] = match row {
            Stmt::Par(m) => m,
            other => std::slice::from_mut(other),
        };
        for member in members.iter_mut() {
            let mut mentions = false;
            map_exprs(member, &mut |e| {
                rewrite_expr(e, &mut |node| {
                    if matches!(node, Expr::Var(n) if *n == vers[0]) {
                        mentions = true;
                    }
                });
            });
            if mentions && !done {
                substitute_scalar(member, &vers[0], &Expr::Var(vers[1].clone()));
                done = true;
            }
        }
    }
    assert!(done, "no kernel member mentions {}", vers[0]);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(r.contains(&"mve-residue"), "got {r:?}");
}

/// Mutation 6: duplicating an epilogue instance executes one iteration's MI twice.
#[test]
fn mutation_duplicate_epilogue_instance() {
    let (prog, f, out) = scheduled(DOT, &mve_cfg());
    let kpos = kernel_pos(&out.stmts);
    assert!(kpos + 1 < out.stmts.len(), "emission has an epilogue");
    let mut bad = out.stmts.clone();
    let dup = bad[kpos + 1].clone();
    bad.insert(kpos + 1, dup);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(
        r.contains(&"unknown-instance") || r.contains(&"live-out-restore"),
        "got {r:?}"
    );
}

/// Mutation 7: widening the kernel bound by one unrolled pass executes iterations
/// the epilogue also covers.
#[test]
fn mutation_kernel_bound_too_wide() {
    let (prog, f, out) = scheduled(DOT, &mve_cfg());
    let mut bad = out.stmts.clone();
    let step_total = {
        let k = kernel_mut(&mut bad);
        let old = match k.bound {
            Expr::Int(v) => v,
            _ => panic!("constant kernel bound expected"),
        };
        k.bound = Expr::Int(old + k.step);
        k.step
    };
    assert!(step_total != 0);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(r.contains(&"loop-header"), "got {r:?}");
}

/// Mutation 8: corrupting the induction-variable restore leaves the wrong live-out
/// value after the pipeline.
#[test]
fn mutation_corrupt_induction_restore() {
    let (prog, f, out) = scheduled(DOT, &mve_cfg());
    let mut bad = out.stmts.clone();
    let pos = bad
        .iter()
        .rposition(|s| matches!(s, Stmt::Assign { target: LValue::Var(n), .. } if *n == f.var))
        .expect("induction restore present");
    if let Stmt::Assign { value, .. } = &mut bad[pos] {
        let Expr::Int(v) = value else {
            panic!("constant restore expected")
        };
        *value = Expr::Int(*v + 1);
    }
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(r.contains(&"live-out-restore"), "got {r:?}");
}

/// Mutation 9: corrupting a scalar-expansion subscript indexes a different
/// iteration's cell.
#[test]
fn mutation_corrupt_expansion_subscript() {
    let cfg = expand_cfg();
    let (prog, f, out) = scheduled(REC, &cfg);
    let (_, arr) = out
        .report
        .expanded_arrays
        .first()
        .expect("recurrence expands its decomposition temp")
        .clone();
    let mut bad = out.stmts.clone();
    let k = kernel_mut(&mut bad);
    let mut done = false;
    for row in &mut k.body {
        map_exprs(row, &mut |e| {
            rewrite_expr(e, &mut |node| {
                if let Expr::Index(name, idx) = node {
                    if *name == arr && !done {
                        idx[0] = Expr::add(idx[0].clone(), Expr::Int(1));
                        done = true;
                    }
                }
            });
        });
    }
    assert!(done, "no kernel subscript of {arr} found");
    let r = rules(&prog, &f, &out, &bad, &cfg);
    assert!(r.contains(&"expansion-subscript"), "got {r:?}");
}

/// Mutation 10: removing the kernel loop entirely is not a pipeline at all.
#[test]
fn mutation_remove_kernel() {
    let (prog, f, out) = scheduled(DOT, &mve_cfg());
    let mut bad = out.stmts.clone();
    let kpos = kernel_pos(&bad);
    bad.remove(kpos);
    let r = rules(&prog, &f, &out, &bad, &mve_cfg());
    assert!(r.contains(&"kernel-shape"), "got {r:?}");
}

/// Mutation 11: swapping two dependent epilogue instances runs the sink of
/// MI 1 → MI 2 (flow on `C`, distance 0) before its source in iteration 31.
/// Both instances lie after the kernel, outside the iterations where the
/// check can lean on the kernel's periodicity, and the check must still
/// name that iteration.
#[test]
fn mutation_swap_dependent_epilogue_instances() {
    let (prog, f, out) = scheduled(CHAIN, &mve_cfg());
    let kpos = kernel_pos(&out.stmts);
    let text = |s: &Stmt| slc::ast::pretty::stmts_to_source(std::slice::from_ref(s));
    assert_eq!(text(&out.stmts[kpos + 2]).trim(), "C[31] = B[31] * 2.0;");
    assert_eq!(text(&out.stmts[kpos + 3]).trim(), "D[31] = C[31] + B[31];");
    let mut bad = out.stmts.clone();
    bad.swap(kpos + 2, kpos + 3);
    let verdict = verify_emission(&prog, &f, &out.report, &bad, &mve_cfg());
    let found: Vec<_> = verdict
        .violations
        .iter()
        .map(|v| match v {
            Violation::DependenceViolated {
                from, to, at_iter, ..
            } => (v.rule(), Some((*from, *to, *at_iter))),
            other => (other.rule(), None),
        })
        .collect();
    assert_eq!(found, [("dependence", Some((1, 2, 31)))]);
}

/// Acceptance sweep: every built-in workload, under every expansion mode
/// and both filter settings, verifies with zero violations — transformed
/// loops are proven, the rest are skipped with a reason.
#[test]
fn workload_matrix_accepted() {
    for w in slc::workloads::all() {
        let prog = w.program();
        for expansion in [Expansion::Mve, Expansion::ScalarExpand, Expansion::Off] {
            for apply_filter in [true, false] {
                let cfg = SlmsConfig {
                    apply_filter,
                    expansion,
                    ..SlmsConfig::default()
                };
                let verdict = verify_slms_program(&prog, &cfg);
                assert!(
                    verdict.clean(),
                    "{} under {expansion:?} (filter {apply_filter}):\n{}",
                    w.name,
                    verdict.render()
                );
            }
        }
    }
}
