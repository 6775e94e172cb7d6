//! Translation validation of SLMS emission (§5 placement algebra).
//!
//! Given the original loop, the transformation report and the emitted
//! prologue/kernel/epilogue statements, [`verify_emission`] statically
//! re-derives the placement every statement instance must occupy and proves:
//!
//! 1. **structure** — exactly one kernel loop with the §5 header
//!    (`init`, `cmp`, `bound = init + passes·unroll·step`, `step·unroll`),
//!    `II·unroll` kernel rows with the members `row(k) = k + II·off_k −
//!    (n − II)` prescribes, in descending-`k` order;
//! 2. **faithfulness** — every kernel row member, un-renamed and un-shifted,
//!    is exactly one of the original multi-instructions (modulo the
//!    decomposition temporaries recorded in the report, which are inlined
//!    back before comparison);
//! 3. **instance completeness** — the prologue, residual and epilogue
//!    contain precisely the constant instances `(k, j)` the placement
//!    formulas demand, each with subscripts evaluated at the right
//!    iteration;
//! 4. **dependences** — every edge of the original body's DDG, at every
//!    recorded distance, is executed source-before-sink under the global
//!    time map `(region, pass, row, member)`. Where both instances of an
//!    edge are kernel instances the check repeats every `unroll`
//!    iterations (one pass later, same rows), so one kernel period of
//!    that window decides all of it; every prologue, residual and
//!    epilogue iteration is still checked (see `dependence_iters`);
//! 5. **renaming** — MVE kernel copies use the statically-known residue
//!    `(off_k + copy) mod p` of each version rotation, scalar-expansion
//!    subscripts index exactly iteration `j`'s cell, and live-out values of
//!    original variables are restored after the epilogue;
//! 6. **II ≥ MII** — the achieved II is no smaller than the placement MII
//!    of the recovered body (with expansion-removable edges excluded).
//!
//! Every failed proof becomes a [`Violation`] naming the broken rule; the
//! count of discharged obligations is reported for `slc explain`.

use crate::{Violation, VERIFY_SKIP_SYMBOLIC};
use slc_analysis::{
    build_ddg, check_dep_certificate, partition_mis, DepCertificate, DepKind, DepPairSummary,
    DepStats, DepVerdict, Distance, LoopRange, RangedDdg,
};
use slc_ast::pretty::stmts_to_source;
use slc_ast::visit::{
    map_exprs, rewrite_expr, rewrite_lvalues, scalars_read, scalars_written, shift_induction,
    simplify, substitute_scalar,
};
use slc_ast::{CmpOp, Expr, ForLoop, LValue, Program, Stmt};
use slc_core::{
    constraints_of, if_convert, needs_if_conversion, placement_mii, Constraint, Expansion,
    SchedulerKind, SlmsConfig, SlmsReport,
};
use std::collections::HashMap;

/// Outcome of validating one emission.
#[derive(Debug, Clone)]
pub struct EmissionVerdict {
    /// Number of elementary obligations discharged.
    pub obligations: usize,
    /// Violations found (empty = the schedule is proven correct).
    pub violations: Vec<Violation>,
}

impl EmissionVerdict {
    /// True when every obligation was discharged.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Render one statement on a single line for violation evidence.
fn stmt_str(s: &Stmt) -> String {
    stmts_to_source(std::slice::from_ref(s))
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// Global execution time of one statement instance: lexicographic
/// `(region, major, row, member)` with region 0 = prologue, 1 = kernel,
/// 2 = residual/epilogue.
type Time = (u8, i64, i64, i64);

/// The global time of every statement instance of one emission: kernel
/// instances from the §5 placement, constant instances (prologue,
/// residual, epilogue) from their matched emitted positions.
struct Timeline {
    ii: i64,
    unroll: i64,
    /// Iterations each MI spends in the kernel: `passes · unroll`.
    span: i64,
    /// Per MI: `(offset, kernel row, position among the row's members)`.
    place: Vec<(i64, i64, i64)>,
    times: HashMap<(usize, i64), Time>,
}

impl Timeline {
    /// Time of instance `(k, j)`; `None` for an instance the emission lacks.
    /// Iteration `j` of MI `k` runs in the kernel when
    /// `off_k ≤ j < off_k + passes·unroll`, in pass `(j − off_k) / unroll`
    /// of copy `(j − off_k) mod unroll`.
    fn time_of(&self, k: usize, j: i64) -> Option<Time> {
        let (jo, row, member) = self.place[k];
        if j >= jo && j < jo + self.span {
            let jj = j - jo;
            Some((
                1,
                jj / self.unroll,
                jj % self.unroll * self.ii + row,
                member,
            ))
        } else {
            self.times.get(&(k, j)).copied()
        }
    }

    /// The iterations `j` the dependence `u → v` at distance `d` is checked
    /// at: [`dependence_iters`] over the window where both of its instances
    /// are kernel instances.
    fn dependence_iters(
        &self,
        u: usize,
        v: usize,
        d: i64,
        t_count: i64,
    ) -> impl Iterator<Item = i64> {
        let window = kernel_window(self.place[u].0, self.place[v].0, d, self.span);
        dependence_iters(window, self.unroll, t_count - d)
    }
}

/// The iterations `j` at which the source instance `(u, j)` and the sink
/// instance `(v, j + d)` of a dependence are both kernel instances, for
/// MIs at offsets `off_u` and `off_v` that each spend `span` iterations
/// in the kernel. Empty when the two kernel ranges do not overlap.
fn kernel_window(off_u: i64, off_v: i64, d: i64, span: i64) -> std::ops::Range<i64> {
    off_u.max(off_v - d)..off_u.min(off_v - d) + span
}

/// The iterations of `0..end` a dependence must be checked at to find its
/// first violation: everything outside the kernel `window`, and only the
/// window's first `unroll` iterations inside it, in ascending order.
///
/// Inside the window the check is periodic. Moving `j` to `j + unroll`
/// moves both instances one kernel pass later and leaves their rows and
/// row positions unchanged, so both times gain 1 in the pass field and
/// `t_u ≥ t_v` keeps its answer. A violation at a skipped `j` therefore
/// recurs at `j − m·unroll`, a kept iteration inside the window, which
/// the ascending scan reaches first.
fn dependence_iters(
    window: std::ops::Range<i64>,
    unroll: i64,
    end: i64,
) -> impl Iterator<Item = i64> {
    let period_end = window.start + unroll;
    (0..period_end.min(end)).chain(window.end.max(period_end)..end)
}

/// The first `j` in `iters` at which the source instance of iteration `j`
/// does not precede the sink instance of iteration `j + d`, with the two
/// times. A missing instance is skipped: it is reported already.
fn first_violation(
    timeline: &Timeline,
    u: usize,
    v: usize,
    d: i64,
    iters: impl IntoIterator<Item = i64>,
) -> Option<(i64, Time, Time)> {
    iters.into_iter().find_map(|j| {
        let tu = timeline.time_of(u, j)?;
        let tv = timeline.time_of(v, j + d)?;
        (tu >= tv).then_some((j, tu, tv))
    })
}

/// Per-variable renaming plan reconstructed from the report.
enum Plan {
    Versions { vers: Vec<String> },
    Array { arr: String, base: i64 },
}

/// Statically verify that `emitted` is a correct software pipeline of loop
/// `f` as claimed by `report`. `original` must be the program as it stood
/// *before* the transformation (its declarations decide which renamed
/// variables are live-out and need restoring).
pub fn verify_emission(
    original: &Program,
    f: &ForLoop,
    report: &SlmsReport,
    emitted: &[Stmt],
    cfg: &SlmsConfig,
) -> EmissionVerdict {
    let mut v: Vec<Violation> = Vec::new();
    let mut obligations = 0usize;

    // ---- setup: recompute the placement constants -------------------------
    let n = report.n_mis;
    let ii = report.ii;
    if n < 2 || ii < 1 || ii >= n as i64 {
        return EmissionVerdict {
            obligations,
            violations: vec![Violation::KernelShape {
                detail: format!("II = {ii} outside the valid range 1..{n}"),
            }],
        };
    }
    let (Some(t_count), Some(init)) = (f.trip_count(), f.init.const_int()) else {
        return EmissionVerdict {
            obligations,
            violations: vec![Violation::KernelShape {
                detail: VERIFY_SKIP_SYMBOLIC.into(),
            }],
        };
    };
    let s = f.step;
    let off = |k: usize| ((n - 1 - k) as i64) / ii;
    let m = off(0);
    let k_iters = t_count - m;
    let unroll = report.unroll;
    if m != report.max_offset {
        v.push(Violation::KernelShape {
            detail: format!(
                "pipeline depth: placement gives {m}, report claims {}",
                report.max_offset
            ),
        });
    }
    if unroll < 1 || k_iters < unroll {
        return EmissionVerdict {
            obligations,
            violations: vec![Violation::KernelShape {
                detail: format!("unroll {unroll} invalid for {k_iters} kernel iterations"),
            }],
        };
    }
    let passes = k_iters / unroll;

    // Renaming plans. Version counts must divide the unroll factor or the
    // per-copy residues are not statically known.
    let mut plans: Vec<(String, Plan)> = Vec::new();
    let last = init + (t_count - 1) * s;
    let expand_base = init.min(last);
    for (name, vers) in &report.renamed {
        let p = vers.len() as i64;
        if p < 2 || unroll % p != 0 {
            v.push(Violation::UnrollInconsistent {
                unroll,
                var: name.clone(),
                p,
            });
        } else {
            obligations += 1;
        }
        plans.push((name.clone(), Plan::Versions { vers: vers.clone() }));
    }
    for (name, arr) in &report.expanded_arrays {
        plans.push((
            name.clone(),
            Plan::Array {
                arr: arr.clone(),
                base: expand_base,
            },
        ));
    }
    // The report may only claim the kind of renaming the configuration
    // enables.
    let claim_ok = match cfg.expansion {
        Expansion::Off => report.renamed.is_empty() && report.expanded_arrays.is_empty(),
        Expansion::Mve => report.expanded_arrays.is_empty(),
        Expansion::ScalarExpand => report.renamed.is_empty(),
    };
    if claim_ok {
        obligations += 1;
    } else {
        v.push(Violation::KernelShape {
            detail: format!(
                "report claims {} renamed scalars and {} expanded scalars under \
                 expansion mode {:?}",
                report.renamed.len(),
                report.expanded_arrays.len(),
                cfg.expansion
            ),
        });
    }

    // ---- structure: locate the kernel loop --------------------------------
    let kernel_positions: Vec<usize> = emitted
        .iter()
        .enumerate()
        .filter_map(|(i, st)| matches!(st, Stmt::For(_)).then_some(i))
        .collect();
    let [kpos] = kernel_positions[..] else {
        v.push(Violation::KernelShape {
            detail: format!(
                "expected exactly one kernel loop, found {}",
                kernel_positions.len()
            ),
        });
        return EmissionVerdict {
            obligations,
            violations: v,
        };
    };
    obligations += 1;
    let prologue = &emitted[..kpos];
    let Stmt::For(kf) = &emitted[kpos] else {
        unreachable!("position selected by matches!(Stmt::For)")
    };
    let rest = &emitted[kpos + 1..];

    // ---- kernel header -----------------------------------------------------
    let strict = matches!(f.cmp, CmpOp::Lt | CmpOp::Gt);
    let expect_bound = if strict {
        init + passes * unroll * s
    } else {
        init + (passes * unroll - 1) * s
    };
    let mut header = |ok: bool, what: &str, found: String| {
        if ok {
            obligations += 1;
        } else {
            v.push(Violation::BadHeader {
                detail: format!("{what}: expected per placement, found {found}"),
            });
        }
    };
    header(kf.var == f.var, "kernel induction variable", kf.var.clone());
    header(
        kf.init == Expr::Int(init),
        &format!("kernel init (expected {init})"),
        slc_ast::pretty::expr_to_string(&kf.init),
    );
    header(
        kf.cmp == f.cmp,
        "kernel comparison",
        format!("{:?}", kf.cmp),
    );
    header(
        kf.step == s * unroll,
        &format!("kernel step (expected {})", s * unroll),
        kf.step.to_string(),
    );
    header(
        kf.bound == Expr::Int(expect_bound),
        &format!("kernel bound (expected {expect_bound})"),
        slc_ast::pretty::expr_to_string(&kf.bound),
    );

    // ---- kernel rows: recover the original MIs ----------------------------
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); ii as usize];
    for k in 0..n {
        let r = (k as i64 + ii * off(k) - (n as i64 - ii)) as usize;
        rows[r].push(k);
    }
    for row in &mut rows {
        row.sort_unstable_by(|a, b| b.cmp(a));
    }
    if kf.body.len() as i64 != ii * unroll {
        v.push(Violation::KernelShape {
            detail: format!(
                "kernel body has {} rows, placement demands {} (II {ii} × unroll {unroll})",
                kf.body.len(),
                ii * unroll
            ),
        });
        return EmissionVerdict {
            obligations,
            violations: v,
        };
    }
    obligations += 1;

    let mut recovered: Vec<Option<Stmt>> = vec![None; n];
    for c in 0..unroll {
        for (r, row) in rows.iter().enumerate() {
            let row_stmt = &kf.body[(c * ii) as usize + r];
            let members: Vec<&Stmt> = match row_stmt {
                Stmt::Par(ms) => ms.iter().collect(),
                other => vec![other],
            };
            if members.len() != row.len() {
                v.push(Violation::KernelShape {
                    detail: format!(
                        "kernel copy {c} row {r} has {} members, placement demands {} \
                         (MIs {:?} in descending order)",
                        members.len(),
                        row.len(),
                        row
                    ),
                });
                continue;
            }
            obligations += 1;
            for (&k, member) in row.iter().zip(members) {
                let j_res = off(k) + c;
                let shift = j_res * s;
                let mut st = (*member).clone();
                if un_rename_kernel(
                    &mut st,
                    &plans,
                    j_res,
                    shift,
                    &f.var,
                    c,
                    r,
                    &mut v,
                    &mut obligations,
                ) {
                    continue;
                }
                shift_induction(&mut st, &f.var, -shift);
                map_exprs(&mut st, &mut simplify);
                match &recovered[k] {
                    None => recovered[k] = Some(st),
                    Some(first) => {
                        if *first == st {
                            obligations += 1;
                        } else {
                            v.push(Violation::CopyMismatch {
                                k,
                                copy: c,
                                detail: format!(
                                    "kernel copy {c} of MI {k} recovers `{}`, copy 0 recovered `{}`",
                                    stmt_str(&st),
                                    stmt_str(first)
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    let recovered: Vec<Stmt> = match recovered.into_iter().collect::<Option<Vec<_>>>() {
        Some(r) => r,
        None => {
            // some MI never recovered (row mismatch already reported)
            return EmissionVerdict {
                obligations,
                violations: v,
            };
        }
    };

    // ---- faithfulness: recovered MIs == original body MIs ------------------
    check_faithful(original, f, report, &recovered, &mut v, &mut obligations);

    // ---- constant instances: prologue, residual, epilogue ------------------
    let expected_restores = restore_tail(original, f, report, init, s, t_count, expand_base);
    let consts: &[Stmt] = if rest.len() < expected_restores.len() {
        v.push(Violation::RestoreViolated {
            var: f.var.clone(),
            detail: format!(
                "expected {} trailing restore statements, found only {} statements \
                 after the kernel",
                expected_restores.len(),
                rest.len()
            ),
        });
        rest
    } else {
        let (consts, tail) = rest.split_at(rest.len() - expected_restores.len());
        for (got, want) in tail.iter().zip(&expected_restores) {
            if got == want {
                obligations += 1;
            } else {
                let var = match want {
                    Stmt::Assign {
                        target: LValue::Var(nm),
                        ..
                    } => nm.clone(),
                    _ => f.var.clone(),
                };
                v.push(Violation::RestoreViolated {
                    var,
                    detail: format!(
                        "live-out restore: expected `{}`, found `{}`",
                        stmt_str(want),
                        stmt_str(got)
                    ),
                });
            }
        }
        consts
    };

    // Expected constant instances in emission order, with their origins.
    let mut expected_pro: Vec<(usize, i64)> = Vec::new();
    for j in 0..m {
        for k in 0..n {
            if j < off(k) {
                expected_pro.push((k, j));
            }
        }
    }
    let mut expected_post: Vec<(usize, i64)> = Vec::new();
    for jj in passes * unroll..k_iters {
        for row in &rows {
            for &k in row {
                expected_post.push((k, jj + off(k)));
            }
        }
    }
    for j in k_iters..t_count {
        for k in 0..n {
            if j >= k_iters + off(k) {
                expected_post.push((k, j));
            }
        }
    }

    let const_instance = |k: usize, j: i64| -> Option<Stmt> {
        let mut st = recovered[k].clone();
        if scalars_written(&st).contains(&f.var) {
            return None; // would not be an SLMS-eligible body
        }
        for (name, plan) in &plans {
            match plan {
                Plan::Versions { vers } => {
                    let p = vers.len() as i64;
                    if p >= 1 {
                        let q = j.rem_euclid(p) as usize;
                        substitute_scalar(&mut st, name, &Expr::Var(vers[q].clone()));
                    }
                }
                Plan::Array { arr, base } => {
                    substitute_scalar(
                        &mut st,
                        name,
                        &Expr::Index(arr.clone(), vec![Expr::Int(init + j * s - base)]),
                    );
                }
            }
        }
        substitute_scalar(&mut st, &f.var, &Expr::Int(init + j * s));
        map_exprs(&mut st, &mut simplify);
        Some(st)
    };

    // Greedy in-order matching of emitted instances against expected ones;
    // the emitted position becomes the instance's execution time.
    let mut times: HashMap<(usize, i64), Time> = HashMap::new();
    let mut match_region = |stmts: &[Stmt], expected: &[(usize, i64)], region: u8, where_: &str| {
        let flat: Vec<&Stmt> = stmts
            .iter()
            .flat_map(|st| match st {
                Stmt::Par(ms) => ms.iter().collect::<Vec<_>>(),
                other => vec![other],
            })
            .collect();
        let want: Vec<Option<Stmt>> = expected
            .iter()
            .map(|&(k, j)| const_instance(k, j))
            .collect();
        let mut used = vec![false; expected.len()];
        for (pos, got) in flat.iter().enumerate() {
            let hit = (0..expected.len()).find(|&i| !used[i] && want[i].as_ref() == Some(*got));
            match hit {
                Some(i) => {
                    used[i] = true;
                    obligations += 1;
                    times.insert(expected[i], (region, pos as i64, 0, 0));
                }
                None => v.push(Violation::UnknownInstance {
                    where_: where_.into(),
                    stmt: stmt_str(got),
                }),
            }
        }
        for (i, u) in used.iter().enumerate() {
            if !u {
                let (k, j) = expected[i];
                v.push(Violation::MissingInstance {
                    k,
                    j,
                    where_: where_.into(),
                });
            }
        }
    };
    match_region(prologue, &expected_pro, 0, "prologue");
    match_region(consts, &expected_post, 2, "residual/epilogue");

    // Kernel instance times from the (already verified) placement.
    let timeline = Timeline {
        ii,
        unroll,
        span: passes * unroll,
        place: (0..n)
            .map(|k| {
                let row = k as i64 + ii * off(k) - (n as i64 - ii);
                let member = rows[row as usize].iter().position(|&x| x == k);
                (off(k), row, member.unwrap_or(0) as i64)
            })
            .collect(),
        times,
    };

    // ---- dependence obligations -------------------------------------------
    let mis = match partition_mis(&recovered) {
        Ok(mis) => mis,
        Err(e) => {
            v.push(Violation::UnfaithfulMi {
                k: 0,
                detail: format!("recovered kernel body cannot be partitioned into MIs: {e}"),
            });
            return EmissionVerdict {
                obligations,
                violations: v,
            };
        }
    };
    // The dependence obligations use the same pair test the driver used:
    // the exact, certificate-producing one, since the range is constant
    // here (with the classic test, loops pipelined on proven independence
    // would fail with spurious unknown-distance edges).
    let range = LoopRange {
        init,
        step: s,
        trips: t_count,
    };
    let RangedDdg {
        ddg,
        pairs: fresh_pairs,
    } = build_ddg(&mis, &f.var, s, Some(&range), &mut DepStats::default());
    let p_of = |name: &str| -> Option<i64> {
        report
            .renamed
            .iter()
            .find(|(nm, _)| nm == name)
            .map(|(_, vers)| vers.len() as i64)
    };
    let expanded = |name: &str| report.expanded_arrays.iter().any(|(nm, _)| nm == name);

    for e in &ddg.edges {
        for dist in &e.dists {
            let d = match dist {
                Distance::Const(d) => *d,
                Distance::Unknown => {
                    v.push(Violation::DependenceViolated {
                        from: e.from,
                        to: e.to,
                        kind: format!("{:?}", e.kind),
                        dist: -1,
                        at_iter: 0,
                        detail: "dependence with unknown distance cannot be scheduled".into(),
                    });
                    continue;
                }
            };
            // Effective distance after renaming.
            let d_eff = match e.scalar.as_deref() {
                Some(name) => {
                    if let Some(p) = p_of(name) {
                        match e.kind {
                            DepKind::Flow => {
                                if d != 0 {
                                    v.push(Violation::RenamingViolated {
                                        var: name.into(),
                                        detail: format!(
                                            "cross-iteration flow (distance {d}) on an \
                                             MVE-renamed scalar is unsound"
                                        ),
                                    });
                                    continue;
                                }
                                0
                            }
                            // Same version recurs every p iterations.
                            DepKind::Anti | DepKind::Output => {
                                if d == 0 {
                                    0
                                } else {
                                    p
                                }
                            }
                        }
                    } else if expanded(name) {
                        match e.kind {
                            DepKind::Flow if d != 0 => {
                                v.push(Violation::RenamingViolated {
                                    var: name.into(),
                                    detail: format!(
                                        "cross-iteration flow (distance {d}) on an \
                                         expanded scalar is unsound"
                                    ),
                                });
                                continue;
                            }
                            // distinct array cells: no cross-iteration hazard
                            _ if d != 0 => continue,
                            _ => 0,
                        }
                    } else {
                        d
                    }
                }
                None => d,
            };
            #[cfg(test)]
            tests::check_against_full_scan(&timeline, e.from, e.to, d_eff, t_count);
            let iters = timeline.dependence_iters(e.from, e.to, d_eff, t_count);
            match first_violation(&timeline, e.from, e.to, d_eff, iters) {
                None => obligations += 1,
                Some((j, tu, tv)) => v.push(Violation::DependenceViolated {
                    from: e.from,
                    to: e.to,
                    kind: format!("{:?}", e.kind),
                    dist: d_eff,
                    at_iter: j,
                    detail: format!(
                        "{:?} dependence MI{} →(d={}) MI{}{}: source instance of \
                         iteration {} at time {:?} does not precede sink instance of \
                         iteration {} at time {:?}",
                        e.kind,
                        e.from,
                        d_eff,
                        e.to,
                        e.scalar
                            .as_ref()
                            .map(|s| format!(" on `{s}`"))
                            .unwrap_or_default(),
                        j,
                        tu,
                        j + d_eff,
                        tv
                    ),
                }),
            }
        }
    }

    // ---- II >= MII ---------------------------------------------------------
    let renamed_or_expanded = |name: &str| p_of(name).is_some() || expanded(name);
    let removable = |e: &slc_analysis::DepEdge| -> bool {
        matches!(e.kind, DepKind::Anti | DepKind::Output)
            && e.scalar.as_deref().is_some_and(renamed_or_expanded)
    };
    let cons = constraints_of(&ddg, &removable);
    match placement_mii(&cons, n) {
        Some(mii) if ii >= mii => obligations += 1,
        Some(mii) => v.push(Violation::IiBelowMii { ii, mii }),
        None => v.push(Violation::IiBelowMii { ii, mii: n as i64 }),
    }

    // ---- exact-scheduler optimality certificate ----------------------------
    verify_certificate(report, cfg, &cons, n, ii, &mut v, &mut obligations);

    // ---- dependence certificates -------------------------------------------
    verify_dep_certificates(
        report,
        &ddg,
        &f.var,
        &range,
        &fresh_pairs,
        &mut v,
        &mut obligations,
    );

    EmissionVerdict {
        obligations,
        violations: v,
    }
}

/// Re-check the exact dependence engine's certificates against the
/// *recovered* body (never trusting the producer). Every access pair the
/// fresh analysis decides must have a certificate in the report that
/// re-validates under [`check_dep_certificate`]: a witness iteration pair
/// that really collides, or an independence system that re-derives
/// identically and re-solves UNSAT. Undecidable pairs carry no certificate
/// and are exempt.
#[allow(clippy::too_many_arguments)]
fn verify_dep_certificates(
    report: &SlmsReport,
    ddg: &slc_analysis::Ddg,
    var: &str,
    range: &LoopRange,
    fresh: &[DepPairSummary],
    v: &mut Vec<Violation>,
    obligations: &mut usize,
) {
    for p in fresh {
        if matches!(p.verdict, DepVerdict::Undecidable) {
            continue;
        }
        let id = format!(
            "`{}` pair MI{}#{} vs MI{}#{}",
            p.array, p.from_mi, p.from_ord, p.to_mi, p.to_ord
        );
        let stored = report.dep_pairs.iter().find(|q| {
            q.from_mi == p.from_mi
                && q.from_ord == p.from_ord
                && q.to_mi == p.to_mi
                && q.to_ord == p.to_ord
        });
        let Some(cert) = stored.and_then(|q| q.certificate.as_ref()) else {
            v.push(Violation::DepCertMissing {
                detail: format!(
                    "{id} was decided ({}) but the report carries no certificate for it",
                    p.verdict.name()
                ),
            });
            continue;
        };
        let a = &ddg.accesses[p.from_mi].arrays[p.from_ord];
        let b = &ddg.accesses[p.to_mi].arrays[p.to_ord];
        match check_dep_certificate(a, b, var, range, cert) {
            Ok(()) => *obligations += 1,
            Err(e) => {
                let detail = format!("{id}: {e}");
                v.push(match cert {
                    DepCertificate::Dependent { .. } => Violation::DepCertWitness { detail },
                    DepCertificate::Independent { .. } => Violation::DepCertProof { detail },
                });
            }
        }
    }
}

/// Re-check the exact scheduler's II-optimality certificate against the
/// dependences of the *recovered* body (never trusting the scheduler): the
/// claimed II must be the achieved one, the recorded heuristic II must not
/// beat it, and [`slc_exact::check_certificate`] must accept the witness,
/// the recomputed MII, and the infeasibility proof. When the configuration
/// requested exact scheduling and the loop is in solver scope, a missing
/// certificate is itself a violation.
fn verify_certificate(
    report: &SlmsReport,
    cfg: &SlmsConfig,
    cons: &[Constraint],
    n: usize,
    ii: i64,
    v: &mut Vec<Violation>,
    obligations: &mut usize,
) {
    let Some(cert) = &report.certificate else {
        if cfg.scheduler == SchedulerKind::Exact && n <= slc_exact::MAX_EXACT_MIS {
            v.push(Violation::CertificateMissing { n_mis: n });
        }
        return;
    };
    if cert.ii != ii {
        v.push(Violation::CertificateIi {
            detail: format!(
                "certificate claims optimal II = {}, the schedule achieves II = {ii}",
                cert.ii
            ),
        });
        return;
    }
    *obligations += 1;
    if let Some(h) = report.heuristic_ii {
        if h < ii {
            v.push(Violation::CertificateIi {
                detail: format!(
                    "recorded heuristic II = {h} beats the certified optimum II = {ii}"
                ),
            });
            return;
        }
        *obligations += 1;
    }
    let deps: Vec<slc_exact::Dep> = cons
        .iter()
        .map(|c| slc_exact::Dep {
            from: c.u,
            to: c.v,
            dist: c.d,
        })
        .collect();
    match slc_exact::check_certificate(&deps, n, cert) {
        Ok(()) => {
            // witness + MII + (possibly) a re-solved refutation
            *obligations += 2 + cert.proof.as_ref().map_or(0, |p| p.clauses.len());
        }
        Err(e) => {
            let detail = e.to_string();
            v.push(match e {
                slc_exact::CertError::MiiMismatch { .. }
                | slc_exact::CertError::WrongMiCount { .. } => Violation::CertificateMii { detail },
                slc_exact::CertError::WitnessInfeasible { .. } => {
                    Violation::CertificateWitness { detail }
                }
                slc_exact::CertError::ProofMissing
                | slc_exact::CertError::ProofUnexpected
                | slc_exact::CertError::ProofIiMismatch { .. }
                | slc_exact::CertError::UnfoundedClause { .. } => {
                    Violation::CertificateProofClause { detail }
                }
                slc_exact::CertError::ProofSatisfiable => Violation::CertificateProofSat { detail },
            });
        }
    }
}

/// Undo the kernel renaming of one row member in place, verifying the MVE
/// residue / expansion subscript first. Returns `true` when the member is
/// too broken to recover (violation already recorded).
#[allow(clippy::too_many_arguments)]
fn un_rename_kernel(
    st: &mut Stmt,
    plans: &[(String, Plan)],
    j_res: i64,
    shift: i64,
    var: &str,
    copy: i64,
    row: usize,
    v: &mut Vec<Violation>,
    obligations: &mut usize,
) -> bool {
    for (name, plan) in plans {
        match plan {
            Plan::Versions { vers } => {
                let p = vers.len() as i64;
                if p < 1 {
                    continue;
                }
                let q = j_res.rem_euclid(p) as usize;
                let mut names = scalars_read(st);
                for w in scalars_written(st) {
                    if !names.contains(&w) {
                        names.push(w);
                    }
                }
                let mut bad = false;
                for (qq, ver) in vers.iter().enumerate() {
                    if qq != q && names.iter().any(|nm| nm == ver) {
                        v.push(Violation::RenamingViolated {
                            var: name.clone(),
                            detail: format!(
                                "kernel copy {copy} row {row}: uses version `{ver}` \
                                 (residue {qq}), placement demands `{}` (residue {q} = \
                                 ({j_res}) mod {p})",
                                vers[q]
                            ),
                        });
                        bad = true;
                    }
                }
                if !vers.iter().any(|vr| vr == name) && names.iter().any(|nm| nm == name) {
                    v.push(Violation::RenamingViolated {
                        var: name.clone(),
                        detail: format!(
                            "kernel copy {copy} row {row}: un-renamed occurrence of `{name}`, \
                             placement demands version `{}`",
                            vers[q]
                        ),
                    });
                    bad = true;
                }
                if bad {
                    return true;
                }
                *obligations += 1;
                substitute_scalar(st, &vers[q], &Expr::Var(name.clone()));
            }
            Plan::Array { arr, base } => {
                let mut expect =
                    slc_ast::visit::add_const(Expr::Var(var.to_string()), shift - base);
                simplify(&mut expect);
                let mut bad = false;
                let mut check_idx = |idx: &[Expr]| {
                    let mut got = idx.to_vec();
                    for g in &mut got {
                        simplify(g);
                    }
                    if got.len() != 1 || got[0] != expect {
                        bad = true;
                    }
                };
                slc_ast::visit::for_each_expr(st, true, &mut |e| {
                    slc_ast::visit::walk_expr(e, &mut |node| {
                        if let Expr::Index(nm, idx) = node {
                            if nm == arr {
                                check_idx(idx);
                            }
                        }
                    });
                });
                // assignment-target occurrences
                let mut tgt: Vec<Vec<Expr>> = Vec::new();
                collect_lvalue_indices(st, arr, &mut tgt);
                for idx in &tgt {
                    check_idx(idx);
                }
                if bad {
                    v.push(Violation::ExpansionSubscript {
                        var: name.clone(),
                        detail: format!(
                            "kernel copy {copy} row {row}: `{arr}[…]` must index \
                             `{}` (iteration {j_res}'s cell)",
                            slc_ast::pretty::expr_to_string(&expect)
                        ),
                    });
                    return true;
                }
                *obligations += 1;
                // replace every arr[…] occurrence by the scalar
                rewrite_lvalues(st, &mut |lv| {
                    if let LValue::Index(nm, _) = lv {
                        if nm == arr {
                            *lv = LValue::Var(name.clone());
                        }
                    }
                });
                map_exprs(st, &mut |e| {
                    rewrite_expr(e, &mut |node| {
                        if let Expr::Index(nm, _) = node {
                            if nm == arr {
                                *node = Expr::Var(name.clone());
                            }
                        }
                    });
                });
            }
        }
    }
    false
}

fn collect_lvalue_indices(st: &Stmt, arr: &str, out: &mut Vec<Vec<Expr>>) {
    match st {
        Stmt::Assign {
            target: LValue::Index(nm, idx),
            ..
        } if nm == arr => out.push(idx.clone()),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            for s in then_branch.iter().chain(else_branch) {
                collect_lvalue_indices(s, arr, out);
            }
        }
        Stmt::Block(b) | Stmt::Par(b) => {
            for s in b {
                collect_lvalue_indices(s, arr, out);
            }
        }
        _ => {}
    }
}

/// The exact restore statements §5 emission appends: the induction
/// variable's final value, then the live-out value of every renamed or
/// expanded variable that existed before SLMS ran.
fn restore_tail(
    original: &Program,
    f: &ForLoop,
    report: &SlmsReport,
    init: i64,
    s: i64,
    t_count: i64,
    expand_base: i64,
) -> Vec<Stmt> {
    let mut out = vec![Stmt::assign(
        LValue::Var(f.var.clone()),
        Expr::Int(init + t_count * s),
    )];
    let last_j = t_count - 1;
    for (name, vers) in &report.renamed {
        if original.decl(name).is_none() || vers.is_empty() {
            continue;
        }
        let p = vers.len() as i64;
        out.push(Stmt::assign(
            LValue::Var(name.clone()),
            Expr::Var(vers[last_j.rem_euclid(p) as usize].clone()),
        ));
    }
    for (name, arr) in &report.expanded_arrays {
        if original.decl(name).is_none() {
            continue;
        }
        out.push(Stmt::assign(
            LValue::Var(name.clone()),
            Expr::Index(
                arr.clone(),
                vec![Expr::Int(init + last_j * s - expand_base)],
            ),
        ));
    }
    out
}

/// Prove the recovered kernel MIs are exactly the original loop body —
/// after undoing the exact scheduler's reordering (if any), replaying
/// if-conversion and inlining decomposition temporaries.
fn check_faithful(
    original: &Program,
    f: &ForLoop,
    report: &SlmsReport,
    recovered: &[Stmt],
    v: &mut Vec<Violation>,
    obligations: &mut usize,
) {
    // Undo the exact reordering first: `exact_order[p]` names the MI of
    // the *pre-reorder* (source-order) body emitted at position `p`, so
    // source order is recovered by scattering position `p` back to index
    // `exact_order[p]`. The order must be a genuine permutation.
    let depermuted: Vec<Stmt>;
    let recovered = match &report.exact_order {
        None => recovered,
        Some(order) => {
            let nn = recovered.len();
            let mut slots: Vec<Option<Stmt>> = vec![None; nn];
            let mut ok = order.len() == nn;
            for (p, &k) in order.iter().enumerate() {
                if !ok || k >= nn || slots[k].is_some() {
                    ok = false;
                    break;
                }
                slots[k] = Some(recovered[p].clone());
            }
            if !ok {
                v.push(Violation::ExactOrderInvalid {
                    detail: format!(
                        "exact order {order:?} is not a permutation of the {nn}-MI body"
                    ),
                });
                return;
            }
            *obligations += 1;
            depermuted = slots.into_iter().map(|s| s.unwrap()).collect();
            &depermuted
        }
    };
    let mut replay = original.clone();
    let mut body = f.body.clone();
    let needs_ic = needs_if_conversion(&body);
    if needs_ic != report.if_converted {
        v.push(Violation::UnfaithfulMi {
            k: 0,
            detail: format!(
                "if-conversion flag: body {} it, report claims {}",
                if needs_ic {
                    "requires"
                } else {
                    "does not require"
                },
                report.if_converted
            ),
        });
        return;
    }
    if needs_ic {
        body = if_convert(&mut replay, &body).body;
    }
    let orig_mis = match partition_mis(&body) {
        Ok(mis) => mis,
        Err(e) => {
            v.push(Violation::UnfaithfulMi {
                k: 0,
                detail: format!("original body cannot be partitioned into MIs: {e}"),
            });
            return;
        }
    };
    let mut orig: Vec<Stmt> = orig_mis.iter().map(|mi| mi.stmt.clone()).collect();
    for st in &mut orig {
        map_exprs(st, &mut simplify);
    }

    // Inline decomposition temporaries back, newest first.
    let mut inlined: Vec<Stmt> = recovered.to_vec();
    for t in report.decomposed.iter().rev() {
        let def = inlined.iter().position(|st| {
            matches!(st, Stmt::Assign { target: LValue::Var(nm), op, .. }
                     if nm == t && *op == slc_ast::AssignOp::Set)
        });
        let Some(pos) = def else {
            v.push(Violation::UnfaithfulMi {
                k: 0,
                detail: format!("decomposition temp `{t}` has no defining MI in the kernel"),
            });
            return;
        };
        let removed = inlined.remove(pos);
        let Stmt::Assign { value, .. } = removed else {
            // position was selected by the matches! above
            continue;
        };
        for st in &mut inlined {
            substitute_scalar(st, t, &value);
        }
    }
    for st in &mut inlined {
        map_exprs(st, &mut simplify);
    }

    if orig.len() != inlined.len() {
        v.push(Violation::UnfaithfulMi {
            k: 0,
            detail: format!(
                "after inlining {} decomposition temps the kernel recovers {} MIs, \
                 the original body has {}",
                report.decomposed.len(),
                inlined.len(),
                orig.len()
            ),
        });
        return;
    }
    for (k, (got, want)) in inlined.iter().zip(&orig).enumerate() {
        if got == want {
            *obligations += 1;
        } else {
            v.push(Violation::UnfaithfulMi {
                k,
                detail: format!(
                    "recovered MI `{}` is not the original `{}`",
                    stmt_str(got),
                    stmt_str(want)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_slms_program, LoopVerdict};
    use std::cell::Cell;

    /// Over the dependence obligations checked on this thread: obligations,
    /// iterations the full per-trip scan visits, iterations the
    /// kernel-period scan visits.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct ScanCounts {
        edges: usize,
        full: usize,
        kept: usize,
    }

    thread_local! {
        static SCANS: Cell<ScanCounts> = const {
            Cell::new(ScanCounts { edges: 0, full: 0, kept: 0 })
        };
    }

    /// The oracle [`verify_emission`] runs in a test build before each
    /// dependence obligation: the full per-trip scan `0..t − d` must find
    /// the same first violation (or none) as the kernel-period set, and
    /// every iteration the set skips must have the times of its kept
    /// translate `j − m·unroll`, `m` kernel passes later.
    pub(super) fn check_against_full_scan(
        timeline: &Timeline,
        u: usize,
        v: usize,
        d: i64,
        t_count: i64,
    ) {
        let kept: Vec<i64> = timeline.dependence_iters(u, v, d, t_count).collect();
        let full = 0..t_count - d;
        assert_eq!(
            first_violation(timeline, u, v, d, kept.iter().copied()),
            first_violation(timeline, u, v, d, full.clone()),
            "MI{u} →(d={d}) MI{v} over {t_count} iterations"
        );
        let window = kernel_window(timeline.place[u].0, timeline.place[v].0, d, timeline.span);
        let later = |t: Option<Time>, m: i64| t.map(|(r, pass, row, pos)| (r, pass + m, row, pos));
        for j in full.clone().filter(|j| kept.binary_search(j).is_err()) {
            let m = (j - window.start) / timeline.unroll;
            let jt = j - m * timeline.unroll;
            assert!(
                m >= 1 && kept.binary_search(&jt).is_ok(),
                "j {j} has no kept translate"
            );
            assert_eq!(timeline.time_of(u, j), later(timeline.time_of(u, jt), m));
            assert_eq!(
                timeline.time_of(v, j + d),
                later(timeline.time_of(v, jt + d), m)
            );
        }
        SCANS.with(|s| {
            let c = s.get();
            s.set(ScanCounts {
                edges: c.edges + 1,
                full: c.full + full.count(),
                kept: c.kept + kept.len(),
            });
        });
    }

    /// Every dependence of every corpus loop, under both schedulers, the
    /// three expansion modes and the filter on and off: the kernel-period
    /// scan agrees with the full scan (checked per edge above). The counts
    /// are pinned, so a scan that silently went back to every trip fails
    /// here by a number.
    #[test]
    fn kernel_period_scan_agrees_with_full_scan_on_the_corpus() {
        SCANS.with(|s| s.set(ScanCounts::default()));
        let mut verified = 0usize;
        for w in slc_workloads::all() {
            let prog = w.program();
            for scheduler in [SchedulerKind::Heuristic, SchedulerKind::Exact] {
                for expansion in [Expansion::Mve, Expansion::ScalarExpand, Expansion::Off] {
                    for apply_filter in [true, false] {
                        let cfg = SlmsConfig {
                            apply_filter,
                            expansion,
                            scheduler,
                        };
                        let verdict = verify_slms_program(&prog, &cfg);
                        assert!(verdict.clean(), "{}: {}", w.name, verdict.render());
                        verified += verdict
                            .loops
                            .iter()
                            .filter(|l| matches!(l.verdict, LoopVerdict::Verified { .. }))
                            .count();
                    }
                }
            }
        }
        let counts = SCANS.with(Cell::get);
        println!(
            "{verified} loops verified: {} dependence obligations, {} iterations scanned \
             of the {} a per-trip scan visits",
            counts.edges, counts.kept, counts.full
        );
        assert_eq!(
            counts,
            ScanCounts {
                edges: 3114,
                full: 2_917_860,
                kept: 11_366,
            }
        );
    }

    /// The kept set of one random dependence, checked against its
    /// definition: ascending, inside `0..end`, everything outside the
    /// kernel window kept, and every skipped `j` a translate of a kept
    /// `j − m·unroll ≥ lo` inside the window.
    fn kept_set_covers_every_trip(
        off_u: i64,
        off_v: i64,
        d: i64,
        unroll: i64,
        passes: i64,
        t_count: i64,
    ) -> proptest::TestCaseResult {
        let window = kernel_window(off_u, off_v, d, passes * unroll);
        let end = t_count - d;
        let kept: Vec<i64> = dependence_iters(window.clone(), unroll, end).collect();
        proptest::prop_assert!(kept.windows(2).all(|w| w[0] < w[1]), "{:?}", kept);
        proptest::prop_assert!(kept.iter().all(|j| (0..end).contains(j)), "{:?}", kept);
        for j in (0..end).filter(|j| kept.binary_search(j).is_err()) {
            proptest::prop_assert!(window.contains(&j), "skipped {} outside {:?}", j, window);
            let m = (j - window.start) / unroll;
            let jt = j - m * unroll;
            proptest::prop_assert!(
                m >= 1 && window.contains(&jt) && kept.binary_search(&jt).is_ok(),
                "skipped {} has no kept translate in {:?} (kept {:?})",
                j,
                window,
                kept
            );
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 2048, ..Default::default() })]
        #[test]
        fn kernel_period_set_keeps_a_translate_of_every_skipped_trip(
            off_u in 0i64..6,
            off_v in 0i64..6,
            d in 0i64..8,
            unroll in 1i64..5,
            passes in 0i64..6,
            extra in -12i64..40,
        ) {
            // `extra` places t − d anywhere from below 0 to well past the
            // kernel window, so empty scans and windows shorter than one
            // period both occur
            let t_count = off_u.max(off_v) + passes * unroll + extra;
            kept_set_covers_every_trip(off_u, off_v, d, unroll, passes, t_count)?;
        }
    }
}
