//! Source-level lint suite for SLMS inputs and outputs.
//!
//! Each lint has a stable code. `SLMS-L001` is an **error** (it describes a
//! program whose sequential meaning is underdefined, so neither scheduling
//! nor verification can be trusted); the rest are **warnings** that explain
//! why a loop will resist transformation or static checking:
//!
//! | code        | severity | finding                                        |
//! |-------------|----------|------------------------------------------------|
//! | `SLMS-L001` | error    | scalar read on a path where it may be unwritten |
//! | `SLMS-L002` | warning  | alias hazard: unanalyzable same-array pair      |
//! | `SLMS-L003` | warning  | non-affine array subscript                     |
//! | `SLMS-L004` | warning  | innermost loop with symbolic trip count        |
//!
//! L001 uses a three-state forward dataflow per scalar — *unwritten*
//! (never assigned: a loop *parameter*, fine to read), *written*, and
//! *maybe-written* (assigned on some paths only). Only *maybe* reads fire:
//! reading a parameter is how every reduction starts (`s = s + t`), while
//! reading a scalar that one branch initialised and another did not is the
//! classic source-level pipelining hazard (the kernel replays branches out
//! of order, so "it happened to work" orderings break).

use std::collections::{HashMap, HashSet};

use slc_analysis::deps::DepDist;
use slc_analysis::linform::linearize;
use slc_analysis::{
    accesses_of_stmt, analyze_pair, array_dep_distances, DepCertificate, DepStats, DepVerdict,
    LoopRange,
};
use slc_ast::pretty::{expr_to_string, stmts_to_source};
use slc_ast::visit::{for_each_expr, walk_expr};
use slc_ast::{innermost_loops, AssignOp, Expr, ForLoop, LValue, Program, Stmt};

/// How serious a lint finding is. Errors affect the `slc verify` exit code;
/// warnings are reported but do not fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintSeverity {
    /// Program meaning (and thus any schedule of it) is suspect.
    Error,
    /// Transformation/verification quality is limited, meaning is fine.
    Warning,
}

impl std::fmt::Display for LintSeverity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintSeverity::Error => f.write_str("error"),
            LintSeverity::Warning => f.write_str("warning"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// stable code, e.g. `SLMS-L001`
    pub code: &'static str,
    /// severity class
    pub severity: LintSeverity,
    /// human-readable finding
    pub message: String,
    /// source excerpt the finding anchors to
    pub excerpt: String,
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.severity, self.code, self.message)?;
        if !self.excerpt.is_empty() {
            write!(f, "\n      at: {}", self.excerpt)
        } else {
            Ok(())
        }
    }
}

/// Run the whole lint suite over `prog`.
pub fn lint_program(prog: &Program) -> Vec<Lint> {
    let mut out = Vec::new();
    uninit_scalar_reads(prog, &mut out);
    alias_hazards(prog, &mut out);
    non_affine_subscripts(prog, &mut out);
    symbolic_trip_counts(prog, &mut out);
    out
}

// ── L001: maybe-uninitialized scalar reads ─────────────────────────────

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Unwritten,
    Maybe,
    Written,
}

type Env = HashMap<String, St>;

fn get(env: &Env, name: &str) -> St {
    env.get(name).copied().unwrap_or(St::Unwritten)
}

fn merge(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    let keys: HashSet<&String> = a.keys().chain(b.keys()).collect();
    for k in keys {
        let (sa, sb) = (get(a, k), get(b, k));
        let s = if sa == sb {
            sa
        } else {
            // One path wrote (or maybe-wrote), another did not.
            St::Maybe
        };
        out.insert(k.clone(), s);
    }
    out
}

struct UninitCx<'a> {
    prog: &'a Program,
    fired: HashSet<String>,
    out: &'a mut Vec<Lint>,
}

impl UninitCx<'_> {
    fn is_scalar(&self, name: &str) -> bool {
        self.prog.decl(name).is_some_and(|d| !d.is_array())
    }

    fn check_expr(&mut self, e: &Expr, env: &Env, at: &str) {
        walk_expr(e, &mut |node| {
            if let Expr::Var(n) = node {
                if self.is_scalar(n) && get(env, n) == St::Maybe && self.fired.insert(n.clone()) {
                    self.out.push(Lint {
                        code: "SLMS-L001",
                        severity: LintSeverity::Error,
                        message: format!(
                            "scalar `{n}` is read here but only written on some \
                             paths; under pipelining the write/read order is not preserved"
                        ),
                        excerpt: at.to_string(),
                    });
                }
            }
        });
    }

    fn walk(&mut self, stmts: &[Stmt], env: &mut Env) {
        for s in stmts {
            let at = one_line(s);
            match s {
                Stmt::Assign { target, op, value } => {
                    self.check_expr(value, env, &at);
                    match target {
                        LValue::Index(_, idx) => {
                            for e in idx {
                                self.check_expr(e, env, &at);
                            }
                        }
                        LValue::Var(n) => {
                            if *op != AssignOp::Set {
                                // compound op reads the target first
                                self.check_expr(&Expr::Var(n.clone()), env, &at);
                            }
                            env.insert(n.clone(), St::Written);
                        }
                    }
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.check_expr(cond, env, &at);
                    let mut t_env = env.clone();
                    let mut e_env = env.clone();
                    self.walk(then_branch, &mut t_env);
                    self.walk(else_branch, &mut e_env);
                    *env = merge(&t_env, &e_env);
                }
                Stmt::For(f) => {
                    self.check_expr(&f.init, env, &at);
                    self.check_expr(&f.bound, env, &at);
                    env.insert(f.var.clone(), St::Written);
                    let entry = env.clone();
                    self.walk(&f.body, env);
                    if !matches!(f.trip_count(), Some(t) if t >= 1) {
                        // body may not run at all
                        *env = merge(&entry, env);
                    }
                }
                Stmt::While { cond, body } => {
                    self.check_expr(cond, env, &at);
                    let entry = env.clone();
                    self.walk(body, env);
                    *env = merge(&entry, env);
                }
                Stmt::Block(b) | Stmt::Par(b) => self.walk(b, env),
                Stmt::Call(_, args) => {
                    for e in args {
                        self.check_expr(e, env, &at);
                    }
                }
                Stmt::Break => {}
            }
        }
    }
}

fn uninit_scalar_reads(prog: &Program, out: &mut Vec<Lint>) {
    let mut cx = UninitCx {
        prog,
        fired: HashSet::new(),
        out,
    };
    let mut env = Env::new();
    cx.walk(&prog.stmts, &mut env);
}

// ── L002: alias hazards ────────────────────────────────────────────────

/// True when a subscript pair leaves the iteration distance in this
/// dimension statically undecidable: a non-linear subscript, or a symbolic
/// residue (after dropping the induction variable) that may or may not
/// coincide depending on runtime scalar values. This catches hazards that
/// [`array_dep_distances`] papers over when *another* dimension pins an
/// exact candidate distance (`X[k][i]` vs `X[k][j]`: dimension one gives
/// distance 0, dimension two depends on whether `i == j`).
fn dim_undecidable(a: &Expr, b: &Expr, var: &str) -> bool {
    let (Some(la), Some(lb)) = (linearize(a), linearize(b)) else {
        return true;
    };
    let (ca, ra) = la.split_var(var);
    let (cb, rb) = lb.split_var(var);
    if ca == cb {
        !ra.sub(&rb).is_const()
    } else {
        true
    }
}

fn alias_hazards(prog: &Program, out: &mut Vec<Lint>) {
    for f in innermost_loops(&prog.stmts) {
        let range = LoopRange::of_loop(f);
        let mut seen: HashSet<String> = HashSet::new();
        let accs: Vec<_> = f
            .body
            .iter()
            .flat_map(|s| accesses_of_stmt(s).arrays)
            .collect();
        for (i, a) in accs.iter().enumerate() {
            for b in &accs[i + 1..] {
                if a.array != b.array || !(a.write || b.write) {
                    continue;
                }
                let dist = array_dep_distances(a, b, &f.var);
                let fuzzy_dim = dist != DepDist::None
                    && a.indices.len() == b.indices.len()
                    && a.indices
                        .iter()
                        .zip(&b.indices)
                        .any(|(ia, ib)| dim_undecidable(ia, ib, &f.var));
                if !(dist == DepDist::Any || fuzzy_dim) {
                    continue;
                }
                // The classic test gave up on this pair. When the loop range
                // is constant, ask the exact engine for a precise verdict
                // before warning: proven-independent or exact-distance pairs
                // are not hazards, and a dependent-but-wide pair names its
                // concrete witness instead of a vague "may alias".
                let message = match &range {
                    Some(r) => {
                        let mut st = DepStats::default();
                        let ana = analyze_pair(a, b, &f.var, r, &mut st);
                        match (&ana.verdict, &ana.certificate) {
                            (DepVerdict::Independent, _) | (DepVerdict::Distances(_), _) => {
                                continue; // precisely decided: no hazard
                            }
                            (
                                DepVerdict::AnyWithWitness,
                                Some(DepCertificate::Dependent { t1, t2 }),
                            ) => format!(
                                "references to `{}` conflict at too many distances to \
                                 enumerate (witness: iterations {t1} and {t2} touch the \
                                 same cell); SLMS must assume a loop-carried dependence \
                                 at every distance",
                                a.array
                            ),
                            _ => undecidable_alias_message(&a.array, &f.var),
                        }
                    }
                    None => undecidable_alias_message(&a.array, &f.var),
                };
                if seen.insert(a.array.clone()) {
                    out.push(Lint {
                        code: "SLMS-L002",
                        severity: LintSeverity::Warning,
                        message,
                        excerpt: one_line_loop(f),
                    });
                }
            }
        }
    }
}

fn undecidable_alias_message(array: &str, var: &str) -> String {
    format!(
        "references to `{array}` cannot be disambiguated at loop variable \
         `{var}`; SLMS must assume a loop-carried dependence at every distance"
    )
}

// ── L003: non-affine subscripts ────────────────────────────────────────

fn non_affine_subscripts(prog: &Program, out: &mut Vec<Lint>) {
    let mut seen: HashSet<String> = HashSet::new();
    for s in &prog.stmts {
        for_each_expr(s, true, &mut |e| {
            walk_expr(e, &mut |node| {
                if let Expr::Index(arr, idx) = node {
                    for sub in idx {
                        if linearize(sub).is_none() {
                            let rendered = expr_to_string(sub);
                            if seen.insert(format!("{arr}[{rendered}]")) {
                                out.push(Lint {
                                    code: "SLMS-L003",
                                    severity: LintSeverity::Warning,
                                    message: format!(
                                        "subscript of `{arr}` is not affine; even the \
                                         exact dependence engine cannot decide pairs \
                                         involving it"
                                    ),
                                    excerpt: format!("{arr}[{rendered}]"),
                                });
                            }
                        }
                    }
                }
            });
        });
        collect_lvalue_subscripts(s, &mut seen, out);
    }
}

fn collect_lvalue_subscripts(s: &Stmt, seen: &mut HashSet<String>, out: &mut Vec<Lint>) {
    match s {
        Stmt::Assign {
            target: LValue::Index(arr, idx),
            ..
        } => {
            for sub in idx {
                if linearize(sub).is_none() {
                    let rendered = expr_to_string(sub);
                    if seen.insert(format!("{arr}[{rendered}]")) {
                        out.push(Lint {
                            code: "SLMS-L003",
                            severity: LintSeverity::Warning,
                            message: format!(
                                "subscript of `{arr}` is not affine; even the exact \
                                 dependence engine cannot decide pairs involving it"
                            ),
                            excerpt: format!("{arr}[{rendered}]"),
                        });
                    }
                }
            }
        }
        Stmt::Assign { .. } => {}
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            for t in then_branch.iter().chain(else_branch) {
                collect_lvalue_subscripts(t, seen, out);
            }
        }
        Stmt::For(f) => {
            for t in &f.body {
                collect_lvalue_subscripts(t, seen, out);
            }
        }
        Stmt::While { body, .. } => {
            for t in body {
                collect_lvalue_subscripts(t, seen, out);
            }
        }
        Stmt::Block(b) | Stmt::Par(b) => {
            for t in b {
                collect_lvalue_subscripts(t, seen, out);
            }
        }
        _ => {}
    }
}

// ── L004: symbolic trip counts ─────────────────────────────────────────

fn symbolic_trip_counts(prog: &Program, out: &mut Vec<Lint>) {
    for f in innermost_loops(&prog.stmts) {
        if f.trip_count().is_none() {
            out.push(Lint {
                code: "SLMS-L004",
                severity: LintSeverity::Warning,
                message: format!(
                    "innermost loop over `{}` has a symbolic trip count; SLMS \
                     emits a runtime-guarded pipeline that static verification \
                     must skip",
                    f.var
                ),
                excerpt: one_line_loop(f),
            });
        }
    }
}

// ── helpers ────────────────────────────────────────────────────────────

fn one_line(s: &Stmt) -> String {
    let full = stmts_to_source(std::slice::from_ref(s));
    let joined = full.split_whitespace().collect::<Vec<_>>().join(" ");
    if joined.len() > 72 {
        format!("{}…", &joined[..71])
    } else {
        joined
    }
}

fn one_line_loop(f: &ForLoop) -> String {
    one_line(&Stmt::For(f.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_program;

    fn codes(src: &str) -> Vec<&'static str> {
        let prog = parse_program(src).unwrap();
        lint_program(&prog).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn parameter_reads_are_clean() {
        // `s` is never written before the loop: it is a parameter, and the
        // reduction read must NOT fire L001.
        let c = codes(
            "float A[16]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * 2.0; s = s + t; }",
        );
        assert!(!c.contains(&"SLMS-L001"), "{c:?}");
    }

    #[test]
    fn branch_initialized_scalar_fires() {
        let c = codes(
            "float A[10]; float s; int i; int c;\n\
             if (c > 0) s = 1.0;\n\
             A[0] = s;",
        );
        assert_eq!(c.iter().filter(|c| **c == "SLMS-L001").count(), 1, "{c:?}");
    }

    #[test]
    fn both_branches_initialized_clean() {
        let c = codes(
            "float A[10]; float s; int c;\n\
             if (c > 0) s = 1.0; else s = 2.0;\n\
             A[0] = s;",
        );
        assert!(!c.contains(&"SLMS-L001"), "{c:?}");
    }

    #[test]
    fn zero_trip_loop_write_is_maybe() {
        let c = codes(
            "float A[10]; float s; int i; int n;\n\
             for (i = 0; i < n; i++) s = A[i];\n\
             A[0] = s;",
        );
        assert!(c.contains(&"SLMS-L001"), "{c:?}");
        // and the symbolic loop itself warns
        assert!(c.contains(&"SLMS-L004"), "{c:?}");
    }

    #[test]
    fn const_trip_loop_write_is_definite() {
        let c = codes(
            "float A[10]; float s; int i;\n\
             for (i = 0; i < 10; i++) s = A[i];\n\
             A[0] = s;",
        );
        assert!(!c.contains(&"SLMS-L001"), "{c:?}");
    }

    #[test]
    fn alias_hazard_fires_on_indirection() {
        let c = codes(
            "float A[16]; int P[16]; int i;\n\
             for (i = 0; i < 16; i++) A[P[i]] = A[i] * 2.0;",
        );
        assert!(c.contains(&"SLMS-L002"), "{c:?}");
        assert!(c.contains(&"SLMS-L003"), "{c:?}");
    }

    #[test]
    fn affine_streams_lint_clean() {
        let c = codes(
            "float A[32]; float B[32]; int i;\n\
             for (i = 0; i < 32; i++) A[i] = B[i + 1] * 2.0;",
        );
        assert!(c.is_empty(), "{c:?}");
    }
}
