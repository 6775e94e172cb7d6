//! Kernel/prologue/epilogue emission (§5 step 6) with modulo variable
//! expansion (§3.3) and scalar expansion (§3.4).
//!
//! Placement recap (see [`crate::mii`]): MI `k` of original iteration `j`
//! executes at global row `II·j + k + const`; the kernel therefore contains
//! each MI once, shifted forward by `off_k = ⌊(n−1−k)/II⌋` iterations, at
//! kernel row `k + II·off_k − (n − II)`, and rows list members in
//! descending-`k` order (exactly the table of Figure 1). The loop bound
//! shrinks by `max_k off_k` iterations; the missed leading instances form
//! the prologue and the missed trailing instances the epilogue.
//!
//! **Constant trip counts.** Emission requires constant `init`/`bound`: the
//! prologue/epilogue instances and — under MVE — the renaming residues are
//! then fully determined, and the emitted program is exactly semantically
//! equal to the input (verified by the interpreter-based equivalence tests).
//! The paper side-steps this by writing "complete last iteration" by hand
//! (Fig. 7); a production source-level compiler would guard symbolic trip
//! counts at run time.
//!
//! Renaming under MVE: variable `v` with `p_v` simultaneously-live versions
//! gets versions `v1 … v{p_v}`; the instance of original iteration `j` uses
//! version `j mod p_v`. The kernel is unrolled `U = lcm(p_v)` times so every
//! kernel copy sees a statically-known residue. Scalar expansion instead
//! rewrites `v` to `vArr[<value of the induction variable at iteration j>]`,
//! which needs no unrolling. Live-out values of renamed *original* variables
//! are restored after the epilogue, as is the induction variable's final
//! value, so the transformation is observationally identity.

use crate::SlmsError;
use slc_ast::visit::{shift_induction, simplify, substitute_scalar};
use slc_ast::{CmpOp, Expr, ForLoop, LValue, Program, Stmt, Ty};

/// How decomposition-/scalar-induced false dependences are removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Expansion {
    /// Keep scalars as-is; every scalar dependence constrains the placement.
    Off,
    /// Modulo variable expansion: unroll the kernel and rotate versions.
    #[default]
    Mve,
    /// Scalar expansion: replace the scalar by a per-iteration array cell.
    ScalarExpand,
}

impl Expansion {
    /// Stable wire and CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            Expansion::Off => "off",
            Expansion::Mve => "mve",
            Expansion::ScalarExpand => "scalar",
        }
    }

    /// Inverse of [`Expansion::label`].
    pub fn from_label(s: &str) -> Option<Expansion> {
        Some(match s {
            "off" => Expansion::Off,
            "mve" => Expansion::Mve,
            "scalar" => Expansion::ScalarExpand,
            _ => return None,
        })
    }
}

/// A scalar selected for expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandVar {
    /// Variable name.
    pub name: String,
    /// Position of its (single, unconditional) defining MI.
    pub def_pos: usize,
    /// Maximal position of a reading MI (`def_pos` when unread).
    pub max_use_pos: usize,
    /// True when the variable existed before SLMS ran — its live-out value
    /// must be restored after the epilogue.
    pub restore: bool,
}

impl ExpandVar {
    /// Number of simultaneously live versions at initiation interval `ii`:
    /// `⌈lifetime / II⌉` with the source-level lifetime
    /// `max_use_pos − def_pos + 1` rows (Lam's rule applied to positions).
    pub fn versions(&self, ii: i64) -> i64 {
        let l = (self.max_use_pos - self.def_pos + 1) as i64;
        (l + ii - 1) / ii
    }
}

/// Result of emission.
#[derive(Debug, Clone)]
pub struct EmitOutput {
    /// Statements replacing the original loop statement.
    pub stmts: Vec<Stmt>,
    /// Kernel unroll factor applied for MVE (1 = none).
    pub unroll: i64,
    /// Renamed variables and their version names (MVE only).
    pub renamed: Vec<(String, Vec<String>)>,
    /// Scalars turned into arrays (scalar expansion only).
    pub expanded_arrays: Vec<(String, String)>,
    /// Iteration shift of MI 0 (pipeline depth in iterations).
    pub max_offset: i64,
}

fn lcm(a: i64, b: i64) -> i64 {
    fn gcd(mut a: i64, mut b: i64) -> i64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    a / gcd(a, b) * b
}

/// Per-variable renaming plan.
enum RenamePlan {
    Versions {
        name: String,
        vers: Vec<String>,
    },
    Array {
        name: String,
        arr: String,
        base: i64,
    },
}

/// Emit the software-pipelined replacement of loop `f` whose body has been
/// partitioned into `mis`, at initiation interval `ii`.
pub fn emit(
    prog: &mut Program,
    f: &ForLoop,
    mis: &[Stmt],
    ii: i64,
    expansion: Expansion,
    expand: &[ExpandVar],
) -> Result<EmitOutput, SlmsError> {
    let n = mis.len();
    if ii < 1 || (ii as usize) >= n {
        return Err(SlmsError::InvalidIi { ii, n_mis: n });
    }
    let t_count = f.trip_count().ok_or(SlmsError::SymbolicBounds)?;
    let init = f.init.const_int().ok_or(SlmsError::SymbolicBounds)?;
    let s = f.step;
    let off = |k: usize| ((n - 1 - k) as i64) / ii;
    let m = off(0);
    if t_count <= m {
        return Err(SlmsError::TooFewIterations {
            trip: t_count,
            needed: m + 1,
        });
    }
    let k_iters = t_count - m;

    // ---- renaming plans --------------------------------------------------
    let active: Vec<&ExpandVar> = if expansion == Expansion::Off {
        vec![]
    } else {
        expand.iter().filter(|v| v.versions(ii) >= 2).collect()
    };
    let mut unroll = 1i64;
    if expansion == Expansion::Mve {
        for v in &active {
            unroll = lcm(unroll, v.versions(ii));
        }
        if unroll > 16 {
            return Err(SlmsError::UnrollTooLarge(unroll));
        }
    }
    let mut plans: Vec<RenamePlan> = Vec::new();
    let mut renamed = Vec::new();
    let mut expanded_arrays = Vec::new();
    for v in &active {
        let ty = prog.decl(&v.name).map_or(Ty::Float, |d| d.ty);
        match expansion {
            Expansion::Mve => {
                let p = v.versions(ii);
                // Version base: strip trailing digits so a decomposition
                // temp `reg1` yields versions `reg1, reg2` like the paper,
                // not `reg11, reg12`.
                let stripped = v.name.trim_end_matches(|c: char| c.is_ascii_digit());
                let base = if stripped.is_empty() {
                    &v.name
                } else {
                    stripped
                };
                let mut vers = Vec::new();
                for q in 1..=p {
                    let cand = format!("{base}{q}");
                    let name = if cand == v.name || prog.decl(&cand).is_none() {
                        cand
                    } else {
                        prog.fresh_name(base)
                    };
                    prog.ensure_scalar(&name, ty);
                    vers.push(name);
                }
                renamed.push((v.name.clone(), vers.clone()));
                plans.push(RenamePlan::Versions {
                    name: v.name.clone(),
                    vers,
                });
            }
            Expansion::ScalarExpand => {
                let last = init + (t_count - 1) * s;
                let base = init.min(last);
                let size = (init.max(last) - base + 1) as usize;
                let arr = prog.fresh_name(&format!("{}Arr", v.name));
                prog.ensure_array(&arr, ty, vec![size]);
                expanded_arrays.push((v.name.clone(), arr.clone()));
                plans.push(RenamePlan::Array {
                    name: v.name.clone(),
                    arr,
                    base,
                });
            }
            Expansion::Off => unreachable!(),
        }
    }

    // Apply renaming to one instance. `j_residue`: original iteration index
    // (for constant instances) or `off + copy` (kernel — valid because the
    // kernel loop advances `unroll` iterations per pass and `p | unroll`).
    // `kernel_var_shift`: Some(shift) for kernel instances (subscripts are
    // var-relative), None for constant instances with known `j`.
    let rename = |stmt: &mut Stmt, j: i64, kernel_shift: Option<i64>| {
        for plan in &plans {
            match plan {
                RenamePlan::Versions { name, vers } => {
                    let p = vers.len() as i64;
                    let q = j.rem_euclid(p) as usize;
                    substitute_scalar(stmt, name, &Expr::Var(vers[q].clone()));
                }
                RenamePlan::Array { name, arr, base } => {
                    let sub = match kernel_shift {
                        Some(shift) => {
                            slc_ast::visit::add_const(Expr::Var(f.var.clone()), shift - base)
                        }
                        None => Expr::Int(init + j * s - base),
                    };
                    substitute_scalar(stmt, name, &Expr::Index(arr.clone(), vec![sub]));
                }
            }
        }
    };

    // Constant instance of MI k at original iteration j.
    let const_instance = |k: usize, j: i64| -> Stmt {
        let mut st = mis[k].clone();
        rename(&mut st, j, None);
        substitute_scalar(&mut st, &f.var, &Expr::Int(init + j * s));
        slc_ast::visit::map_exprs(&mut st, &mut simplify);
        st
    };

    let mut out: Vec<Stmt> = Vec::new();

    // ---- prologue --------------------------------------------------------
    for j in 0..m {
        for k in 0..n {
            if j < off(k) {
                out.push(const_instance(k, j));
            }
        }
    }

    // ---- kernel ----------------------------------------------------------
    let passes = k_iters / unroll;
    // rows: row(k) = k + ii*off(k) - (n - ii)
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); ii as usize];
    for k in 0..n {
        let r = (k as i64 + ii * off(k) - (n as i64 - ii)) as usize;
        rows[r].push(k);
    }
    for row in &mut rows {
        row.sort_unstable_by(|a, b| b.cmp(a)); // descending k
    }
    let mut body: Vec<Stmt> = Vec::new();
    for c in 0..unroll {
        for row in &rows {
            let mut members = Vec::new();
            for &k in row {
                let shift = (off(k) + c) * s;
                let mut st = mis[k].clone();
                // Shift first: the scalar-expansion replacement inserts
                // `var`-relative subscripts that must not be shifted again.
                shift_induction(&mut st, &f.var, shift);
                rename(&mut st, off(k) + c, Some(shift));
                members.push(st);
            }
            match members.len() {
                1 => body.push(members.remove(0)),
                _ => body.push(Stmt::Par(members)),
            }
        }
    }
    let strict = matches!(f.cmp, CmpOp::Lt | CmpOp::Gt);
    let bound_val = if strict {
        init + passes * unroll * s
    } else {
        init + (passes * unroll - 1) * s
    };
    out.push(Stmt::For(ForLoop {
        var: f.var.clone(),
        init: Expr::Int(init),
        cmp: f.cmp,
        bound: Expr::Int(bound_val),
        step: s * unroll,
        body,
    }));

    // ---- residual kernel iterations (MVE remainder), fully peeled ---------
    for jj in passes * unroll..k_iters {
        for row in &rows {
            let mut members = Vec::new();
            for &k in row {
                members.push(const_instance(k, jj + off(k)));
            }
            match members.len() {
                1 => out.push(members.remove(0)),
                _ => out.push(Stmt::Par(members)),
            }
        }
    }

    // ---- epilogue ---------------------------------------------------------
    for j in k_iters..t_count {
        for k in 0..n {
            if j >= k_iters + off(k) {
                out.push(const_instance(k, j));
            }
        }
    }

    // ---- restores ----------------------------------------------------------
    // Induction variable ends where the original loop left it.
    out.push(Stmt::assign(
        LValue::Var(f.var.clone()),
        Expr::Int(init + t_count * s),
    ));
    for (v, plan) in active.iter().zip(&plans) {
        if !v.restore {
            continue;
        }
        let last_j = t_count - 1;
        let rhs = match plan {
            RenamePlan::Versions { vers, .. } => {
                let p = vers.len() as i64;
                Expr::Var(vers[last_j.rem_euclid(p) as usize].clone())
            }
            RenamePlan::Array { arr, base, .. } => {
                Expr::Index(arr.clone(), vec![Expr::Int(init + last_j * s - base)])
            }
        };
        out.push(Stmt::assign(LValue::Var(v.name.clone()), rhs));
    }

    Ok(EmitOutput {
        stmts: out,
        unroll,
        renamed,
        expanded_arrays,
        max_offset: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::pretty::stmts_to_source;
    use slc_ast::{parse_program, parse_stmts};

    fn mk_loop(src: &str, var: &str, init: i64, bound: i64) -> ForLoop {
        ForLoop {
            var: var.into(),
            init: Expr::Int(init),
            cmp: CmpOp::Lt,
            bound: Expr::Int(bound),
            step: 1,
            body: parse_stmts(src).unwrap(),
        }
    }

    #[test]
    fn intro_example_shape() {
        // t = A[i]*B[i]; s = s + t;  II = 1 → kernel [s = s + t || t = A[i+1]*B[i+1]]
        let mut prog = parse_program("float A[16]; float B[16]; float s; float t; int i;").unwrap();
        let f = mk_loop("t = A[i] * B[i]; s = s + t;", "i", 0, 10);
        let out = emit(&mut prog, &f, &f.body.clone(), 1, Expansion::Off, &[]).unwrap();
        let src = stmts_to_source(&out.stmts);
        // prologue: t = A[0]*B[0]
        assert!(src.contains("t = A[0] * B[0];"), "got:\n{src}");
        // kernel loop bound shrank by 1
        assert!(src.contains("for (i = 0; i < 9; i++)"), "got:\n{src}");
        // kernel: s=s+t before t=A[i+1]*B[i+1] in one par row
        assert!(src.contains("par {"), "got:\n{src}");
        let kpos = src.find("s = s + t;").unwrap();
        let tpos = src.find("t = A[i + 1] * B[i + 1];").unwrap();
        assert!(kpos < tpos, "row order wrong:\n{src}");
        // epilogue: final s = s + t
        assert_eq!(out.max_offset, 1);
    }

    #[test]
    fn offsets_and_rows_match_figure1() {
        // 6 MIs, II=2: first kernel row is [S4(i), S2(i+1), S0(i+2)].
        let mut prog = parse_program(
            "float A0[32]; float A1[32]; float A2[32]; float A3[32]; float A4[32]; float A5[32]; int i;",
        )
        .unwrap();
        let f = mk_loop(
            "A0[i] = 0.0; A1[i] = 1.0; A2[i] = 2.0; A3[i] = 3.0; A4[i] = 4.0; A5[i] = 5.0;",
            "i",
            0,
            10,
        );
        let out = emit(&mut prog, &f, &f.body.clone(), 2, Expansion::Off, &[]).unwrap();
        let src = stmts_to_source(&out.stmts);
        assert_eq!(out.max_offset, 2);
        // kernel row 0: A4[i], A2[i+1], A0[i+2] in that order
        let p4 = src.find("A4[i] = 4.0;").unwrap();
        let p2 = src.find("A2[i + 1] = 2.0;").unwrap();
        let p0 = src.find("A0[i + 2] = 0.0;").unwrap();
        assert!(p4 < p2 && p2 < p0, "got:\n{src}");
        // row 1: A5[i], A3[i+1], A1[i+2]
        assert!(src.contains("A5[i] = 5.0;"), "got:\n{src}");
        assert!(src.contains("A3[i + 1] = 3.0;"), "got:\n{src}");
        assert!(src.contains("A1[i + 2] = 1.0;"), "got:\n{src}");
    }

    #[test]
    fn mve_renames_with_two_versions() {
        // reg = A[i+2]; A[i] = A[i-1] + reg;  (post-decomposition shape)
        // def pos 0, use pos 1, II = 1 → p = 2, unroll 2 → reg1/reg2.
        let mut prog = parse_program("float A[64]; float reg; int i;").unwrap();
        let f = mk_loop("reg = A[i + 2]; A[i] = A[i - 1] + reg;", "i", 2, 32);
        let ev = ExpandVar {
            name: "reg".into(),
            def_pos: 0,
            max_use_pos: 1,
            restore: true,
        };
        let out = emit(&mut prog, &f, &f.body.clone(), 1, Expansion::Mve, &[ev]).unwrap();
        assert_eq!(out.unroll, 2);
        let src = stmts_to_source(&out.stmts);
        assert!(src.contains("reg1"), "got:\n{src}");
        assert!(src.contains("reg2"), "got:\n{src}");
        // unrolled kernel advances by 2
        assert!(src.contains("i += 2"), "got:\n{src}");
        // live-out restore present
        assert!(src.contains("reg = reg"), "got:\n{src}");
    }

    #[test]
    fn scalar_expansion_uses_array() {
        let mut prog = parse_program("float A[64]; float reg; int i;").unwrap();
        let f = mk_loop("reg = A[i + 2]; A[i] = A[i - 1] + reg;", "i", 2, 32);
        let ev = ExpandVar {
            name: "reg".into(),
            def_pos: 0,
            max_use_pos: 1,
            restore: true,
        };
        let out = emit(
            &mut prog,
            &f,
            &f.body.clone(),
            1,
            Expansion::ScalarExpand,
            &[ev],
        )
        .unwrap();
        assert_eq!(out.unroll, 1);
        let src = stmts_to_source(&out.stmts);
        assert!(src.contains("regArr1["), "got:\n{src}");
        assert!(prog.decl("regArr1").unwrap().is_array());
    }

    #[test]
    fn too_short_loop_rejected() {
        let mut prog = parse_program("float A[8]; float B[8]; int i;").unwrap();
        let f = mk_loop("A[i] = 0.0; B[i] = 1.0;", "i", 0, 1);
        let err = emit(&mut prog, &f, &f.body.clone(), 1, Expansion::Off, &[]).unwrap_err();
        assert!(matches!(err, SlmsError::TooFewIterations { .. }));
    }

    #[test]
    fn out_of_range_ii_rejected_structurally() {
        let mut prog = parse_program("float A[8]; float B[8]; int i;").unwrap();
        let f = mk_loop("A[i] = 0.0; B[i] = 1.0;", "i", 0, 8);
        let err = emit(&mut prog, &f, &f.body.clone(), 2, Expansion::Off, &[]).unwrap_err();
        assert_eq!(err, SlmsError::InvalidIi { ii: 2, n_mis: 2 });
        let err = emit(&mut prog, &f, &f.body.clone(), 0, Expansion::Off, &[]).unwrap_err();
        assert_eq!(err, SlmsError::InvalidIi { ii: 0, n_mis: 2 });
    }

    #[test]
    fn symbolic_bounds_rejected() {
        let mut prog = parse_program("float A[8]; float B[8]; int i; int n;").unwrap();
        let mut f = mk_loop("A[i] = 0.0; B[i] = 1.0;", "i", 0, 8);
        f.bound = Expr::Var("n".into());
        let err = emit(&mut prog, &f, &f.body.clone(), 1, Expansion::Off, &[]).unwrap_err();
        assert!(matches!(err, SlmsError::SymbolicBounds));
    }

    #[test]
    fn induction_final_value_restored() {
        let mut prog = parse_program("float A[8]; float B[8]; int i;").unwrap();
        let f = mk_loop("A[i] = 0.0; B[i] = 1.0;", "i", 0, 8);
        let out = emit(&mut prog, &f, &f.body.clone(), 1, Expansion::Off, &[]).unwrap();
        let src = stmts_to_source(&out.stmts);
        assert!(src.trim_end().ends_with("i = 8;"), "got:\n{src}");
    }
}
