//! Brute-force dependence oracle for testing.
//!
//! For loops whose subscripts involve only the induction variable and
//! integer constants, the oracle enumerates iterations over a given range,
//! records the concrete cells touched by every MI, and derives the exact set
//! of dependences. Property tests assert that [`crate::build_ddg`] *covers*
//! this ground truth with either of its pair tests (the classic one without
//! a loop range, the exact one with it) — the analysis may be conservative
//! (extra edges, `Unknown` distances) but must never miss a real dependence,
//! which is the soundness property SLMS correctness rests on.

use crate::access::accesses_of_stmt;
use crate::ddg::{Ddg, DepKind, Distance};
use crate::mi::Mi;
use slc_ast::{BinOp, Expr, Interner, Symbol, UnOp};
use std::collections::{BTreeSet, HashMap};

/// A ground-truth dependence observed by enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroundDep {
    /// Source MI (executes first).
    pub from: usize,
    /// Sink MI.
    pub to: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// Iteration distance (≥ 0).
    pub dist: i64,
}

/// Evaluate a subscript with `var := val`, directly on the tree — the same
/// semantics as substituting and calling [`Expr::const_int`] (ints, unary
/// negation, `+ - * / %` with non-zero divisors), but without cloning and
/// rewriting the expression once per iteration.
fn eval_subscript(e: &Expr, var: &str, val: i64) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Var(n) if n == var => Some(val),
        Expr::Unary(UnOp::Neg, a) => eval_subscript(a, var, val).map(|v| -v),
        Expr::Binary(op, a, b) => {
            let (a, b) = (eval_subscript(a, var, val)?, eval_subscript(b, var, val)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                BinOp::Div => (b != 0).then(|| a / b),
                BinOp::Mod => (b != 0).then(|| a % b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// A touched cell: interned array plus subscript vector. Subscripts of up to
/// four dimensions (every workload in the suite) stay inline — no per-cell
/// heap allocation in the enumeration loop.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Cell {
    Inline(Symbol, u8, [i64; 4]),
    Heap(Symbol, Vec<i64>),
}

impl Cell {
    fn new(array: Symbol, idx: &[i64]) -> Cell {
        if idx.len() <= 4 {
            let mut buf = [0i64; 4];
            buf[..idx.len()].copy_from_slice(idx);
            Cell::Inline(array, idx.len() as u8, buf)
        } else {
            Cell::Heap(array, idx.to_vec())
        }
    }
}

/// Enumerate dependences of `mis` over iterations `lo..hi` (step 1) of
/// variable `var`, considering **array accesses only**. Returns `None` when
/// any subscript cannot be evaluated (contains other variables or
/// non-arithmetic nodes).
///
/// Distances are capped at `max_dist` to keep test output small: real MS
/// validity only depends on short distances relative to the MI count.
pub fn brute_force_deps(
    mis: &[Mi],
    var: &str,
    lo: i64,
    hi: i64,
    max_dist: i64,
) -> Option<Vec<GroundDep>> {
    // cell → chronological list of (iteration, mi, access-ordinal, write)
    let mut names = Interner::new();
    let mut touched: HashMap<Cell, Vec<(i64, usize, usize, bool)>> = HashMap::new();
    let mut idx_buf: Vec<i64> = Vec::new();
    for (p, mi) in mis.iter().enumerate() {
        let acc = accesses_of_stmt(&mi.stmt);
        // intern each access's array once, outside the iteration sweep
        let syms: Vec<Symbol> = acc.arrays.iter().map(|a| names.intern(&a.array)).collect();
        for i in lo..hi {
            for (ord, a) in acc.arrays.iter().enumerate() {
                idx_buf.clear();
                for ix in &a.indices {
                    idx_buf.push(eval_subscript(ix, var, i)?);
                }
                touched
                    .entry(Cell::new(syms[ord], &idx_buf))
                    .or_default()
                    .push((i, p, ord, a.write));
            }
        }
    }
    let mut out: BTreeSet<GroundDep> = BTreeSet::new();
    for accesses in touched.values() {
        for (k1, &(i1, p, _o1, w1)) in accesses.iter().enumerate() {
            for &(i2, q, _o2, w2) in &accesses[k1..] {
                if !w1 && !w2 {
                    continue;
                }
                // establish execution order: (iteration, MI position)
                let (first, second) = if (i1, p) <= (i2, q) {
                    ((i1, p, w1), (i2, q, w2))
                } else {
                    ((i2, q, w2), (i1, p, w1))
                };
                let dist = second.0 - first.0;
                if dist > max_dist {
                    continue;
                }
                if dist == 0 && first.1 == second.1 {
                    continue; // intra-MI
                }
                let kind = match (first.2, second.2) {
                    (true, false) => DepKind::Flow,
                    (false, true) => DepKind::Anti,
                    (true, true) => DepKind::Output,
                    _ => continue,
                };
                out.insert(GroundDep {
                    from: first.1,
                    to: second.1,
                    kind,
                    dist,
                });
            }
        }
    }
    // BTreeSet iteration is already sorted and deduplicated
    Some(out.into_iter().collect())
}

/// True if the DDG covers the ground-truth dependence (an edge with the same
/// endpoints and kind whose distance list contains the exact distance or
/// `Unknown`).
pub fn ddg_covers(ddg: &Ddg, dep: &GroundDep) -> bool {
    ddg.edges.iter().any(|e| {
        e.from == dep.from
            && e.to == dep.to
            && e.kind == dep.kind
            && (e.dists.contains(&Distance::Const(dep.dist))
                || e.dists.contains(&Distance::Unknown))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::build_ddg;
    use crate::exactdep::{DepStats, LoopRange};
    use crate::mi::partition_mis;
    use slc_ast::parse_stmts;

    fn check_sound(src: &str) {
        let body = parse_stmts(src).unwrap();
        let mis = partition_mis(&body).unwrap();
        let ground = brute_force_deps(&mis, "i", 4, 24, 8).expect("evaluable loop");
        let range = LoopRange {
            init: 4,
            step: 1,
            trips: 20,
        };
        for range in [None, Some(&range)] {
            let ddg = build_ddg(&mis, "i", 1, range, &mut DepStats::default()).ddg;
            for dep in &ground {
                assert!(
                    ddg_covers(&ddg, dep),
                    "analysis missed {dep:?} with range {range:?} in loop:\n{src}\nddg: {:#?}",
                    ddg.edges
                );
            }
        }
    }

    #[test]
    fn soundness_on_paper_loops() {
        check_sound("A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];");
        check_sound("A[i] = B[i - 1] + 1.0; B[i] = A[i - 2] + A[i - 3];");
        check_sound("A[i] += i; A[i] *= 6.0; A[i] -= 1.0;");
        check_sound("DU1[i] = U1[i + 1] - U1[i - 1]; U1[i + 5] = U1[i] + 2.0 * DU1[i];");
        check_sound("A[2 * i] = 1.0; x = A[2 * i + 4];");
        check_sound("A[2 * i] = 1.0; x = A[i];");
    }

    #[test]
    fn brute_force_exact_distance() {
        let body = parse_stmts("A[i] = 0.0; x = A[i - 3];").unwrap();
        let mis = partition_mis(&body).unwrap();
        let ground = brute_force_deps(&mis, "i", 0, 20, 10).unwrap();
        assert!(ground.contains(&GroundDep {
            from: 0,
            to: 1,
            kind: DepKind::Flow,
            dist: 3
        }));
        // no anti/output deps here
        assert!(ground.iter().all(|d| d.kind == DepKind::Flow));
    }

    #[test]
    fn unevaluable_returns_none() {
        let body = parse_stmts("A[i + n] = 0.0;").unwrap();
        let mis = partition_mis(&body).unwrap();
        assert!(brute_force_deps(&mis, "i", 0, 10, 5).is_none());
    }
}
