//! Linear-form normalization of subscript expressions.
//!
//! A subscript such as `2*i + j - 1` normalizes to the linear form
//! `{i: 2, j: 1} - 1`. Linear forms make the dependence test exact for the
//! affine subscripts that dominate the Livermore/Linpack/NAS loops; anything
//! non-linear (`A[i*i]`, `A[B[i]]`) yields `None` and is handled
//! conservatively by the dependence test.

use slc_ast::{BinOp, Expr, UnOp};
use std::collections::BTreeMap;

/// A linear combination of scalar variables plus a constant:
/// `konst + Σ terms[v] · v`. Terms with zero coefficient are not stored.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinForm {
    /// Per-variable integer coefficients (zero coefficients omitted).
    pub terms: BTreeMap<String, i64>,
    /// Constant offset.
    pub konst: i64,
}

impl LinForm {
    /// The constant linear form `c`.
    pub fn constant(c: i64) -> LinForm {
        LinForm {
            terms: BTreeMap::new(),
            konst: c,
        }
    }

    /// The linear form `1 · v`.
    pub fn var(v: &str) -> LinForm {
        let mut terms = BTreeMap::new();
        terms.insert(v.to_string(), 1);
        LinForm { terms, konst: 0 }
    }

    /// Coefficient of variable `v` (0 when absent).
    pub fn coeff(&self, v: &str) -> i64 {
        self.terms.get(v).copied().unwrap_or(0)
    }

    /// True if the form mentions no variables.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// `self + other`.
    pub fn add(&self, other: &LinForm) -> LinForm {
        let mut out = self.clone();
        for (v, c) in &other.terms {
            let e = out.terms.entry(v.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                out.terms.remove(v);
            }
        }
        out.konst += other.konst;
        out
    }

    /// `self - other`.
    pub fn sub(&self, other: &LinForm) -> LinForm {
        self.add(&other.scale(-1))
    }

    /// `self * k`.
    pub fn scale(&self, k: i64) -> LinForm {
        if k == 0 {
            return LinForm::constant(0);
        }
        LinForm {
            terms: self.terms.iter().map(|(v, c)| (v.clone(), c * k)).collect(),
            konst: self.konst * k,
        }
    }

    /// The constant `self − other` with variable `skip` (if any) dropped
    /// from both sides, or `None` when that difference mentions a variable.
    /// Equal to `self.sub(other)` (after `split_var(skip)` on each side)
    /// followed by `is_const()`/`konst`, but compares terms in place instead
    /// of building the difference.
    pub fn const_diff(&self, other: &LinForm, skip: Option<&str>) -> Option<i64> {
        let kept = |v: &String| Some(v.as_str()) != skip;
        // a term of `self` survives the subtraction unless `other` cancels
        // it exactly; a term only in `other` survives unless it is zero
        let cancels = self
            .terms
            .iter()
            .all(|(v, c)| !kept(v) || other.terms.get(v) == Some(c));
        let vanishes = other
            .terms
            .iter()
            .all(|(v, c)| !kept(v) || *c == 0 || self.terms.contains_key(v));
        (cancels && vanishes).then(|| self.konst - other.konst)
    }

    /// Drop variable `v` from the form, returning (coefficient, remainder).
    pub fn split_var(&self, v: &str) -> (i64, LinForm) {
        let mut rest = self.clone();
        let c = rest.terms.remove(v).unwrap_or(0);
        (c, rest)
    }
}

/// Normalize an expression into a linear form over scalar variables.
/// Returns `None` for anything non-linear: products of variables, division,
/// modulo, array references, calls, comparisons, selects.
pub fn linearize(e: &Expr) -> Option<LinForm> {
    match e {
        Expr::Int(v) => Some(LinForm::constant(*v)),
        Expr::Var(v) => Some(LinForm::var(v)),
        Expr::Unary(UnOp::Neg, a) => Some(linearize(a)?.scale(-1)),
        Expr::Binary(BinOp::Add, a, b) => Some(linearize(a)?.add(&linearize(b)?)),
        Expr::Binary(BinOp::Sub, a, b) => Some(linearize(a)?.sub(&linearize(b)?)),
        Expr::Binary(BinOp::Mul, a, b) => {
            let (la, lb) = (linearize(a)?, linearize(b)?);
            if la.is_const() {
                Some(lb.scale(la.konst))
            } else if lb.is_const() {
                Some(la.scale(lb.konst))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_expr;

    fn lf(src: &str) -> Option<LinForm> {
        linearize(&parse_expr(src).unwrap())
    }

    #[test]
    fn const_diff_matches_sub() {
        let forms = [
            LinForm::constant(4),
            LinForm::var("i"),
            lf("i + 3").unwrap(),
            lf("2 * i - 1").unwrap(),
            lf("i + j").unwrap(),
            lf("j - 2").unwrap(),
            LinForm {
                terms: [("k".to_string(), 0)].into(),
                konst: 1,
            },
        ];
        for a in &forms {
            for b in &forms {
                let d = a.sub(b);
                assert_eq!(a.const_diff(b, None), d.is_const().then_some(d.konst));
                let (_, ra) = a.split_var("i");
                let (_, rb) = b.split_var("i");
                let d = ra.sub(&rb);
                assert_eq!(
                    a.const_diff(b, Some("i")),
                    d.is_const().then_some(d.konst),
                    "{a:?} - {b:?}"
                );
            }
        }
    }

    #[test]
    fn basic_forms() {
        let f = lf("2 * i + j - 1").unwrap();
        assert_eq!(f.coeff("i"), 2);
        assert_eq!(f.coeff("j"), 1);
        assert_eq!(f.konst, -1);
    }

    #[test]
    fn cancellation_removes_terms() {
        let f = lf("i - i + 3").unwrap();
        assert!(f.is_const());
        assert_eq!(f.konst, 3);
    }

    #[test]
    fn negation_and_nested_scale() {
        let f = lf("-(2 * (i - 1))").unwrap();
        assert_eq!(f.coeff("i"), -2);
        assert_eq!(f.konst, 2);
    }

    #[test]
    fn nonlinear_rejected() {
        assert!(lf("i * j").is_none());
        assert!(lf("i / 2").is_none());
        assert!(lf("A[i]").is_none());
        assert!(lf("i % 3").is_none());
        assert!(lf("f(i)").is_none());
    }

    #[test]
    fn split_var() {
        let f = lf("3 * i + j + 5").unwrap();
        let (c, rest) = f.split_var("i");
        assert_eq!(c, 3);
        assert_eq!(rest.coeff("i"), 0);
        assert_eq!(rest.coeff("j"), 1);
        assert_eq!(rest.konst, 5);
    }

    #[test]
    fn sub_of_equal_is_zero() {
        let a = lf("i + j + 1").unwrap();
        let b = lf("j + i + 1").unwrap();
        let d = a.sub(&b);
        assert!(d.is_const());
        assert_eq!(d.konst, 0);
    }
}
