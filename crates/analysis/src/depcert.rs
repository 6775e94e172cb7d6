//! Re-checkable dependence certificates.
//!
//! Every verdict the exact dependence engine ([`crate::exactdep`]) emits is
//! backed by a [`DepCertificate`] that a third party can re-validate without
//! trusting the analysis:
//!
//! * [`DepCertificate::Dependent`] carries a concrete witness iteration pair
//!   `(t1, t2)` in normalized iteration space; the checker re-derives the
//!   per-dimension subscript equations from the source accesses and evaluates
//!   the witness against each one.
//! * [`DepCertificate::Independent`] carries the Diophantine system itself (a
//!   [`DepSystem`]); the checker re-derives the equations, confirms the stored
//!   system matches, re-encodes it into CNF, and hands it to the in-workspace
//!   `slc-sat` solver — the proof stands only if the solver answers `Unsat`.
//!
//! The checker never trusts stored clauses: the CNF is rebuilt from the
//! system, and the system is rebuilt from the accesses, mirroring
//! `check_certificate` in `crates/exact`.
//!
//! # Normalized iteration space
//!
//! For a loop `for (v = init; …; v += step)` with a known constant trip count
//! `trips`, iteration `t ∈ [0, trips)` sees `v = init + t·step`. A subscript
//! pair `ca·v + ra` vs `cb·v + rb` (with `ra − rb` constant) touching the same
//! cell at iterations `t1`, `t2` therefore satisfies
//!
//! ```text
//! A·t1 − B·t2 = C,   A = ca·step,  B = cb·step,
//!                    C = −(ra − rb) − init·(ca − cb)
//! ```
//!
//! One such [`DimEq`] per subscript dimension, conjoined over a shared
//! `(t1, t2)` in the box `[0, trips)²`, is the full [`DepSystem`].

use crate::access::ArrayAccess;
use crate::exactdep::LoopRange;
use crate::linform::linearize;
use slc_sat::{Lit, Outcome, Solver};
use std::fmt;

/// One per-dimension Diophantine equation `a·t1 − b·t2 = c` over normalized
/// iteration numbers, tagged with the subscript dimension it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimEq {
    /// Subscript dimension index (0 = outermost subscript).
    pub dim: usize,
    /// Coefficient of `t1` (first access).
    pub a: i64,
    /// Coefficient of `t2` (second access).
    pub b: i64,
    /// Constant right-hand side.
    pub c: i64,
}

/// A conjoined Diophantine system over a shared `(t1, t2)` pair bounded by
/// `0 ≤ t ≤ bound`. Unsatisfiability of any sound subsystem proves the two
/// accesses never touch the same cell, so `dims` may cover a subset of the
/// subscript dimensions (e.g. just the one the GCD test refuted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepSystem {
    /// Inclusive upper bound on both iteration numbers (`trips − 1`).
    pub bound: i64,
    /// Per-dimension equations; must be non-empty to prove anything.
    pub dims: Vec<DimEq>,
}

impl DepSystem {
    /// Concretely evaluate the system at a candidate witness pair.
    pub fn holds_at(&self, t1: i64, t2: i64) -> bool {
        if t1 < 0 || t2 < 0 || t1 > self.bound || t2 > self.bound {
            return false;
        }
        self.dims.iter().all(|d| {
            let lhs = d.a as i128 * t1 as i128 - d.b as i128 * t2 as i128;
            lhs == d.c as i128
        })
    }

    /// Decide the system with `slc-sat`: `Some((t1, t2))` is a model (the
    /// accesses do conflict), `None` means the CNF encoding is unsatisfiable
    /// (provably independent). Fully deterministic.
    pub fn solve(&self) -> Option<(i64, i64)> {
        if self.bound < 0 {
            return None; // zero-trip loop: no iterations, vacuously unsat
        }
        let mut cnf = Cnf::new();
        let m = self.bound as u128;
        let w = bits_of(m);
        let t1 = cnf.word(w);
        let t2 = cnf.word(w);
        cnf.le_const(&t1, m);
        cnf.le_const(&t2, m);
        for d in &self.dims {
            cnf.assert_dim(&t1, &t2, d);
        }
        match cnf.s.solve() {
            Outcome::Sat(model) => {
                let v1 = decode(&t1, &model);
                let v2 = decode(&t2, &model);
                Some((v1, v2))
            }
            Outcome::Unsat(_) => None,
        }
    }
}

/// A typed, re-checkable verdict certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepCertificate {
    /// The accesses provably never touch the same cell within the loop
    /// range: the stored system (re-derived and re-solved by the checker)
    /// is unsatisfiable.
    Independent {
        /// The refuting Diophantine system.
        system: DepSystem,
    },
    /// The accesses conflict: normalized iterations `t1` (first access) and
    /// `t2` (second access) hit the same cell. Checked by concrete
    /// evaluation against the re-derived equations.
    Dependent {
        /// Witness iteration of the first access.
        t1: i64,
        /// Witness iteration of the second access.
        t2: i64,
    },
}

/// Why a certificate failed re-validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepCertError {
    /// A subscript dimension the certificate relies on cannot be re-derived
    /// from the source accesses (non-affine or symbolic residue) — the
    /// analysis never emits certificates for such pairs.
    Underivable {
        /// Offending subscript dimension.
        dim: usize,
    },
    /// The stored system disagrees with the one re-derived from the accesses.
    SystemMismatch {
        /// Human-readable discrepancy.
        detail: String,
    },
    /// The independence proof is refuted: the solver found a model.
    ProofSat {
        /// Model iteration of the first access.
        t1: i64,
        /// Model iteration of the second access.
        t2: i64,
    },
    /// The dependence witness lies outside the loop range.
    WitnessOutOfRange {
        /// Claimed iteration of the first access.
        t1: i64,
        /// Claimed iteration of the second access.
        t2: i64,
        /// Inclusive iteration bound.
        bound: i64,
    },
    /// The dependence witness fails a re-derived dimension equation.
    WitnessInfeasible {
        /// First failing subscript dimension.
        dim: usize,
    },
}

impl fmt::Display for DepCertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepCertError::Underivable { dim } => {
                write!(f, "subscript dimension {dim} is not derivable")
            }
            DepCertError::SystemMismatch { detail } => {
                write!(f, "stored system mismatch: {detail}")
            }
            DepCertError::ProofSat { t1, t2 } => {
                write!(f, "independence proof refuted by model (t1={t1}, t2={t2})")
            }
            DepCertError::WitnessOutOfRange { t1, t2, bound } => {
                write!(f, "witness (t1={t1}, t2={t2}) outside [0, {bound}]")
            }
            DepCertError::WitnessInfeasible { dim } => {
                write!(f, "witness fails dimension {dim} equation")
            }
        }
    }
}

/// Re-derive the per-dimension equation `a·t1 − b·t2 = c` for one subscript
/// pair, or `None` when either subscript is non-affine in `var` or the
/// residue is symbolic (the dimension is then undecidable).
pub fn dim_equation(
    ea: &slc_ast::Expr,
    eb: &slc_ast::Expr,
    var: &str,
    range: &LoopRange,
) -> Option<(i64, i64, i64)> {
    let la = linearize(ea)?;
    let lb = linearize(eb)?;
    let (ca, ra) = la.split_var(var);
    let (cb, rb) = lb.split_var(var);
    let resid = ra.sub(&rb);
    if !resid.is_const() {
        return None;
    }
    let a = (ca as i128).checked_mul(range.step as i128)?;
    let b = (cb as i128).checked_mul(range.step as i128)?;
    let c = (-(resid.konst as i128))
        .checked_sub((range.init as i128).checked_mul(ca as i128 - cb as i128)?)?;
    Some((
        i64::try_from(a).ok()?,
        i64::try_from(b).ok()?,
        i64::try_from(c).ok()?,
    ))
}

/// Re-derive the full system for an access pair: one [`DimEq`] per subscript
/// dimension. `None` when the ranks differ or any dimension is undecidable.
pub fn derive_system(
    a: &ArrayAccess,
    b: &ArrayAccess,
    var: &str,
    range: &LoopRange,
) -> Option<DepSystem> {
    if a.indices.len() != b.indices.len() {
        return None;
    }
    let mut dims = Vec::with_capacity(a.indices.len());
    for (d, (ea, eb)) in a.indices.iter().zip(&b.indices).enumerate() {
        let (qa, qb, qc) = dim_equation(ea, eb, var, range)?;
        dims.push(DimEq {
            dim: d,
            a: qa,
            b: qb,
            c: qc,
        });
    }
    Some(DepSystem {
        bound: range.trips - 1,
        dims,
    })
}

/// Re-validate a certificate against the source accesses it claims to cover.
///
/// Nothing stored in the certificate is trusted beyond the claim itself:
/// equations are re-derived from `a`/`b`, stored systems must match them, and
/// independence proofs are re-solved from a fresh CNF encoding.
pub fn check_dep_certificate(
    a: &ArrayAccess,
    b: &ArrayAccess,
    var: &str,
    range: &LoopRange,
    cert: &DepCertificate,
) -> Result<(), DepCertError> {
    let bound = range.trips - 1;
    match cert {
        DepCertificate::Dependent { t1, t2 } => {
            if *t1 < 0 || *t2 < 0 || *t1 > bound || *t2 > bound {
                return Err(DepCertError::WitnessOutOfRange {
                    t1: *t1,
                    t2: *t2,
                    bound,
                });
            }
            if a.indices.len() != b.indices.len() {
                return Err(DepCertError::Underivable { dim: 0 });
            }
            for (d, (ea, eb)) in a.indices.iter().zip(&b.indices).enumerate() {
                let Some((qa, qb, qc)) = dim_equation(ea, eb, var, range) else {
                    return Err(DepCertError::Underivable { dim: d });
                };
                let lhs = qa as i128 * *t1 as i128 - qb as i128 * *t2 as i128;
                if lhs != qc as i128 {
                    return Err(DepCertError::WitnessInfeasible { dim: d });
                }
            }
            Ok(())
        }
        DepCertificate::Independent { system } => {
            if system.bound != bound {
                return Err(DepCertError::SystemMismatch {
                    detail: format!("bound {} != loop bound {}", system.bound, bound),
                });
            }
            if system.dims.is_empty() {
                return Err(DepCertError::SystemMismatch {
                    detail: "empty system proves nothing".into(),
                });
            }
            let rank = a.indices.len().min(b.indices.len());
            for d in &system.dims {
                if d.dim >= rank {
                    return Err(DepCertError::SystemMismatch {
                        detail: format!("dimension {} out of range", d.dim),
                    });
                }
                let Some((qa, qb, qc)) =
                    dim_equation(&a.indices[d.dim], &b.indices[d.dim], var, range)
                else {
                    return Err(DepCertError::Underivable { dim: d.dim });
                };
                if (qa, qb, qc) != (d.a, d.b, d.c) {
                    return Err(DepCertError::SystemMismatch {
                        detail: format!(
                            "dim {}: stored {}·t1 − {}·t2 = {} vs derived {}·t1 − {}·t2 = {}",
                            d.dim, d.a, d.b, d.c, qa, qb, qc
                        ),
                    });
                }
            }
            match system.solve() {
                Some((t1, t2)) => Err(DepCertError::ProofSat { t1, t2 }),
                None => Ok(()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CNF encoding: Tseitin ripple-carry arithmetic over slc-sat.
// ---------------------------------------------------------------------------

/// Bits needed to represent `v` (at least 1).
fn bits_of(v: u128) -> usize {
    (128 - v.leading_zeros()).max(1) as usize
}

/// Decode an unsigned word from a model; variables the solver never saw
/// default to 0.
fn decode(word: &[Lit], model: &[bool]) -> i64 {
    let mut v: i64 = 0;
    for (j, l) in word.iter().enumerate() {
        if l.var() < model.len() && l.eval(model) {
            v |= 1 << j;
        }
    }
    v
}

/// Little CNF builder: words are LSB-first literal vectors; constant bits are
/// literals of a reserved always-true variable, so constants and variables
/// flow through the same adder circuitry.
struct Cnf {
    s: Solver,
    next: usize,
    tru: Lit,
}

impl Cnf {
    fn new() -> Self {
        let mut s = Solver::new();
        let tru = Lit::pos(0);
        s.add_clause(&[tru]);
        Cnf { s, next: 1, tru }
    }

    fn fals(&self) -> Lit {
        self.tru.negate()
    }

    fn fresh(&mut self) -> Lit {
        let v = self.next;
        self.next += 1;
        Lit::pos(v)
    }

    /// A word of `w` fresh variables.
    fn word(&mut self, w: usize) -> Vec<Lit> {
        (0..w).map(|_| self.fresh()).collect()
    }

    /// Constant word (width = bits of `v`).
    fn const_word(&self, v: u128) -> Vec<Lit> {
        (0..bits_of(v))
            .map(|j| {
                if v >> j & 1 == 1 {
                    self.tru
                } else {
                    self.fals()
                }
            })
            .collect()
    }

    /// Assert `x ≤ m` (unsigned): for every zero bit `j` of `m`, either
    /// `x_j` is 0 or some higher one-bit of `m` has `x_k` = 0.
    fn le_const(&mut self, x: &[Lit], m: u128) {
        for j in 0..x.len() {
            if m >> j & 1 == 1 {
                continue;
            }
            let mut cl = vec![x[j].negate()];
            for (k, xk) in x.iter().enumerate().skip(j + 1) {
                if m >> k & 1 == 1 {
                    cl.push(xk.negate());
                }
            }
            self.s.add_clause(&cl);
        }
    }

    /// Full adder: returns `(sum, carry_out)` bits for `a + b + cin`.
    fn full_add(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let s = self.fresh();
        let co = self.fresh();
        // s = a ⊕ b ⊕ cin
        for mask in 0..8u8 {
            let la = if mask & 1 == 1 { a } else { a.negate() };
            let lb = if mask & 2 == 2 { b } else { b.negate() };
            let lc = if mask & 4 == 4 { cin } else { cin.negate() };
            let parity = (mask.count_ones() & 1) == 1;
            let ls = if parity { s } else { s.negate() };
            // clause forbids (a,b,cin) = mask with wrong s: encode as
            // (¬assignment ∨ correct-s); negating each input literal of the
            // assignment gives the clause.
            self.s
                .add_clause(&[la.negate(), lb.negate(), lc.negate(), ls]);
        }
        // co = majority(a, b, cin)
        self.s.add_clause(&[a.negate(), b.negate(), co]);
        self.s.add_clause(&[a.negate(), cin.negate(), co]);
        self.s.add_clause(&[b.negate(), cin.negate(), co]);
        self.s.add_clause(&[a, b, co.negate()]);
        self.s.add_clause(&[a, cin, co.negate()]);
        self.s.add_clause(&[b, cin, co.negate()]);
        (s, co)
    }

    /// Ripple-carry addition; result is one bit wider than the widest input.
    fn add(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len().max(b.len());
        let f = self.fals();
        let mut out = Vec::with_capacity(w + 1);
        let mut carry = f;
        for j in 0..w {
            let x = a.get(j).copied().unwrap_or(f);
            let y = b.get(j).copied().unwrap_or(f);
            let (s, co) = self.full_add(x, y, carry);
            out.push(s);
            carry = co;
        }
        out.push(carry);
        out
    }

    /// Shift-and-add multiplication by a non-negative constant.
    fn mul_const(&mut self, x: &[Lit], k: u128) -> Vec<Lit> {
        if k == 0 {
            return vec![self.fals()];
        }
        let mut acc: Option<Vec<Lit>> = None;
        for j in 0..128 {
            if k >> j & 1 == 0 {
                continue;
            }
            let mut shifted = vec![self.fals(); j];
            shifted.extend_from_slice(x);
            acc = Some(match acc {
                None => shifted,
                Some(prev) => self.add(&prev, &shifted),
            });
        }
        acc.unwrap()
    }

    /// Assert two unsigned words are equal (shorter one zero-extended).
    fn assert_eq_words(&mut self, a: &[Lit], b: &[Lit]) {
        let w = a.len().max(b.len());
        let f = self.fals();
        for j in 0..w {
            let x = a.get(j).copied().unwrap_or(f);
            let y = b.get(j).copied().unwrap_or(f);
            self.s.add_clause(&[x.negate(), y]);
            self.s.add_clause(&[x, y.negate()]);
        }
    }

    /// Assert one dimension equation `a·t1 − b·t2 = c` by splitting terms by
    /// sign into two non-negative sides `L = R`.
    fn assert_dim(&mut self, t1: &[Lit], t2: &[Lit], d: &DimEq) {
        let mut lhs: Vec<Vec<Lit>> = Vec::new();
        let mut rhs: Vec<Vec<Lit>> = Vec::new();
        match d.a.cmp(&0) {
            std::cmp::Ordering::Greater => lhs.push(self.mul_const(t1, d.a as u128)),
            std::cmp::Ordering::Less => rhs.push(self.mul_const(t1, d.a.unsigned_abs() as u128)),
            std::cmp::Ordering::Equal => {}
        }
        // −b·t2 on the left means +b goes right, −b stays left.
        match d.b.cmp(&0) {
            std::cmp::Ordering::Greater => rhs.push(self.mul_const(t2, d.b as u128)),
            std::cmp::Ordering::Less => lhs.push(self.mul_const(t2, d.b.unsigned_abs() as u128)),
            std::cmp::Ordering::Equal => {}
        }
        if d.c >= 0 {
            rhs.push(self.const_word(d.c as u128));
        } else {
            lhs.push(self.const_word(d.c.unsigned_abs() as u128));
        }
        let l = self.sum_side(lhs);
        let r = self.sum_side(rhs);
        self.assert_eq_words(&l, &r);
    }

    fn sum_side(&mut self, terms: Vec<Vec<Lit>>) -> Vec<Lit> {
        let mut it = terms.into_iter();
        let mut acc = it.next().unwrap_or_else(|| vec![self.fals()]);
        for t in it {
            acc = self.add(&acc, &t);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_raw(bound: i64, dims: Vec<(i64, i64, i64)>) -> Option<(i64, i64)> {
        let dims = dims
            .into_iter()
            .enumerate()
            .map(|(dim, (a, b, c))| DimEq { dim, a, b, c })
            .collect();
        DepSystem { bound, dims }.solve()
    }

    /// Brute reference over the box for small bounds.
    fn brute(bound: i64, dims: &[(i64, i64, i64)]) -> Option<(i64, i64)> {
        for t1 in 0..=bound {
            for t2 in 0..=bound {
                if dims
                    .iter()
                    .all(|&(a, b, c)| a as i128 * t1 as i128 - b as i128 * t2 as i128 == c as i128)
                {
                    return Some((t1, t2));
                }
            }
        }
        None
    }

    /// A trip count and its per-dimension equations `a·t1 = b·t2 + c`.
    type System = (i64, Vec<(i64, i64, i64)>);

    #[test]
    fn solver_agrees_with_brute_on_small_systems() {
        let cases: Vec<System> = vec![
            (7, vec![(1, 1, 3)]),            // i = j + 3
            (7, vec![(2, 2, 1)]),            // parity: unsat
            (7, vec![(4, 2, 1)]),            // gcd 2 ∤ 1: unsat
            (7, vec![(1, 1, 9)]),            // out of range: unsat
            (7, vec![(1, 1, -2)]),           // negative offset
            (7, vec![(-3, -3, 3)]),          // negative coefficients
            (7, vec![(1, 1, 0), (1, 1, 2)]), // conflicting dims: unsat
            (7, vec![(1, 1, 2), (2, 2, 4)]), // consistent dims
            (5, vec![(3, 1, 0)]),            // 3·t1 = t2
            (0, vec![(1, 1, 0)]),            // single iteration
            (6, vec![(0, 2, 4)]),            // t2 fixed at −2: unsat
            (6, vec![(0, -2, 4)]),           // t2 fixed at 2
        ];
        for (bound, dims) in cases {
            let got = solve_raw(bound, dims.clone());
            let want = brute(bound, &dims);
            match (got, want) {
                (None, None) => {}
                (Some((t1, t2)), Some(_)) => {
                    // any model is fine as long as it satisfies the system
                    assert!(
                        dims.iter().all(|&(a, b, c)| a * t1 - b * t2 == c),
                        "bad model ({t1},{t2}) for {dims:?}"
                    );
                    assert!((0..=bound).contains(&t1) && (0..=bound).contains(&t2));
                }
                other => panic!("solver/brute disagree on {dims:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn zero_trip_system_is_unsat() {
        assert_eq!(solve_raw(-1, vec![(1, 1, 0)]), None);
    }

    #[test]
    fn holds_at_checks_bounds_and_equations() {
        let sys = DepSystem {
            bound: 9,
            dims: vec![DimEq {
                dim: 0,
                a: 1,
                b: 1,
                c: 3,
            }],
        };
        assert!(sys.holds_at(5, 2));
        assert!(!sys.holds_at(5, 3));
        assert!(!sys.holds_at(12, 9));
        assert!(!sys.holds_at(-1, -4));
    }
}
