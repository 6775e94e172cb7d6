//! Read/write access extraction per multi-instruction.

use slc_ast::{AssignOp, Expr, LValue, Stmt};

/// One array element access inside an MI.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayAccess {
    /// Array name.
    pub array: String,
    /// Subscript expressions, one per dimension.
    pub indices: Vec<Expr>,
    /// True for a store, false for a load.
    pub write: bool,
}

/// One scalar access inside an MI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarAccess {
    /// Scalar name.
    pub name: String,
    /// True for a write.
    pub write: bool,
    /// True when the read occurs inside an array subscript (address
    /// arithmetic) — such reads are excluded from the §4 memory-ref count
    /// and from scalar dependence edges against the induction variable.
    pub in_subscript: bool,
}

/// All accesses of one MI.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiAccesses {
    /// Array element accesses in evaluation order.
    pub arrays: Vec<ArrayAccess>,
    /// Scalar accesses in evaluation order.
    pub scalars: Vec<ScalarAccess>,
    /// True when the MI contains an opaque call.
    pub has_call: bool,
}

impl MiAccesses {
    /// Scalar reads outside subscripts, excluding `exclude` (the induction
    /// variable).
    pub fn scalar_reads<'a>(&'a self, exclude: &'a str) -> impl Iterator<Item = &'a ScalarAccess> {
        self.scalars
            .iter()
            .filter(move |s| !s.write && !s.in_subscript && s.name != exclude)
    }

    /// Scalar writes excluding `exclude`.
    pub fn scalar_writes<'a>(&'a self, exclude: &'a str) -> impl Iterator<Item = &'a ScalarAccess> {
        self.scalars
            .iter()
            .filter(move |s| s.write && s.name != exclude)
    }
}

fn collect_expr(e: &Expr, out: &mut MiAccesses, in_subscript: bool) {
    match e {
        Expr::Var(n) => out.scalars.push(ScalarAccess {
            name: n.clone(),
            write: false,
            in_subscript,
        }),
        Expr::Index(n, idx) => {
            out.arrays.push(ArrayAccess {
                array: n.clone(),
                indices: idx.clone(),
                write: false,
            });
            for i in idx {
                collect_expr(i, out, true);
            }
        }
        Expr::Call(_, args) => {
            out.has_call = true;
            for a in args {
                collect_expr(a, out, in_subscript);
            }
        }
        Expr::Unary(_, a) => collect_expr(a, out, in_subscript),
        Expr::Binary(_, a, b) => {
            collect_expr(a, out, in_subscript);
            collect_expr(b, out, in_subscript);
        }
        Expr::Select(c, t, f) => {
            collect_expr(c, out, in_subscript);
            collect_expr(t, out, in_subscript);
            collect_expr(f, out, in_subscript);
        }
        Expr::Int(_) | Expr::Float(_) => {}
    }
}

fn collect_stmt(s: &Stmt, out: &mut MiAccesses) {
    match s {
        Stmt::Assign { target, op, value } => {
            // Compound assignment reads the target first.
            if *op != AssignOp::Set {
                collect_expr(&target.as_expr(), out, false);
            }
            collect_expr(value, out, false);
            match target {
                LValue::Var(n) => out.scalars.push(ScalarAccess {
                    name: n.clone(),
                    write: true,
                    in_subscript: false,
                }),
                LValue::Index(n, idx) => {
                    out.arrays.push(ArrayAccess {
                        array: n.clone(),
                        indices: idx.clone(),
                        write: true,
                    });
                    for i in idx {
                        collect_expr(i, out, true);
                    }
                }
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            collect_expr(cond, out, false);
            for st in then_branch.iter().chain(else_branch) {
                collect_stmt(st, out);
            }
        }
        Stmt::Call(_, args) => {
            out.has_call = true;
            for a in args {
                collect_expr(a, out, false);
            }
        }
        Stmt::Block(b) | Stmt::Par(b) => {
            for st in b {
                collect_stmt(st, out);
            }
        }
        Stmt::For(f) => {
            collect_expr(&f.init, out, false);
            collect_expr(&f.bound, out, false);
            for st in &f.body {
                collect_stmt(st, out);
            }
        }
        Stmt::While { cond, body } => {
            collect_expr(cond, out, false);
            for st in body {
                collect_stmt(st, out);
            }
        }
        Stmt::Break => {}
    }
}

/// Extract every array and scalar access of a statement (recursively).
pub fn accesses_of_stmt(s: &Stmt) -> MiAccesses {
    let mut out = MiAccesses::default();
    collect_stmt(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_stmts;

    fn acc(src: &str) -> MiAccesses {
        let s = parse_stmts(src).unwrap();
        accesses_of_stmt(&s[0])
    }

    #[test]
    fn simple_assign() {
        let a = acc("A[i] = B[i - 1] + x;");
        let reads: Vec<_> = a.arrays.iter().filter(|r| !r.write).collect();
        let writes: Vec<_> = a.arrays.iter().filter(|r| r.write).collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].array, "B");
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].array, "A");
        // x read outside subscript; i reads are in_subscript
        assert!(a
            .scalars
            .iter()
            .any(|s| s.name == "x" && !s.write && !s.in_subscript));
        assert!(a.scalars.iter().all(|s| s.name != "i" || s.in_subscript));
    }

    #[test]
    fn compound_assign_reads_target() {
        let a = acc("A[i] += 1;");
        assert_eq!(a.arrays.iter().filter(|r| !r.write).count(), 1);
        assert_eq!(a.arrays.iter().filter(|r| r.write).count(), 1);
        let a = acc("s += t;");
        assert!(a.scalars.iter().any(|x| x.name == "s" && !x.write));
        assert!(a.scalars.iter().any(|x| x.name == "s" && x.write));
        assert!(a.scalars.iter().any(|x| x.name == "t" && !x.write));
    }

    #[test]
    fn predicated_if_accesses() {
        let a = acc("if (c) A[i] = x;");
        assert!(a.scalars.iter().any(|s| s.name == "c" && !s.write));
        assert!(a.arrays.iter().any(|r| r.array == "A" && r.write));
    }

    #[test]
    fn call_marks_barrier() {
        assert!(acc("f(A[i]);").has_call);
        assert!(acc("x = g(y);").has_call);
        assert!(!acc("x = y;").has_call);
    }

    #[test]
    fn nested_subscript_counts_inner_array_read() {
        let a = acc("x = A[B[i]];");
        assert!(a.arrays.iter().any(|r| r.array == "B" && !r.write));
        assert!(a.arrays.iter().any(|r| r.array == "A" && !r.write));
    }

    #[test]
    fn scalar_reads_helper_filters() {
        let a = acc("A[i] = x + i;");
        // `i` appears both as a subscript read and as a plain read; only the
        // plain read of `x` survives the filter (i excluded as induction).
        let names: Vec<_> = a.scalar_reads("i").map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["x".to_string()]);
    }
}
