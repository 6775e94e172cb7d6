//! Stable loop identity.
//!
//! Every diagnostic the SLC emits must name *which* loop it talks about in
//! a way that survives re-running the pipeline, reordering passes, and
//! printing for a human. A [`LoopId`] captures the three facts that
//! identify a loop in this workspace's programs: the induction variable,
//! the loop's position in a pre-order walk of the program's innermost
//! loops, and the body length (a cheap shape check that catches "same
//! variable, different loop" confusions after restructuring).
//!
//! The `Display` form intentionally matches the legacy
//! `for (i = …) [2 stmts]` description string the per-loop reports used
//! before diagnostics became structured, so `slc --report` output stays
//! familiar.

use crate::stmt::{ForLoop, Stmt};

/// Identity of one loop inside a program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopId {
    /// Induction variable name.
    pub var: String,
    /// Position of the loop in a pre-order walk of the program's
    /// innermost `for` loops (0-based).
    pub stmt_index: usize,
    /// Number of statements in the loop body when the id was taken.
    pub body_len: usize,
}

impl LoopId {
    /// Identify a loop from its AST node and walk position.
    pub fn of(f: &ForLoop, stmt_index: usize) -> Self {
        LoopId {
            var: f.var.clone(),
            stmt_index,
            body_len: f.body.len(),
        }
    }

    /// Long form including the walk index (`loop#1 for (i = …) [2 stmts]`),
    /// used by decision traces where several loops share a variable name.
    pub fn verbose(&self) -> String {
        format!("loop#{} {}", self.stmt_index, self)
    }

    /// Machine-readable identity, the `"loop"` member of every object
    /// `slc explain --json` emits. Field names are part of the stable
    /// output contract: `var`, `index`, `body_len`.
    pub fn to_json(&self) -> slc_trace::Json {
        slc_trace::Json::obj()
            .field("var", self.var.as_str())
            .field("index", self.stmt_index)
            .field("body_len", self.body_len)
    }
}

impl std::fmt::Display for LoopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "for ({} = …) [{} stmts]", self.var, self.body_len)
    }
}

/// Every innermost `for` loop of a statement list (one whose body holds no
/// other loop), in pre-order: the loops the SLMS program driver visits,
/// numbered as it numbers them. Like the driver, the walk enters `for`
/// bodies that hold loops, both `if` branches and blocks, and nothing else
/// (not `while` bodies, not `par` groups).
pub fn innermost_loops(stmts: &[Stmt]) -> Vec<&ForLoop> {
    fn walk<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a ForLoop>) {
        for s in stmts {
            match s {
                Stmt::For(f) => {
                    if f.body.iter().any(Stmt::contains_loop) {
                        walk(&f.body, out);
                    } else {
                        out.push(f);
                    }
                }
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, out);
                    walk(else_branch, out);
                }
                Stmt::Block(b) => walk(b, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(stmts, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn display_matches_legacy_description() {
        let p =
            parse_program("float A[8]; int i; for (i = 0; i < 4; i++) { A[i] = 1.0; A[i] = 2.0; }")
                .unwrap();
        let loops = innermost_loops(&p.stmts);
        assert_eq!(loops.len(), 1);
        let ids = [LoopId::of(loops[0], 0)];
        assert_eq!(ids[0].to_string(), "for (i = …) [2 stmts]");
        assert_eq!(ids[0].verbose(), "loop#0 for (i = …) [2 stmts]");
    }

    #[test]
    fn nested_and_sibling_loops_numbered_in_preorder() {
        let p = parse_program(
            "float A[8][8]; float B[8]; int i; int j;\n\
             for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) A[i][j] = 1.0;\n\
             for (i = 0; i < 8; i++) B[i] = 2.0;",
        )
        .unwrap();
        let ids: Vec<LoopId> = innermost_loops(&p.stmts)
            .into_iter()
            .enumerate()
            .map(|(k, f)| LoopId::of(f, k))
            .collect();
        assert_eq!(ids.len(), 2);
        assert_eq!((ids[0].var.as_str(), ids[0].stmt_index), ("j", 0));
        assert_eq!((ids[1].var.as_str(), ids[1].stmt_index), ("i", 1));
    }
}
