//! # slc-ast — abstract syntax tree for the source-level compiler
//!
//! This crate implements the front end of the Source Level Compiler (SLC)
//! described in *"Towards a Source Level Compiler: Source Level Modulo
//! Scheduling"* (Ben-Asher & Meisler, ICPP 2006).
//!
//! The paper implements SLMS inside Wolfe's *Tiny* loop restructurer, which
//! operates on the AST of a small C-like loop language. This crate provides
//! an equivalent substrate, built from scratch:
//!
//! * a typed AST for a C-like mini language with `for`/`while` loops,
//!   `if`/`else`, scalar and (multi-dimensional) array variables, and the
//!   usual arithmetic/logical operators ([`Expr`], [`Stmt`], [`Program`]);
//! * a lexer and recursive-descent parser ([`parse_program`]);
//! * a pretty printer that emits both canonical re-parsable source and the
//!   paper's `stmt; || stmt;` parallel-group notation ([`pretty`]);
//! * AST manipulation utilities used by every transformation: induction
//!   variable shifting, variable renaming, read/write set collection and
//!   operation counting ([`visit`]).
//!
//! The one deliberate extension over plain C is the **parallel group**
//! statement ([`Stmt::Par`]): SLMS emits kernels whose rows contain
//! multi-instructions that the final compiler may execute in parallel. In the
//! paper these are printed as `MI1; || MI2;`. Here they are represented
//! explicitly in the AST (canonical syntax `par { MI1; MI2; }`) so that
//! downstream consumers (the list scheduler, the simulator) can see the
//! parallelism hint while the sequential semantics stay well defined: a
//! parallel group executes its members **in textual order** — exactly the
//! semantics the generated C code would have when handed to the final
//! compiler.

pub mod expr;
pub mod intern;
pub mod lexer;
pub mod loopid;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod stmt;
pub mod visit;

pub use expr::{BinOp, CmpOp, Expr, LValue, UnOp};
pub use intern::{Interner, Symbol};
pub use lexer::{Lexer, Token};
pub use loopid::{innermost_loops, LoopId};
pub use parser::{parse_expr, parse_program, parse_stmts, ParseError};
pub use pretty::{to_paper_style, to_source};
pub use program::{Decl, Program, Ty};
pub use stmt::{AssignOp, ForLoop, Stmt};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_pretty_roundtrip_smoke() {
        let src = "float A[100]; float B[100]; float s; float t;\n\
                   for (i = 0; i < 100; i = i + 1) { t = A[i] * B[i]; s = s + t; }";
        let p = parse_program(src).unwrap();
        let printed = to_source(&p);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p, p2);
    }
}
