//! Resolved-AST interpreter: the hot-path twin of [`crate::astinterp`].
//!
//! The tree-walking oracle in `astinterp` hashes a `String` for every scalar
//! read, every array access and every loop-variable touch. This module
//! resolves a [`Program`] once — interning every name through
//! [`slc_ast::Interner`] into dense slot indices — and then executes the
//! resolved form against flat `Vec` frames. Observable behaviour is
//! bit-identical to the tree walk:
//!
//! * same value semantics ([`Value`] coercions, wrapping integer arithmetic,
//!   short-circuit logic, intrinsic dispatch by `(name, arity)`);
//! * same *lazy* error semantics — an undeclared name is only an error when
//!   the statement touching it actually executes, and error precedence
//!   follows evaluation order (a bad subscript beats an out-of-bounds load);
//! * same step-budget accounting: one unit per statement executed plus one
//!   per `for`/`while` condition check, charged at the same points, so a
//!   budget-exhaustion boundary lands on exactly the same step.
//!
//! [`crate::astinterp::run_in_env`] and friends route through this module;
//! the tree walk stays available as
//! [`crate::astinterp::run_in_env_tree`] and the differential tests below
//! hold the two implementations equal statement-for-statement.

use crate::astinterp::{arith, Env, RuntimeError, Value};
use slc_ast::{AssignOp, BinOp, CmpOp, Expr, Interner, LValue, Program, Stmt, Symbol, UnOp};

/// Scalar/array/name slot index (a raw [`Symbol`] payload).
type Slot = u32;

/// Known pure intrinsics, resolved by `(name, arity)` once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intrin {
    Abs,
    Sqrt,
    Exp,
    Sign,
    Min,
    Max,
}

/// Resolved expression: names replaced by dense slots.
#[derive(Debug, Clone)]
enum FExpr {
    I(i64),
    F(f64),
    Scalar(Slot),
    Index(Slot, Vec<FExpr>),
    Unary(UnOp, Box<FExpr>),
    Binary(BinOp, Box<FExpr>, Box<FExpr>),
    Select(Box<FExpr>, Box<FExpr>, Box<FExpr>),
    /// `None` intrinsic: unknown `(name, arity)` — args still evaluate
    /// first, then the call errors, matching the tree walk.
    Call(Option<Intrin>, Slot, Vec<FExpr>),
}

/// Resolved assignment target.
#[derive(Debug, Clone)]
enum FLValue {
    Var(Slot),
    Index(Slot, Vec<FExpr>),
}

/// Resolved statement.
#[derive(Debug, Clone)]
enum FStmt {
    Assign {
        target: FLValue,
        op: AssignOp,
        value: FExpr,
    },
    If {
        cond: FExpr,
        then_b: Vec<FStmt>,
        else_b: Vec<FStmt>,
    },
    For {
        var: Slot,
        init: FExpr,
        cmp: CmpOp,
        bound: FExpr,
        step: i64,
        body: Vec<FStmt>,
    },
    While {
        cond: FExpr,
        body: Vec<FStmt>,
    },
    Block(Vec<FStmt>),
    Break,
    Call(Slot),
}

/// A program resolved for slot-indexed execution. Resolve once, run many
/// times — the equivalence harness runs every seed against one resolution.
#[derive(Debug, Clone)]
pub struct ResolvedProgram {
    stmts: Vec<FStmt>,
    /// scalar slot → name (for frame setup and error messages)
    scalars: Interner,
    /// array slot → name
    arrays: Interner,
    /// opaque/unknown call names (separate slot space)
    names: Interner,
}

struct Resolver {
    scalars: Interner,
    arrays: Interner,
    names: Interner,
}

impl Resolver {
    fn expr(&mut self, e: &Expr) -> FExpr {
        match e {
            Expr::Int(v) => FExpr::I(*v),
            Expr::Float(v) => FExpr::F(*v),
            Expr::Var(n) => FExpr::Scalar(self.scalars.intern(n).0),
            Expr::Index(n, idx) => FExpr::Index(
                self.arrays.intern(n).0,
                idx.iter().map(|i| self.expr(i)).collect(),
            ),
            Expr::Unary(op, a) => FExpr::Unary(*op, Box::new(self.expr(a))),
            Expr::Binary(op, a, b) => {
                FExpr::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
            Expr::Select(c, t, f) => FExpr::Select(
                Box::new(self.expr(c)),
                Box::new(self.expr(t)),
                Box::new(self.expr(f)),
            ),
            Expr::Call(name, args) => {
                let intrin = match (name.as_str(), args.len()) {
                    ("abs", 1) => Some(Intrin::Abs),
                    ("sqrt", 1) => Some(Intrin::Sqrt),
                    ("exp", 1) => Some(Intrin::Exp),
                    ("sign", 1) => Some(Intrin::Sign),
                    ("min", 2) => Some(Intrin::Min),
                    ("max", 2) => Some(Intrin::Max),
                    _ => None,
                };
                FExpr::Call(
                    intrin,
                    self.names.intern(name).0,
                    args.iter().map(|a| self.expr(a)).collect(),
                )
            }
        }
    }

    fn lvalue(&mut self, lv: &LValue) -> FLValue {
        match lv {
            LValue::Var(n) => FLValue::Var(self.scalars.intern(n).0),
            LValue::Index(n, idx) => FLValue::Index(
                self.arrays.intern(n).0,
                idx.iter().map(|i| self.expr(i)).collect(),
            ),
        }
    }

    fn block(&mut self, stmts: &[Stmt]) -> Vec<FStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> FStmt {
        match s {
            Stmt::Assign { target, op, value } => FStmt::Assign {
                target: self.lvalue(target),
                op: *op,
                value: self.expr(value),
            },
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => FStmt::If {
                cond: self.expr(cond),
                then_b: self.block(then_branch),
                else_b: self.block(else_branch),
            },
            Stmt::For(f) => FStmt::For {
                var: self.scalars.intern(&f.var).0,
                init: self.expr(&f.init),
                cmp: f.cmp,
                bound: self.expr(&f.bound),
                step: f.step,
                body: self.block(&f.body),
            },
            Stmt::While { cond, body } => FStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            // `par` executes in textual order, exactly like a block (see
            // the oracle's semantics notes)
            Stmt::Block(b) | Stmt::Par(b) => FStmt::Block(self.block(b)),
            Stmt::Break => FStmt::Break,
            Stmt::Call(n, _) => FStmt::Call(self.names.intern(n).0),
        }
    }
}

/// Resolve a program for repeated slot-indexed execution.
pub fn resolve(prog: &Program) -> ResolvedProgram {
    let mut r = Resolver {
        scalars: Interner::new(),
        arrays: Interner::new(),
        names: Interner::new(),
    };
    let stmts = r.block(&prog.stmts);
    ResolvedProgram {
        stmts,
        scalars: r.scalars,
        arrays: r.arrays,
        names: r.names,
    }
}

enum Flow {
    Normal,
    Break,
}

/// Execution frame: dense storage indexed by resolved slots. `None` marks a
/// name the program mentions but the environment never declared — touched
/// lazily, it raises the same error the tree walk would.
struct Frame<'p> {
    prog: &'p ResolvedProgram,
    scalars: Vec<Option<Value>>,
    arrays: Vec<Option<Vec<Value>>>,
    dims: Vec<Option<Vec<usize>>>,
    steps_left: u64,
}

impl Frame<'_> {
    fn scalar_name(&self, s: Slot) -> String {
        self.prog.scalars.resolve(Symbol(s)).to_string()
    }

    fn array_name(&self, s: Slot) -> String {
        self.prog.arrays.resolve(Symbol(s)).to_string()
    }

    fn read_scalar(&self, s: Slot) -> Result<Value, RuntimeError> {
        self.scalars[s as usize].ok_or_else(|| RuntimeError::UndeclaredScalar(self.scalar_name(s)))
    }

    /// Row-major linearization with the tree walk's exact error order.
    fn linear_index(&self, a: Slot, idx: &[i64]) -> Result<usize, RuntimeError> {
        let dims = self.dims[a as usize]
            .as_ref()
            .ok_or_else(|| RuntimeError::UndeclaredArray(self.array_name(a)))?;
        if dims.len() != idx.len() {
            return Err(RuntimeError::DimMismatch {
                array: self.array_name(a),
                expected: dims.len(),
                got: idx.len(),
            });
        }
        let mut lin: i64 = 0;
        for (d, i) in dims.iter().zip(idx) {
            if *i < 0 || *i >= *d as i64 {
                return Err(RuntimeError::OutOfBounds {
                    array: self.array_name(a),
                    index: *i,
                    dim: *d,
                });
            }
            lin = lin * (*d as i64) + i;
        }
        Ok(lin as usize)
    }

    /// Evaluate subscripts into a small stack buffer (≤ 8 dims; deeper
    /// shapes spill to the heap). The returned slice borrows the caller's
    /// buffers, not the frame, so loads/stores can follow.
    fn eval_subscripts<'b>(
        &mut self,
        a: Slot,
        idx: &[FExpr],
        buf: &'b mut [i64; 8],
        heap: &'b mut Vec<i64>,
    ) -> Result<&'b [i64], RuntimeError> {
        if idx.len() <= 8 {
            for (k, e) in idx.iter().enumerate() {
                buf[k] = self
                    .eval(e)?
                    .as_index()
                    .ok_or_else(|| RuntimeError::BadSubscript(self.array_name(a)))?;
            }
            Ok(&buf[..idx.len()])
        } else {
            for e in idx {
                let v = self
                    .eval(e)?
                    .as_index()
                    .ok_or_else(|| RuntimeError::BadSubscript(self.array_name(a)))?;
                heap.push(v);
            }
            Ok(&heap[..])
        }
    }

    fn load(&self, a: Slot, idx: &[i64]) -> Result<Value, RuntimeError> {
        let lin = self.linear_index(a, idx)?;
        Ok(self.arrays[a as usize].as_ref().unwrap()[lin])
    }

    fn store(&mut self, a: Slot, idx: &[i64], v: Value) -> Result<(), RuntimeError> {
        let lin = self.linear_index(a, idx)?;
        self.arrays[a as usize].as_mut().unwrap()[lin] = v;
        Ok(())
    }

    fn eval(&mut self, e: &FExpr) -> Result<Value, RuntimeError> {
        match e {
            FExpr::I(v) => Ok(Value::I(*v)),
            FExpr::F(v) => Ok(Value::F(*v)),
            FExpr::Scalar(s) => self.read_scalar(*s),
            FExpr::Index(a, idx) => {
                let (mut buf, mut heap) = ([0i64; 8], Vec::new());
                let idx = self.eval_subscripts(*a, idx, &mut buf, &mut heap)?;
                self.load(*a, idx)
            }
            FExpr::Unary(UnOp::Neg, a) => Ok(match self.eval(a)? {
                Value::I(v) => Value::I(-v),
                Value::F(v) => Value::F(-v),
            }),
            FExpr::Unary(UnOp::Not, a) => Ok(Value::I(!self.eval(a)?.truthy() as i64)),
            FExpr::Binary(BinOp::And, a, b) => {
                // short-circuit
                if !self.eval(a)?.truthy() {
                    return Ok(Value::I(0));
                }
                Ok(Value::I(self.eval(b)?.truthy() as i64))
            }
            FExpr::Binary(BinOp::Or, a, b) => {
                if self.eval(a)?.truthy() {
                    return Ok(Value::I(1));
                }
                Ok(Value::I(self.eval(b)?.truthy() as i64))
            }
            FExpr::Binary(op, a, b) => {
                let (a, b) = (self.eval(a)?, self.eval(b)?);
                arith(*op, a, b)
            }
            FExpr::Select(c, t, f) => {
                if self.eval(c)?.truthy() {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            FExpr::Call(intrin, name, args) => match intrin {
                Some(Intrin::Abs) => Ok(match self.eval(&args[0])? {
                    Value::I(v) => Value::I(v.abs()),
                    Value::F(v) => Value::F(v.abs()),
                }),
                Some(Intrin::Sqrt) => Ok(Value::F(self.eval(&args[0])?.as_f64().sqrt())),
                Some(Intrin::Exp) => Ok(Value::F(self.eval(&args[0])?.as_f64().exp())),
                Some(Intrin::Sign) => Ok(Value::F(self.eval(&args[0])?.as_f64().signum())),
                Some(Intrin::Min) => {
                    let x = self.eval(&args[0])?.as_f64();
                    let y = self.eval(&args[1])?.as_f64();
                    Ok(Value::F(x.min(y)))
                }
                Some(Intrin::Max) => {
                    let x = self.eval(&args[0])?.as_f64();
                    let y = self.eval(&args[1])?.as_f64();
                    Ok(Value::F(x.max(y)))
                }
                None => {
                    // unknown intrinsic errors only after its args evaluate
                    for a in args {
                        self.eval(a)?;
                    }
                    Err(RuntimeError::UnknownIntrinsic(
                        self.prog.names.resolve(Symbol(*name)).to_string(),
                    ))
                }
            },
        }
    }

    /// Coerce to the declared storage type witnessed by `old`.
    fn coerce(old: Value, newv: Value) -> Value {
        match old {
            Value::I(_) => Value::I(newv.as_index().unwrap_or(newv.as_f64() as i64)),
            Value::F(_) => Value::F(newv.as_f64()),
        }
    }

    fn combine(op: AssignOp, old: Value, rhs: Value) -> Result<Value, RuntimeError> {
        match op {
            AssignOp::Set => Ok(rhs),
            AssignOp::Add => arith(BinOp::Add, old, rhs),
            AssignOp::Sub => arith(BinOp::Sub, old, rhs),
            AssignOp::Mul => arith(BinOp::Mul, old, rhs),
            AssignOp::Div => arith(BinOp::Div, old, rhs),
        }
    }

    fn assign(
        &mut self,
        target: &FLValue,
        op: AssignOp,
        value: &FExpr,
    ) -> Result<(), RuntimeError> {
        let rhs = self.eval(value)?;
        match target {
            FLValue::Var(s) => {
                let old = self.read_scalar(*s)?;
                let newv = Self::combine(op, old, rhs)?;
                self.scalars[*s as usize] = Some(Self::coerce(old, newv));
            }
            FLValue::Index(a, idx) => {
                let (mut buf, mut heap) = ([0i64; 8], Vec::new());
                let idx = self.eval_subscripts(*a, idx, &mut buf, &mut heap)?;
                let old = self.load(*a, idx)?;
                let newv = Self::combine(op, old, rhs)?;
                self.store(*a, idx, Self::coerce(old, newv))?;
            }
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[FStmt]) -> Result<Flow, RuntimeError> {
        for s in stmts {
            if let Flow::Break = self.exec(s)? {
                return Ok(Flow::Break);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, s: &FStmt) -> Result<Flow, RuntimeError> {
        if self.steps_left == 0 {
            return Err(RuntimeError::StepBudgetExhausted);
        }
        self.steps_left -= 1;
        match s {
            FStmt::Assign { target, op, value } => {
                self.assign(target, *op, value)?;
                Ok(Flow::Normal)
            }
            FStmt::If {
                cond,
                then_b,
                else_b,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_b)
                } else {
                    self.exec_block(else_b)
                }
            }
            FStmt::For {
                var,
                init,
                cmp,
                bound,
                step,
                body,
            } => {
                // init mirrors the tree walk's `assign(var, Set, init)`:
                // RHS evaluates first, then the target must exist
                let rhs = self.eval(init)?;
                let old = self.read_scalar(*var)?;
                self.scalars[*var as usize] = Some(Self::coerce(old, rhs));
                loop {
                    if self.steps_left == 0 {
                        return Err(RuntimeError::StepBudgetExhausted);
                    }
                    self.steps_left -= 1;
                    let v = self.read_scalar(*var)?;
                    let b = self.eval(bound)?;
                    let cont = match cmp {
                        CmpOp::Lt => v.as_f64() < b.as_f64(),
                        CmpOp::Le => v.as_f64() <= b.as_f64(),
                        CmpOp::Gt => v.as_f64() > b.as_f64(),
                        CmpOp::Ge => v.as_f64() >= b.as_f64(),
                        CmpOp::Eq => v.as_f64() == b.as_f64(),
                        CmpOp::Ne => v.as_f64() != b.as_f64(),
                    };
                    if !cont {
                        break;
                    }
                    if let Flow::Break = self.exec_block(body)? {
                        break;
                    }
                    let v = self.read_scalar(*var)?;
                    let newv = arith(BinOp::Add, v, Value::I(*step))?;
                    self.scalars[*var as usize] = Some(Self::coerce(v, newv));
                }
                Ok(Flow::Normal)
            }
            FStmt::While { cond, body } => {
                loop {
                    if self.steps_left == 0 {
                        return Err(RuntimeError::StepBudgetExhausted);
                    }
                    self.steps_left -= 1;
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                    if let Flow::Break = self.exec_block(body)? {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            FStmt::Block(b) => self.exec_block(b),
            FStmt::Break => Ok(Flow::Break),
            FStmt::Call(n) => Err(RuntimeError::OpaqueCall(
                self.prog.names.resolve(Symbol(*n)).to_string(),
            )),
        }
    }
}

/// Run a resolved program against an environment with a step budget.
///
/// Array storage is *moved* out of `env` into the frame for the duration of
/// the run and moved back afterwards — also on error, mirroring the tree
/// walk's partial-state-on-error behaviour. Scalars are copied in and the
/// touched slots written back.
pub fn run_resolved(rp: &ResolvedProgram, env: &mut Env, budget: u64) -> Result<(), RuntimeError> {
    let mut frame = Frame {
        prog: rp,
        scalars: (0..rp.scalars.len() as u32)
            .map(|s| env.scalars.get(rp.scalars.resolve(Symbol(s))).copied())
            .collect(),
        arrays: (0..rp.arrays.len() as u32)
            .map(|s| env.arrays.remove(rp.arrays.resolve(Symbol(s))))
            .collect(),
        dims: (0..rp.arrays.len() as u32)
            .map(|s| env.dims.get(rp.arrays.resolve(Symbol(s))).cloned())
            .collect(),
        steps_left: budget,
    };
    let out = frame.exec_block(&rp.stmts).map(|_| ());
    // write the frame back whatever happened
    for (i, v) in frame.scalars.iter().enumerate() {
        if let Some(v) = v {
            env.scalars
                .insert(rp.scalars.resolve(Symbol(i as u32)).to_string(), *v);
        }
    }
    for (i, slot) in frame.arrays.iter_mut().enumerate() {
        if let Some(a) = slot.take() {
            env.arrays
                .insert(rp.arrays.resolve(Symbol(i as u32)).to_string(), a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astinterp::{random_env, Interp, DEFAULT_BUDGET};
    use slc_ast::parse_program;

    /// Both interpreters, same env, same budget: identical result and
    /// identical final state.
    fn differential(src: &str, budget: u64) {
        let p = parse_program(src).unwrap();
        let rp = resolve(&p);
        for seed in [1u64, 7, 42] {
            let mut legacy = random_env(&p, seed);
            let mut fast = legacy.clone();
            let r1 = Interp::new(&mut legacy, budget).run_block(&p.stmts);
            let r2 = run_resolved(&rp, &mut fast, budget);
            assert_eq!(r1, r2, "result mismatch on seed {seed} for {src:?}");
            assert_eq!(legacy, fast, "state mismatch on seed {seed} for {src:?}");
        }
    }

    #[test]
    fn matches_tree_walk_on_core_shapes() {
        differential(
            "float A[16]; float s; int i; for (i = 0; i < 16; i++) s += A[i] * 2.0;",
            DEFAULT_BUDGET,
        );
        differential(
            "int i; int j; float M[4][5];\n\
             for (i = 0; i < 4; i++) for (j = 0; j < 5; j++) M[i][j] = i * 10 + j;",
            DEFAULT_BUDGET,
        );
        differential(
            "float x; int i; for (i = 0; i < 9; i++) { if (i == 4) break; x = max(x, i); }",
            DEFAULT_BUDGET,
        );
        differential(
            "int i; int n; n = 10; while (i < n) i += 3;",
            DEFAULT_BUDGET,
        );
        differential(
            "float a; float b; a = -3.5; b = a < 0.0 ? abs(a) : sqrt(a);",
            DEFAULT_BUDGET,
        );
        differential("float x; par { x = 1.0; x = x + 1.0; }", DEFAULT_BUDGET);
    }

    #[test]
    fn matches_tree_walk_on_errors() {
        // out of bounds mid-loop: both stop at the same trip with the same
        // partial array state
        differential(
            "float A[4]; int i; for (i = 0; i < 8; i++) A[i] = 1.0;",
            DEFAULT_BUDGET,
        );
        // opaque statement-level call
        differential("int x; f(x);", DEFAULT_BUDGET);
    }

    #[test]
    fn budget_boundary_is_identical() {
        // every budget from 0 up: exhaustion must land on the same step in
        // both walkers (same charge points)
        for b in 0..40 {
            differential("int i; int s; for (i = 0; i < 5; i++) s += i;", b);
        }
    }

    #[test]
    fn undeclared_is_lazy() {
        let p = parse_program("int i; if (0) notdecl = 1;").unwrap();
        let rp = resolve(&p);
        let mut env = Env::zeroed(&p);
        assert_eq!(run_resolved(&rp, &mut env, DEFAULT_BUDGET), Ok(()));

        let p = parse_program("int i; notdecl = 1;").unwrap();
        let rp = resolve(&p);
        let mut env = Env::zeroed(&p);
        assert!(matches!(
            run_resolved(&rp, &mut env, DEFAULT_BUDGET),
            Err(RuntimeError::UndeclaredScalar(n)) if n == "notdecl"
        ));
    }
}
