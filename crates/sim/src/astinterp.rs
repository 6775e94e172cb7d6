//! Reference interpreter for the mini language — the semantic oracle.
//!
//! Semantics notes:
//!
//! * Flat namespace: all variables are global, zero-initialized unless the
//!   environment seeds them.
//! * A [`slc_ast::Stmt::Par`] group executes its members **in textual
//!   order** — exactly what the C emitted by the source-level compiler would
//!   do. The `||` annotation is a promise to the final compiler, not a
//!   semantic construct, so the oracle ignores it.
//! * Integer division/modulo follow Rust (`i64`) semantics; mixed int/float
//!   operations promote to float.
//! * Out-of-bounds array accesses are hard errors: a transformation that
//!   shifts a subscript out of the original access set has a bug, and the
//!   oracle must catch it rather than paper over it.
//! * A small set of pure intrinsics (`abs`, `min`, `max`, `sqrt`, `exp`,
//!   `sign`) is supported in *expression* position; statement-level calls
//!   (opaque side-effecting barriers) are runtime errors.

use slc_ast::{AssignOp, BinOp, CmpOp, Decl, Expr, LValue, Program, Stmt, Ty, UnOp};
use std::collections::HashMap;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    I(i64),
    /// 64-bit float.
    F(f64),
}

impl Value {
    /// Bit-exact equality: identical op sequences produce identical bits,
    /// including for NaN/inf results — which `PartialEq` on `f64` would
    /// spuriously report unequal.
    pub fn bit_eq(self, other: Value) -> bool {
        match (self, other) {
            (Value::I(a), Value::I(b)) => a == b,
            (Value::F(a), Value::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }

    /// Zero of a declared type.
    pub fn zero(ty: Ty) -> Value {
        match ty {
            Ty::Int => Value::I(0),
            Ty::Float => Value::F(0.0),
        }
    }

    /// Numeric value as f64 (for comparisons and promotion).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }

    /// Truthiness (C semantics: non-zero is true).
    pub fn truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }

    /// Integer view; floats must be integral (subscripts).
    pub fn as_index(self) -> Option<i64> {
        match self {
            Value::I(v) => Some(v),
            Value::F(v) if v.fract() == 0.0 => Some(v as i64),
            _ => None,
        }
    }
}

/// Execution environment: scalar and array storage.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Env {
    /// Scalar values by name.
    pub scalars: HashMap<String, Value>,
    /// Array contents by name (row-major for multi-dimensional arrays).
    pub arrays: HashMap<String, Vec<Value>>,
    /// Array dimension lists, used for row-major index linearization.
    pub dims: HashMap<String, Vec<usize>>,
}

impl Env {
    /// Environment with every declared variable zero-initialized.
    pub fn zeroed(prog: &Program) -> Env {
        let mut env = Env::default();
        for d in &prog.decls {
            env.declare(d);
        }
        env
    }

    /// Register one declaration (idempotent).
    pub fn declare(&mut self, d: &Decl) {
        if d.is_array() {
            self.arrays
                .entry(d.name.clone())
                .or_insert_with(|| vec![Value::zero(d.ty); d.len()]);
            self.dims.entry(d.name.clone()).or_insert(d.dims.clone());
        } else {
            self.scalars
                .entry(d.name.clone())
                .or_insert(Value::zero(d.ty));
        }
    }

    fn linear_index(&self, name: &str, idx: &[i64]) -> Result<usize, RuntimeError> {
        let dims = self
            .dims
            .get(name)
            .ok_or_else(|| RuntimeError::UndeclaredArray(name.to_string()))?;
        if dims.len() != idx.len() {
            return Err(RuntimeError::DimMismatch {
                array: name.to_string(),
                expected: dims.len(),
                got: idx.len(),
            });
        }
        let mut lin: i64 = 0;
        for (d, i) in dims.iter().zip(idx) {
            if *i < 0 || *i >= *d as i64 {
                return Err(RuntimeError::OutOfBounds {
                    array: name.to_string(),
                    index: *i,
                    dim: *d,
                });
            }
            lin = lin * (*d as i64) + i;
        }
        Ok(lin as usize)
    }

    /// Read an array element.
    pub fn load(&self, name: &str, idx: &[i64]) -> Result<Value, RuntimeError> {
        let lin = self.linear_index(name, idx)?;
        Ok(self.arrays[name][lin])
    }

    /// Write an array element.
    pub fn store(&mut self, name: &str, idx: &[i64], v: Value) -> Result<(), RuntimeError> {
        let lin = self.linear_index(name, idx)?;
        let arr = self.arrays.get_mut(name).unwrap();
        arr[lin] = v;
        Ok(())
    }
}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Array access outside its declared bounds.
    OutOfBounds {
        /// array name
        array: String,
        /// offending index
        index: i64,
        /// dimension size
        dim: usize,
    },
    /// Array used with the wrong number of subscripts.
    DimMismatch {
        /// array name
        array: String,
        /// declared dimensionality
        expected: usize,
        /// used dimensionality
        got: usize,
    },
    /// Array name not declared.
    UndeclaredArray(String),
    /// Scalar name not declared.
    UndeclaredScalar(String),
    /// Non-integral value used as a subscript.
    BadSubscript(String),
    /// Division or modulo by zero.
    DivByZero,
    /// Opaque statement-level call (barrier) has no semantics.
    OpaqueCall(String),
    /// Unknown intrinsic in expression position.
    UnknownIntrinsic(String),
    /// `break` outside a loop (malformed program).
    StrayBreak,
    /// Exceeded the execution step budget (runaway loop).
    StepBudgetExhausted,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::OutOfBounds { array, index, dim } => {
                write!(f, "index {index} out of bounds for {array}[{dim}]")
            }
            RuntimeError::DimMismatch {
                array,
                expected,
                got,
            } => write!(f, "{array}: expected {expected} subscripts, got {got}"),
            RuntimeError::UndeclaredArray(n) => write!(f, "undeclared array {n}"),
            RuntimeError::UndeclaredScalar(n) => write!(f, "undeclared scalar {n}"),
            RuntimeError::BadSubscript(n) => write!(f, "non-integral subscript in {n}"),
            RuntimeError::DivByZero => write!(f, "division by zero"),
            RuntimeError::OpaqueCall(n) => write!(f, "opaque call {n}() has no semantics"),
            RuntimeError::UnknownIntrinsic(n) => write!(f, "unknown intrinsic {n}"),
            RuntimeError::StrayBreak => write!(f, "break outside loop"),
            RuntimeError::StepBudgetExhausted => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Control-flow signal from statement execution.
enum Flow {
    Normal,
    Break,
}

/// Interpreter with a step budget.
pub struct Interp<'a> {
    env: &'a mut Env,
    steps_left: u64,
}

pub(crate) fn arith(op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
    use Value::*;
    Ok(match (op, a, b) {
        (BinOp::Add, I(x), I(y)) => I(x.wrapping_add(y)),
        (BinOp::Sub, I(x), I(y)) => I(x.wrapping_sub(y)),
        (BinOp::Mul, I(x), I(y)) => I(x.wrapping_mul(y)),
        (BinOp::Div, I(x), I(y)) => {
            if y == 0 {
                return Err(RuntimeError::DivByZero);
            }
            I(x.wrapping_div(y))
        }
        (BinOp::Mod, I(x), I(y)) => {
            if y == 0 {
                return Err(RuntimeError::DivByZero);
            }
            I(x.wrapping_rem(y))
        }
        (BinOp::Mod, x, y) => {
            let (x, y) = (x.as_f64(), y.as_f64());
            if y == 0.0 {
                return Err(RuntimeError::DivByZero);
            }
            F(x % y)
        }
        (BinOp::Add, x, y) => F(x.as_f64() + y.as_f64()),
        (BinOp::Sub, x, y) => F(x.as_f64() - y.as_f64()),
        (BinOp::Mul, x, y) => F(x.as_f64() * y.as_f64()),
        (BinOp::Div, x, y) => F(x.as_f64() / y.as_f64()),
        (BinOp::And, x, y) => I((x.truthy() && y.truthy()) as i64),
        (BinOp::Or, x, y) => I((x.truthy() || y.truthy()) as i64),
        (BinOp::Cmp(c), x, y) => I(c.eval(x.as_f64(), y.as_f64()) as i64),
    })
}

impl<'a> Interp<'a> {
    /// New interpreter over `env` with a step budget (one budget unit per
    /// statement execution).
    pub fn new(env: &'a mut Env, budget: u64) -> Interp<'a> {
        Interp {
            env,
            steps_left: budget,
        }
    }

    fn eval_subscripts(&mut self, name: &str, idx: &[Expr]) -> Result<Vec<i64>, RuntimeError> {
        idx.iter()
            .map(|e| {
                self.eval(e)?
                    .as_index()
                    .ok_or_else(|| RuntimeError::BadSubscript(name.to_string()))
            })
            .collect()
    }

    /// Evaluate an expression.
    pub fn eval(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        match e {
            Expr::Int(v) => Ok(Value::I(*v)),
            Expr::Float(v) => Ok(Value::F(*v)),
            Expr::Var(n) => self
                .env
                .scalars
                .get(n)
                .copied()
                .ok_or_else(|| RuntimeError::UndeclaredScalar(n.clone())),
            Expr::Index(n, idx) => {
                let idx = self.eval_subscripts(n, idx)?;
                self.env.load(n, &idx)
            }
            Expr::Unary(UnOp::Neg, a) => Ok(match self.eval(a)? {
                Value::I(v) => Value::I(-v),
                Value::F(v) => Value::F(-v),
            }),
            Expr::Unary(UnOp::Not, a) => Ok(Value::I(!self.eval(a)?.truthy() as i64)),
            Expr::Binary(BinOp::And, a, b) => {
                // short-circuit
                if !self.eval(a)?.truthy() {
                    return Ok(Value::I(0));
                }
                Ok(Value::I(self.eval(b)?.truthy() as i64))
            }
            Expr::Binary(BinOp::Or, a, b) => {
                if self.eval(a)?.truthy() {
                    return Ok(Value::I(1));
                }
                Ok(Value::I(self.eval(b)?.truthy() as i64))
            }
            Expr::Binary(op, a, b) => {
                let (a, b) = (self.eval(a)?, self.eval(b)?);
                arith(*op, a, b)
            }
            Expr::Select(c, t, f) => {
                if self.eval(c)?.truthy() {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            Expr::Call(name, args) => {
                let vals: Result<Vec<Value>, _> = args.iter().map(|a| self.eval(a)).collect();
                let vals = vals?;
                intrinsic(name, &vals)
            }
        }
    }

    fn assign(&mut self, target: &LValue, op: AssignOp, value: &Expr) -> Result<(), RuntimeError> {
        let rhs = self.eval(value)?;
        let combine = |old: Value| -> Result<Value, RuntimeError> {
            match op {
                AssignOp::Set => Ok(rhs),
                AssignOp::Add => arith(BinOp::Add, old, rhs),
                AssignOp::Sub => arith(BinOp::Sub, old, rhs),
                AssignOp::Mul => arith(BinOp::Mul, old, rhs),
                AssignOp::Div => arith(BinOp::Div, old, rhs),
            }
        };
        match target {
            LValue::Var(n) => {
                let old = self
                    .env
                    .scalars
                    .get(n)
                    .copied()
                    .ok_or_else(|| RuntimeError::UndeclaredScalar(n.clone()))?;
                let newv = combine(old)?;
                // preserve the declared storage type
                let stored = match old {
                    Value::I(_) => Value::I(newv.as_index().unwrap_or(newv.as_f64() as i64)),
                    Value::F(_) => Value::F(newv.as_f64()),
                };
                self.env.scalars.insert(n.clone(), stored);
            }
            LValue::Index(n, idx) => {
                let idx = self.eval_subscripts(n, idx)?;
                let old = self.env.load(n, &idx)?;
                let newv = combine(old)?;
                let stored = match old {
                    Value::I(_) => Value::I(newv.as_index().unwrap_or(newv.as_f64() as i64)),
                    Value::F(_) => Value::F(newv.as_f64()),
                };
                self.env.store(n, &idx, stored)?;
            }
        }
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, RuntimeError> {
        for s in stmts {
            if let Flow::Break = self.exec(s)? {
                return Ok(Flow::Break);
            }
        }
        Ok(Flow::Normal)
    }

    /// Execute a statement list to completion (crate-internal entry point
    /// for the differential tests against [`crate::fastinterp`]).
    #[cfg(test)]
    pub(crate) fn run_block(&mut self, stmts: &[Stmt]) -> Result<(), RuntimeError> {
        self.exec_block(stmts).map(|_| ())
    }

    /// Execute one statement.
    fn exec(&mut self, s: &Stmt) -> Result<Flow, RuntimeError> {
        if self.steps_left == 0 {
            return Err(RuntimeError::StepBudgetExhausted);
        }
        self.steps_left -= 1;
        match s {
            Stmt::Assign { target, op, value } => {
                self.assign(target, *op, value)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_branch)
                } else {
                    self.exec_block(else_branch)
                }
            }
            Stmt::For(f) => {
                // hoisted out of the trip loop: one allocation per loop
                // entry instead of three per iteration
                let target = LValue::Var(f.var.clone());
                let cond_var = Expr::Var(f.var.clone());
                let step_expr = Expr::Int(f.step);
                // init
                self.assign(&target, AssignOp::Set, &f.init)?;
                loop {
                    if self.steps_left == 0 {
                        return Err(RuntimeError::StepBudgetExhausted);
                    }
                    self.steps_left -= 1;
                    let v = self.eval(&cond_var)?;
                    let b = self.eval(&f.bound)?;
                    let cont = match f.cmp {
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
                    if let Flow::Break = self.exec_block(&f.body)? {
                        break;
                    }
                    self.assign(&target, AssignOp::Add, &step_expr)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body } => {
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
            Stmt::Block(b) | Stmt::Par(b) => self.exec_block(b),
            Stmt::Break => Ok(Flow::Break),
            Stmt::Call(n, _) => Err(RuntimeError::OpaqueCall(n.clone())),
        }
    }
}

fn intrinsic(name: &str, args: &[Value]) -> Result<Value, RuntimeError> {
    let f = |k: usize| args.get(k).map(|v| v.as_f64()).unwrap_or(0.0);
    match (name, args.len()) {
        ("abs", 1) => Ok(match args[0] {
            Value::I(v) => Value::I(v.abs()),
            Value::F(v) => Value::F(v.abs()),
        }),
        ("sqrt", 1) => Ok(Value::F(f(0).sqrt())),
        ("exp", 1) => Ok(Value::F(f(0).exp())),
        ("sign", 1) => Ok(Value::F(f(0).signum())),
        ("min", 2) => Ok(Value::F(f(0).min(f(1)))),
        ("max", 2) => Ok(Value::F(f(0).max(f(1)))),
        _ => Err(RuntimeError::UnknownIntrinsic(name.to_string())),
    }
}

/// Default step budget: generous for the benchmark loops, small enough to
/// catch accidental infinite loops quickly.
pub const DEFAULT_BUDGET: u64 = 50_000_000;

/// Run a program to completion in `env`.
///
/// Routes through the slot-indexed interpreter in [`crate::fastinterp`];
/// semantics are bit-identical to the tree walk
/// (see [`run_in_env_tree`]).
pub fn run_in_env(prog: &Program, env: &mut Env) -> Result<(), RuntimeError> {
    for d in &prog.decls {
        env.declare(d);
    }
    let rp = crate::fastinterp::resolve(prog);
    crate::fastinterp::run_resolved(&rp, env, DEFAULT_BUDGET)
}

/// [`run_in_env`] via the original tree-walking interpreter. Kept as the
/// reference implementation: the differential tests in
/// [`fastinterp`](crate::fastinterp) run both paths and hold them equal.
pub fn run_in_env_tree(prog: &Program, env: &mut Env) -> Result<(), RuntimeError> {
    for d in &prog.decls {
        env.declare(d);
    }
    let mut interp = Interp::new(env, DEFAULT_BUDGET);
    interp.exec_block(&prog.stmts).map(|_| ())
}

/// Run a program on a zeroed environment and return the final state.
///
/// ```
/// use slc_sim::astinterp::{run_program, Value};
/// use slc_ast::parse_program;
///
/// let p = parse_program("float s; int i; for (i = 1; i <= 4; i++) s += i;").unwrap();
/// let env = run_program(&p).unwrap();
/// assert_eq!(env.scalars["s"], Value::F(10.0));
/// ```
pub fn run_program(prog: &Program) -> Result<Env, RuntimeError> {
    let mut env = Env::zeroed(prog);
    run_in_env(prog, &mut env)?;
    Ok(env)
}

/// [`run_program`] with an explicit step budget.
pub fn run_program_budget(prog: &Program, budget: u64) -> Result<Env, RuntimeError> {
    let mut env = Env::zeroed(prog);
    let rp = crate::fastinterp::resolve(prog);
    crate::fastinterp::run_resolved(&rp, &mut env, budget)?;
    Ok(env)
}

/// Deterministic pseudo-random environment (xorshift64*), seeding every
/// declared variable with small non-trivial values. Floats get values in
/// (-4, 4) rounded to multiples of 1/8 so float arithmetic stays exact in
/// comparisons; ints get values in [-8, 8).
pub fn random_env(prog: &Program, seed: u64) -> Env {
    let mut state = seed.wrapping_mul(2685821657736338717).max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(2685821657736338717);
        state
    };
    let mut env = Env::zeroed(prog);
    for d in &prog.decls {
        match d.ty {
            Ty::Int => {
                let gen_i = |r: u64| Value::I((r % 16) as i64 - 8);
                if d.is_array() {
                    let arr = env.arrays.get_mut(&d.name).unwrap();
                    for v in arr.iter_mut() {
                        *v = gen_i(next());
                    }
                } else {
                    env.scalars.insert(d.name.clone(), gen_i(next()));
                }
            }
            Ty::Float => {
                let gen_f = |r: u64| Value::F(((r % 64) as f64 - 32.0) / 8.0);
                if d.is_array() {
                    let arr = env.arrays.get_mut(&d.name).unwrap();
                    for v in arr.iter_mut() {
                        *v = gen_f(next());
                    }
                } else {
                    env.scalars.insert(d.name.clone(), gen_f(next()));
                }
            }
        }
    }
    env
}

/// A mismatch found by [`equivalent`].
#[derive(Debug, Clone, PartialEq)]
pub enum Mismatch {
    /// One of the programs failed at runtime.
    Runtime(RuntimeError),
    /// A compared variable differs.
    Differs {
        /// variable name
        name: String,
        /// rendered value from the first program
        left: String,
        /// rendered value from the second program
        right: String,
    },
}

/// Check observational equivalence of two programs over the variables
/// declared in `reference` (the original program): both run on identical
/// pseudo-random environments for each seed, and every reference-declared
/// scalar and array must end bit-identical.
pub fn equivalent(
    reference: &Program,
    transformed: &Program,
    seeds: &[u64],
) -> Result<(), Mismatch> {
    // resolve each program once; every seed reuses the resolved form
    let rp_ref = crate::fastinterp::resolve(reference);
    let rp_tr = crate::fastinterp::resolve(transformed);
    for &seed in seeds {
        let env0 = random_env(reference, seed);
        let mut e1 = env0.clone();
        for d in &reference.decls {
            e1.declare(d);
        }
        crate::fastinterp::run_resolved(&rp_ref, &mut e1, DEFAULT_BUDGET)
            .map_err(Mismatch::Runtime)?;
        let mut e2 = env0;
        // the transformed program may declare temporaries the reference
        // does not have; zero-init them exactly like `run_in_env` would
        for d in &transformed.decls {
            e2.declare(d);
        }
        crate::fastinterp::run_resolved(&rp_tr, &mut e2, DEFAULT_BUDGET)
            .map_err(Mismatch::Runtime)?;
        for d in &reference.decls {
            if d.is_array() {
                let (a, b) = (&e1.arrays[&d.name], &e2.arrays[&d.name]);
                if let Some(k) = a.iter().zip(b.iter()).position(|(x, y)| !x.bit_eq(*y)) {
                    return Err(Mismatch::Differs {
                        name: format!("{}[{k}]", d.name),
                        left: format!("{:?}", a[k]),
                        right: format!("{:?}", b[k]),
                    });
                }
            } else {
                let (a, b) = (e1.scalars[&d.name], e2.scalars[&d.name]);
                if !a.bit_eq(b) {
                    return Err(Mismatch::Differs {
                        name: d.name.clone(),
                        left: format!("{a:?}"),
                        right: format!("{b:?}"),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_program;

    #[test]
    fn basic_loop_semantics() {
        let p = parse_program(
            "float A[10]; float s; int i;\n\
             for (i = 0; i < 10; i++) A[i] = i * 2;\n\
             for (i = 0; i < 10; i++) s += A[i];",
        )
        .unwrap();
        let env = run_program(&p).unwrap();
        assert_eq!(env.scalars["s"], Value::F(90.0));
        assert_eq!(env.scalars["i"], Value::I(10));
    }

    #[test]
    fn par_executes_in_order() {
        let p = parse_program("float x; par { x = 1.0; x = x + 1.0; }").unwrap();
        let env = run_program(&p).unwrap();
        assert_eq!(env.scalars["x"], Value::F(2.0));
    }

    #[test]
    fn if_else_and_break() {
        let p = parse_program(
            "int i; int hits;\n\
             for (i = 0; i < 100; i++) { if (i == 5) break; else hits += 1; }",
        )
        .unwrap();
        let env = run_program(&p).unwrap();
        assert_eq!(env.scalars["hits"], Value::I(5));
        assert_eq!(env.scalars["i"], Value::I(5));
    }

    #[test]
    fn while_loop() {
        let p = parse_program("int i; int n; n = 10; while (i < n) i += 3;").unwrap();
        let env = run_program(&p).unwrap();
        assert_eq!(env.scalars["i"], Value::I(12));
    }

    #[test]
    fn out_of_bounds_detected() {
        let p = parse_program("float A[4]; int i; for (i = 0; i < 5; i++) A[i] = 1.0;").unwrap();
        assert!(matches!(
            run_program(&p),
            Err(RuntimeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn two_dim_rowmajor() {
        let p = parse_program(
            "float M[3][4]; int i; int j;\n\
             for (i = 0; i < 3; i++) for (j = 0; j < 4; j++) M[i][j] = i * 10 + j;",
        )
        .unwrap();
        let env = run_program(&p).unwrap();
        assert_eq!(env.arrays["M"][0], Value::F(0.0));
        assert_eq!(env.arrays["M"][5], Value::F(11.0)); // [1][1]
        assert_eq!(env.arrays["M"][11], Value::F(23.0)); // [2][3]
    }

    #[test]
    fn int_division_truncates() {
        let p = parse_program("int a; a = 7 / 2;").unwrap();
        assert_eq!(run_program(&p).unwrap().scalars["a"], Value::I(3));
        let p = parse_program("float a; a = 7 / 2;").unwrap();
        // int literals divide as ints, then store to float
        assert_eq!(run_program(&p).unwrap().scalars["a"], Value::F(3.0));
    }

    #[test]
    fn short_circuit() {
        // `i != 0 && A[10/i] > 0` must not divide by zero when i == 0
        let p = parse_program(
            "float A[20]; int i; int ok; i = 0; if (i != 0 && A[10 / i] > 0.0) ok = 1;",
        )
        .unwrap();
        assert!(run_program(&p).is_ok());
    }

    #[test]
    fn ternary_and_intrinsics() {
        let p = parse_program("float a; float b; a = -3.5; b = a < 0.0 ? abs(a) : a;").unwrap();
        assert_eq!(run_program(&p).unwrap().scalars["b"], Value::F(3.5));
        let p = parse_program("float m; m = max(2.0, 5.0) + min(1.0, 0.5);").unwrap();
        assert_eq!(run_program(&p).unwrap().scalars["m"], Value::F(5.5));
    }

    #[test]
    fn opaque_call_errors() {
        let p = parse_program("int x; f(x);").unwrap();
        assert!(matches!(run_program(&p), Err(RuntimeError::OpaqueCall(_))));
    }

    #[test]
    fn infinite_loop_caught() {
        let p = parse_program("int i; while (1) i = 0;").unwrap();
        assert_eq!(
            run_program_budget(&p, 10_000),
            Err(RuntimeError::StepBudgetExhausted)
        );
    }

    #[test]
    fn random_env_deterministic() {
        let p = parse_program("float A[8]; int x;").unwrap();
        let a = random_env(&p, 42);
        let b = random_env(&p, 42);
        assert_eq!(a, b);
        let c = random_env(&p, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn equivalence_detects_difference() {
        let p1 = parse_program("float A[4]; int i; for (i = 0; i < 4; i++) A[i] += 1.0;").unwrap();
        let p2 = parse_program("float A[4]; int i; for (i = 0; i < 4; i++) A[i] += 2.0;").unwrap();
        assert!(equivalent(&p1, &p1, &[1, 2]).is_ok());
        assert!(matches!(
            equivalent(&p1, &p2, &[1]),
            Err(Mismatch::Differs { .. })
        ));
    }

    #[test]
    fn downward_loop() {
        let p = parse_program("float A[10]; int i; for (i = 9; i >= 0; i--) A[i] = i;").unwrap();
        let env = run_program(&p).unwrap();
        assert_eq!(env.arrays["A"][9], Value::F(9.0));
        assert_eq!(env.scalars["i"], Value::I(-1));
    }
}
