//! Three-address IR for the final-compiler substrate.
//!
//! Lowered code is branch-free inside blocks (source `if`s become predicated
//! ops). Memory operations carry a symbolic **address linear form** over the
//! enclosing loop variables, which serves two purposes:
//!
//! * the schedulers (list and modulo) use it for memory disambiguation —
//!   exactly the "dependencies transferred from the front end" the paper
//!   credits a good compiler with (§7);
//! * the trace-based cycle simulator evaluates it against the current loop
//!   indices to produce concrete addresses for the cache model, without
//!   needing value semantics (values are checked separately by the AST
//!   interpreter).

use slc_analysis::LinForm;

/// Virtual register id.
pub type VReg = u32;

/// Operand of an operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Virtual register.
    Reg(VReg),
    /// Integer immediate.
    ImmI(i64),
    /// Float immediate.
    ImmF(f64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(&self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

/// Functional-unit class of an operation (resource classes of the machine
/// model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Integer ALU (add/sub/logic/compare/address arithmetic).
    IntAlu,
    /// Integer multiply/divide.
    IntMul,
    /// Floating add/sub/compare.
    FpAdd,
    /// Floating multiply.
    FpMul,
    /// Floating divide (long latency, usually unpipelined).
    FpDiv,
    /// Load/store unit.
    Mem,
    /// Branch unit (loop back-edges).
    Branch,
}

/// All classes, for iteration.
pub const ALL_CLASSES: [OpClass; 7] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::FpAdd,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::Mem,
    OpClass::Branch,
];

/// Arithmetic operator of a [`OpKind::Bin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    /// addition
    Add,
    /// subtraction
    Sub,
    /// multiplication
    Mul,
    /// division
    Div,
    /// remainder
    Mod,
    /// comparison (result 0 or 1)
    Cmp(slc_ast::CmpOp),
    /// logical and (both operands truthy)
    And,
    /// logical or
    Or,
    /// logical not of the left operand (right ignored)
    Not,
}

/// Operation payload.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `dst = array[addr]`.
    Load {
        /// destination register
        dst: VReg,
        /// array (memory space) name
        array: String,
        /// symbolic linear address (element index) when affine
        addr: Option<LinForm>,
    },
    /// `array[addr] = src`.
    Store {
        /// stored value
        src: Operand,
        /// array name
        array: String,
        /// symbolic linear address when affine
        addr: Option<LinForm>,
    },
    /// `dst = a <op> b`.
    Bin {
        /// operator
        op: BinKind,
        /// float (true) or integer (false) flavour
        fp: bool,
        /// destination
        dst: VReg,
        /// left operand
        a: Operand,
        /// right operand
        b: Operand,
    },
    /// `dst = src` (register move / immediate materialization).
    Mov {
        /// destination
        dst: VReg,
        /// source
        src: Operand,
    },
    /// Pure math intrinsic (`abs`, `sqrt`, `min`, …): semantically faithful,
    /// scheduled as a long-latency FP op.
    Intrinsic {
        /// intrinsic name
        name: String,
        /// destination
        dst: VReg,
        /// arguments
        args: Vec<Operand>,
        /// heavy (sqrt/exp → FpDiv class) vs light (abs/min/max → FpAdd)
        heavy: bool,
    },
    /// Loop back-edge bookkeeping (modelled for issue pressure).
    Branch,
}

/// One IR operation, optionally predicated (`(pred, sense)`: executes when
/// the predicate register's truthiness equals `sense`).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// payload
    pub kind: OpKind,
    /// optional predicate guard
    pub pred: Option<(VReg, bool)>,
    /// iteration offset relative to the loop's nominal iteration — set by
    /// the modulo scheduler for kernel ops drawn from later iterations, used
    /// by the cycle simulator for address computation
    pub iter_offset: i64,
}

impl Op {
    /// Unpredicated op with zero iteration offset.
    pub fn new(kind: OpKind) -> Op {
        Op {
            kind,
            pred: None,
            iter_offset: 0,
        }
    }

    /// The functional-unit class.
    pub fn class(&self) -> OpClass {
        match &self.kind {
            OpKind::Load { .. } | OpKind::Store { .. } => OpClass::Mem,
            OpKind::Bin { op, fp, .. } => match (op, fp) {
                (BinKind::Mul, true) => OpClass::FpMul,
                (BinKind::Div | BinKind::Mod, true) => OpClass::FpDiv,
                (_, true) => OpClass::FpAdd, // add/sub/compare/logic
                (BinKind::Mul | BinKind::Div | BinKind::Mod, false) => OpClass::IntMul,
                (_, false) => OpClass::IntAlu,
            },
            OpKind::Mov { .. } => OpClass::IntAlu,
            OpKind::Intrinsic { heavy, .. } => {
                if *heavy {
                    OpClass::FpDiv
                } else {
                    OpClass::FpAdd
                }
            }
            OpKind::Branch => OpClass::Branch,
        }
    }

    /// Destination register, if any.
    pub fn dst(&self) -> Option<VReg> {
        match &self.kind {
            OpKind::Load { dst, .. }
            | OpKind::Bin { dst, .. }
            | OpKind::Mov { dst, .. }
            | OpKind::Intrinsic { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Source registers (including the predicate guard).
    pub fn srcs(&self) -> Vec<VReg> {
        let mut out = Vec::new();
        self.visit_srcs(|r| out.push(r));
        out
    }

    /// Visit source registers (including the predicate guard) without
    /// allocating — the cycle simulator calls this once per op per trip.
    pub fn visit_srcs(&self, mut f: impl FnMut(VReg)) {
        let mut push = |o: &Operand| {
            if let Operand::Reg(r) = o {
                f(*r);
            }
        };
        match &self.kind {
            OpKind::Load { .. } => {}
            OpKind::Store { src, .. } => push(src),
            OpKind::Bin { a, b, .. } => {
                push(a);
                push(b);
            }
            OpKind::Mov { src, .. } => push(src),
            OpKind::Intrinsic { args, .. } => {
                for a in args {
                    push(a);
                }
            }
            OpKind::Branch => {}
        }
        if let Some((p, _)) = self.pred {
            f(p);
        }
    }

    /// Memory access info: (array, address linform, is_store).
    pub fn mem(&self) -> Option<(&str, Option<&LinForm>, bool)> {
        match &self.kind {
            OpKind::Load { array, addr, .. } => Some((array, addr.as_ref(), false)),
            OpKind::Store { array, addr, .. } => Some((array, addr.as_ref(), true)),
            _ => None,
        }
    }
}

/// A VLIW bundle / issue group: ops issued in the same cycle.
pub type Bundle = Vec<Op>;

/// Structured lowered program.
#[derive(Debug, Clone, PartialEq)]
pub enum Lir {
    /// Straight-line operations.
    Block(Vec<Op>),
    /// A counted loop.
    Loop(LirLoop),
}

/// A counted loop in the IR. Bounds are constant (the lowering rejects
/// symbolic bounds — every workload in the suite has constant trip counts).
#[derive(Debug, Clone, PartialEq)]
pub struct LirLoop {
    /// loop variable name (for address linforms)
    pub var: String,
    /// first index value
    pub init: i64,
    /// additive step
    pub step: i64,
    /// iteration count
    pub trips: i64,
    /// loop body
    pub body: Vec<Lir>,
}

/// A whole lowered program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LirProgram {
    /// top-level items
    pub items: Vec<Lir>,
    /// number of virtual registers used (int and fp pooled; the register
    /// allocator splits by class)
    pub n_regs: u32,
    /// declared array sizes (elements), for address-space layout
    pub arrays: Vec<(String, usize)>,
    /// scalar-variable → register assignment (for seeding/reading state in
    /// the IR value interpreter)
    pub scalar_regs: Vec<(String, VReg)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classes() {
        let fp_mul = Op::new(OpKind::Bin {
            op: BinKind::Mul,
            fp: true,
            dst: 0,
            a: Operand::Reg(1),
            b: Operand::Reg(2),
        });
        assert_eq!(fp_mul.class(), OpClass::FpMul);
        let int_add = Op::new(OpKind::Bin {
            op: BinKind::Add,
            fp: false,
            dst: 0,
            a: Operand::Reg(1),
            b: Operand::ImmI(1),
        });
        assert_eq!(int_add.class(), OpClass::IntAlu);
        let ld = Op::new(OpKind::Load {
            dst: 3,
            array: "A".into(),
            addr: None,
        });
        assert_eq!(ld.class(), OpClass::Mem);
    }

    #[test]
    fn srcs_include_predicate() {
        let mut st = Op::new(OpKind::Store {
            src: Operand::Reg(5),
            array: "A".into(),
            addr: None,
        });
        st.pred = Some((7, true));
        let s = st.srcs();
        assert!(s.contains(&5) && s.contains(&7));
        assert_eq!(st.dst(), None);
    }
}
