//! # slc-machine — the "final compiler" substrate
//!
//! The paper's pipeline is *source → SLMS → final compiler → hardware*
//! (Fig. 3/4). This crate is the final compiler: a three-address IR
//! ([`ir`]), lowering with predication and symbolic memory addresses
//! ([`lower`]), dependence analysis on IR ([`deps`]), a list scheduler for
//! basic blocks ([`listsched`]), Rau's iterative modulo scheduler as the
//! machine-level MS baseline ([`ims`]), and register-pressure/spill
//! accounting ([`regalloc`]) — all parameterized by a machine description
//! ([`mach`]).
//!
//! Three "compiler personalities" used by the experiment pipeline:
//!
//! * **weak** (GCC −O0 analogue): ops issue in program order;
//! * **optimizing** (GCC −O3 analogue): list scheduling of loop bodies;
//! * **MS-enabled** (ICC/XLC analogue): list scheduling plus iterative
//!   modulo scheduling of innermost loops.

pub mod asm;
pub mod deps;
pub mod ims;
pub mod ir;
pub mod lirinterp;
pub mod listsched;
pub mod lower;
pub mod mach;
pub mod regalloc;

pub use asm::{bundles_to_string, op_to_string};
pub use deps::{cross_deps, intra_deps, IrEdge};
pub use ims::{modulo_schedule, res_mii, ModuloSchedule};
pub use ir::{Bundle, Lir, LirLoop, LirProgram, Op, OpClass, OpKind, Operand, VReg};
pub use lirinterp::{exec_lir, exec_lir_spanned, LirExecError, LirState, RVal};
pub use listsched::{list_schedule, Schedule};
pub use lower::{lower_program, LowerError};
pub use mach::{CacheConfig, IssueModel, MachineDesc, MachineError};
pub use regalloc::{max_pressure, spills, SpillInfo};
