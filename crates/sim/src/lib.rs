//! # slc-sim — execution substrate: interpreter, cycle simulator, power model
//!
//! The paper evaluates SLMS on Itanium II, Pentium, Power4 and an ARM7TDMI
//! simulator (sim-panalyzer). None of that hardware is available here, so
//! this crate provides the synthetic equivalent:
//!
//! * [`astinterp`] — a reference interpreter for the mini language. It is the
//!   **semantic oracle**: every source-level transformation in the workspace
//!   (SLMS, interchange, fusion, unrolling, …) must leave the observable
//!   final state bit-identical, and the interpreter checks exactly that. No
//!   re-association ever happens in our transformations, so float comparison
//!   is exact.
//! * [`fastinterp`] — the interpreter's hot path: programs resolved once to
//!   slot-indexed form (names interned via `slc-ast`), executed against flat
//!   `Vec` frames. [`astinterp`]'s entry points route through it; the tree
//!   walk remains as the reference the differential tests compare against.
//! * [`cycle`] — a cycle-level simulator executing scheduled IR from
//!   `slc-machine` on a parametric machine (issue width, functional units,
//!   operation latencies, L1 cache), standing in for the paper's hardware.
//! * [`power`] — a per-operation-class energy model standing in for
//!   sim-panalyzer (figure 21).
//! * [`presets`] — machine descriptions approximating the paper's four
//!   targets.

pub mod astinterp;
pub mod cycle;
pub mod fastinterp;
pub mod power;
pub mod presets;

pub use astinterp::{equivalent, random_env, run_program, Env, RuntimeError, Value};
pub use cycle::{
    simulate, simulate_spanned, simulate_with, CacheStats, CompiledProgram, FfStats, Seg,
    SimFidelity, SimLoop, SimOutcome, SimResult,
};
pub use fastinterp::{resolve, run_resolved, ResolvedProgram};
pub use power::{EnergyModel, PowerReport};
pub use presets::{arm7tdmi, itanium2, pentium, power4};
