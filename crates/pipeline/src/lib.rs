//! # slc-pipeline — end-to-end experiment pipeline
//!
//! Glues the workspace together the way the paper's Figure 4 does:
//!
//! ```text
//!  source program ──(slc-core SLMS / slc-transforms)──▶ optimized source
//!        │                                                   │
//!        └──────────────▶ final compiler (slc-machine) ◀─────┘
//!                                │ personalities: Weak / Optimizing / +MS
//!                                ▼
//!                     cycle simulator + power model (slc-sim)
//! ```
//!
//! [`fn@compile`] builds simulatable programs; [`experiments`] compiles and
//! simulates one program serially (the §6/§7 case studies); [`passes`]
//! wraps SLMS and every §6 transformation behind one [`PassManager`]
//! driven by parseable [`PassPlan`]s; [`explain`] renders their per-loop
//! decision traces; [`batch`] evaluates the whole workload × machine ×
//! personality matrix concurrently with memoization of every shared
//! artifact, keyed by plan fingerprints — every §9 figure is rendered from
//! its cells.

pub mod batch;
pub mod cache;
pub mod compile;
pub mod experiments;
pub mod explain;
pub mod par;
pub mod passes;
pub mod service;
pub mod shard;

pub use batch::{
    run_batch, BatchConfig, BatchEngine, BatchReport, CellId, CellMetrics, CellResult, ShardStats,
    TimingReport, COUNTER_TOLERANCES, REPORT_SCHEMA, TIMING_SCHEMA,
};
pub use cache::{CacheReport, KeyedStore, StoreStats};
pub use compile::{compile, compile_lir, CompileResult, CompilerKind, LoopInfo};
pub use experiments::{run, Metrics};
pub use explain::{
    explain_all, explain_all_json, explain_source, explain_source_json, explain_workload,
    explain_workload_json,
};
pub use par::{effective_threads, par_map_indexed, par_map_indexed_stats, WorkerStats};
pub use passes::{PassError, PassManager, PassPlan, PassSpec, PlanParseError, PLAN_SYNTAX};
pub use service::{
    verify_report, CellKeys, CellSpec, CompileOutcome, CompileService, KeyedDelta, PassTiming,
    ServiceError, StageNs, VerifyOutcome, VerifySummary,
};
pub use shard::{
    run_sharded, shard_worker, ShardFault, ShardMsg, ShardOptions, WireCell, SHARD_PROTO_SCHEMA,
};
pub use slc_trace::Json;
