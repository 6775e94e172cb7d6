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
//! [`fn@compile`] builds simulatable programs; [`experiments`] produces the
//! per-loop speedup rows behind each figure of §9; [`passes`] wraps SLMS
//! and every §6 transformation behind one [`Pass`] signature driven by
//! parseable [`PassPlan`]s; [`explain`] renders their per-loop decision
//! traces; [`batch`] evaluates the whole workload × machine × personality
//! matrix concurrently with memoization of every shared artifact, keyed by
//! plan fingerprints.

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
pub use experiments::{
    format_rows, measure_gap, measure_suite, measure_suite_on, measure_workload, run, GapRow,
    LoopRow, Metrics,
};
pub use explain::{
    explain_all, explain_all_json, explain_source, explain_source_json, explain_workload,
    explain_workload_json,
};
pub use par::{effective_threads, par_map_indexed, par_map_indexed_stats, WorkerStats};
pub use passes::{
    CompiledPass, Pass, PassError, PassManager, PassPlan, PassSpec, PlanParseError, PLAN_SYNTAX,
};
pub use service::{
    verify_report, CellKeys, CellSpec, CompileOutcome, CompileService, KeyedDelta, PassTiming,
    ServiceError, StageNs, VerifyOutcome, VerifySummary,
};
pub use shard::{
    run_sharded, shard_worker, ShardFault, ShardMsg, ShardOptions, WireCell, SHARD_PROTO_SCHEMA,
};
pub use slc_trace::Json;
