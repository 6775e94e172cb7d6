//! The shared compile-service core.
//!
//! Everything expensive in the toolkit — parsing, pass plans (DDG
//! construction, MII/difMin iteration, exact scheduling), lowering,
//! machine scheduling, cycle simulation — funnels through one
//! [`CompileService`]: a set of content-hash-keyed artifact stores
//! ([`KeyedStore`]) plus the deterministic counter registry and the
//! per-stage wall-clock accumulators. The batch engine
//! ([`crate::batch::BatchEngine`]) and the persistent `slc serve` daemon
//! (`slc-serve`) are both thin clients of this layer: the batch engine
//! drives [`CompileService::eval_cell`] over the experiment matrix, the
//! daemon drives [`CompileService::compile_request`] (and friends) per
//! connection — and because they share the same stores and the same key
//! derivation, a daemon warmed by one request answers the next from
//! cache exactly like a second batch pass does.
//!
//! **Determinism contract** (inherited from the batch engine, pinned by
//! `tests/batch_differential.rs` and `tests/trace_differential.rs`):
//! deterministic work counters are bumped **only inside cache-miss
//! closures**, each distinct artifact is computed exactly once while
//! resident, and wall-clock goes to the separate `wall.*` histograms,
//! never into counters or reports. Each fact has one accumulator: the
//! per-stage and per-pass times ([`StageNs`], [`PassTiming`]) are the sums
//! and counts of those histograms, and the fast-forward statistics are
//! read back from the `sim.*` counters. A service built with
//! [`CompileService::bounded`] additionally enforces an LRU capacity per
//! store — eviction order is deterministic under a fixed request order,
//! and every evicted-then-recomputed artifact is re-fingerprinted against
//! the evicted one (`serve.refp_mismatches` stays 0 unless recompilation
//! is non-reproducible).

use crate::cache::{CacheReport, KeyedStore, StoreStats};
use crate::compile::{compile_lir, CompilerKind, LoopInfo};
use crate::passes::{PassManager, PassPlan};
use slc_ast::{parse_program, to_paper_style, to_source, Program};
use slc_core::diag::{DiagEvent, DiagSink};
use slc_core::{LoopOutcome, SlmsConfig};
use slc_machine::ir::LirProgram;
use slc_machine::lower::{lower_program, LowerError};
use slc_machine::mach::MachineDesc;
use slc_sim::cycle::{simulate_spanned, FfStats, SimFidelity, SimResult};
use slc_sim::power::EnergyModel;
use slc_trace::{
    CounterRegistry, FlightRecorder, FromJson, Hex, Histogram, HistogramRegistry, Json, RecKind,
    Tracer,
};
use slc_workloads::{Variant, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

impl CompilerKind {
    /// Every personality, in canonical report order.
    pub const ALL: [CompilerKind; 3] = [
        CompilerKind::Weak,
        CompilerKind::Optimizing,
        CompilerKind::OptimizingMs,
    ];

    /// Short label used in reports and CLI flags (`weak` / `opt` / `ms`).
    pub fn label(&self) -> &'static str {
        match self {
            CompilerKind::Weak => "weak",
            CompilerKind::Optimizing => "opt",
            CompilerKind::OptimizingMs => "ms",
        }
    }

    /// Inverse of [`CompilerKind::label`].
    pub fn from_label(s: &str) -> Option<CompilerKind> {
        Some(match s {
            "weak" => CompilerKind::Weak,
            "opt" => CompilerKind::Optimizing,
            "ms" => CompilerKind::OptimizingMs,
            _ => return None,
        })
    }

    /// Stable code for fingerprinting.
    pub(crate) fn code(&self) -> u64 {
        match self {
            CompilerKind::Weak => 0,
            CompilerKind::Optimizing => 1,
            CompilerKind::OptimizingMs => 2,
        }
    }
}

/// Identity of one matrix cell in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellId {
    /// workload name
    pub workload: String,
    /// suite label
    pub suite: String,
    /// machine name
    pub machine: String,
    /// personality label
    pub compiler: &'static str,
    /// variant label (`orig` / `slms`)
    pub variant: &'static str,
}

/// Everything measured for one completed cell.
#[derive(Debug, Clone)]
pub struct CellMetrics {
    /// simulated cycles
    pub cycles: u64,
    /// dynamic operations executed
    pub ops: u64,
    /// L1 hits
    pub l1_hits: u64,
    /// L1 misses
    pub l1_misses: u64,
    /// dynamic spill accesses
    pub spill_accesses: u64,
    /// modeled energy
    pub energy: f64,
    /// did SLMS transform at least one loop (always false for `orig`)
    pub transformed: bool,
    /// source-level II of the first transformed loop
    pub slms_ii: Option<i64>,
    /// per-loop optimality gaps (heuristic II − proven optimal II) of the
    /// exact-scheduled loops, in loop order; empty for heuristic runs, so
    /// the canonical report is untouched unless the exact scheduler ran
    pub optimality_gaps: Vec<i64>,
    /// per-innermost-loop compile facts
    pub loops: Vec<LoopInfo>,
}

/// The metric members of a completed cell, in canonical report order.
impl From<&CellMetrics> for Json {
    fn from(m: &CellMetrics) -> Json {
        let obj = Json::obj()
            .field("cycles", m.cycles)
            .field("ops", m.ops)
            .field("l1_hits", m.l1_hits)
            .field("l1_misses", m.l1_misses)
            .field("spill_accesses", m.spill_accesses)
            .field("energy", m.energy)
            .field("transformed", m.transformed)
            .field("slms_ii", m.slms_ii);
        // exact-only member: heuristic cells keep the historical
        // byte-identical report shape
        let gaps = (!m.optimality_gaps.is_empty()).then(|| m.optimality_gaps.clone());
        obj.field_opt("optimality_gaps", gaps)
            .field("loops", Json::arr(&m.loops))
    }
}

impl FromJson for CellMetrics {
    fn from_json(j: &Json) -> Result<CellMetrics, String> {
        Ok(CellMetrics {
            cycles: j.req("cycles")?,
            ops: j.req("ops")?,
            l1_hits: j.req("l1_hits")?,
            l1_misses: j.req("l1_misses")?,
            spill_accesses: j.req("spill_accesses")?,
            energy: j.req("energy")?,
            transformed: j.req("transformed")?,
            slms_ii: j.req("slms_ii")?,
            optimality_gaps: j.opt("optimality_gaps")?.unwrap_or_default(),
            loops: j.req("loops")?,
        })
    }
}

/// Append a cell outcome to `obj`: `ok`, then `error` or the metric
/// members. The canonical report and the shard `cells` message both carry
/// a cell this way.
pub(crate) fn outcome_json(obj: Json, outcome: &Result<CellMetrics, String>) -> Json {
    match outcome {
        Err(e) => obj.field("ok", false).field("error", e.as_str()),
        Ok(m) => obj.field("ok", true).extend(m.into()),
    }
}

/// Read back what [`outcome_json`] appended.
pub(crate) fn outcome_from_json(j: &Json) -> Result<Result<CellMetrics, String>, String> {
    Ok(if j.req("ok")? {
        Ok(CellMetrics::from_json(j)?)
    } else {
        Err(j.req("error")?)
    })
}

/// One row of the report: identity plus outcome. Failures carry a
/// stage-prefixed message (`parse: …` / `plan: …` / `lower: …`) instead of
/// aborting the batch.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// which cell
    pub id: CellId,
    /// metrics, or the degradation error
    pub outcome: Result<CellMetrics, String>,
}

/// A canonical report cell: identity members, then the outcome.
impl From<&CellResult> for Json {
    fn from(c: &CellResult) -> Json {
        let id = Json::obj()
            .field("workload", c.id.workload.as_str())
            .field("suite", c.id.suite.as_str())
            .field("machine", c.id.machine.as_str())
            .field("compiler", c.id.compiler)
            .field("variant", c.id.variant);
        outcome_json(id, &c.outcome)
    }
}

/// Static-verification outcome of one workload's `slms` pass(es), as
/// recorded when a batch run is gated with verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifySummary {
    /// workload name
    pub workload: String,
    /// loops whose emission was proven correct
    pub verified: usize,
    /// loops skipped (untransformed or symbolic-guarded)
    pub skipped: usize,
    /// total obligations discharged
    pub obligations: usize,
    /// total violations found (0 = clean)
    pub violations: usize,
}

impl From<&VerifySummary> for Json {
    fn from(v: &VerifySummary) -> Json {
        Json::obj()
            .field("workload", v.workload.as_str())
            .field("verified", v.verified)
            .field("skipped", v.skipped)
            .field("obligations", v.obligations)
            .field("violations", v.violations)
    }
}

impl FromJson for VerifySummary {
    fn from_json(j: &Json) -> Result<VerifySummary, String> {
        Ok(VerifySummary {
            workload: j.req("workload")?,
            verified: j.req("verified")?,
            skipped: j.req("skipped")?,
            obligations: j.req("obligations")?,
            violations: j.req("violations")?,
        })
    }
}

/// Wall clock and run count of one pass across every plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTiming {
    /// plan-syntax pass name (`slms`, `fuse:0+1`)
    pub pass: String,
    /// cumulative wall time inside the pass
    pub ns: u64,
    /// times the pass executed (cache hits do not re-run passes)
    pub runs: u64,
}

impl PassTiming {
    /// Every pass's timing, sorted by pass name: the sum and count of its
    /// `wall.pass.<name>_ns` histogram.
    pub fn from_wall(wall: &HistogramRegistry) -> Vec<PassTiming> {
        let mut passes: Vec<PassTiming> = wall
            .iter()
            .filter_map(|(name, h)| {
                let pass = name.strip_prefix("wall.pass.")?.strip_suffix("_ns")?;
                Some(PassTiming {
                    pass: pass.to_string(),
                    ns: h.sum(),
                    runs: h.count(),
                })
            })
            .collect();
        passes.sort_by(|a, b| a.pass.cmp(&b.pass));
        passes
    }
}

/// Per-stage wall-clock spent inside cache-miss closures
/// (non-deterministic; reported only through timing sidecars).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageNs {
    /// time inside parse misses
    pub parse: u64,
    /// time inside plan misses (all passes, SLMS included)
    pub slms: u64,
    /// time inside lowering misses
    pub lower: u64,
    /// time inside scheduling misses
    pub compile: u64,
    /// time inside simulation misses
    pub sim: u64,
}

impl StageNs {
    /// The per-stage sums of the `wall.*_ns` miss-latency histograms.
    pub fn from_wall(wall: &HistogramRegistry) -> StageNs {
        let sum = |name: &str| wall.get(name).map_or(0, Histogram::sum);
        StageNs {
            parse: sum("wall.parse_ns"),
            slms: sum("wall.plan_ns"),
            lower: sum("wall.lower_ns"),
            compile: sum("wall.compile_ns"),
            sim: sum("wall.sim_ns"),
        }
    }
}

/// The steady-state fast-forward statistics of every simulation miss, read
/// back from the `sim.*` counters the cell-miss closure adds.
pub(crate) fn steady_state(c: &CounterRegistry) -> FfStats {
    FfStats {
        fast_loops: c.get("sim.fast_loops"),
        fallback_loops: c.get("sim.fallback_loops"),
        ff_hits: c.get("sim.ff_hits"),
        ff_misses: c.get("sim.ff_misses"),
        trips_total: c.get("sim.trips_total"),
        trips_skipped: c.get("sim.trips_skipped"),
    }
}

/// The store lookups one [`CompileService::eval_cell`] evaluation
/// performed, by key. `None` means the pipeline degraded before reaching
/// that store (a parse error performs no plan lookup, a lower error no
/// simulated lookup); `lir` is `Some` whenever the compile lookup happened,
/// but the lir store is only *consulted* when the compile lookup misses. The
/// sharded reducer replays these lookups in matrix order to reconstruct
/// the exact cache statistics a single-process run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellKeys {
    /// parse-store key (always looked up)
    pub parse: u64,
    /// plan-store key (`slms` variant only, and only after a clean parse)
    pub plan: Option<u64>,
    /// compile-store key (absent when parse/plan degraded the cell)
    pub compile: Option<u64>,
    /// lir-store key (the program fingerprint; consulted on compile miss)
    pub lir: Option<u64>,
    /// key of a lookup whose artifact was simulated (equals the compile
    /// key; absent when lowering failed)
    pub sim: Option<u64>,
}

/// Every key travels as [`Hex`]: store keys use the full `u64` range.
impl From<&CellKeys> for Json {
    fn from(k: &CellKeys) -> Json {
        Json::obj()
            .field("parse", Hex(k.parse))
            .field("plan", k.plan.map(Hex))
            .field("compile", k.compile.map(Hex))
            .field("lir", k.lir.map(Hex))
            .field("sim", k.sim.map(Hex))
    }
}

impl FromJson for CellKeys {
    fn from_json(j: &Json) -> Result<CellKeys, String> {
        let key = |k: &str| j.opt::<Hex>(k).map(|h| h.map(|h| h.0));
        Ok(CellKeys {
            parse: j.req::<Hex>("parse")?.0,
            plan: key("plan")?,
            compile: key("compile")?,
            lir: key("lir")?,
            sim: key("sim")?,
        })
    }
}

/// One miss closure's counter delta, tagged with the stage and store key
/// that produced it.
#[derive(Debug, Clone)]
pub struct KeyedDelta {
    /// attribution stage tag (plan store or the cell store's simulation)
    pub stage: u8,
    /// the store key
    pub key: u64,
    /// the counters the miss added
    pub counters: CounterRegistry,
}

impl From<&KeyedDelta> for Json {
    fn from(d: &KeyedDelta) -> Json {
        Json::obj()
            .field("stage", u32::from(d.stage))
            .field("key", Hex(d.key))
            .field("counters", &d.counters)
    }
}

impl FromJson for KeyedDelta {
    fn from_json(j: &Json) -> Result<KeyedDelta, String> {
        Ok(KeyedDelta {
            stage: j.req("stage")?,
            key: j.req::<Hex>("key")?.0,
            counters: j.req("counters")?,
        })
    }
}

/// Attribution stage tag for plan-store counter deltas.
pub const STAGE_PLAN: u8 = 1;
/// Attribution stage tag for the simulation counter deltas of cell-store
/// misses.
pub const STAGE_SIM: u8 = 2;

/// What [`CompileService::eval_cell`] evaluates: one matrix cell plus the
/// run-wide knobs it is evaluated under.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec<'a> {
    /// the workload axis value
    pub workload: &'a Workload,
    /// the machine axis value
    pub machine: &'a MachineDesc,
    /// the personality axis value
    pub compiler: CompilerKind,
    /// original or SLMS-transformed variant
    pub variant: Variant,
    /// pass plan the `slms` variant runs
    pub plan: &'a PassPlan,
    /// SLMS configuration for the plan
    pub slms: &'a SlmsConfig,
    /// statically verify the `slms` pass and record a per-workload verdict
    pub verify: bool,
}

impl CellSpec<'_> {
    /// The cell's identity in the report.
    pub fn id(&self) -> CellId {
        CellId {
            workload: self.workload.name.to_string(),
            suite: self.workload.suite.to_string(),
            machine: self.machine.name.clone(),
            compiler: self.compiler.label(),
            variant: self.variant.label(),
        }
    }
}

/// A typed compile-service failure, mirroring the CLI's stage-prefixed
/// degradation messages (and its exit-code contract: every variant maps to
/// exit 1 in one-shot mode and to a typed error response in the daemon).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// the source did not parse
    Parse(String),
    /// the pass plan failed structurally (bad fuse indices, …)
    Plan(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Parse(e) => write!(f, "parse: {e}"),
            ServiceError::Plan(e) => write!(f, "plan: {e}"),
        }
    }
}

/// Result of one daemon-style compile request.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// the optimized program, rendered exactly like the one-shot CLI
    /// prints it (plain source or `--paper-style`)
    pub output: String,
    /// whether the transformed program came from the plan-artifact cache
    /// (deterministic under a fixed request order: each distinct
    /// (program, plan) key misses exactly once while resident)
    pub cached: bool,
}

/// Result of one daemon-style verify request.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// no violations and no error-severity lints
    pub clean: bool,
    /// the report text, byte-identical to `slc verify` stdout
    pub output: String,
}

type ParseArtifact = Result<(Program, u64), String>;
/// Transformed program + all per-loop outcomes across the plan + program
/// fingerprint — or the plan's structural failure, which degrades the cell.
type PlanArtifact = Result<(Program, Vec<LoopOutcome>, u64), String>;

/// What one (program, machine, personality) keeps once it is simulated:
/// the loop facts the report prints and the simulation result. The
/// scheduled machine code is dropped inside the miss closure that built
/// it, since nothing reads it again.
#[derive(Debug)]
struct SimulatedCell {
    loops: Vec<LoopInfo>,
    sim: SimResult,
}

/// A simulated cell, or the lowering failure that degrades it.
type CellArtifact = Result<SimulatedCell, LowerError>;

fn parse_fp(a: &ParseArtifact) -> u64 {
    match a {
        Ok((_, fp)) => *fp,
        Err(e) => slc_analysis::fingerprint_str(e),
    }
}

fn plan_fp(a: &PlanArtifact) -> u64 {
    match a {
        Ok((_, outcomes, fp)) => slc_analysis::fingerprint::combine(&[*fp, outcomes.len() as u64]),
        Err(e) => slc_analysis::fingerprint_str(e),
    }
}

fn lir_fp(a: &Result<LirProgram, LowerError>) -> u64 {
    slc_analysis::fingerprint_str(&format!("{a:?}"))
}

fn cell_fp(a: &CellArtifact) -> u64 {
    slc_analysis::fingerprint_str(&format!("{a:?}"))
}

/// The plan-store key for one (program, plan, config, verify) combination —
/// the one key derivation shared by batch cells, daemon requests and the
/// shard reducer's replay.
pub(crate) fn plan_key(orig_fp: u64, plan: &PassPlan, slms: &SlmsConfig, verify: bool) -> u64 {
    if verify {
        slc_analysis::fingerprint::combine(&[orig_fp, plan.fingerprint(slms), 1])
    } else {
        slc_analysis::fingerprint::combine(&[orig_fp, plan.fingerprint(slms)])
    }
}

/// Derive the full deterministic counter snapshot from a base registry (the
/// miss-closure counters and the daemon admission totals) and a cache
/// report. [`CompileService::counters`] and the shard reducer share this so
/// a reduced multi-process registry renders byte-identically to the
/// single-process one.
pub(crate) fn finalize_counters(mut c: CounterRegistry, cr: &CacheReport) -> CounterRegistry {
    for (name, s) in [
        ("parse", &cr.parse),
        ("slms", &cr.slms),
        ("lir", &cr.lir),
        ("compile", &cr.compile),
        ("sim", &cr.sim),
    ] {
        c.set(&format!("cache.{name}.hits"), s.hits);
        c.set(&format!("cache.{name}.misses"), s.misses);
        c.set(&format!("cache.{name}.evictions"), s.evictions);
    }
    // the admission counters exist (at zero) in batch-only histories too
    for name in ["serve.requests", "serve.rejections", "serve.timeouts"] {
        c.add(name, 0);
    }
    c.set("serve.hits", cr.total_hits());
    c.set("serve.evictions", cr.total_evictions());
    c.set("serve.refp_mismatches", cr.total_refp_mismatches());
    c
}

/// The shared service core: artifact stores, the deterministic counter and
/// work-histogram registries and the wall-clock histograms. Create once,
/// share (it is `Sync`) between the batch engine, daemon connections and
/// CLI helpers — all clients see one cache.
#[derive(Default)]
pub struct CompileService {
    parse: KeyedStore<ParseArtifact>,
    slms: KeyedStore<PlanArtifact>,
    lir: KeyedStore<Result<LirProgram, LowerError>>,
    /// one artifact per (program, machine, personality): compiled and
    /// simulated in the same miss. Its lookups are the report's `compile`
    /// statistics.
    cells: KeyedStore<CellArtifact>,
    /// the cell-store lookups whose artifact was simulated (every lookup but
    /// those of cells that failed lowering): the report's `sim` statistics
    simulated_hits: AtomicU64,
    simulated_misses: AtomicU64,
    /// per-workload verification verdicts (filled only when a batch run
    /// gates; keyed by workload name so repeat runs overwrite)
    verify_stats: Mutex<BTreeMap<String, VerifySummary>>,
    /// deterministic work counters. Bumped **only inside cache-miss
    /// closures** — each distinct artifact is computed exactly once, so the
    /// totals are invariant under thread count and work-queue interleaving
    /// (the property `tests/trace_differential.rs` pins down) — plus the
    /// daemon's `serve.requests`/`serve.rejections`/`serve.timeouts`
    /// admission counts. Wall-clock values must never land here; they go to
    /// `wall_hist`.
    counters: Mutex<CounterRegistry>,
    /// per-(stage, key) counter deltas, recorded only when attribution is
    /// enabled (shard workers). Two shards can both miss on the same key
    /// (each computes the artifact locally); the parent dedups by
    /// `(stage, key)` so the summed deltas equal the single-process
    /// registry.
    attribution: Mutex<Option<BTreeMap<(u8, u64), CounterRegistry>>>,
    /// deterministic work histograms — same contract as `counters`
    /// (recorded only inside miss closures, pure function of the matrix),
    /// but keeping the *distribution*: MIs placed per loop, SAT conflicts
    /// per solve, dep pairs per loop.
    hist: Mutex<HistogramRegistry>,
    /// wall-clock histograms: per-miss stage latencies (`wall.parse_ns`
    /// … `wall.sim_ns`) and per-pass run times (`wall.pass.<name>_ns`).
    /// Reported only through timing sidecars and the daemon's `metrics`,
    /// never gated, never merged into the canonical report.
    wall_hist: Mutex<HistogramRegistry>,
}

impl CompileService {
    /// Fresh service with empty, unbounded stores (the batch default: the
    /// full matrix must stay fully memoized so cache counters are a pure
    /// function of the matrix).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh service whose artifact stores hold at most `capacity` entries
    /// each, evicting least-recently-used completed artifacts past that
    /// (the daemon default: a long-running process must bound its
    /// footprint). Every store re-fingerprints evicted-then-recomputed
    /// artifacts; a mismatch shows up in `serve.refp_mismatches`.
    pub fn bounded(capacity: usize) -> Self {
        CompileService {
            parse: KeyedStore::bounded(capacity, Some(parse_fp)),
            slms: KeyedStore::bounded(capacity, Some(plan_fp)),
            lir: KeyedStore::bounded(capacity, Some(lir_fp)),
            cells: KeyedStore::bounded(capacity, Some(cell_fp)),
            ..CompileService::default()
        }
    }

    /// Snapshot cumulative cache statistics. `compile` and `sim` both count
    /// cell-store lookups: `sim` only those whose artifact was simulated,
    /// and the store's evictions and re-fingerprint checks count once,
    /// under `compile`.
    pub fn cache_report(&self) -> CacheReport {
        CacheReport {
            parse: self.parse.stats(),
            slms: self.slms.stats(),
            lir: self.lir.stats(),
            compile: self.cells.stats(),
            sim: StoreStats {
                hits: self.simulated_hits.load(Ordering::Relaxed),
                misses: self.simulated_misses.load(Ordering::Relaxed),
                ..StoreStats::default()
            },
        }
    }

    /// Snapshot the deterministic counter registry: the work counters
    /// accumulated inside miss closures, the cache hit/miss/eviction
    /// statistics and the service-level `serve.*` family, all under dotted
    /// names (`slms.mii_rounds`, `cache.compile.misses`, `serve.hits`, …).
    /// For a fixed request history the snapshot is identical across runs
    /// and thread counts — this is what `slc stats` renders, the daemon's
    /// `stats` request returns and the CI counter gate compares.
    pub fn counters(&self) -> CounterRegistry {
        let base = self.counters.lock().unwrap().clone();
        finalize_counters(base, &self.cache_report())
    }

    /// Start recording per-(stage, key) counter deltas alongside the
    /// registry. Shard workers enable this so every plan- and cell-miss
    /// delta can be shipped to the dispatcher tagged with the store key
    /// that produced it; [`CompileService::take_attribution`] drains what
    /// has accumulated.
    pub fn enable_attribution(&self) {
        let mut a = self.attribution.lock().unwrap();
        if a.is_none() {
            *a = Some(BTreeMap::new());
        }
    }

    /// Drain the recorded deltas, in (stage, key) order. Returns an empty
    /// vec when attribution was never enabled.
    pub fn take_attribution(&self) -> Vec<KeyedDelta> {
        let mut a = self.attribution.lock().unwrap();
        let map = a.as_mut().map(std::mem::take).unwrap_or_default();
        map.into_iter()
            .map(|((stage, key), counters)| KeyedDelta {
                stage,
                key,
                counters,
            })
            .collect()
    }

    /// Fold a miss closure's local counter delta into the registry, and —
    /// when attribution is on — remember it under `(stage, key)`.
    fn absorb_delta(&self, stage: u8, key: u64, delta: CounterRegistry) {
        self.counters.lock().unwrap().merge(&delta);
        let mut a = self.attribution.lock().unwrap();
        if let Some(map) = a.as_mut() {
            // unbounded stores miss each key at most once per process, so
            // plain insert cannot clobber an earlier delta
            map.insert((stage, key), delta);
        }
    }

    /// Count one admitted daemon request.
    pub fn note_request(&self) {
        self.counters.lock().unwrap().add("serve.requests", 1);
    }

    /// Count one `busy` response: a request refused admission or a
    /// connection refused at accept.
    pub fn note_rejection(&self) {
        self.counters.lock().unwrap().add("serve.rejections", 1);
    }

    /// Count one per-request deadline expiry (`timeout` response).
    pub fn note_timeout(&self) {
        self.counters.lock().unwrap().add("serve.timeouts", 1);
    }

    /// Snapshot the deterministic work histograms (MIs placed per loop,
    /// SAT conflicts/decisions per solve, dep pairs per loop). Recorded
    /// only inside miss closures, so for a fixed request history the
    /// snapshot is identical across runs and thread counts — `slc stats
    /// --histograms` renders it and the CI histogram gate compares it.
    pub fn histograms(&self) -> HistogramRegistry {
        self.hist.lock().unwrap().clone()
    }

    /// Snapshot the wall-clock histograms (per-miss stage latencies and
    /// per-pass run times under `wall.*` names). Non-deterministic; timing
    /// sidecars and the daemon's `metrics` only.
    pub fn wall_histograms(&self) -> HistogramRegistry {
        self.wall_hist.lock().unwrap().clone()
    }

    /// Time a miss closure into the wall-clock histogram `name`
    /// (quarantined from the deterministic surfaces).
    fn timed_wall<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.wall_hist.lock().unwrap().record(name, ns);
        out
    }

    /// Per-workload static-verification verdicts, sorted by workload name
    /// (empty unless verification-gated cells ran).
    pub fn verify_summaries(&self) -> Vec<VerifySummary> {
        self.verify_stats
            .lock()
            .unwrap()
            .values()
            .cloned()
            .collect()
    }

    /// Accumulate the SLMS decision counters from one plan execution's
    /// diagnostics into `reg` (a local delta registry — the plan-artifact
    /// miss closure is the only caller, so the totals count each distinct
    /// (program, plan) exactly once).
    fn count_slms_outcomes(
        sink: &DiagSink,
        reg: &mut CounterRegistry,
        hist: &mut HistogramRegistry,
    ) {
        for o in sink.all_outcomes() {
            reg.add("slms.loops_total", 1);
            if let Ok(r) = &o.result {
                reg.add("slms.loops_transformed", 1);
                hist.record("slms.mis_per_loop", r.n_mis as u64);
            }
            for ev in &o.trace {
                match ev {
                    DiagEvent::FilterChecked { verdict } if !verdict.passed() => {
                        reg.add("slms.filter_rejects", 1);
                    }
                    DiagEvent::IfConverted => reg.add("slms.if_conversions", 1),
                    DiagEvent::SymbolicGuard => reg.add("slms.symbolic_guards", 1),
                    DiagEvent::MiiAttempt { .. } => reg.add("slms.mii_rounds", 1),
                    DiagEvent::Decomposed { .. } => reg.add("slms.decompose_retries", 1),
                    DiagEvent::ExactScheduled {
                        ii,
                        heuristic_ii,
                        reordered,
                        warm_start,
                        sat_decisions,
                        sat_conflicts,
                        sat_propagations,
                        sat_restarts,
                        proof_clauses,
                    } => {
                        reg.add("exact.loops_scheduled", 1);
                        if ii == heuristic_ii {
                            reg.add("exact.optimal", 1);
                        } else {
                            reg.add("exact.improved", 1);
                        }
                        if *reordered {
                            reg.add("exact.reordered", 1);
                        }
                        // add even when 0 so the counter exists whenever
                        // the exact scheduler ran at all
                        reg.add("exact.warm_start_hits", u64::from(*warm_start));
                        reg.add("exact.sat_decisions", *sat_decisions);
                        reg.add("exact.sat_conflicts", *sat_conflicts);
                        reg.add("exact.sat_propagations", *sat_propagations);
                        reg.add("exact.sat_restarts", *sat_restarts);
                        reg.add("exact.proof_clauses", *proof_clauses as u64);
                        hist.record("exact.sat_conflicts_per_solve", *sat_conflicts);
                        hist.record("exact.sat_decisions_per_solve", *sat_decisions);
                    }
                    DiagEvent::DepsAnalyzed {
                        pairs_decided,
                        gcd_hits,
                        banerjee_hits,
                        sat_decided,
                        widened_to_any,
                        certs_checked,
                    } => {
                        // add even when 0 so the whole family exists
                        // whenever the exact dependence engine ran at all
                        reg.add("deps.pairs_decided", *pairs_decided);
                        hist.record("deps.pairs_per_loop", *pairs_decided);
                        reg.add("deps.gcd_hits", *gcd_hits);
                        reg.add("deps.banerjee_hits", *banerjee_hits);
                        reg.add("deps.sat_decided", *sat_decided);
                        reg.add("deps.widened_to_any", *widened_to_any);
                        reg.add("deps.certs_checked", *certs_checked);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Parse `src` through the parse store. Returns the shared artifact
    /// and whether the lookup was a cache hit.
    fn parse_artifact(&self, src: &str, tracer: &Tracer) -> (Arc<ParseArtifact>, bool) {
        let src_fp = slc_analysis::fingerprint_str(src);
        self.parse.get_or_compute_hit(src_fp, || {
            let _sp = tracer.span("stage", "parse");
            self.timed_wall("wall.parse_ns", || {
                parse_program(src)
                    .map(|p| {
                        let fp = slc_analysis::program_fingerprint(&p);
                        (p, fp)
                    })
                    .map_err(|e| e.to_string())
            })
        })
    }

    /// Run `plan` over a parsed program through the plan store (the same
    /// key derivation for batch cells and daemon requests, so both share
    /// one artifact). `verify_as` names the workload for the verdict table
    /// when static verification gates the run.
    #[allow(clippy::too_many_arguments)]
    fn plan_artifact(
        &self,
        orig_prog: &Program,
        orig_fp: u64,
        plan: &PassPlan,
        slms: &SlmsConfig,
        verify: bool,
        verify_as: &str,
        tracer: &Tracer,
    ) -> (Arc<PlanArtifact>, bool) {
        // The verify flag joins the key only when set, so default runs
        // keep their historical cache behaviour (and the canonical report
        // stays byte-identical).
        let key = plan_key(orig_fp, plan, slms, verify);
        self.slms.get_or_compute_hit(key, || {
            let _sp = tracer.span("stage", "plan");
            FlightRecorder::global().record(RecKind::Enter, "plan.miss", key, 0);
            let out = self.timed_wall("wall.plan_ns", || {
                let pm = PassManager::new(slms.clone()).with_tracer(tracer.clone());
                match pm.run_with_verify(orig_prog, plan, verify) {
                    Ok((p, sink, verdicts)) => {
                        let mut delta = CounterRegistry::new();
                        if verify {
                            let mut sum = VerifySummary {
                                workload: verify_as.to_string(),
                                verified: 0,
                                skipped: 0,
                                obligations: 0,
                                violations: 0,
                            };
                            for vd in &verdicts {
                                sum.obligations += vd.obligation_count();
                                sum.violations += vd.violation_count();
                                for l in &vd.loops {
                                    match l.verdict {
                                        slc_verify::LoopVerdict::Verified { .. } => {
                                            sum.verified += 1
                                        }
                                        slc_verify::LoopVerdict::Skipped { .. } => sum.skipped += 1,
                                        slc_verify::LoopVerdict::Violated { .. } => {}
                                    }
                                }
                            }
                            delta.add("verify.loops_verified", sum.verified as u64);
                            delta.add("verify.loops_skipped", sum.skipped as u64);
                            delta.add("verify.obligations", sum.obligations as u64);
                            delta.add("verify.violations", sum.violations as u64);
                            self.verify_stats
                                .lock()
                                .unwrap()
                                .insert(sum.workload.clone(), sum);
                        }
                        let mut wall = self.wall_hist.lock().unwrap();
                        for pd in &sink.passes {
                            wall.record(&format!("wall.pass.{}_ns", pd.pass), pd.elapsed_ns);
                        }
                        drop(wall);
                        let mut hist = HistogramRegistry::new();
                        Self::count_slms_outcomes(&sink, &mut delta, &mut hist);
                        self.hist.lock().unwrap().merge(&hist);
                        // one span site + enter/exit flight events per plan
                        // miss: deterministic (pure function of the matrix)
                        // and attributed, so traced/untraced and
                        // sharded/in-process registries stay byte-identical
                        delta.add("trace.span_sites", 1);
                        delta.add("recorder.ring_events", 2);
                        self.absorb_delta(STAGE_PLAN, key, delta);
                        let fp = slc_analysis::program_fingerprint(&p);
                        let outcomes = sink.all_outcomes().cloned().collect::<Vec<_>>();
                        Ok((p, outcomes, fp))
                    }
                    Err(e) => Err(e.to_string()),
                }
            });
            FlightRecorder::global().record(RecKind::Exit, "plan.miss", key, 0);
            out
        })
    }

    /// Evaluate one matrix cell end to end (parse → plan → lower →
    /// schedule → simulate), every stage memoized. This is the single
    /// compile path: the batch engine calls it per matrix cell, and its
    /// parse/plan stores are the very ones daemon requests hit.
    pub fn eval_cell(&self, spec: &CellSpec<'_>, tracer: &Tracer) -> CellResult {
        self.eval_cell_keyed(spec, tracer).0
    }

    /// [`CompileService::eval_cell`] plus the [`CellKeys`] record of which
    /// store lookups the evaluation performed — what a shard worker ships
    /// to the dispatcher so the reducer can replay the lookups and rebuild
    /// single-process cache statistics.
    pub fn eval_cell_keyed(&self, spec: &CellSpec<'_>, tracer: &Tracer) -> (CellResult, CellKeys) {
        let w = spec.workload;
        let m = spec.machine;
        let kind = spec.compiler;
        let id = spec.id();
        let mut cell_span = tracer.span_dyn("cell", || {
            format!(
                "{}/{}/{}/{}",
                id.workload, id.machine, id.compiler, id.variant
            )
        });

        let mut keys = CellKeys {
            parse: slc_analysis::fingerprint_str(w.source),
            ..CellKeys::default()
        };

        // 1. parse (cached per source text)
        let (parsed, _) = self.parse_artifact(w.source, tracer);
        let (orig_prog, orig_fp) = match parsed.as_ref() {
            Ok(x) => x,
            Err(e) => {
                return (
                    CellResult {
                        id,
                        outcome: Err(format!("parse: {e}")),
                    },
                    keys,
                );
            }
        };

        // 2. pass plan (cached per program × plan fingerprint, shared
        //    across machines and personalities)
        let plan_art: Option<Arc<PlanArtifact>> = match spec.variant {
            Variant::Original => None,
            Variant::Slms => {
                keys.plan = Some(plan_key(*orig_fp, spec.plan, spec.slms, spec.verify));
                let (art, _) = self.plan_artifact(
                    orig_prog,
                    *orig_fp,
                    spec.plan,
                    spec.slms,
                    spec.verify,
                    w.name,
                    tracer,
                );
                Some(art)
            }
        };
        let plan_art = match plan_art.as_deref() {
            None => None,
            Some(Ok(x)) => Some(x),
            Some(Err(e)) => {
                return (
                    CellResult {
                        id,
                        outcome: Err(format!("plan: {e}")),
                    },
                    keys,
                );
            }
        };
        let (prog, prog_fp, transformed, slms_ii, optimality_gaps) = match plan_art {
            None => (orig_prog, *orig_fp, false, None, Vec::new()),
            Some((p, outcomes, fp)) => (
                p,
                *fp,
                outcomes.iter().any(|o| o.result.is_ok()),
                outcomes
                    .iter()
                    .find_map(|o| o.result.as_ref().ok().map(|r| r.ii)),
                outcomes
                    .iter()
                    .filter_map(|o| o.result.as_ref().ok())
                    .filter_map(|r| r.heuristic_ii.map(|h| h - r.ii))
                    .collect(),
            ),
        };

        // 3. lower → schedule → simulate, one artifact per program × machine
        //    × personality (lowering cached separately because it is
        //    machine-independent). Only the loop facts and the simulation
        //    result outlive the miss; the machine code is dropped in it.
        let compile_key =
            slc_analysis::fingerprint::combine(&[prog_fp, m.fingerprint(), kind.code()]);
        keys.compile = Some(compile_key);
        keys.lir = Some(prog_fp);
        let (cell, hit) = self.cells.get_or_compute_hit(compile_key, || {
            let lir = self.lir.get_or_compute(prog_fp, || {
                let _sp = tracer.span("stage", "lower");
                self.timed_wall("wall.lower_ns", || lower_program(prog))
            });
            let lir = match lir.as_ref() {
                Ok(l) => l,
                Err(e) => return Err(e.clone()),
            };
            let comp = {
                let _sp = tracer.span("stage", "compile");
                self.timed_wall("wall.compile_ns", || compile_lir(lir, m, kind))
            };
            let _sp = tracer.span("stage", "simulate");
            FlightRecorder::global().record(RecKind::Enter, "sim.miss", compile_key, 0);
            let sim = self.timed_wall("wall.sim_ns", || {
                let out = simulate_spanned(&comp.compiled, m, SimFidelity::Fast, tracer);
                let mut delta = CounterRegistry::new();
                delta.add("sim.cycles_total", out.result.cycles);
                delta.add("sim.ops_total", out.result.total_ops());
                delta.add("sim.l1_hits", out.result.cache.hits);
                delta.add("sim.l1_misses", out.result.cache.misses);
                delta.add("sim.spill_accesses", out.result.spill_accesses);
                delta.add("sim.fast_loops", out.ff.fast_loops);
                delta.add("sim.fallback_loops", out.ff.fallback_loops);
                delta.add("sim.ff_hits", out.ff.ff_hits);
                delta.add("sim.ff_misses", out.ff.ff_misses);
                delta.add("sim.trips_total", out.ff.trips_total);
                delta.add("sim.trips_skipped", out.ff.trips_skipped);
                delta.add("trace.span_sites", 1);
                delta.add("recorder.ring_events", 2);
                self.absorb_delta(STAGE_SIM, compile_key, delta);
                out.result
            });
            FlightRecorder::global().record(RecKind::Exit, "sim.miss", compile_key, 0);
            Ok(SimulatedCell {
                loops: comp.loops,
                sim,
            })
        });
        let SimulatedCell { loops, sim } = match cell.as_ref() {
            Ok(c) => c,
            Err(e) => {
                return (
                    CellResult {
                        id,
                        outcome: Err(format!("lower: {e}")),
                    },
                    keys,
                );
            }
        };
        keys.sim = Some(compile_key);
        let simulated = if hit {
            &self.simulated_hits
        } else {
            &self.simulated_misses
        };
        simulated.fetch_add(1, Ordering::Relaxed);
        let power = EnergyModel::default().report(sim);
        cell_span.arg("cycles", sim.cycles);

        (
            CellResult {
                id,
                outcome: Ok(CellMetrics {
                    cycles: sim.cycles,
                    ops: sim.total_ops(),
                    l1_hits: sim.cache.hits,
                    l1_misses: sim.cache.misses,
                    spill_accesses: sim.spill_accesses,
                    energy: power.energy,
                    transformed,
                    slms_ii,
                    optimality_gaps,
                    loops: loops.clone(),
                }),
            },
            keys,
        )
    }

    /// One daemon-style compile request: run `plan` over `src` and render
    /// the optimized source exactly like the one-shot CLI does (plain
    /// [`to_source`] or `--paper-style` [`to_paper_style`]). Parse and plan
    /// artifacts are served from the shared stores under the same keys the
    /// batch engine uses, so responses are byte-identical to one-shot
    /// output while repeated requests skip all the work.
    pub fn compile_request(
        &self,
        src: &str,
        plan: &PassPlan,
        slms: &SlmsConfig,
        paper_style: bool,
        tracer: &Tracer,
    ) -> Result<CompileOutcome, ServiceError> {
        let (parsed, _) = self.parse_artifact(src, tracer);
        let (orig_prog, orig_fp) = match parsed.as_ref() {
            Ok(x) => x,
            Err(e) => return Err(ServiceError::Parse(e.clone())),
        };
        let (art, cached) = self.plan_artifact(orig_prog, *orig_fp, plan, slms, false, "", tracer);
        match art.as_ref() {
            Ok((p, _, _)) => Ok(CompileOutcome {
                output: if paper_style {
                    to_paper_style(p)
                } else {
                    to_source(p)
                },
                cached,
            }),
            Err(e) => Err(ServiceError::Plan(e.clone())),
        }
    }

    /// One daemon-style explain request: the per-loop JSONL decision trace
    /// of `plan` over `src` ([`crate::explain::explain_source_json`]).
    /// Uncached: the trace renders per-pass loop lists that the cached
    /// plan artifact does not retain, so the plan re-runs — matching the
    /// one-shot `slc explain --json` byte for byte is the priority here,
    /// not latency.
    pub fn explain_request(&self, src: &str, plan: &PassPlan, slms: &SlmsConfig) -> String {
        crate::explain::explain_source_json(src, plan, slms)
    }

    /// One daemon-style verify request: lint + statically verify `src`,
    /// rendering the same report text as `slc verify` (see
    /// [`verify_report`]).
    pub fn verify_request(
        &self,
        src: &str,
        slms: &SlmsConfig,
        tracer: &Tracer,
    ) -> Result<VerifyOutcome, ServiceError> {
        let (parsed, _) = self.parse_artifact(src, tracer);
        match parsed.as_ref() {
            Ok((prog, _)) => {
                let (clean, output) = verify_report(prog, slms);
                Ok(VerifyOutcome { clean, output })
            }
            Err(e) => Err(ServiceError::Parse(e.clone())),
        }
    }
}

/// Lint + statically verify one program and render the report text the CLI
/// prints: one `  <lint>` line per lint, the verdict rendering, then the
/// summary line. Returns `(clean, text)` where `clean` means no violations
/// and no error-severity lints — shared by `slc verify` and the daemon's
/// `verify` request so both emit byte-identical reports.
pub fn verify_report(prog: &Program, cfg: &SlmsConfig) -> (bool, String) {
    use slc_verify::{lint_program, verify_slms_program, LintSeverity};
    let mut text = String::new();
    let lints = lint_program(prog);
    for l in &lints {
        text.push_str(&format!("  {l}\n"));
    }
    let verdict = verify_slms_program(prog, cfg);
    text.push_str(&verdict.render());
    let lint_errors = lints
        .iter()
        .filter(|l| l.severity == LintSeverity::Error)
        .count();
    text.push_str(&format!(
        "  summary: {} loop(s), {} obligations discharged, {} violation(s), {} lint error(s)\n",
        verdict.loops.len(),
        verdict.obligation_count(),
        verdict.violation_count(),
        lint_errors,
    ));
    (verdict.violation_count() == 0 && lint_errors == 0, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOT: &str = "float A[32]; float B[32]; float s; float t; int i;\n\
                       for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }";

    #[test]
    fn compile_request_is_cached_on_repeat() {
        let svc = CompileService::new();
        let plan = PassPlan::slms_only();
        let cfg = SlmsConfig::default();
        let tracer = Tracer::disabled();
        let first = svc
            .compile_request(DOT, &plan, &cfg, false, &tracer)
            .unwrap();
        assert!(!first.cached);
        let second = svc
            .compile_request(DOT, &plan, &cfg, false, &tracer)
            .unwrap();
        assert!(second.cached);
        assert_eq!(first.output, second.output);
        // paper style renders differently but shares the plan artifact
        let paper = svc
            .compile_request(DOT, &plan, &cfg, true, &tracer)
            .unwrap();
        assert!(paper.cached);
        assert_ne!(paper.output, first.output);
    }

    #[test]
    fn compile_request_matches_one_shot_pipeline() {
        let svc = CompileService::new();
        let plan = PassPlan::slms_only();
        let cfg = SlmsConfig::default();
        let got = svc
            .compile_request(DOT, &plan, &cfg, false, &Tracer::disabled())
            .unwrap();
        let prog = parse_program(DOT).unwrap();
        let (out, _) = PassManager::new(cfg.clone()).run(&prog, &plan).unwrap();
        assert_eq!(got.output, to_source(&out));
    }

    #[test]
    fn typed_errors_carry_the_stage() {
        let svc = CompileService::new();
        let cfg = SlmsConfig::default();
        let tracer = Tracer::disabled();
        let plan = PassPlan::slms_only();
        let err = svc
            .compile_request("int x; x = ;", &plan, &cfg, false, &tracer)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Parse(_)), "{err}");
        let bad_plan = PassPlan::parse("fuse:0+9,slms").unwrap();
        let err = svc
            .compile_request(DOT, &bad_plan, &cfg, false, &tracer)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Plan(_)), "{err}");
        assert!(err.to_string().starts_with("plan: pass fuse:0+9"), "{err}");
    }

    #[test]
    fn verify_request_matches_cli_rendering() {
        let svc = CompileService::new();
        let cfg = SlmsConfig::default();
        let out = svc.verify_request(DOT, &cfg, &Tracer::disabled()).unwrap();
        assert!(out.clean, "{}", out.output);
        let prog = parse_program(DOT).unwrap();
        let (clean, text) = verify_report(&prog, &cfg);
        assert!(clean);
        assert_eq!(out.output, text);
        assert!(text.contains("summary: "), "{text}");
    }

    #[test]
    fn serve_counters_land_in_the_registry() {
        let svc = CompileService::bounded(2);
        let plan = PassPlan::slms_only();
        let cfg = SlmsConfig::default();
        let tracer = Tracer::disabled();
        svc.note_request();
        svc.note_request();
        svc.note_rejection();
        svc.note_timeout();
        svc.compile_request(DOT, &plan, &cfg, false, &tracer)
            .unwrap();
        svc.compile_request(DOT, &plan, &cfg, false, &tracer)
            .unwrap();
        let c = svc.counters();
        assert_eq!(c.get("serve.requests"), 2);
        assert_eq!(c.get("serve.rejections"), 1);
        assert_eq!(c.get("serve.timeouts"), 1);
        assert!(c.get("serve.hits") > 0);
        assert_eq!(c.get("serve.refp_mismatches"), 0);
        assert_eq!(c.get("cache.parse.misses"), 1);
    }

    #[test]
    fn bounded_service_evicts_and_recompiles_identically() {
        let svc = CompileService::bounded(1);
        let plan = PassPlan::slms_only();
        let cfg = SlmsConfig::default();
        let tracer = Tracer::disabled();
        let other = "float a[8]; int i; for (i = 0; i < 4; i++) a[i] = 1.0;";
        let first = svc
            .compile_request(DOT, &plan, &cfg, false, &tracer)
            .unwrap();
        svc.compile_request(other, &plan, &cfg, false, &tracer)
            .unwrap();
        // capacity 1 per store → DOT's artifacts were evicted; the
        // recompiled output must be byte-identical and pass the
        // re-fingerprint check
        let again = svc
            .compile_request(DOT, &plan, &cfg, false, &tracer)
            .unwrap();
        assert!(!again.cached);
        assert_eq!(first.output, again.output);
        let cr = svc.cache_report();
        assert!(cr.total_evictions() > 0, "{cr:?}");
        assert_eq!(cr.total_refp_mismatches(), 0, "{cr:?}");
    }
}
