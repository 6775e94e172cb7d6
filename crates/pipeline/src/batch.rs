//! The parallel batch experiment engine.
//!
//! The paper's evaluation is a cross product — every workload × machine ×
//! final-compiler personality × {original, SLMS} (§9, figs. 14–22). This
//! module evaluates that matrix concurrently on top of the shared
//! [`CompileService`] core (see [`crate::service`] for the artifact stores
//! and the memoization keys): [`BatchEngine`] is a thin client that
//! enumerates the matrix, fans cells out over the work-queue parallel map
//! and assembles the report — every per-cell compile/simulate step runs
//! through [`CompileService::eval_cell`], the same path the `slc serve`
//! daemon's requests share.
//!
//! **Determinism invariants** (asserted by `tests/batch_differential.rs`
//! and the property tests):
//!
//! 1. cell results are bit-identical to the serial
//!    `compile` + `simulate` path;
//! 2. the canonical JSON report is byte-identical across runs and thread
//!    counts — cells appear in matrix-enumeration order, every artifact is
//!    computed exactly once per distinct key (so cache counters are
//!    schedule-independent), wall-clock timing lives in a separate
//!    non-deterministic sidecar ([`BatchReport::timing_json`]), and the
//!    deterministic work counters ([`BatchReport::counters`]) are
//!    accumulated only inside cache-miss closures, which makes them
//!    thread-count-invariant too;
//! 3. a failing cell (parse, plan or lowering error) degrades to a
//!    recorded per-cell error while every other cell still completes.

use crate::cache::CacheReport;
use crate::compile::CompilerKind;
use crate::par::{effective_threads, par_map_indexed_stats, WorkerStats};
use crate::passes::PassPlan;
use crate::service::{steady_state, CellSpec, CompileService, StageNs};
use slc_core::SlmsConfig;
use slc_machine::mach::MachineDesc;
use slc_trace::{CounterRegistry, HistogramRegistry, Json, Tracer};
use slc_workloads::{enumerate_matrix, MatrixCell, Variant, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

pub use crate::service::{CellId, CellMetrics, CellResult, PassTiming, VerifySummary};

/// Schema tag written into every report.
pub const REPORT_SCHEMA: &str = "slc-batch-report-v1";

/// Schema tag of the wall-clock timing sidecar.
pub const TIMING_SCHEMA: &str = "slc-batch-timing-v4";

/// Named relative tolerances for the counter perf gate
/// (`BENCH_counters.json`). Counters not listed here are compared exactly:
/// cache hit/miss counts, SLMS decision counts and verify obligations are
/// pure functions of the matrix, while simulator totals are allowed small
/// drift so that perf-neutral model tweaks do not churn the baseline. The
/// steady-state fast-forward lanes get the widest band — they move whenever
/// the detector's warm-up heuristics are tuned.
pub const COUNTER_TOLERANCES: &[(&str, f64)] = &[
    ("sim.cycles_total", 0.02),
    ("sim.ops_total", 0.02),
    ("sim.l1_hits", 0.02),
    ("sim.l1_misses", 0.05),
    ("sim.spill_accesses", 0.05),
    ("sim.fast_loops", 0.10),
    ("sim.fallback_loops", 0.10),
    ("sim.ff_hits", 0.25),
    ("sim.ff_misses", 0.25),
    ("sim.trips_skipped", 0.25),
];

/// What to run: the axes of the experiment matrix plus engine knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// workload axis
    pub workloads: Vec<Workload>,
    /// machine axis
    pub machines: Vec<MachineDesc>,
    /// personality axis
    pub compilers: Vec<CompilerKind>,
    /// SLMS configuration for the `slms` variant of every cell
    pub slms: SlmsConfig,
    /// pass plan the `slms` variant runs (default: `slms` alone; the §6
    /// ordering studies swap in plans like `fuse:0+1,slms`)
    pub plan: PassPlan,
    /// worker threads (`None` = all available cores)
    pub threads: Option<usize>,
    /// statically verify every `slms` pass and record per-workload
    /// verdicts in the timing sidecar (the canonical report is unaffected)
    pub verify: bool,
}

impl BatchConfig {
    /// The paper's full matrix: every workload × the four machine presets
    /// × the three personalities × {original, SLMS}.
    pub fn full_matrix() -> Self {
        use slc_sim::presets::{arm7tdmi, itanium2, pentium, power4};
        BatchConfig {
            workloads: slc_workloads::all(),
            machines: vec![itanium2(), pentium(), power4(), arm7tdmi()],
            compilers: CompilerKind::ALL.to_vec(),
            slms: SlmsConfig::default(),
            plan: PassPlan::slms_only(),
            threads: None,
            verify: false,
        }
    }

    /// What matrix cell `cell` evaluates.
    pub fn spec(&self, cell: MatrixCell) -> CellSpec<'_> {
        CellSpec {
            workload: &self.workloads[cell.workload],
            machine: &self.machines[cell.machine],
            compiler: self.compilers[cell.compiler],
            variant: cell.variant,
            plan: &self.plan,
            slms: &self.slms,
            verify: self.verify,
        }
    }

    /// Number of cells this config enumerates.
    pub fn n_cells(&self) -> usize {
        self.workloads.len() * self.machines.len() * self.compilers.len() * Variant::ALL.len()
    }
}

/// Per-shard wall-clock and scheduling accounting from one sharded run
/// (`slc batch --shards N`). Everything here depends on OS process/thread
/// scheduling, so it lives in the timing sidecar only — never in counters
/// or the canonical report (which stay byte-identical to the in-process
/// engine).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// shard index, `0..shards`
    pub shard: usize,
    /// cells this shard evaluated and reported
    pub cells: u64,
    /// work ranges dispatched to it
    pub chunks: u64,
    /// ranges it took over from a dead shard
    pub steals_received: u64,
    /// false when the shard died mid-run and its work was reassigned
    pub alive: bool,
    /// median wall-clock per dispatched range, milliseconds
    pub chunk_ms_p50: f64,
    /// 99th-percentile wall-clock per dispatched range, milliseconds
    pub chunk_ms_p99: f64,
    /// CPU time the shard process consumed, milliseconds (scheduler
    /// runtime, so it is not inflated by time-slicing when shards
    /// outnumber cores; 0 when the platform offers no accounting)
    pub cpu_ms: f64,
    /// the shard's per-stage miss wall clock (from its `wall.*` histograms)
    pub stage: StageNs,
    /// the shard's per-worker queue accounting (its in-process thread pool)
    pub workers: Vec<WorkerStats>,
    /// the dead shard's last flight-recorder snapshot (`slc-flight-v1`
    /// JSONL), captured by the dispatcher's quarantine path from the tail
    /// the worker ships with every `deltas` message; `None` while alive
    pub flight: Option<String>,
}

/// Wall-clock accounting (non-deterministic; reported separately from the
/// canonical JSON).
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// worker threads used
    pub threads: usize,
    /// end-to-end wall time
    pub wall_ns: u64,
    /// per-workload static-verification verdicts, sorted by workload name
    /// (empty unless [`BatchConfig::verify`] was set)
    pub verify: Vec<VerifySummary>,
    /// per-worker queue accounting for this run (scheduling-dependent, so
    /// sidecar-only), worker-ordered
    pub workers: Vec<WorkerStats>,
    /// per-shard dispatch accounting, shard-ordered (empty for
    /// in-process runs; filled by `slc batch --shards N`)
    pub shards: Vec<ShardStats>,
    /// wall-clock histograms: per-miss stage latencies and per-pass run
    /// times (`wall.*` families), merged over the shards of a sharded run.
    /// Quarantined here like every other wall-clock reading
    pub wall_hist: HistogramRegistry,
}

impl TimingReport {
    /// Time inside each stage's misses (the `wall.*_ns` histogram sums).
    pub fn stage(&self) -> StageNs {
        StageNs::from_wall(&self.wall_hist)
    }

    /// Per-pass breakdown of the plan stage, sorted by pass name.
    pub fn passes(&self) -> Vec<PassTiming> {
        PassTiming::from_wall(&self.wall_hist)
    }
}

/// Result of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// per-cell rows in matrix-enumeration order
    pub cells: Vec<CellResult>,
    /// cache statistics (cumulative over the engine's lifetime)
    pub cache: CacheReport,
    /// deterministic work counters (cumulative over the engine's lifetime;
    /// see [`CompileService::counters`])
    pub counters: CounterRegistry,
    /// deterministic work histograms (MIs per loop, SAT conflicts per
    /// solve, dep pairs per loop; see [`CompileService::histograms`]).
    /// Never part of the canonical report — exported via `slc stats
    /// --histograms` and gated against `BENCH_histograms.json`. Empty on
    /// the sharded path (the histogram gate runs in-process).
    pub histograms: HistogramRegistry,
    /// wall-clock accounting for this run
    pub timing: TimingReport,
}

impl BatchReport {
    /// Cells that completed.
    pub fn completed(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Cells that degraded to an error.
    pub fn failed(&self) -> usize {
        self.cells.len() - self.completed()
    }

    /// Total static-verification violations across workloads (0 unless the
    /// run was gated with [`BatchConfig::verify`] and something is wrong).
    pub fn verify_violations(&self) -> usize {
        self.timing.verify.iter().map(|v| v.violations).sum()
    }

    /// Per-workload optimality gaps (heuristic II − proven optimal II) of
    /// every exact-scheduled loop, deduplicated across machines and
    /// personalities (the plan artifact is shared, so every cell of a
    /// workload reports the same gaps). Empty unless the run's plan used
    /// the exact scheduler. A gap of 0 certifies the heuristic II optimal;
    /// a positive gap means the exact scheduler beat the heuristic.
    pub fn optimality_gaps(&self) -> Vec<(String, Vec<i64>)> {
        let mut map: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        for c in &self.cells {
            if let Ok(m) = &c.outcome {
                if !m.optimality_gaps.is_empty() {
                    map.entry(c.id.workload.clone())
                        .or_insert_with(|| m.optimality_gaps.clone());
                }
            }
        }
        map.into_iter().collect()
    }

    /// Exact-scheduled loops whose heuristic II exceeded the proven
    /// optimum (what the CI `exact-gate` asserts is zero on the stock
    /// workload suite).
    pub fn positive_gap_count(&self) -> usize {
        self.optimality_gaps()
            .iter()
            .map(|(_, gs)| gs.iter().filter(|&&g| g > 0).count())
            .sum()
    }

    /// The canonical report: deterministic — byte-identical across runs
    /// and thread counts for the same `BatchConfig` and engine history.
    pub fn to_json(&self) -> String {
        Json::obj()
            .field("schema", REPORT_SCHEMA)
            .field("cells_total", self.cells.len())
            .field("cells_completed", self.completed())
            .field("cells_failed", self.failed())
            .field(
                "cache",
                Json::obj()
                    .field("parse", store_json(self.cache.parse))
                    .field("slms", store_json(self.cache.slms))
                    .field("lir", store_json(self.cache.lir))
                    .field("compile", store_json(self.cache.compile))
                    .field("sim", store_json(self.cache.sim)),
            )
            .field("cells", Json::arr(&self.cells))
            .to_pretty()
    }

    /// The deterministic counter registry as the gate-able baseline
    /// document (`slc-counters-v1`, what `BENCH_counters.json` pins), with
    /// the named [`COUNTER_TOLERANCES`] attached. Separate from
    /// [`BatchReport::to_json`] so the canonical report stays byte-for-byte
    /// what it was before counters existed.
    pub fn counters_json(&self) -> String {
        self.counters.to_json(COUNTER_TOLERANCES)
    }

    /// Wall-clock sidecar (not deterministic). v2 added the per-pass
    /// breakdown of the transformation stage; v3 added per-worker queue
    /// accounting from the work-stealing map; v4 adds per-worker busy time
    /// and per-shard dispatch/steal accounting for `--shards` runs.
    pub fn timing_json(&self) -> String {
        let t = &self.timing;
        let mut passes = Json::obj();
        for p in &t.passes() {
            passes = passes.field(
                p.pass.as_str(),
                Json::obj()
                    .field("ms", p.ns as f64 / 1e6)
                    .field("runs", p.runs),
            );
        }
        let shards: Vec<Json> = t
            .shards
            .iter()
            .map(|s| {
                Json::obj()
                    .field("shard", s.shard)
                    .field("cells", s.cells)
                    .field("chunks", s.chunks)
                    .field("steals_received", s.steals_received)
                    .field("alive", s.alive)
                    .field("chunk_ms_p50", s.chunk_ms_p50)
                    .field("chunk_ms_p99", s.chunk_ms_p99)
                    .field("cpu_ms", s.cpu_ms)
                    .field("stage_ms", stage_ms_json(&s.stage))
                    .field("workers", Json::arr(s.workers.iter().map(worker_json)))
                    // quarantine capture: the dead shard's last flight ring
                    .field_opt("flight_recorder", s.flight.as_deref())
            })
            .collect();
        let doc = Json::obj()
            .field("schema", TIMING_SCHEMA)
            .field("threads", t.threads)
            .field("wall_ms", t.wall_ns as f64 / 1e6)
            .field("stage_ms", stage_ms_json(&t.stage()))
            .field("pass_ms", passes)
            .field("workers", Json::arr(t.workers.iter().map(worker_json)))
            .field_opt("shards", (!t.shards.is_empty()).then_some(shards));
        doc.field("verify", {
            let mut verify = Json::obj();
            for v in &t.verify {
                verify = verify.field(
                    v.workload.as_str(),
                    Json::obj()
                        .field("verified_loops", v.verified)
                        .field("skipped_loops", v.skipped)
                        .field("obligations", v.obligations)
                        .field("violations", v.violations),
                );
            }
            verify
        })
        .field("sim_steady_state", {
            let steady = steady_state(&self.counters);
            Json::obj()
                .field("fast_loops", steady.fast_loops)
                .field("fallback_loops", steady.fallback_loops)
                .field("ff_hits", steady.ff_hits)
                .field("ff_misses", steady.ff_misses)
                .field("trips_total", steady.trips_total)
                .field("trips_skipped", steady.trips_skipped)
        })
        .field("wall_histograms", &t.wall_hist)
        .to_pretty()
    }

    /// The deterministic work histograms as the gate-able baseline
    /// document (`slc-histograms-v1`, what `BENCH_histograms.json` pins).
    pub fn histograms_json(&self) -> String {
        self.histograms.to_baseline_json()
    }

    /// Short human summary (cells, failures, hit rate, wall time).
    pub fn summary(&self) -> String {
        format!(
            "{} cells ({} ok, {} failed) on {} threads in {:.1} ms; \
             cache hit-rate {:.1}% (slms {}/{}, lir {}/{}, compile {}/{}, sim {}/{})",
            self.cells.len(),
            self.completed(),
            self.failed(),
            self.timing.threads,
            self.timing.wall_ns as f64 / 1e6,
            self.cache.overall_hit_rate() * 100.0,
            self.cache.slms.hits,
            self.cache.slms.hits + self.cache.slms.misses,
            self.cache.lir.hits,
            self.cache.lir.hits + self.cache.lir.misses,
            self.cache.compile.hits,
            self.cache.compile.hits + self.cache.compile.misses,
            self.cache.sim.hits,
            self.cache.sim.hits + self.cache.sim.misses,
        )
    }
}

fn store_json(s: crate::cache::StoreStats) -> Json {
    Json::obj().field("hits", s.hits).field("misses", s.misses)
}

fn worker_json(w: &WorkerStats) -> Json {
    Json::obj()
        .field("worker", w.worker)
        .field("claimed", w.claimed)
        .field("empty_polls", w.empty_polls)
        .field("busy_ms", w.busy_ns as f64 / 1e6)
}

fn stage_ms_json(s: &StageNs) -> Json {
    Json::obj()
        .field("parse", s.parse as f64 / 1e6)
        .field("slms", s.slms as f64 / 1e6)
        .field("lower", s.lower as f64 / 1e6)
        .field("compile", s.compile as f64 / 1e6)
        .field("simulate", s.sim as f64 / 1e6)
}

/// The batch engine: a thin matrix-enumeration client over the shared
/// [`CompileService`]. Create once and call [`BatchEngine::run`] repeatedly
/// to share the cache across runs (a second identical run is answered
/// almost entirely from the cache).
#[derive(Default)]
pub struct BatchEngine {
    service: CompileService,
}

impl BatchEngine {
    /// Fresh engine over a fresh unbounded [`CompileService`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine over an existing service — e.g. one the daemon already
    /// warmed, or a bounded one for footprint experiments.
    pub fn from_service(service: CompileService) -> Self {
        BatchEngine { service }
    }

    /// The underlying shared service.
    pub fn service(&self) -> &CompileService {
        &self.service
    }

    /// Snapshot cumulative cache statistics.
    pub fn cache_report(&self) -> CacheReport {
        self.service.cache_report()
    }

    /// Snapshot the deterministic counter registry (see
    /// [`CompileService::counters`]).
    pub fn counters(&self) -> CounterRegistry {
        self.service.counters()
    }

    /// Evaluate the whole matrix. Cells run concurrently; the result
    /// vector is in matrix-enumeration order regardless of thread count.
    pub fn run(&self, cfg: &BatchConfig) -> BatchReport {
        self.run_traced(cfg, &Tracer::disabled())
    }

    /// [`BatchEngine::run`] with span collection: the whole run is wrapped
    /// in a `batch.run` span, every cell gets a `cell` span on its worker's
    /// track (tid = worker + 1; the orchestrating thread is track 0), and
    /// each cache-miss closure opens a `stage` span
    /// (`parse`/`plan`/`lower`/`compile`/`simulate`). With a disabled
    /// tracer this is exactly [`BatchEngine::run`] — no clock reads, no
    /// allocation, and a byte-identical canonical report either way.
    pub fn run_traced(&self, cfg: &BatchConfig, tracer: &Tracer) -> BatchReport {
        let cells = enumerate_matrix(cfg.workloads.len(), cfg.machines.len(), cfg.compilers.len());
        let threads = effective_threads(cfg.threads, cells.len());
        tracer.set_thread_track(0, "main");
        let mut batch_span = tracer.span("batch", "batch.run");
        batch_span.arg("cells", cells.len());
        batch_span.arg("threads", threads);
        let t0 = Instant::now();
        let (results, workers) = par_map_indexed_stats(cells.len(), threads, |worker, i| {
            if tracer.is_enabled() {
                tracer.set_thread_track(worker as u32 + 1, &format!("worker {worker}"));
            }
            let cell = cells[i];
            self.service.eval_cell(&cfg.spec(cell), tracer)
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        drop(batch_span);
        // with threads == 1 the "worker" ran inline on this thread; rebind
        // it to the orchestrator track for any spans the caller opens next
        tracer.set_thread_track(0, "main");
        BatchReport {
            cells: results,
            cache: self.service.cache_report(),
            counters: self.service.counters(),
            histograms: self.service.histograms(),
            timing: TimingReport {
                threads,
                wall_ns,
                verify: self.service.verify_summaries(),
                workers,
                shards: Vec::new(),
                wall_hist: self.service.wall_histograms(),
            },
        }
    }
}

/// One-shot convenience: fresh engine, one run.
pub fn run_batch(cfg: &BatchConfig) -> BatchReport {
    BatchEngine::new().run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_sim::presets::itanium2;
    use slc_workloads::Suite;

    fn tiny_cfg() -> BatchConfig {
        BatchConfig {
            workloads: slc_workloads::paper_examples(),
            machines: vec![itanium2()],
            compilers: vec![CompilerKind::Optimizing],
            slms: SlmsConfig::default(),
            plan: PassPlan::slms_only(),
            threads: Some(2),
            verify: false,
        }
    }

    #[test]
    fn report_in_matrix_order_and_complete() {
        let cfg = tiny_cfg();
        let rep = run_batch(&cfg);
        assert_eq!(rep.cells.len(), cfg.n_cells());
        assert_eq!(rep.failed(), 0);
        for (k, cell) in rep.cells.iter().enumerate() {
            let w = &cfg.workloads[k / 2];
            assert_eq!(cell.id.workload, w.name);
            assert_eq!(cell.id.variant, if k % 2 == 0 { "orig" } else { "slms" });
        }
    }

    #[test]
    fn first_run_already_shares_artifacts() {
        // two machines × two personalities share SLMS and LIR artifacts
        let cfg = BatchConfig {
            machines: vec![itanium2(), slc_sim::presets::power4()],
            compilers: vec![CompilerKind::Weak, CompilerKind::Optimizing],
            ..tiny_cfg()
        };
        let rep = run_batch(&cfg);
        assert!(rep.cache.slms.hits > 0, "{:?}", rep.cache);
        assert!(rep.cache.lir.hits > 0, "{:?}", rep.cache);
    }

    #[test]
    fn second_run_hits_cache() {
        let engine = BatchEngine::new();
        let cfg = tiny_cfg();
        let first = engine.run(&cfg);
        let misses_after_first = engine.cache_report().compile.misses;
        let second = engine.run(&cfg);
        // no new computations in the second run
        assert_eq!(engine.cache_report().compile.misses, misses_after_first);
        assert!(second.cache.compile.hits > first.cache.compile.hits);
        assert!(second.cache.overall_hit_rate() > 0.0);
        // and the canonical cells are identical
        for (a, b) in first.cells.iter().zip(&second.cells) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.outcome.as_ref().map(|m| m.cycles).ok(),
                b.outcome.as_ref().map(|m| m.cycles).ok()
            );
        }
    }

    #[test]
    fn bad_plan_degrades_slms_cells_only() {
        let mut cfg = tiny_cfg();
        cfg.plan = PassPlan::parse("fuse:0+9,slms").unwrap();
        let rep = run_batch(&cfg);
        for c in &rep.cells {
            match c.id.variant {
                "orig" => assert!(c.outcome.is_ok(), "{:?}", c.outcome),
                _ => {
                    let e = c.outcome.as_ref().unwrap_err();
                    assert!(e.starts_with("plan: pass fuse:0+9"), "{e}");
                }
            }
        }
        assert_eq!(rep.failed(), rep.cells.len() / 2);
    }

    #[test]
    fn per_pass_timing_lands_in_sidecar() {
        let rep = run_batch(&tiny_cfg());
        let slms = rep
            .timing
            .passes()
            .into_iter()
            .find(|p| p.pass == "slms")
            .expect("slms pass timed");
        assert!(slms.runs >= 1);
        let sidecar = rep.timing_json();
        assert!(sidecar.contains(TIMING_SCHEMA), "{sidecar}");
        assert!(sidecar.contains("pass_ms"), "{sidecar}");
        // v3: per-worker queue accounting rides in the sidecar too
        assert!(sidecar.contains("\"workers\""), "{sidecar}");
        assert!(!rep.timing.workers.is_empty());
        let claimed: u64 = rep.timing.workers.iter().map(|w| w.claimed).sum();
        assert_eq!(claimed as usize, rep.cells.len());
        // but nothing non-deterministic in the canonical report
        let canon = rep.to_json();
        assert!(!canon.contains("pass_ms"));
        assert!(!canon.contains("workers"));
        assert!(!canon.contains("counters"));
        // bounded-mode bookkeeping stays out of the canonical report too
        assert!(!canon.contains("evictions"));
    }

    #[test]
    fn counters_are_thread_count_invariant_and_gateable() {
        let mut c1 = tiny_cfg();
        c1.threads = Some(1);
        c1.verify = true;
        let mut c4 = c1.clone();
        c4.threads = Some(4);
        let a = run_batch(&c1);
        let b = run_batch(&c4);
        assert_eq!(
            a.counters, b.counters,
            "counters must not depend on threads"
        );
        assert!(a.counters.get("slms.loops_total") > 0);
        assert!(a.counters.get("sim.cycles_total") > 0);
        assert!(a.counters.get("cache.sim.misses") > 0);
        assert!(a.counters.get("verify.obligations") > 0);
        // unbounded engines never evict; the serve family reads zero in
        // batch-only histories except the artifact-hit total
        assert_eq!(a.counters.get("serve.evictions"), 0);
        assert_eq!(a.counters.get("serve.requests"), 0);
        assert_eq!(
            a.counters.get("serve.hits"),
            a.counters.get("cache.parse.hits")
                + a.counters.get("cache.slms.hits")
                + a.counters.get("cache.lir.hits")
                + a.counters.get("cache.compile.hits")
                + a.counters.get("cache.sim.hits")
        );
        // the emitted baseline gates cleanly against the run it came from
        let base = slc_trace::CounterBaseline::parse(&a.counters_json()).unwrap();
        assert!(slc_trace::check_counters(&b.counters, &base).is_empty());
        // and wall-clock never leaks into the registry
        assert!(a
            .counters
            .iter()
            .all(|(k, _)| !k.ends_with("_ns") && !k.ends_with("_ms")));
    }

    #[test]
    fn traced_run_matches_untraced_and_covers_stages() {
        let cfg = tiny_cfg();
        let plain = run_batch(&cfg);
        let tracer = Tracer::enabled();
        let traced = BatchEngine::new().run_traced(&cfg, &tracer);
        assert_eq!(
            plain.to_json(),
            traced.to_json(),
            "tracing must not change the report"
        );
        assert_eq!(plain.counters, traced.counters);
        let chrome = tracer.to_chrome_json().unwrap();
        let summary = slc_trace::validate_chrome_trace(&chrome).unwrap();
        for stage in ["batch.run", "parse", "plan", "lower", "compile", "simulate"] {
            assert!(
                summary.span_names.iter().any(|n| n == stage),
                "missing {stage} span in {:?}",
                summary.span_names
            );
        }
        // cell spans land on worker tracks, which are all named
        assert!(summary.tracks.iter().any(|&t| t >= 1));
        assert_eq!(summary.track_names[0].1, "main");
    }

    #[test]
    fn exact_plan_reports_gaps_and_counters() {
        let mut cfg = tiny_cfg();
        cfg.plan = PassPlan::exact_only();
        let rep = run_batch(&cfg);
        assert_eq!(rep.failed(), 0);
        let gaps = rep.optimality_gaps();
        assert!(!gaps.is_empty(), "exact run should certify some loops");
        assert!(gaps.iter().all(|(_, gs)| gs.iter().all(|&g| g >= 0)));
        assert_eq!(rep.positive_gap_count(), 0);
        assert!(rep.counters.get("exact.loops_scheduled") > 0);
        assert!(rep.counters.get("exact.optimal") > 0);
        assert!(rep.to_json().contains("optimality_gaps"));
        // heuristic runs keep the historical report shape and counters
        let heuristic = run_batch(&tiny_cfg());
        assert!(!heuristic.to_json().contains("optimality_gaps"));
        assert!(heuristic.optimality_gaps().is_empty());
        assert_eq!(heuristic.counters.get("exact.loops_scheduled"), 0);
    }

    /// The cell codec is pinned by the checked-in reports: decoding every
    /// cell's outcome and encoding it again reproduces both files byte for
    /// byte.
    #[test]
    fn cell_codec_reproduces_the_checked_in_reports() {
        use crate::service::{outcome_from_json, outcome_json};
        for text in [
            include_str!("../../../BENCH_batch.json"),
            include_str!("../../../BENCH_batch_exact.json"),
        ] {
            let mut doc = Json::parse(text).unwrap();
            let Json::Obj(members) = &mut doc else {
                panic!("report is not an object");
            };
            let Some((_, Json::Arr(cells))) = members.iter_mut().find(|(k, _)| k == "cells") else {
                panic!("report has no cell array");
            };
            for cell in cells.iter_mut() {
                let outcome = outcome_from_json(cell).unwrap();
                // the five identity members come first
                let id = Json::Obj(cell.as_obj().unwrap()[..5].to_vec());
                *cell = outcome_json(id, &outcome);
            }
            assert!(doc.to_pretty() == text, "re-encoded report differs");
        }
    }

    #[test]
    fn degraded_cell_does_not_poison_batch() {
        let mut cfg = tiny_cfg();
        cfg.workloads.push(Workload {
            name: "bad_while",
            suite: Suite::Paper,
            source: "float a[8]; int i; i = 0; while (i < 4) { a[i] = 1.0; i = i + 1; }",
        });
        let rep = run_batch(&cfg);
        let bad: Vec<_> = rep
            .cells
            .iter()
            .filter(|c| c.id.workload == "bad_while")
            .collect();
        assert_eq!(bad.len(), 2);
        for c in bad {
            let err = c.outcome.as_ref().unwrap_err();
            assert!(err.starts_with("lower:"), "{err}");
        }
        assert_eq!(rep.failed(), 2);
        assert_eq!(rep.completed(), rep.cells.len() - 2);
        // both bad_while cells look their cell artifact up (the untransformed
        // slms variant hits the orig one), but neither is simulated: this is
        // the one place the compile and sim statistics differ
        let (c, s) = (rep.cache.compile, rep.cache.sim);
        assert_eq!((c.hits, c.misses), (2, 16), "{:?}", rep.cache);
        assert_eq!((s.hits, s.misses), (1, 15), "{:?}", rep.cache);
    }

    #[test]
    fn batch_over_bounded_service_still_completes() {
        // a footprint-bounded engine re-misses evicted artifacts but every
        // cell still completes with the same metrics as the unbounded run
        let cfg = tiny_cfg();
        let unbounded = run_batch(&cfg);
        let engine = BatchEngine::from_service(CompileService::bounded(2));
        let bounded = engine.run(&cfg);
        assert_eq!(bounded.failed(), 0);
        for (a, b) in unbounded.cells.iter().zip(&bounded.cells) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.outcome.as_ref().map(|m| m.cycles).ok(),
                b.outcome.as_ref().map(|m| m.cycles).ok()
            );
        }
        // recompilation stayed reproducible under eviction pressure
        assert_eq!(bounded.cache.total_refp_mismatches(), 0);
    }
}
