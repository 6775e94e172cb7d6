//! Multi-process sharded execution tier for the batch engine.
//!
//! `slc batch --shards N` fork/execs `N` copies of the running binary in a
//! hidden `batch-shard` mode and drives them over an NDJSON pipe protocol
//! (`slc-shard-proto-v1`, one JSON object per line — the same framing the
//! `slc serve` daemon speaks). The parent keeps one shared queue of
//! unassigned cell ranges over the canonical workload-major matrix order,
//! and an idle shard takes ⌈unassigned ÷ (2·shards)⌉ cells from its front
//! (`next_slice`, guided self-scheduling). Early slices are long and
//! later ones shrink, so the shards finish close together without ever
//! taking work back from a busy shard. Contiguous slices are also
//! cache-affine: plan artifacts are keyed per workload and a workload's
//! cells are adjacent, so a shard rarely re-derives a plan artifact.
//!
//! Parent → shard: `init` (the batch config), `run {lo, hi}`, `shutdown`.
//! Shard → parent: `ready`; per range one `deltas` message followed by one
//! `cells` message that answers and closes the whole range; and a final
//! `stats` reply to `shutdown`.
//!
//! **Determinism contract.** The reduced [`BatchReport`] is byte-identical
//! to the in-process engine's for every shard count:
//!
//! * cell outcomes are pure functions of the cell spec, so they are merged
//!   back by matrix index regardless of which shard (or how many shards)
//!   computed them;
//! * cache statistics are *replayed*, not summed: each shard ships the
//!   store keys its evaluations looked up ([`CellKeys`]), and the reducer
//!   re-executes the lookup sequence in matrix order against fresh key
//!   sets ([`replay_cache`]). For unbounded stores hits = lookups −
//!   distinct keys, which is schedule-independent, so the replay
//!   reconstructs exactly what one process would have reported;
//! * the deterministic counter registry is rebuilt from per-(stage, key)
//!   miss deltas: a shard tags every plan- and sim-miss delta with the
//!   store key that produced it, the reducer deduplicates by key (two
//!   shards that both missed the same key computed identical deltas) and
//!   sums — which is precisely the single-process registry, where each
//!   distinct key misses exactly once;
//! * wall-clock, range latencies and reassignment counts are
//!   scheduling-dependent, so they live only in the `slc-batch-timing-v4`
//!   sidecar ([`crate::batch::ShardStats`]) — never in the canonical report.
//!
//! **Fault degradation.** A shard that dies mid-run (EOF on its pipe) or
//! emits a malformed line is marked dead, and its in-flight range goes
//! back to the front of the queue, ahead of every untouched cell. Because
//! deltas are flushed *before* the cells they explain, a dead shard can
//! never have reported a cell whose counter deltas were lost. If every
//! shard dies while work remains, the dispatcher appends a replacement
//! shard (bounded by a respawn budget) before giving up.

use crate::batch::{BatchConfig, BatchReport, ShardStats, TimingReport};
use crate::cache::{CacheReport, StoreStats};
use crate::compile::{CompilerKind, LoopInfo};
use crate::json::Json;
use crate::par::{effective_threads, par_map_indexed_stats, WorkerStats};
use crate::passes::PassPlan;
use crate::service::{
    finalize_counters, CellId, CellKeys, CellMetrics, CellResult, CellSpec, CompileService,
    PassTiming, StageNs, VerifySummary, STAGE_SIM,
};
use slc_core::{Expansion, FilterConfig, SchedulerKind, SlmsConfig};
use slc_machine::mach::{CacheConfig, IssueModel, MachineDesc};
use slc_sim::cycle::FfStats;
use slc_trace::{CounterRegistry, FlightRecorder, HistogramRegistry, Span, TraceCtx, Tracer};
use slc_workloads::{enumerate_matrix, MatrixCell, Suite, Workload};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of the parent↔shard NDJSON wire protocol.
pub const SHARD_PROTO_SCHEMA: &str = "slc-shard-proto-v1";

/// Schema tag of the sharding benchmark document (`BENCH_shard.json`).
pub const SHARD_BENCH_SCHEMA: &str = "slc-shard-bench-v1";

/// Fault injections for the degradation tests (never used by the normal
/// CLI path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// the shard aborts itself once it has evaluated this many cells, at
    /// the end of that range and before the range's `cells` message ships
    KillAfterCells(usize),
    /// the shard prints one malformed NDJSON line to the dispatcher once it
    /// has evaluated this many cells
    GarbageFromShard(usize),
    /// the dispatcher sends the shard one malformed NDJSON line instead of
    /// its first work range (the shard must exit with code 4)
    GarbageToShard,
}

/// Knobs of one sharded run.
#[derive(Debug, Clone, Default)]
pub struct ShardOptions {
    /// number of worker processes to spawn (must be ≥ 1)
    pub shards: usize,
    /// in-process map threads *per shard* (`None` = all cores)
    pub threads_per_shard: Option<usize>,
    /// how to exec a shard (`None` = the running binary + `batch-shard`);
    /// tests point this at `CARGO_BIN_EXE_slc`
    pub worker_cmd: Option<Vec<String>>,
    /// per-shard fault injections, `(shard index, fault)`; replacement
    /// shards are appended past the original fleet and run fault-free
    pub faults: Vec<(usize, ShardFault)>,
}

/// Guided self-scheduling: take ⌈unassigned ÷ (2·shards)⌉ cells off the
/// front range of `queue` (fewer when that range is shorter). Ranges a dead
/// shard gave back sit at the front, so they go out before untouched cells.
fn next_slice(queue: &mut VecDeque<(usize, usize)>, shards: usize) -> Option<(usize, usize)> {
    let unassigned: usize = queue.iter().map(|(lo, hi)| hi - lo).sum();
    let (lo, hi) = queue.pop_front().filter(|(lo, hi)| hi > lo)?;
    let end = hi.min(lo + unassigned.div_ceil(2 * shards.max(1)));
    if end < hi {
        queue.push_front((end, hi));
    }
    Some((lo, end))
}

// ---------------------------------------------------------------------------
// Wire codec. Every u64 store key / fingerprint crosses the pipe as its
// two's-complement i64 (the JSON layer carries i64; `as` casts roundtrip
// exactly), and every f64 as its IEEE bit pattern, so nothing is lost to
// decimal formatting.
// ---------------------------------------------------------------------------

fn ju(v: u64) -> Json {
    Json::Int(v as i64)
}

fn jf(v: f64) -> Json {
    ju(v.to_bits())
}

fn want<'a>(j: &'a Json, k: &str) -> Result<&'a Json, String> {
    j.get(k).ok_or_else(|| format!("missing field `{k}`"))
}

fn want_u(j: &Json, k: &str) -> Result<u64, String> {
    want(j, k)?
        .as_i64()
        .map(|v| v as u64)
        .ok_or_else(|| format!("field `{k}` is not an integer"))
}

fn want_usize(j: &Json, k: &str) -> Result<usize, String> {
    Ok(want_u(j, k)? as usize)
}

fn want_f(j: &Json, k: &str) -> Result<f64, String> {
    Ok(f64::from_bits(want_u(j, k)?))
}

fn want_s<'a>(j: &'a Json, k: &str) -> Result<&'a str, String> {
    want(j, k)?
        .as_str()
        .ok_or_else(|| format!("field `{k}` is not a string"))
}

fn want_b(j: &Json, k: &str) -> Result<bool, String> {
    match want(j, k)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field `{k}` is not a bool")),
    }
}

fn want_arr<'a>(j: &'a Json, k: &str) -> Result<&'a [Json], String> {
    want(j, k)?
        .as_arr()
        .ok_or_else(|| format!("field `{k}` is not an array"))
}

/// A string field decoded through an enum's `from_label`.
fn want_label<T>(j: &Json, k: &str, from_label: fn(&str) -> Option<T>) -> Result<T, String> {
    let label = want_s(j, k)?;
    from_label(label).ok_or_else(|| format!("unknown {k} `{label}`"))
}

fn opt_u(j: &Json, k: &str) -> Option<u64> {
    j.get(k).and_then(Json::as_i64).map(|v| v as u64)
}

fn msg_type(j: &Json) -> &str {
    j.get("type").and_then(Json::as_str).unwrap_or("")
}

fn machine_json(m: &MachineDesc) -> Json {
    Json::obj()
        .field("name", m.name.as_str())
        .field(
            "issue",
            match m.issue {
                IssueModel::StaticVliw => "vliw",
                IssueModel::DynamicInOrder => "inorder",
            },
        )
        .field("issue_width", m.issue_width)
        .field(
            "units",
            Json::Arr(m.units.iter().map(|&u| Json::from(u)).collect()),
        )
        .field(
            "latency",
            Json::Arr(m.latency.iter().map(|&l| Json::from(l)).collect()),
        )
        .field("int_regs", m.int_regs)
        .field("fp_regs", m.fp_regs)
        .field(
            "cache",
            Json::obj()
                .field("size", m.cache.size)
                .field("line", m.cache.line)
                .field("ways", m.cache.ways)
                .field("miss_penalty", m.cache.miss_penalty),
        )
        .field("elem_bytes", m.elem_bytes)
        .field("spill_penalty", m.spill_penalty)
}

fn decode_machine(j: &Json) -> Result<MachineDesc, String> {
    let mut units = [0usize; 7];
    let mut latency = [0u32; 7];
    let ua = want_arr(j, "units")?;
    let la = want_arr(j, "latency")?;
    if ua.len() != 7 || la.len() != 7 {
        return Err("machine unit/latency tables must have 7 entries".into());
    }
    for i in 0..7 {
        units[i] = ua[i].as_i64().ok_or("bad unit entry")? as usize;
        latency[i] = la[i].as_i64().ok_or("bad latency entry")? as u32;
    }
    let cache = want(j, "cache")?;
    let m = MachineDesc {
        name: want_s(j, "name")?.to_string(),
        issue: match want_s(j, "issue")? {
            "vliw" => IssueModel::StaticVliw,
            "inorder" => IssueModel::DynamicInOrder,
            other => return Err(format!("unknown issue model `{other}`")),
        },
        issue_width: want_usize(j, "issue_width")?,
        units,
        latency,
        int_regs: want_usize(j, "int_regs")?,
        fp_regs: want_usize(j, "fp_regs")?,
        cache: CacheConfig {
            size: want_usize(cache, "size")?,
            line: want_usize(cache, "line")?,
            ways: want_usize(cache, "ways")?,
            miss_penalty: want_u(cache, "miss_penalty")? as u32,
        },
        elem_bytes: want_usize(j, "elem_bytes")?,
        spill_penalty: want_u(j, "spill_penalty")? as u32,
    };
    m.validate().map_err(|e| e.to_string())?;
    Ok(m)
}

fn slms_json(s: &SlmsConfig) -> Json {
    Json::obj()
        .field("max_memref_ratio", jf(s.filter.max_memref_ratio))
        .field(
            "min_arith_per_ref",
            s.filter.min_arith_per_ref.map(|r| ju(r.to_bits())),
        )
        .field("apply_filter", s.apply_filter)
        .field("expansion", s.expansion.label())
        .field("if_conversion", s.if_conversion)
        .field("max_decompositions", s.max_decompositions)
        .field("allow_symbolic_guard", s.allow_symbolic_guard)
        .field("scheduler", s.scheduler.label())
}

fn decode_slms(j: &Json) -> Result<SlmsConfig, String> {
    Ok(SlmsConfig {
        filter: FilterConfig {
            max_memref_ratio: want_f(j, "max_memref_ratio")?,
            min_arith_per_ref: opt_u(j, "min_arith_per_ref").map(f64::from_bits),
        },
        apply_filter: want_b(j, "apply_filter")?,
        expansion: want_label(j, "expansion", Expansion::from_label)?,
        if_conversion: want_b(j, "if_conversion")?,
        max_decompositions: want_usize(j, "max_decompositions")?,
        allow_symbolic_guard: want_b(j, "allow_symbolic_guard")?,
        scheduler: want_label(j, "scheduler", SchedulerKind::from_label)?,
    })
}

fn init_json(cfg: &BatchConfig, threads: Option<usize>, ctx: Option<TraceCtx>) -> Json {
    let mut j = Json::obj()
        .field("type", "init")
        .field("schema", SHARD_PROTO_SCHEMA)
        .field("threads", threads.unwrap_or(0))
        .field("trace", ctx.is_some());
    if let Some(c) = ctx {
        // trace-context propagation: the worker binds the same trace id so
        // its span dump stitches into the dispatcher's timeline
        j = j
            .field("trace_id", c.trace_id_hex())
            .field("parent_span", c.parent_span_hex());
    }
    j.field("verify", cfg.verify)
        .field("plan", cfg.plan.to_string())
        .field("slms", slms_json(&cfg.slms))
        .field(
            "workloads",
            Json::Arr(
                cfg.workloads
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .field("name", w.name)
                            .field("suite", w.suite.label())
                            .field("source", w.source)
                    })
                    .collect(),
            ),
        )
        .field(
            "machines",
            Json::Arr(cfg.machines.iter().map(machine_json).collect()),
        )
        .field(
            "compilers",
            Json::Arr(
                cfg.compilers
                    .iter()
                    .map(|c| Json::from(c.label()))
                    .collect(),
            ),
        )
}

fn decode_init(j: &Json) -> Result<(BatchConfig, Option<usize>, Option<TraceCtx>), String> {
    if want_s(j, "schema")? != SHARD_PROTO_SCHEMA {
        return Err(format!("unknown shard protocol `{}`", want_s(j, "schema")?));
    }
    // trace fields are read tolerantly: an init without them (an older
    // dispatcher) is simply an untraced worker
    let ctx = match (
        matches!(j.get("trace"), Some(Json::Bool(true))),
        j.get("trace_id").and_then(Json::as_str),
        j.get("parent_span").and_then(Json::as_str),
    ) {
        (true, Some(tid), Some(ps)) => Some(TraceCtx::from_hex(tid, ps)?),
        _ => None,
    };
    let mut workloads = Vec::new();
    for w in want_arr(j, "workloads")? {
        // Workload holds &'static str (the stock suites are compiled in);
        // a shard receives arbitrary sources once per process, so leaking
        // them is bounded and buys us the unmodified Workload type.
        workloads.push(Workload {
            name: Box::leak(want_s(w, "name")?.to_string().into_boxed_str()),
            suite: want_label(w, "suite", Suite::from_label)?,
            source: Box::leak(want_s(w, "source")?.to_string().into_boxed_str()),
        });
    }
    let mut machines = Vec::new();
    for m in want_arr(j, "machines")? {
        machines.push(decode_machine(m)?);
    }
    let mut compilers = Vec::new();
    for c in want_arr(j, "compilers")? {
        let label = c.as_str();
        compilers.push(
            label
                .and_then(CompilerKind::from_label)
                .ok_or_else(|| format!("unknown compiler label {label:?}"))?,
        );
    }
    let plan_text = want_s(j, "plan")?;
    let plan = PassPlan::parse(plan_text).map_err(|e| format!("bad plan `{plan_text}`: {e}"))?;
    let threads = match want_u(j, "threads")? as usize {
        0 => None,
        t => Some(t),
    };
    Ok((
        BatchConfig {
            workloads,
            machines,
            compilers,
            slms: decode_slms(want(j, "slms")?)?,
            plan,
            threads,
            verify: want_b(j, "verify")?,
        },
        threads,
        ctx,
    ))
}

fn keys_json(k: &CellKeys) -> Json {
    Json::obj()
        .field("parse", ju(k.parse))
        .field("plan", k.plan.map(ju))
        .field("compile", k.compile.map(ju))
        .field("lir", k.lir.map(ju))
        .field("sim", k.sim.map(ju))
}

fn decode_keys(j: &Json) -> Result<CellKeys, String> {
    Ok(CellKeys {
        parse: want_u(j, "parse")?,
        plan: opt_u(j, "plan"),
        compile: opt_u(j, "compile"),
        lir: opt_u(j, "lir"),
        sim: opt_u(j, "sim"),
    })
}

fn cell_json(index: usize, res: &CellResult, keys: &CellKeys) -> Json {
    let base = Json::obj()
        .field("index", index)
        .field("keys", keys_json(keys));
    match &res.outcome {
        Err(e) => base.field("ok", false).field("error", e.as_str()),
        Ok(m) => base
            .field("ok", true)
            .field("cycles", ju(m.cycles))
            .field("ops", ju(m.ops))
            .field("l1_hits", ju(m.l1_hits))
            .field("l1_misses", ju(m.l1_misses))
            .field("spill_accesses", ju(m.spill_accesses))
            .field("energy", jf(m.energy))
            .field("transformed", m.transformed)
            .field("slms_ii", m.slms_ii)
            .field(
                "gaps",
                Json::Arr(m.optimality_gaps.iter().map(|&g| Json::from(g)).collect()),
            )
            .field(
                "loops",
                Json::Arr(
                    m.loops
                        .iter()
                        .map(|l| {
                            Json::obj()
                                .field("var", l.var.as_str())
                                .field("trips", l.trips)
                                .field("bundles_per_iter", l.bundles_per_iter)
                                .field("ms_applied", l.ms_applied)
                                .field("ii", l.ii)
                                .field("stages", l.stages)
                                .field("reg_pressure", l.reg_pressure)
                                .field("spilled", l.spilled)
                        })
                        .collect(),
                ),
            ),
    }
}

type WireCell = (usize, Result<CellMetrics, String>, CellKeys);

fn decode_cell(j: &Json) -> Result<WireCell, String> {
    let index = want_usize(j, "index")?;
    let keys = decode_keys(want(j, "keys")?)?;
    if !want_b(j, "ok")? {
        return Ok((index, Err(want_s(j, "error")?.to_string()), keys));
    }
    let mut loops = Vec::new();
    for l in want_arr(j, "loops")? {
        loops.push(LoopInfo {
            var: want_s(l, "var")?.to_string(),
            trips: want(l, "trips")?.as_i64().ok_or("bad trips")?,
            bundles_per_iter: want_usize(l, "bundles_per_iter")?,
            ms_applied: want_b(l, "ms_applied")?,
            ii: l.get("ii").and_then(Json::as_i64),
            stages: l.get("stages").and_then(Json::as_i64),
            reg_pressure: want_usize(l, "reg_pressure")?,
            spilled: want_usize(l, "spilled")?,
        });
    }
    let gaps = want_arr(j, "gaps")?
        .iter()
        .map(|g| g.as_i64().ok_or_else(|| "bad gap".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        index,
        Ok(CellMetrics {
            cycles: want_u(j, "cycles")?,
            ops: want_u(j, "ops")?,
            l1_hits: want_u(j, "l1_hits")?,
            l1_misses: want_u(j, "l1_misses")?,
            spill_accesses: want_u(j, "spill_accesses")?,
            energy: want_f(j, "energy")?,
            transformed: want_b(j, "transformed")?,
            slms_ii: j.get("slms_ii").and_then(Json::as_i64),
            optimality_gaps: gaps,
            loops,
        }),
        keys,
    ))
}

fn deltas_json(entries: &[(u8, u64, CounterRegistry)], verify: &[VerifySummary]) -> Json {
    Json::obj()
        .field("type", "deltas")
        .field(
            "entries",
            Json::Arr(
                entries
                    .iter()
                    .map(|(stage, key, reg)| {
                        let mut counters = Json::obj();
                        for (name, v) in reg.iter() {
                            counters = counters.field(name, ju(v));
                        }
                        Json::obj()
                            .field("stage", *stage as u64)
                            .field("key", ju(*key))
                            .field("counters", counters)
                    })
                    .collect(),
            ),
        )
        .field(
            "verify",
            Json::Arr(
                verify
                    .iter()
                    .map(|v| {
                        Json::obj()
                            .field("workload", v.workload.as_str())
                            .field("verified", v.verified)
                            .field("skipped", v.skipped)
                            .field("obligations", v.obligations)
                            .field("violations", v.violations)
                    })
                    .collect(),
            ),
        )
}

/// CPU time this process has consumed, in nanoseconds (scheduler runtime
/// from `/proc/self/schedstat`, falling back to `utime + stime` ticks from
/// `/proc/self/stat`; 0 when neither is readable). Shards report this so
/// the shard-count sweep can quote a per-shard critical path that is not
/// distorted by time-slicing when shards outnumber cores.
fn self_cpu_ns() -> u64 {
    if let Ok(s) = std::fs::read_to_string("/proc/self/schedstat") {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return ns;
        }
    }
    if let Ok(s) = std::fs::read_to_string("/proc/self/stat") {
        // fields 14/15 (utime/stime) counted after the parenthesised comm,
        // which may itself contain spaces
        if let Some(rest) = s.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = f.get(11).and_then(|x| x.parse().ok()).unwrap_or(0);
            let stime: u64 = f.get(12).and_then(|x| x.parse().ok()).unwrap_or(0);
            return (utime + stime) * 10_000_000;
        }
    }
    0
}

fn stats_json(
    workers: &[WorkerStats],
    stage: &StageNs,
    passes: &[PassTiming],
    cpu_ns: u64,
    span_dump: Option<String>,
) -> Json {
    let mut j = Json::obj().field("type", "stats").field("cpu", ju(cpu_ns));
    if let Some(dump) = span_dump {
        j = j.field("span_dump", dump);
    }
    j.field(
        "workers",
        Json::Arr(
            workers
                .iter()
                .map(|w| {
                    Json::obj()
                        .field("worker", w.worker)
                        .field("claimed", ju(w.claimed))
                        .field("empty_polls", ju(w.empty_polls))
                        .field("busy_ns", ju(w.busy_ns))
                })
                .collect(),
        ),
    )
    .field(
        "stage",
        Json::obj()
            .field("parse", ju(stage.parse))
            .field("slms", ju(stage.slms))
            .field("lower", ju(stage.lower))
            .field("compile", ju(stage.compile))
            .field("sim", ju(stage.sim)),
    )
    .field(
        "passes",
        Json::Arr(
            passes
                .iter()
                .map(|p| {
                    Json::obj()
                        .field("pass", p.pass.as_str())
                        .field("ns", ju(p.ns))
                        .field("runs", ju(p.runs))
                })
                .collect(),
        ),
    )
}

// ---------------------------------------------------------------------------
// The deterministic reducer.
// ---------------------------------------------------------------------------

/// Re-execute the store-lookup sequence of every cell, in matrix order,
/// against fresh key sets. Because each evaluation's lookups (and their
/// hit/miss outcome against "has this key been computed yet") are pure
/// functions of the key history — waiters on an in-flight computation count
/// as hits, so totals are order-independent for unbounded stores — this
/// rebuilds exactly the [`CacheReport`] a single process reports.
pub(crate) fn replay_cache<'a>(keys: impl Iterator<Item = &'a CellKeys>) -> CacheReport {
    struct Store {
        seen: HashSet<u64>,
        stats: StoreStats,
    }
    impl Store {
        fn new() -> Store {
            Store {
                seen: HashSet::new(),
                stats: StoreStats::default(),
            }
        }
        /// Replay one lookup; returns true on miss (first sight of the key).
        fn look(&mut self, key: u64) -> bool {
            if self.seen.insert(key) {
                self.stats.misses += 1;
                true
            } else {
                self.stats.hits += 1;
                false
            }
        }
    }
    let (mut parse, mut slms, mut lir, mut compile, mut sim) = (
        Store::new(),
        Store::new(),
        Store::new(),
        Store::new(),
        Store::new(),
    );
    for k in keys {
        parse.look(k.parse);
        if let Some(p) = k.plan {
            slms.look(p);
        }
        if let Some(c) = k.compile {
            // the LIR store is only consulted inside a compile miss
            if compile.look(c) {
                if let Some(l) = k.lir {
                    lir.look(l);
                }
            }
        }
        if let Some(s) = k.sim {
            sim.look(s);
        }
    }
    CacheReport {
        parse: parse.stats,
        slms: slms.stats,
        lir: lir.stats,
        compile: compile.stats,
        sim: sim.stats,
    }
}

/// Rebuild the deterministic registry and steady-state counters from the
/// deduplicated per-(stage, key) miss deltas plus the replayed cache
/// report. Summing one delta per distinct key is exactly what the
/// single-process registry accumulated, since each key misses once there.
fn reduce_counters(
    deltas: &BTreeMap<(u8, u64), CounterRegistry>,
    cache: &CacheReport,
) -> (CounterRegistry, FfStats) {
    let mut base = CounterRegistry::new();
    let mut ff = FfStats::default();
    for ((stage, _), reg) in deltas {
        base.merge(reg);
        if *stage == STAGE_SIM {
            ff.fast_loops += reg.get("sim.fast_loops");
            ff.fallback_loops += reg.get("sim.fallback_loops");
            ff.ff_hits += reg.get("sim.ff_hits");
            ff.ff_misses += reg.get("sim.ff_misses");
            ff.trips_total += reg.get("sim.trips_total");
            ff.trips_skipped += reg.get("sim.trips_skipped");
        }
    }
    (finalize_counters(base, cache, 0, 0, 0), ff)
}

fn cell_id(cfg: &BatchConfig, cell: &MatrixCell) -> CellId {
    let w = &cfg.workloads[cell.workload];
    CellId {
        workload: w.name.to_string(),
        suite: w.suite.to_string(),
        machine: cfg.machines[cell.machine].name.clone(),
        compiler: cfg.compilers[cell.compiler].label(),
        variant: cell.variant.label(),
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (sorted.len() - 1) as f64 * q;
    sorted[pos.round() as usize]
}

// ---------------------------------------------------------------------------
// The dispatcher.
// ---------------------------------------------------------------------------

enum Ev {
    Line(String),
    Eof,
}

struct Slot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// the thread forwarding the child's stdout lines to the dispatcher
    reader: Option<JoinHandle<()>>,
    ready: bool,
    poison_next: bool,
    inflight: Option<(usize, usize, Instant)>,
    span: Option<Span>,
    chunk_ms: Vec<f64>,
    stats: ShardStats,
    /// newest flight-recorder tail the worker shipped with a `deltas`
    /// message — becomes `stats.flight` if the shard dies
    last_flight: Option<String>,
}

impl Slot {
    /// Best effort: a shard whose pipe is gone surfaces as EOF on its
    /// stdout, and the dispatcher quarantines it there.
    fn send(&mut self, line: &str) {
        if let Some(stdin) = self.stdin.as_mut() {
            let _ = writeln!(stdin, "{line}").and_then(|_| stdin.flush());
        }
    }

    fn reap(&mut self) {
        self.stdin = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        // the child's stdout is closed now, so the reader is at EOF
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// No shard outlives its dispatcher, on error paths too.
impl Drop for Slot {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Every shard slot ever spawned plus the one queue of unassigned cell
/// ranges. A replacement shard is appended, so a slot index names one
/// process for the whole run and late lines from a dead one are ignored.
struct Fleet<'t> {
    slots: Vec<Slot>,
    queue: VecDeque<(usize, usize)>,
    /// the original fleet size, the divisor of the slicing rule
    shards: usize,
    /// end of the highest range handed out so far: a slice below it is
    /// work taken over from a dead shard
    handed_out: usize,
    tracer: &'t Tracer,
}

impl Fleet<'_> {
    /// Hand every alive, ready and idle shard its next slice.
    fn dispatch(&mut self) {
        for (s, slot) in self.slots.iter_mut().enumerate() {
            if !slot.stats.alive || !slot.ready || slot.inflight.is_some() {
                continue;
            }
            let Some((lo, hi)) = next_slice(&mut self.queue, self.shards) else {
                return;
            };
            if lo < self.handed_out {
                slot.stats.steals_received += 1;
            }
            self.handed_out = self.handed_out.max(hi);
            let tracer = self.tracer;
            if tracer.is_enabled() {
                tracer.set_process_track(s as u32 + 2, &format!("shard-{s}"));
                let mut span = tracer.span_dyn("shard", || format!("cells {lo}..{hi}"));
                span.arg("shard", s);
                span.arg("cells", hi - lo);
                tracer.set_process_track(1, "slc");
                slot.span = Some(span);
            }
            slot.inflight = Some((lo, hi, Instant::now()));
            slot.stats.chunks += 1;
            if std::mem::take(&mut slot.poison_next) {
                // fault injection: an unparseable line in place of the
                // range; the shard must exit(4), which surfaces as EOF
                slot.send("{\"type\":");
            } else {
                let run = Json::obj()
                    .field("type", "run")
                    .field("lo", lo)
                    .field("hi", hi);
                slot.send(&run.to_string());
            }
        }
    }

    /// Quarantine shard `s`: its last flight tail becomes its black box,
    /// the process is reaped, and its in-flight range (none of which was
    /// reported — a range's cells come back in one message) returns to the
    /// front of the queue.
    fn kill(&mut self, s: usize) {
        let slot = &mut self.slots[s];
        slot.stats.alive = false;
        slot.stats.flight = slot.last_flight.take();
        slot.span = None;
        slot.reap();
        if let Some((lo, hi, _)) = slot.inflight.take() {
            self.queue.push_front((lo, hi));
        }
    }
}

type Outcome = (Result<CellMetrics, String>, CellKeys);

/// Record a `cells` message, which must answer the shard's in-flight range
/// exactly, in order, and closes it. Returns the number of cells recorded,
/// or `None` on a protocol fault.
fn close_range(msg: &Json, slot: &mut Slot, results: &mut [Option<Outcome>]) -> Option<usize> {
    let (lo, hi, t_disp) = slot.inflight?;
    let cells = want_arr(msg, "cells")
        .ok()?
        .iter()
        .map(decode_cell)
        .collect::<Result<Vec<_>, _>>()
        .ok()?;
    if cells.len() != hi - lo || cells.iter().zip(lo..hi).any(|(c, i)| c.0 != i) {
        return None;
    }
    for (i, outcome, keys) in cells {
        results[i] = Some((outcome, keys));
    }
    slot.inflight = None;
    slot.span = None;
    slot.chunk_ms.push(t_disp.elapsed().as_secs_f64() * 1e3);
    slot.stats.cells += (hi - lo) as u64;
    Some(hi - lo)
}

/// Merge a `deltas` message: per-key counter deltas (first writer wins —
/// two shards that missed one key computed the same delta) and verify
/// verdicts.
fn absorb_deltas(
    msg: &Json,
    delta_map: &mut BTreeMap<(u8, u64), CounterRegistry>,
    verify_map: &mut BTreeMap<String, VerifySummary>,
) {
    for e in want_arr(msg, "entries").unwrap_or_default() {
        let (Ok(stage), Ok(key), Ok(counters)) =
            (want_u(e, "stage"), want_u(e, "key"), want(e, "counters"))
        else {
            continue;
        };
        delta_map.entry((stage as u8, key)).or_insert_with(|| {
            let mut reg = CounterRegistry::new();
            for (name, v) in counters.as_obj().unwrap_or_default() {
                if let Some(x) = v.as_i64() {
                    reg.add(name, x as u64);
                }
            }
            reg
        });
    }
    for v in want_arr(msg, "verify").unwrap_or_default() {
        if let Ok(sum) = decode_verify(v) {
            verify_map.entry(sum.workload.clone()).or_insert(sum);
        }
    }
}

/// Evaluate the whole matrix across `opts.shards` worker processes and
/// reduce to a [`BatchReport`] byte-identical to the in-process engine's
/// (see the module docs for why). Only wall-clock and dispatch accounting
/// differ: `timing.shards` is populated and the top-level worker list is
/// empty (each shard carries its own).
pub fn run_sharded(
    cfg: &BatchConfig,
    opts: &ShardOptions,
    tracer: &Tracer,
) -> Result<BatchReport, String> {
    if opts.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let cells = enumerate_matrix(cfg.workloads.len(), cfg.machines.len(), cfg.compilers.len());
    let n = cells.len();
    let cmd: Vec<String> = match &opts.worker_cmd {
        Some(c) if !c.is_empty() => c.clone(),
        _ => vec![
            std::env::current_exe()
                .map_err(|e| format!("cannot locate own binary: {e}"))?
                .to_string_lossy()
                .into_owned(),
            "batch-shard".into(),
        ],
    };
    // bind (or mint) the trace context so every worker's spans share one
    // trace id with the dispatcher's
    let ctx = if tracer.is_enabled() {
        let c = tracer.ctx().unwrap_or_else(TraceCtx::fresh);
        tracer.set_ctx(c);
        tracer.ctx()
    } else {
        None
    };
    let init_line = init_json(cfg, opts.threads_per_shard, ctx).to_string();

    tracer.set_thread_track(0, "main");
    let mut batch_span = tracer.span("batch", "batch.run");
    batch_span.arg("cells", n);
    batch_span.arg("shards", opts.shards);
    let t0 = Instant::now();

    let (tx, rx) = mpsc::channel::<(usize, Ev)>();
    let spawn = |s: usize| -> Result<Slot, String> {
        let mut c = Command::new(&cmd[0]);
        c.args(&cmd[1..]);
        let faults = opts.faults.iter().filter(|(idx, _)| *idx == s);
        for (_, fault) in faults.clone() {
            match fault {
                ShardFault::KillAfterCells(k) => {
                    c.arg("--fail-after").arg(k.to_string());
                }
                ShardFault::GarbageFromShard(k) => {
                    c.arg("--garbage-after").arg(k.to_string());
                }
                ShardFault::GarbageToShard => {}
            }
        }
        let mut child = c
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning shard {s} ({}): {e}", cmd[0]))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = tx.clone();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(l) = line else { break };
                if tx.send((s, Ev::Line(l))).is_err() {
                    return;
                }
            }
            let _ = tx.send((s, Ev::Eof));
        });
        let mut slot = Slot {
            child: Some(child),
            stdin,
            reader: Some(reader),
            ready: false,
            poison_next: faults
                .clone()
                .any(|(_, f)| *f == ShardFault::GarbageToShard),
            inflight: None,
            span: None,
            chunk_ms: Vec::new(),
            stats: ShardStats {
                shard: s,
                alive: true,
                ..ShardStats::default()
            },
            last_flight: None,
        };
        slot.send(&init_line);
        Ok(slot)
    };

    let mut fleet = Fleet {
        slots: (0..opts.shards).map(&spawn).collect::<Result<_, _>>()?,
        queue: VecDeque::from([(0, n)]),
        shards: opts.shards,
        handed_out: 0,
        tracer,
    };
    let mut results: Vec<Option<Outcome>> = vec![None; n];
    let mut done_cells = 0usize;
    let mut delta_map: BTreeMap<(u8, u64), CounterRegistry> = BTreeMap::new();
    let mut verify_map: BTreeMap<String, VerifySummary> = BTreeMap::new();
    let mut respawns_left = 2 * opts.shards;

    while done_cells < n {
        if !fleet.slots.iter().any(|sl| sl.stats.alive) {
            // every shard is gone with work outstanding: append a recovery
            // shard or give up
            if respawns_left == 0 {
                return Err(format!(
                    "all shards died with {} of {n} cells outstanding",
                    n - done_cells
                ));
            }
            respawns_left -= 1;
            let replacement = spawn(fleet.slots.len())?;
            fleet.slots.push(replacement);
        }
        let (s, ev) = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "shard dispatcher stalled waiting for worker output".to_string())?;
        if !fleet.slots[s].stats.alive {
            continue; // a quarantined shard's late output
        }
        // EOF or a malformed line quarantines the shard
        let msg = match ev {
            Ev::Line(l) => Json::parse(&l).ok(),
            Ev::Eof => None,
        };
        let healthy = msg.is_some_and(|msg| match msg_type(&msg) {
            "ready" => {
                fleet.slots[s].ready = true;
                true
            }
            "deltas" => {
                absorb_deltas(&msg, &mut delta_map, &mut verify_map);
                if let Some(f) = msg.get("flight").and_then(Json::as_str) {
                    fleet.slots[s].last_flight = Some(f.to_string());
                }
                true
            }
            "cells" => match close_range(&msg, &mut fleet.slots[s], &mut results) {
                Some(k) => {
                    done_cells += k;
                    true
                }
                None => false,
            },
            _ => true,
        });
        if !healthy {
            fleet.kill(s);
        }
        fleet.dispatch();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    drop(batch_span);

    // graceful shutdown: collect per-shard wall-clock stats
    let mut slots = fleet.slots;
    let mut awaiting: BTreeSet<usize> =
        (0..slots.len()).filter(|&s| slots[s].stats.alive).collect();
    for &s in &awaiting {
        slots[s].send("{\"type\":\"shutdown\"}");
    }
    let mut pass_map: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    while !awaiting.is_empty() {
        let Ok((s, ev)) = rx.recv_timeout(Duration::from_secs(30)) else {
            break;
        };
        let Ev::Line(l) = ev else {
            awaiting.remove(&s);
            continue;
        };
        let Ok(msg) = Json::parse(&l) else { continue };
        if msg_type(&msg) == "stats" && awaiting.remove(&s) {
            apply_stats(&mut slots[s].stats, &msg, &mut pass_map);
            // merge the worker's span dump into the one timeline: its
            // spans land under this shard's synthetic process, tids
            // shifted past the dispatcher's own tid-0 range row
            if let Some(dump) = msg.get("span_dump").and_then(Json::as_str) {
                let _ = tracer.import_process_dump(dump, s as u32 + 2, &format!("shard-{s}"));
            }
        }
    }
    // reduce
    let mut out_cells = Vec::with_capacity(n);
    let mut keyed = Vec::with_capacity(n);
    for (i, r) in results.into_iter().enumerate() {
        let (outcome, keys) = r.ok_or_else(|| format!("cell {i} never reported"))?;
        out_cells.push(CellResult {
            id: cell_id(cfg, &cells[i]),
            outcome,
        });
        keyed.push(keys);
    }
    let cache = replay_cache(keyed.iter());
    let (counters, steady) = reduce_counters(&delta_map, &cache);
    let stage_total = slots.iter().fold(StageNs::default(), |acc, sl| StageNs {
        parse: acc.parse + sl.stats.stage.parse,
        slms: acc.slms + sl.stats.stage.slms,
        lower: acc.lower + sl.stats.stage.lower,
        compile: acc.compile + sl.stats.stage.compile,
        sim: acc.sim + sl.stats.stage.sim,
    });
    let shard_stats: Vec<ShardStats> = slots
        .iter_mut()
        .map(|sl| {
            let mut ms = std::mem::take(&mut sl.chunk_ms);
            ms.sort_by(|a, b| a.total_cmp(b));
            ShardStats {
                chunk_ms_p50: percentile(&ms, 0.50),
                chunk_ms_p99: percentile(&ms, 0.99),
                ..std::mem::take(&mut sl.stats)
            }
        })
        .collect();
    Ok(BatchReport {
        cells: out_cells,
        cache,
        counters,
        histograms: HistogramRegistry::new(),
        timing: TimingReport {
            threads: effective_threads(opts.threads_per_shard, n),
            wall_ns,
            parse_ns: stage_total.parse,
            slms_ns: stage_total.slms,
            lower_ns: stage_total.lower,
            compile_ns: stage_total.compile,
            sim_ns: stage_total.sim,
            passes: pass_map
                .into_iter()
                .map(|(pass, (ns, runs))| PassTiming { pass, ns, runs })
                .collect(),
            verify: verify_map.into_values().collect(),
            steady,
            workers: Vec::new(),
            shards: shard_stats,
            wall_hist: HistogramRegistry::new(),
        },
    })
}

fn decode_verify(j: &Json) -> Result<VerifySummary, String> {
    Ok(VerifySummary {
        workload: want_s(j, "workload")?.to_string(),
        verified: want_usize(j, "verified")?,
        skipped: want_usize(j, "skipped")?,
        obligations: want_usize(j, "obligations")?,
        violations: want_usize(j, "violations")?,
    })
}

fn apply_stats(stats: &mut ShardStats, msg: &Json, pass_map: &mut BTreeMap<String, (u64, u64)>) {
    if let Ok(ws) = want_arr(msg, "workers") {
        stats.workers = ws
            .iter()
            .filter_map(|w| {
                Some(WorkerStats {
                    worker: want_usize(w, "worker").ok()?,
                    claimed: want_u(w, "claimed").ok()?,
                    empty_polls: want_u(w, "empty_polls").ok()?,
                    busy_ns: want_u(w, "busy_ns").ok()?,
                })
            })
            .collect();
    }
    if let Ok(st) = want(msg, "stage") {
        stats.stage = StageNs {
            parse: opt_u(st, "parse").unwrap_or(0),
            slms: opt_u(st, "slms").unwrap_or(0),
            lower: opt_u(st, "lower").unwrap_or(0),
            compile: opt_u(st, "compile").unwrap_or(0),
            sim: opt_u(st, "sim").unwrap_or(0),
        };
    }
    stats.cpu_ms = opt_u(msg, "cpu").unwrap_or(0) as f64 / 1e6;
    for p in want_arr(msg, "passes").unwrap_or_default() {
        if let (Ok(name), Some(ns), Some(runs)) =
            (want_s(p, "pass"), opt_u(p, "ns"), opt_u(p, "runs"))
        {
            let e = pass_map.entry(name.to_string()).or_insert((0, 0));
            e.0 += ns;
            e.1 += runs;
        }
    }
}

// ---------------------------------------------------------------------------
// The worker side (`slc batch-shard`, hidden).
// ---------------------------------------------------------------------------

fn emit(j: &Json) -> bool {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{j}").and_then(|_| out.flush()).is_ok()
}

struct WorkerState {
    svc: CompileService,
    cfg: BatchConfig,
    cells: Vec<MatrixCell>,
    threads: usize,
    workers: BTreeMap<usize, WorkerStats>,
    evaluated: u64,
    verify_sent: BTreeSet<String>,
    /// enabled (and bound to the dispatcher's trace context) when the init
    /// message carried trace fields; its span dump rides the shutdown
    /// stats reply back to the dispatcher
    tracer: Tracer,
}

impl WorkerState {
    fn new(cfg: BatchConfig, threads: Option<usize>, ctx: Option<TraceCtx>) -> WorkerState {
        let svc = CompileService::new();
        svc.enable_attribution();
        let tracer = match ctx {
            Some(c) => {
                let t = Tracer::enabled();
                t.set_ctx(c);
                t
            }
            None => Tracer::disabled(),
        };
        WorkerState {
            svc,
            cells: enumerate_matrix(cfg.workloads.len(), cfg.machines.len(), cfg.compilers.len()),
            threads: effective_threads(threads, usize::MAX / 2),
            cfg,
            workers: BTreeMap::new(),
            evaluated: 0,
            verify_sent: BTreeSet::new(),
            tracer,
        }
    }

    fn stats_reply(&self) -> Json {
        let workers: Vec<WorkerStats> = self.workers.values().cloned().collect();
        stats_json(
            &workers,
            &self.svc.stage_ns(),
            &self.svc.pass_timings(),
            self_cpu_ns(),
            self.tracer.export_process_dump("shard-worker"),
        )
    }

    /// The counter deltas and newly recorded verify verdicts of the range
    /// just evaluated, plus a bounded flight-recorder tail: the dispatcher
    /// keeps only the newest, and if this process dies (abort, OOM-kill)
    /// that snapshot is its black box.
    fn deltas_reply(&mut self) -> Json {
        let entries = self.svc.take_attribution();
        let mut fresh = Vec::new();
        for v in self.svc.verify_summaries() {
            if self.verify_sent.insert(v.workload.clone()) {
                fresh.push(v);
            }
        }
        deltas_json(&entries, &fresh).field("flight", FlightRecorder::global().dump_jsonl_tail(64))
    }
}

/// The hidden `batch-shard` subcommand body: speak `slc-shard-proto-v1` on
/// stdin/stdout until the dispatcher shuts us down or the pipe closes.
/// Returns the process exit code (0 = clean, 4 = malformed input line).
/// The fault hooks drive the degradation tests: `fail_after` aborts the
/// process once that many cells are evaluated, `garbage_after` then prints
/// one unparseable stdout line.
pub fn shard_worker(fail_after: Option<u64>, garbage_after: Option<u64>) -> i32 {
    // a panicking worker leaves its flight ring on stderr (the dispatcher
    // inherits it), in addition to the tails shipped with deltas messages
    slc_trace::install_panic_hook();
    let mut state: Option<WorkerState> = None;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let Ok(msg) = Json::parse(&line) else {
            return 4; // malformed dispatcher line
        };
        match msg_type(&msg) {
            "init" => {
                let Ok((cfg, threads, ctx)) = decode_init(&msg) else {
                    return 4;
                };
                state = Some(WorkerState::new(cfg, threads, ctx));
                if !emit(&Json::obj().field("type", "ready")) {
                    return 0;
                }
            }
            "run" => {
                let (Some(st), Some(lo), Some(hi)) =
                    (state.as_mut(), opt_u(&msg, "lo"), opt_u(&msg, "hi"))
                else {
                    return 4;
                };
                if !run_range(st, lo as usize, hi as usize, fail_after, garbage_after) {
                    return 0;
                }
            }
            "shutdown" => {
                if let Some(st) = state.as_ref() {
                    let _ = emit(&st.stats_reply());
                }
                return 0;
            }
            _ => {}
        }
    }
    0 // parent closed the pipe
}

/// Evaluate `lo..hi` in one parallel map, then reply with the range's
/// `deltas` followed by one `cells` message that closes it. Returns false
/// once the dispatcher's pipe is gone.
fn run_range(
    st: &mut WorkerState,
    lo: usize,
    hi: usize,
    fail_after: Option<u64>,
    garbage_after: Option<u64>,
) -> bool {
    let hi = hi.min(st.cells.len());
    let lo = lo.min(hi);
    let (svc, cfg, cells, tracer) = (&st.svc, &st.cfg, &st.cells, &st.tracer);
    let (evaluated, wstats) = par_map_indexed_stats(hi - lo, st.threads, |worker, k| {
        if tracer.is_enabled() {
            tracer.set_thread_track(worker as u32, &format!("worker {worker}"));
        }
        let cell = cells[lo + k];
        svc.eval_cell_keyed(
            &CellSpec {
                workload: &cfg.workloads[cell.workload],
                machine: &cfg.machines[cell.machine],
                compiler: cfg.compilers[cell.compiler],
                variant: cell.variant,
                plan: &cfg.plan,
                slms: &cfg.slms,
                verify: cfg.verify,
            },
            tracer,
        )
    });
    for w in wstats {
        let acc = st.workers.entry(w.worker).or_insert(WorkerStats {
            worker: w.worker,
            claimed: 0,
            empty_polls: 0,
            busy_ns: 0,
        });
        acc.claimed += w.claimed;
        acc.empty_polls += w.empty_polls;
        acc.busy_ns = acc.busy_ns.saturating_add(w.busy_ns);
    }
    st.evaluated += (hi - lo) as u64;
    // deltas go out *before* the cells they explain
    if !emit(&st.deltas_reply()) {
        return false;
    }
    let reached = |limit: Option<u64>| limit.is_some_and(|k| st.evaluated >= k);
    if reached(garbage_after) {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{{\"type\": garbage");
        let _ = out.flush();
    }
    if reached(fail_after) {
        std::process::abort();
    }
    let wire: Vec<Json> = evaluated
        .iter()
        .enumerate()
        .map(|(k, (res, keys))| cell_json(lo + k, res, keys))
        .collect();
    emit(
        &Json::obj()
            .field("type", "cells")
            .field("cells", Json::Arr(wire)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_sim::presets::{arm7tdmi, itanium2, pentium, power4};

    #[test]
    fn guided_slices_cover_in_order_and_shrink() {
        for n in [0, 1, 7, 24, 1104] {
            for shards in [1, 2, 4, 7] {
                let mut queue = VecDeque::from([(0, n)]);
                let (mut next, mut last) = (0, usize::MAX);
                while let Some((lo, hi)) = next_slice(&mut queue, shards) {
                    assert_eq!(lo, next, "n={n} shards={shards}: gap or overlap");
                    assert!(lo < hi && hi - lo <= last, "n={n} shards={shards}: grew");
                    (next, last) = (hi, hi - lo);
                }
                assert_eq!(next, n, "n={n} shards={shards}: cells left over");
                assert!(queue.is_empty());
            }
        }
        // a dead shard's returned suffix goes out before any untouched cell
        let mut queue = VecDeque::from([(0, 100)]);
        assert_eq!(next_slice(&mut queue, 2), Some((0, 25)));
        assert_eq!(next_slice(&mut queue, 2), Some((25, 44)));
        queue.push_front((30, 44));
        assert_eq!(next_slice(&mut queue, 2), Some((30, 44)));
        assert_eq!(next_slice(&mut queue, 2), Some((44, 58)));
    }

    #[test]
    fn machine_wire_roundtrip_preserves_fingerprint() {
        for m in [itanium2(), pentium(), power4(), arm7tdmi()] {
            let j = machine_json(&m);
            let back = decode_machine(&Json::parse(&j.to_string()).unwrap()).unwrap();
            assert_eq!(back.fingerprint(), m.fingerprint(), "{}", m.name);
            assert_eq!(back.name, m.name);
        }
    }

    #[test]
    fn bad_machine_geometry_decodes_to_err() {
        type Edit = fn(&mut MachineDesc);
        let edits: [(&str, Edit); 7] = [
            ("line 0", |m| m.cache.line = 0),
            ("line 48", |m| m.cache.line = 48),
            ("3 sets", |m| m.cache.size = 3 * m.cache.line * m.cache.ways),
            ("ways 0", |m| m.cache.ways = 0),
            ("issue_width 0", |m| m.issue_width = 0),
            ("elem_bytes 0", |m| m.elem_bytes = 0),
            ("no mem unit", |m| m.units[5] = 0),
        ];
        for preset in [itanium2(), pentium(), power4(), arm7tdmi()] {
            assert_eq!(preset.validate(), Ok(()), "{}", preset.name);
            for (what, edit) in edits {
                let mut m = preset.clone();
                edit(&mut m);
                let j = Json::parse(&machine_json(&m).to_string()).unwrap();
                assert!(decode_machine(&j).is_err(), "{} with {what}", preset.name);
            }
        }
    }

    #[test]
    fn slms_wire_roundtrip_exact_bits() {
        let mut cfg = SlmsConfig::default();
        let back = decode_slms(&Json::parse(&slms_json(&cfg).to_string()).unwrap()).unwrap();
        assert_eq!(back, cfg);
        cfg.filter.min_arith_per_ref = Some(6.5);
        cfg.filter.max_memref_ratio = 0.1 + 0.2; // not exactly representable in decimal
        cfg.expansion = Expansion::ScalarExpand;
        cfg.scheduler = SchedulerKind::Exact;
        cfg.apply_filter = false;
        let back = decode_slms(&Json::parse(&slms_json(&cfg).to_string()).unwrap()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn init_wire_roundtrip_preserves_plan_and_axes() {
        let mut cfg = BatchConfig::full_matrix();
        cfg.plan = PassPlan::parse("fuse:0+1,slms").unwrap();
        cfg.verify = true;
        let ctx = TraceCtx::from_hex("00000000000000ab", "0000000000000001").unwrap();
        let line = init_json(&cfg, Some(3), Some(ctx)).to_string();
        let (back, threads, back_ctx) = decode_init(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(threads, Some(3));
        assert_eq!(back_ctx, Some(ctx));
        assert!(back.verify);
        // an untraced init round-trips to no context
        let line = init_json(&cfg, Some(3), None).to_string();
        let (_, _, none_ctx) = decode_init(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(none_ctx, None);
        assert_eq!(back.plan.to_string(), cfg.plan.to_string());
        assert_eq!(
            back.plan.fingerprint(&back.slms),
            cfg.plan.fingerprint(&cfg.slms)
        );
        assert_eq!(back.workloads.len(), cfg.workloads.len());
        for (a, b) in back.workloads.iter().zip(&cfg.workloads) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.source, b.source);
            assert_eq!(a.suite, b.suite);
        }
        assert_eq!(back.compilers, cfg.compilers);
        for (a, b) in back.machines.iter().zip(&cfg.machines) {
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn cell_wire_roundtrip_bit_exact() {
        let keys = CellKeys {
            parse: u64::MAX - 3, // exercises the i64 cast path
            plan: Some(7),
            compile: Some(u64::MAX),
            lir: Some(11),
            sim: Some(u64::MAX),
        };
        let id = CellId {
            workload: "k".into(),
            suite: "paper".into(),
            machine: "m".into(),
            compiler: "opt",
            variant: "slms",
        };
        let metrics = CellMetrics {
            cycles: 123,
            ops: 456,
            l1_hits: 7,
            l1_misses: 8,
            spill_accesses: 9,
            energy: 0.1 + 0.2,
            transformed: true,
            slms_ii: Some(3),
            optimality_gaps: vec![0, 1],
            loops: vec![LoopInfo {
                var: "i".into(),
                trips: 1000,
                bundles_per_iter: 4,
                ms_applied: true,
                ii: Some(2),
                stages: Some(3),
                reg_pressure: 5,
                spilled: 0,
            }],
        };
        let res = CellResult {
            id: id.clone(),
            outcome: Ok(metrics.clone()),
        };
        let line = cell_json(42, &res, &keys).to_string();
        let (idx, outcome, back_keys) = decode_cell(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(idx, 42);
        assert_eq!(back_keys, keys);
        let m = outcome.unwrap();
        assert_eq!(m.cycles, metrics.cycles);
        assert_eq!(m.energy.to_bits(), metrics.energy.to_bits());
        assert_eq!(m.slms_ii, metrics.slms_ii);
        assert_eq!(m.optimality_gaps, metrics.optimality_gaps);
        assert_eq!(m.loops.len(), 1);
        assert_eq!(m.loops[0].ii, Some(2));
        // degraded cell
        let bad = CellResult {
            id,
            outcome: Err("lower: nope".into()),
        };
        let line = cell_json(7, &bad, &CellKeys::default()).to_string();
        let (_, outcome, _) = decode_cell(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(outcome.unwrap_err(), "lower: nope");
    }

    #[test]
    fn replay_reconstructs_cache_report() {
        // evaluate a small matrix serially, capture keys, replay — the
        // replayed report must equal what the service itself counted
        let cfg = BatchConfig {
            workloads: slc_workloads::paper_examples(),
            machines: vec![itanium2(), power4()],
            compilers: vec![CompilerKind::Weak, CompilerKind::Optimizing],
            slms: SlmsConfig::default(),
            plan: PassPlan::slms_only(),
            threads: Some(1),
            verify: false,
        };
        let svc = CompileService::new();
        let cells = enumerate_matrix(cfg.workloads.len(), cfg.machines.len(), cfg.compilers.len());
        let mut keys = Vec::new();
        for c in &cells {
            let (_, k) = svc.eval_cell_keyed(
                &CellSpec {
                    workload: &cfg.workloads[c.workload],
                    machine: &cfg.machines[c.machine],
                    compiler: cfg.compilers[c.compiler],
                    variant: c.variant,
                    plan: &cfg.plan,
                    slms: &cfg.slms,
                    verify: cfg.verify,
                },
                &Tracer::disabled(),
            );
            keys.push(k);
        }
        let replayed = replay_cache(keys.iter());
        let real = svc.cache_report();
        assert_eq!(replayed.parse, real.parse);
        assert_eq!(replayed.slms, real.slms);
        assert_eq!(replayed.lir, real.lir);
        assert_eq!(replayed.compile, real.compile);
        assert_eq!(replayed.sim, real.sim);
    }

    #[test]
    fn reduced_counters_match_single_process() {
        // one worker state driven directly (no pipes): its shipped deltas
        // plus the replayed cache must finalize to the in-process registry
        let cfg = BatchConfig {
            workloads: slc_workloads::paper_examples(),
            machines: vec![itanium2()],
            compilers: vec![CompilerKind::Optimizing],
            slms: SlmsConfig::default(),
            plan: PassPlan::slms_only(),
            threads: Some(2),
            verify: true,
        };
        let reference = crate::batch::run_batch(&cfg);
        let svc = CompileService::new();
        svc.enable_attribution();
        let cells = enumerate_matrix(cfg.workloads.len(), cfg.machines.len(), cfg.compilers.len());
        let mut keys = Vec::new();
        for c in &cells {
            let (_, k) = svc.eval_cell_keyed(
                &CellSpec {
                    workload: &cfg.workloads[c.workload],
                    machine: &cfg.machines[c.machine],
                    compiler: cfg.compilers[c.compiler],
                    variant: c.variant,
                    plan: &cfg.plan,
                    slms: &cfg.slms,
                    verify: cfg.verify,
                },
                &Tracer::disabled(),
            );
            keys.push(k);
        }
        let mut delta_map = BTreeMap::new();
        for (stage, key, reg) in svc.take_attribution() {
            delta_map.insert((stage, key), reg);
        }
        let cache = replay_cache(keys.iter());
        let (counters, steady) = reduce_counters(&delta_map, &cache);
        assert_eq!(counters, reference.counters);
        assert_eq!(steady.trips_total, reference.timing.steady.trips_total);
        assert_eq!(steady.fast_loops, reference.timing.steady.fast_loops);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
    }
}
