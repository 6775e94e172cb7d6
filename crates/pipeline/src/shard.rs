//! Multi-process sharded execution tier for the batch engine.
//!
//! `slc batch --shards N` fork/execs `N` copies of the running binary in a
//! hidden `batch-shard` mode and drives them over an NDJSON pipe protocol
//! (`slc-shard-proto-v2`, one JSON object per line — the same framing the
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
//! `stats` reply to `shutdown`. [`ShardMsg`] is the one codec for all of
//! them, built from the codecs of the types they carry.
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
//!   sets (`replay_cache`). For unbounded stores hits = lookups −
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
//!   sidecar ([`crate::batch::ShardStats`], and the shards' merged `wall.*`
//!   histograms) — never in the canonical report.
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
use crate::compile::CompilerKind;
use crate::par::{effective_threads, par_map_indexed_stats, WorkerStats};
use crate::passes::PassPlan;
use crate::service::{
    finalize_counters, outcome_from_json, outcome_json, CellKeys, CellMetrics, CellResult,
    CompileService, KeyedDelta, StageNs, VerifySummary,
};
use slc_trace::{
    CounterRegistry, FlightRecorder, FromJson, Hex, HistogramRegistry, Json, Span, TraceCtx, Tracer,
};
use slc_workloads::{enumerate_matrix, MatrixCell, Suite, Workload};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of the parent↔shard NDJSON wire protocol.
pub const SHARD_PROTO_SCHEMA: &str = "slc-shard-proto-v2";

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
// Wire messages. Every value inside a message decodes and encodes through
// its own type's codec (machine, SLMS config, cell keys and outcome,
// counter and histogram registries, verdicts, worker stats); this section
// only frames them.
// ---------------------------------------------------------------------------

/// One evaluated cell on the wire: its matrix index, the store keys its
/// evaluation looked up, and the canonical report's outcome members.
#[derive(Debug, Clone)]
pub struct WireCell {
    /// position in the canonical matrix order
    pub index: usize,
    /// store lookups the evaluation performed
    pub keys: CellKeys,
    /// metrics, or the degradation error
    pub outcome: Result<CellMetrics, String>,
}

impl From<&WireCell> for Json {
    fn from(c: &WireCell) -> Json {
        let head = Json::obj().field("index", c.index).field("keys", &c.keys);
        outcome_json(head, &c.outcome)
    }
}

impl FromJson for WireCell {
    fn from_json(j: &Json) -> Result<WireCell, String> {
        Ok(WireCell {
            index: j.req("index")?,
            keys: j.req("keys")?,
            outcome: outcome_from_json(j)?,
        })
    }
}

/// One line of `slc-shard-proto-v2`, in either direction. It encodes
/// through `From<&ShardMsg> for Json` and decodes with [`ShardMsg::parse`].
#[derive(Debug, Clone)]
pub enum ShardMsg {
    /// dispatcher → shard: what to evaluate
    Init {
        /// the batch (workload sources, machines, plan, SLMS config)
        cfg: Box<BatchConfig>,
        /// in-process map threads (`None` = all cores)
        threads: Option<usize>,
        /// trace context to bind, so the shard's spans stitch into the
        /// dispatcher's timeline (`None` = untraced)
        ctx: Option<TraceCtx>,
    },
    /// dispatcher → shard: evaluate matrix cells `lo..hi`
    Run {
        /// first cell
        lo: usize,
        /// one past the last cell
        hi: usize,
    },
    /// dispatcher → shard: answer with [`ShardMsg::Stats`] and exit
    Shutdown,
    /// shard → dispatcher: `Init` accepted
    Ready,
    /// shard → dispatcher: what the range just evaluated added, sent
    /// before the cells it explains
    Deltas {
        /// per-(stage, key) counter deltas
        entries: Vec<KeyedDelta>,
        /// verify verdicts not sent before
        verify: Vec<VerifySummary>,
        /// bounded flight-recorder tail (`slc-flight-v1` JSONL): the
        /// dispatcher keeps the newest as this shard's black box
        flight: String,
    },
    /// shard → dispatcher: every outcome of the in-flight range, in order;
    /// closes the range
    Cells(Vec<WireCell>),
    /// shard → dispatcher: the reply to `Shutdown`
    Stats {
        /// CPU time the shard consumed
        cpu_ns: u64,
        /// per-worker queue accounting
        workers: Vec<WorkerStats>,
        /// the shard's wall-clock histograms (stage and pass times)
        wall: HistogramRegistry,
        /// the shard's span dump when traced
        span_dump: Option<String>,
    },
}

impl From<&ShardMsg> for Json {
    fn from(msg: &ShardMsg) -> Json {
        let typed = |ty: &str| Json::obj().field("type", ty);
        match msg {
            ShardMsg::Init { cfg, threads, ctx } => {
                let workloads: Vec<Json> = cfg
                    .workloads
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .field("name", w.name)
                            .field("suite", w.suite.label())
                            .field("source", w.source)
                    })
                    .collect();
                let compilers: Vec<&str> = cfg.compilers.iter().map(CompilerKind::label).collect();
                typed("init")
                    .field("schema", SHARD_PROTO_SCHEMA)
                    .field("threads", *threads)
                    .field_opt("trace_id", ctx.map(|c| Hex(c.trace_id)))
                    .field_opt("parent_span", ctx.map(|c| Hex(c.parent_span)))
                    .field("verify", cfg.verify)
                    .field("plan", cfg.plan.to_string())
                    .field("slms", &cfg.slms)
                    .field("workloads", workloads)
                    .field("machines", Json::arr(&cfg.machines))
                    .field("compilers", compilers)
            }
            ShardMsg::Run { lo, hi } => typed("run").field("lo", *lo).field("hi", *hi),
            ShardMsg::Shutdown => typed("shutdown"),
            ShardMsg::Ready => typed("ready"),
            ShardMsg::Deltas {
                entries,
                verify,
                flight,
            } => typed("deltas")
                .field("entries", Json::arr(entries))
                .field("verify", Json::arr(verify))
                .field("flight", flight.as_str()),
            ShardMsg::Cells(cells) => typed("cells").field("cells", Json::arr(cells)),
            ShardMsg::Stats {
                cpu_ns,
                workers,
                wall,
                span_dump,
            } => typed("stats")
                .field("cpu_ns", *cpu_ns)
                .field("workers", Json::arr(workers))
                .field("wall", wall)
                .field("span_dump", span_dump.as_deref()),
        }
    }
}

impl ShardMsg {
    /// Decode one protocol line. Malformed JSON, an unknown `type`, a
    /// missing or ill-typed member and an invalid machine are all `Err`.
    pub fn parse(line: &str) -> Result<ShardMsg, String> {
        let j = Json::parse(line)?;
        Ok(match j.req::<String>("type")?.as_str() {
            "init" => decode_init(&j)?,
            "run" => ShardMsg::Run {
                lo: j.req("lo")?,
                hi: j.req("hi")?,
            },
            "shutdown" => ShardMsg::Shutdown,
            "ready" => ShardMsg::Ready,
            "deltas" => ShardMsg::Deltas {
                entries: j.req("entries")?,
                verify: j.req("verify")?,
                flight: j.req("flight")?,
            },
            "cells" => ShardMsg::Cells(j.req("cells")?),
            "stats" => ShardMsg::Stats {
                cpu_ns: j.req("cpu_ns")?,
                workers: j.req("workers")?,
                wall: j.req("wall")?,
                span_dump: j.opt("span_dump")?,
            },
            other => return Err(format!("unknown shard message `{other}`")),
        })
    }

    fn line(&self) -> String {
        Json::from(self).to_string()
    }
}

fn decode_init(j: &Json) -> Result<ShardMsg, String> {
    let schema: String = j.req("schema")?;
    if schema != SHARD_PROTO_SCHEMA {
        return Err(format!("unknown shard protocol `{schema}`"));
    }
    let ctx = match (j.opt::<Hex>("trace_id")?, j.opt::<Hex>("parent_span")?) {
        (Some(t), Some(p)) => Some(TraceCtx {
            trace_id: t.0,
            parent_span: p.0,
        }),
        (None, None) => None,
        _ => return Err("`trace_id` and `parent_span` come together".into()),
    };
    let mut workloads = Vec::new();
    for w in j
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("missing field `workloads`")?
    {
        let suite: String = w.req("suite")?;
        // Workload holds &'static str (the stock suites are compiled in);
        // a shard receives arbitrary sources once per process, so leaking
        // them is bounded and buys us the unmodified Workload type.
        workloads.push(Workload {
            name: Box::leak(w.req::<String>("name")?.into_boxed_str()),
            suite: Suite::from_label(&suite).ok_or_else(|| format!("unknown suite `{suite}`"))?,
            source: Box::leak(w.req::<String>("source")?.into_boxed_str()),
        });
    }
    let compilers = j
        .req::<Vec<String>>("compilers")?
        .iter()
        .map(|c| CompilerKind::from_label(c).ok_or_else(|| format!("unknown compiler `{c}`")))
        .collect::<Result<_, _>>()?;
    let plan_text: String = j.req("plan")?;
    let plan = PassPlan::parse(&plan_text).map_err(|e| format!("bad plan `{plan_text}`: {e}"))?;
    let threads = j.req("threads")?;
    Ok(ShardMsg::Init {
        cfg: Box::new(BatchConfig {
            workloads,
            machines: j.req("machines")?,
            compilers,
            slms: j.req("slms")?,
            plan,
            threads,
            verify: j.req("verify")?,
        }),
        threads,
        ctx,
    })
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
    #[derive(Default)]
    struct Store {
        seen: HashSet<u64>,
        stats: StoreStats,
    }
    impl Store {
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
    let (mut parse, mut slms, mut lir, mut compile, mut sim) =
        <(Store, Store, Store, Store, Store)>::default();
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

/// Rebuild the deterministic registry from the deduplicated per-(stage,
/// key) miss deltas plus the replayed cache report. Summing one delta per
/// distinct key is exactly what the single-process registry accumulated,
/// since each key misses once there.
fn reduce_counters(
    deltas: &BTreeMap<(u8, u64), CounterRegistry>,
    cache: &CacheReport,
) -> CounterRegistry {
    let mut base = CounterRegistry::new();
    for reg in deltas.values() {
        base.merge(reg);
    }
    finalize_counters(base, cache)
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
                slot.send(&ShardMsg::Run { lo, hi }.line());
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

/// Record a `cells` message, which must answer the shard's in-flight range
/// exactly, in order, and closes it. Returns the number of cells recorded,
/// or `None` on a protocol fault.
fn close_range(
    cells: Vec<WireCell>,
    slot: &mut Slot,
    results: &mut [Option<WireCell>],
) -> Option<usize> {
    let (lo, hi, t_disp) = slot.inflight?;
    if cells.len() != hi - lo || cells.iter().zip(lo..hi).any(|(c, i)| c.index != i) {
        return None;
    }
    for c in cells {
        let i = c.index;
        results[i] = Some(c);
    }
    slot.inflight = None;
    slot.span = None;
    slot.chunk_ms.push(t_disp.elapsed().as_secs_f64() * 1e3);
    slot.stats.cells += (hi - lo) as u64;
    Some(hi - lo)
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
    let init_line = ShardMsg::Init {
        cfg: Box::new(cfg.clone()),
        threads: opts.threads_per_shard,
        ctx,
    }
    .line();

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
    let mut results: Vec<Option<WireCell>> = vec![None; n];
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
            Ev::Line(l) => ShardMsg::parse(&l).ok(),
            Ev::Eof => None,
        };
        let healthy = match msg {
            Some(ShardMsg::Ready) => {
                fleet.slots[s].ready = true;
                true
            }
            Some(ShardMsg::Deltas {
                entries,
                verify,
                flight,
            }) => {
                // first writer wins: two shards that missed one key
                // computed the same delta
                for d in entries {
                    delta_map.entry((d.stage, d.key)).or_insert(d.counters);
                }
                for v in verify {
                    verify_map.entry(v.workload.clone()).or_insert(v);
                }
                fleet.slots[s].last_flight = Some(flight);
                true
            }
            Some(ShardMsg::Cells(cells)) => {
                match close_range(cells, &mut fleet.slots[s], &mut results) {
                    Some(k) => {
                        done_cells += k;
                        true
                    }
                    None => false,
                }
            }
            Some(_) => true,
            None => false,
        };
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
        slots[s].send(&ShardMsg::Shutdown.line());
    }
    let mut wall_hist = HistogramRegistry::new();
    while !awaiting.is_empty() {
        let Ok((s, ev)) = rx.recv_timeout(Duration::from_secs(30)) else {
            break;
        };
        let Ev::Line(l) = ev else {
            awaiting.remove(&s);
            continue;
        };
        let Ok(ShardMsg::Stats {
            cpu_ns,
            workers,
            wall,
            span_dump,
        }) = ShardMsg::parse(&l)
        else {
            continue;
        };
        if !awaiting.remove(&s) {
            continue;
        }
        let stats = &mut slots[s].stats;
        stats.cpu_ms = cpu_ns as f64 / 1e6;
        stats.workers = workers;
        stats.stage = StageNs::from_wall(&wall);
        wall_hist.merge(&wall);
        // merge the worker's span dump into the one timeline: its spans
        // land under this shard's synthetic process, tids shifted past
        // the dispatcher's own tid-0 range row
        if let Some(dump) = span_dump {
            let _ = tracer.import_process_dump(&dump, s as u32 + 2, &format!("shard-{s}"));
        }
    }
    // reduce
    let mut out_cells = Vec::with_capacity(n);
    let mut keyed = Vec::with_capacity(n);
    for (i, r) in results.into_iter().enumerate() {
        let c = r.ok_or_else(|| format!("cell {i} never reported"))?;
        out_cells.push(CellResult {
            id: cfg.spec(cells[i]).id(),
            outcome: c.outcome,
        });
        keyed.push(c.keys);
    }
    let cache = replay_cache(keyed.iter());
    let counters = reduce_counters(&delta_map, &cache);
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
            verify: verify_map.into_values().collect(),
            workers: Vec::new(),
            shards: shard_stats,
            wall_hist,
        },
    })
}

// ---------------------------------------------------------------------------
// The worker side (`slc batch-shard`, hidden).
// ---------------------------------------------------------------------------

fn emit(msg: &ShardMsg) -> bool {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", msg.line())
        .and_then(|_| out.flush())
        .is_ok()
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

    fn stats_reply(&self) -> ShardMsg {
        ShardMsg::Stats {
            cpu_ns: self_cpu_ns(),
            workers: self.workers.values().cloned().collect(),
            wall: self.svc.wall_histograms(),
            span_dump: self.tracer.export_process_dump("shard-worker"),
        }
    }

    /// The counter deltas and newly recorded verify verdicts of the range
    /// just evaluated, plus a bounded flight-recorder tail: the dispatcher
    /// keeps only the newest, and if this process dies (abort, OOM-kill)
    /// that snapshot is its black box.
    fn deltas_reply(&mut self) -> ShardMsg {
        let entries = self.svc.take_attribution();
        let mut fresh = Vec::new();
        for v in self.svc.verify_summaries() {
            if self.verify_sent.insert(v.workload.clone()) {
                fresh.push(v);
            }
        }
        ShardMsg::Deltas {
            entries,
            verify: fresh,
            flight: FlightRecorder::global().dump_jsonl_tail(64),
        }
    }
}

/// The hidden `batch-shard` subcommand body: speak `slc-shard-proto-v2` on
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
        let Ok(msg) = ShardMsg::parse(&line) else {
            return 4; // malformed dispatcher line
        };
        match msg {
            ShardMsg::Init { cfg, threads, ctx } => {
                state = Some(WorkerState::new(*cfg, threads, ctx));
                if !emit(&ShardMsg::Ready) {
                    return 0;
                }
            }
            ShardMsg::Run { lo, hi } => {
                let Some(st) = state.as_mut() else {
                    return 4;
                };
                if !run_range(st, lo, hi, fail_after, garbage_after) {
                    return 0;
                }
            }
            ShardMsg::Shutdown => {
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
        svc.eval_cell_keyed(&cfg.spec(cell), tracer)
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
    let cells = evaluated
        .into_iter()
        .enumerate()
        .map(|(k, (res, keys))| WireCell {
            index: lo + k,
            keys,
            outcome: res.outcome,
        })
        .collect();
    emit(&ShardMsg::Cells(cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_core::{Expansion, SchedulerKind, SlmsConfig};
    use slc_machine::mach::MachineDesc;
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

    /// Encode `msg`, print it, parse the line back.
    fn wire(msg: &ShardMsg) -> ShardMsg {
        ShardMsg::parse(&msg.line()).unwrap()
    }

    #[test]
    fn machine_wire_roundtrip_preserves_fingerprint() {
        for m in [itanium2(), pentium(), power4(), arm7tdmi()] {
            let text = Json::from(&m).to_string();
            let back = MachineDesc::from_json(&Json::parse(&text).unwrap()).unwrap();
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
                let j = Json::parse(&Json::from(&m).to_string()).unwrap();
                assert!(
                    MachineDesc::from_json(&j).is_err(),
                    "{} with {what}",
                    preset.name
                );
            }
            // a negative count is an error, not a huge unsigned value
            let j = Json::from(&preset)
                .to_string()
                .replace("\"ways\":", "\"ways\":-");
            assert!(MachineDesc::from_json(&Json::parse(&j).unwrap()).is_err());
        }
    }

    #[test]
    fn slms_wire_roundtrip_exact_bits() {
        let roundtrip = |cfg: &SlmsConfig| {
            SlmsConfig::from_json(&Json::parse(&Json::from(cfg).to_string()).unwrap()).unwrap()
        };
        let mut cfg = SlmsConfig::default();
        assert_eq!(roundtrip(&cfg), cfg);
        cfg.filter.min_arith_per_ref = Some(6.5);
        cfg.filter.max_memref_ratio = 0.1 + 0.2; // not exactly representable in decimal
        cfg.expansion = Expansion::ScalarExpand;
        cfg.scheduler = SchedulerKind::Exact;
        cfg.apply_filter = false;
        assert_eq!(roundtrip(&cfg), cfg);
        // non-finite thresholds keep their exact bits, NaN payload included
        let payload_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        for (max, min) in [
            (f64::INFINITY, Some(f64::NEG_INFINITY)),
            (f64::NAN, Some(payload_nan)),
            (-0.0, None),
        ] {
            cfg.filter.max_memref_ratio = max;
            cfg.filter.min_arith_per_ref = min;
            let back = roundtrip(&cfg).filter;
            assert_eq!(back.max_memref_ratio.to_bits(), max.to_bits());
            assert_eq!(
                back.min_arith_per_ref.map(f64::to_bits),
                min.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn init_wire_roundtrip_preserves_plan_and_axes() {
        let mut cfg = BatchConfig::full_matrix();
        cfg.plan = PassPlan::parse("fuse:0+1,slms").unwrap();
        cfg.verify = true;
        let ctx = TraceCtx::from_hex("00000000000000ab", "ffffffffffffffff").unwrap();
        let init = |ctx| ShardMsg::Init {
            cfg: Box::new(cfg.clone()),
            threads: Some(3),
            ctx,
        };
        let ShardMsg::Init {
            cfg: back,
            threads,
            ctx: back_ctx,
        } = wire(&init(Some(ctx)))
        else {
            panic!("init decoded to another message");
        };
        assert_eq!(threads, Some(3));
        assert_eq!(back_ctx, Some(ctx));
        assert!(back.verify);
        // an untraced init round-trips to no context
        assert!(matches!(
            wire(&init(None)),
            ShardMsg::Init { ctx: None, .. }
        ));
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
        // a bad machine inside init fails the whole message
        let mut bad = cfg.clone();
        bad.machines[1].cache.line = 48;
        let msg = ShardMsg::Init {
            cfg: Box::new(bad),
            threads: None,
            ctx: None,
        };
        assert!(ShardMsg::parse(&msg.line()).is_err());
    }

    #[test]
    fn cell_wire_roundtrip_bit_exact() {
        let keys = CellKeys {
            parse: u64::MAX - 3,
            plan: Some(7),
            compile: Some(u64::MAX),
            lir: Some(11),
            sim: Some(u64::MAX),
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
            loops: vec![crate::LoopInfo {
                var: "i".into(),
                trips: 1000,
                bundles_per_iter: 4,
                ms_applied: true,
                ii: Some(2),
                stages: None,
                reg_pressure: 5,
                spilled: 0,
            }],
        };
        let cells = vec![
            WireCell {
                index: 42,
                keys,
                outcome: Ok(metrics.clone()),
            },
            // degraded cell
            WireCell {
                index: 43,
                keys: CellKeys::default(),
                outcome: Err("lower: nope".into()),
            },
        ];
        let ShardMsg::Cells(back) = wire(&ShardMsg::Cells(cells)) else {
            panic!("cells decoded to another message");
        };
        assert_eq!(back[0].index, 42);
        assert_eq!(back[0].keys, keys);
        let m = back[0].outcome.as_ref().unwrap();
        assert_eq!(m.cycles, metrics.cycles);
        assert_eq!(m.energy.to_bits(), metrics.energy.to_bits());
        assert_eq!(m.slms_ii, metrics.slms_ii);
        assert_eq!(m.optimality_gaps, metrics.optimality_gaps);
        assert_eq!(m.loops, metrics.loops);
        assert_eq!(back[1].outcome.as_ref().unwrap_err(), "lower: nope");
        assert_eq!(back[1].keys, CellKeys::default());
    }

    #[test]
    fn deltas_and_stats_wire_roundtrip() {
        let mut counters = CounterRegistry::new();
        counters.add("sim.trips_total", 1 << 40);
        let verify = VerifySummary {
            workload: "k".into(),
            verified: 1,
            skipped: 2,
            obligations: 3,
            violations: 0,
        };
        let msg = ShardMsg::Deltas {
            entries: vec![KeyedDelta {
                stage: 2,
                key: u64::MAX,
                counters: counters.clone(),
            }],
            verify: vec![verify.clone()],
            flight: "{}\n".into(),
        };
        let ShardMsg::Deltas {
            entries,
            verify: v,
            flight,
        } = wire(&msg)
        else {
            panic!("deltas decoded to another message");
        };
        assert_eq!((entries[0].stage, entries[0].key), (2, u64::MAX));
        assert_eq!(entries[0].counters, counters);
        assert_eq!(v, vec![verify]);
        assert_eq!(flight, "{}\n");

        let mut wall = HistogramRegistry::new();
        wall.record("wall.pass.slms_ns", 1234);
        wall.record("wall.sim_ns", 99);
        let workers = vec![WorkerStats {
            worker: 0,
            claimed: 5,
            empty_polls: 1,
            busy_ns: 77,
        }];
        let msg = ShardMsg::Stats {
            cpu_ns: 9,
            workers: workers.clone(),
            wall: wall.clone(),
            span_dump: None,
        };
        let ShardMsg::Stats {
            cpu_ns,
            workers: w,
            wall: h,
            span_dump,
        } = wire(&msg)
        else {
            panic!("stats decoded to another message");
        };
        assert_eq!((cpu_ns, w, h, span_dump), (9, workers, wall, None));
    }

    #[test]
    fn malformed_messages_decode_to_err() {
        for bad in [
            "",
            "{\"type\":",
            "{}",
            "{\"type\":\"nope\"}",
            "{\"type\":\"run\",\"lo\":-1,\"hi\":4}",
            "{\"type\":\"run\",\"lo\":0}",
            "{\"type\":\"cells\",\"cells\":[{\"index\":0,\"keys\":{\"parse\":\"12\"},\"ok\":false,\"error\":\"x\"}]}",
            "{\"type\":\"deltas\",\"entries\":[{\"stage\":300,\"key\":\"0000000000000001\",\"counters\":{}}],\"verify\":[],\"flight\":\"\"}",
            "{\"type\":\"stats\",\"cpu_ns\":1,\"workers\":[],\"wall\":{\"h\":{\"count\":2,\"sum\":1,\"min\":0,\"max\":1,\"buckets\":{\"1\":1}}}}",
        ] {
            assert!(ShardMsg::parse(bad).is_err(), "{bad}");
        }
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
            let (_, k) = svc.eval_cell_keyed(&cfg.spec(*c), &Tracer::disabled());
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
            let (_, k) = svc.eval_cell_keyed(&cfg.spec(*c), &Tracer::disabled());
            keys.push(k);
        }
        let mut delta_map = BTreeMap::new();
        for d in svc.take_attribution() {
            delta_map.insert((d.stage, d.key), d.counters);
        }
        let cache = replay_cache(keys.iter());
        assert_eq!(reduce_counters(&delta_map, &cache), reference.counters);
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
