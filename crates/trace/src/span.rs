//! Hierarchical span collection with a Chrome trace-event exporter.
//!
//! A [`Tracer`] is a cheap clone-able handle that is either *disabled* (the
//! default — no buffer, no clock reads, no allocation; every operation is a
//! branch on a `None`) or *enabled* (backed by a shared, thread-safe
//! [`TraceBuf`]). Instrumented code asks the tracer for a [`Span`]; the span
//! records its start time on creation and pushes one complete event into the
//! buffer when dropped. Worker threads register a *track* (a Chrome `tid`)
//! once via [`Tracer::set_thread_track`]; spans pick the current thread's
//! track up from a thread-local, so a multi-threaded batch run renders as
//! one timeline row per worker in Perfetto / `chrome://tracing`.
//!
//! The disabled path is deliberately verifiable: every real timestamp read
//! bumps [`clock_reads`], so tests can assert that a disabled tracer
//! performs zero timer syscalls (see `crates/trace/tests/zero_cost.rs`,
//! which additionally proves zero allocation with a counting global
//! allocator).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// Wire schema identifier for per-process span dumps (what
/// [`Tracer::export_process_dump`] writes and
/// [`Tracer::import_process_dump`] reads).
pub const SPAN_DUMP_SCHEMA: &str = "slc-span-dump-v1";

/// A distributed trace context: the identity a request or batch run carries
/// across process boundaries so every participating process records spans
/// under one trace.
///
/// `trace_id` names the trace (a whole `slc batch --shards N` run, or one
/// daemon request); `parent_span` is the caller-side span the remote work
/// hangs under (0 = root). Both travel on the wire as 16-digit hex strings
/// — in `slc-serve-proto-v1` requests and in the `slc-shard-proto-v3`
/// `init` message — and the Chrome exporter stamps the merged document's
/// `otherData.trace_id` with it, so a stitched multi-process trace provably
/// belongs to one trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// trace identity shared by every process participating in one run
    pub trace_id: u64,
    /// caller-side parent span id (0 = this context is the root)
    pub parent_span: u64,
}

impl TraceCtx {
    /// A fresh root context. The id mixes the process id with the wall
    /// clock so concurrent runs on one machine get distinct traces; it is
    /// an identity, not a measurement, so it never lands in canonical
    /// reports or counters.
    pub fn fresh() -> TraceCtx {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let pid = std::process::id() as u64;
        // splitmix64 finalizer: spreads pid/time bits over the whole word
        let mut z = nanos ^ (pid << 32) ^ pid;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        TraceCtx {
            trace_id: (z ^ (z >> 31)).max(1),
            parent_span: 0,
        }
    }

    /// The context a child process should run under, hanging off `span`.
    pub fn child(&self, span: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent_span: span,
        }
    }

    /// Render `trace_id` as the canonical 16-digit hex wire form.
    pub fn trace_id_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// Render `parent_span` as the canonical 16-digit hex wire form.
    pub fn parent_span_hex(&self) -> String {
        format!("{:016x}", self.parent_span)
    }

    /// Reconstruct a context from the two hex wire fields.
    pub fn from_hex(trace_id: &str, parent_span: &str) -> Result<TraceCtx, String> {
        let t = u64::from_str_radix(trace_id, 16)
            .map_err(|_| format!("bad trace_id `{trace_id}` (want hex u64)"))?;
        let p = u64::from_str_radix(parent_span, 16)
            .map_err(|_| format!("bad parent_span `{parent_span}` (want hex u64)"))?;
        Ok(TraceCtx {
            trace_id: t,
            parent_span: p,
        })
    }
}

/// Global count of real clock reads performed by enabled tracers. Test
/// guard for the zero-cost-when-disabled contract; never reset.
static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

/// Total [`Instant::now`] calls made by the span layer so far.
pub fn clock_reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

thread_local! {
    /// Chrome track id for spans opened on this thread (0 = main).
    static CURRENT_TID: Cell<u32> = const { Cell::new(0) };
    /// Chrome process id for spans opened on this thread (1 = the slc
    /// process itself; the sharded batch dispatcher binds one synthetic
    /// process per worker shard so every shard renders as its own
    /// Perfetto process track).
    static CURRENT_PID: Cell<u32> = const { Cell::new(1) };
}

/// A span argument value (rendered into the Chrome event's `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// integer argument
    I(i64),
    /// float argument
    F(f64),
    /// string argument
    S(String),
    /// boolean argument
    B(bool),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::I(i64::try_from(v).unwrap_or(i64::MAX))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::from(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::I(i64::from(v))
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::B(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::S(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::S(v)
    }
}

impl From<ArgValue> for Json {
    fn from(v: ArgValue) -> Json {
        match v {
            ArgValue::I(i) => Json::Int(i),
            ArgValue::F(f) => Json::Float(f),
            ArgValue::S(s) => Json::Str(s),
            ArgValue::B(b) => Json::Bool(b),
        }
    }
}

/// One completed span, relative to the buffer's origin instant.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// span name (Chrome `name`)
    pub name: String,
    /// span category (Chrome `cat`): `"batch"`, `"stage"`, `"pass"`,
    /// `"slms"`, `"sim"`, `"verify"`, `"interp"`, `"shard"`
    pub cat: &'static str,
    /// process (Chrome `pid`): 1 = the slc process; 2.. = synthetic
    /// per-shard processes registered via [`Tracer::set_process_track`]
    pub pid: u32,
    /// track (Chrome `tid`): 0 = orchestrating thread, 1.. = workers
    pub tid: u32,
    /// start offset from the tracer's origin, nanoseconds
    pub ts_ns: u64,
    /// duration, nanoseconds
    pub dur_ns: u64,
    /// span arguments
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Shared collection buffer behind an enabled [`Tracer`].
#[derive(Debug)]
pub struct TraceBuf {
    t0: Instant,
    /// wall-clock anchor of `t0` (epoch nanoseconds), so per-process dumps
    /// from different machines/processes can be shifted onto one timeline
    t0_epoch_ns: u64,
    ctx: Mutex<Option<TraceCtx>>,
    events: Mutex<Vec<TraceEvent>>,
    tracks: Mutex<BTreeMap<u32, String>>,
    processes: Mutex<BTreeMap<u32, String>>,
    /// thread names for events imported from other processes, keyed by
    /// (pid, tid) — the local `tracks` map is implicitly pid 1
    remote_tracks: Mutex<BTreeMap<(u32, u32), String>>,
}

impl TraceBuf {
    fn now_ns(&self) -> u64 {
        CLOCK_READS.fetch_add(1, Ordering::Relaxed);
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Span collector handle: disabled (no-op, zero-cost) or enabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    buf: Option<Arc<TraceBuf>>,
}

impl Tracer {
    /// The no-op collector: spans neither read the clock nor allocate.
    pub fn disabled() -> Tracer {
        Tracer { buf: None }
    }

    /// A fresh collector with its origin at "now".
    pub fn enabled() -> Tracer {
        CLOCK_READS.fetch_add(2, Ordering::Relaxed);
        Tracer {
            buf: Some(Arc::new(TraceBuf {
                t0: Instant::now(),
                t0_epoch_ns: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0),
                ctx: Mutex::new(None),
                events: Mutex::new(Vec::new()),
                tracks: Mutex::new(BTreeMap::new()),
                processes: Mutex::new(BTreeMap::new()),
                remote_tracks: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Bind this tracer to a distributed trace context. The first binding
    /// wins; later calls against an already-bound tracer are ignored, so
    /// every request in a traced daemon shares the daemon's root trace.
    pub fn set_ctx(&self, ctx: TraceCtx) {
        if let Some(buf) = &self.buf {
            buf.ctx.lock().unwrap().get_or_insert(ctx);
        }
    }

    /// The bound trace context, if any.
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.buf.as_ref().and_then(|b| *b.ctx.lock().unwrap())
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Bind the calling thread to Chrome track `tid`, naming it on first
    /// registration. Call once per worker before opening spans.
    pub fn set_thread_track(&self, tid: u32, name: &str) {
        if let Some(buf) = &self.buf {
            CURRENT_TID.set(tid);
            let mut tracks = buf.tracks.lock().unwrap();
            tracks.entry(tid).or_insert_with(|| name.to_string());
        }
    }

    /// Bind the calling thread to Chrome process `pid`, naming it on first
    /// registration. Process 1 is the slc process itself ("slc") and needs
    /// no registration; the sharded batch dispatcher registers `2 + shard`
    /// per worker shard so each shard renders as its own Perfetto process
    /// track. Call `set_process_track(1, "slc")` to return spans to the
    /// default process.
    pub fn set_process_track(&self, pid: u32, name: &str) {
        if let Some(buf) = &self.buf {
            CURRENT_PID.set(pid);
            if pid != 1 {
                let mut procs = buf.processes.lock().unwrap();
                procs.entry(pid).or_insert_with(|| name.to_string());
            }
        }
    }

    /// Open a span with a static name. Closed (recorded) on drop.
    pub fn span(&self, cat: &'static str, name: &str) -> Span {
        match &self.buf {
            None => Span { rec: None },
            Some(buf) => Span {
                rec: Some(SpanRec {
                    start_ns: buf.now_ns(),
                    buf: Arc::clone(buf),
                    name: name.to_string(),
                    cat,
                    pid: CURRENT_PID.get(),
                    tid: CURRENT_TID.get(),
                    args: Vec::new(),
                }),
            },
        }
    }

    /// Open a span whose name is built lazily — `make` runs only when the
    /// tracer is enabled, so dynamic names cost nothing when disabled.
    pub fn span_dyn(&self, cat: &'static str, make: impl FnOnce() -> String) -> Span {
        match &self.buf {
            None => Span { rec: None },
            Some(_) => self.span(cat, &make()),
        }
    }

    /// Number of completed spans recorded so far.
    pub fn event_count(&self) -> usize {
        self.buf
            .as_ref()
            .map_or(0, |b| b.events.lock().unwrap().len())
    }

    /// Snapshot of completed spans, sorted by (process, track, start,
    /// longest-first).
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(buf) = &self.buf else {
            return Vec::new();
        };
        let mut evs = buf.events.lock().unwrap().clone();
        evs.sort_by(|a, b| {
            (a.pid, a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns), &a.name).cmp(&(
                b.pid,
                b.tid,
                b.ts_ns,
                std::cmp::Reverse(b.dur_ns),
                &b.name,
            ))
        });
        evs
    }

    /// Registered (track id, name) pairs, id-ordered.
    pub fn tracks(&self) -> Vec<(u32, String)> {
        self.buf.as_ref().map_or(Vec::new(), |b| {
            b.tracks
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect()
        })
    }

    /// Registered synthetic (process id, name) pairs, id-ordered. Does not
    /// include the implicit process 1 ("slc").
    pub fn processes(&self) -> Vec<(u32, String)> {
        self.buf.as_ref().map_or(Vec::new(), |b| {
            b.processes
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect()
        })
    }

    /// Export this process's spans as a self-contained dump another
    /// process can merge with [`Tracer::import_process_dump`]: schema tag,
    /// trace id (when bound), the wall-clock anchor of the time origin,
    /// the registered thread tracks and every completed span. `None` if
    /// disabled.
    pub fn export_process_dump(&self, process_name: &str) -> Option<String> {
        let buf = self.buf.as_ref()?;
        let ctx = self.ctx();
        let doc = Json::obj()
            .field("schema", SPAN_DUMP_SCHEMA)
            .field("process", process_name)
            .field("t0_epoch_ns", Json::Str(format!("{}", buf.t0_epoch_ns)))
            .field_opt("trace_id", ctx.map(|c| c.trace_id_hex()))
            .field_opt("parent_span", ctx.map(|c| c.parent_span_hex()));
        let tracks: Vec<Json> = self
            .tracks()
            .into_iter()
            .map(|(tid, name)| Json::obj().field("tid", tid).field("name", name))
            .collect();
        let events: Vec<Json> = self
            .events()
            .into_iter()
            .map(|ev| {
                let mut args = Json::obj();
                for (k, v) in ev.args {
                    args = args.field(k, v);
                }
                Json::obj()
                    .field("name", ev.name)
                    .field("cat", ev.cat)
                    .field("tid", ev.tid)
                    .field("ts_ns", Json::Str(format!("{}", ev.ts_ns)))
                    .field("dur_ns", Json::Str(format!("{}", ev.dur_ns)))
                    .field("args", args)
            })
            .collect();
        Some(
            doc.field("tracks", Json::Arr(tracks))
                .field("events", Json::Arr(events))
                .to_string(),
        )
    }

    /// Merge another process's span dump into this buffer under Chrome
    /// process `pid`. Timestamps are shifted onto this tracer's timeline
    /// via the wall-clock anchors; the dump's thread tracks are remapped
    /// to `tid + 1` so the importing side's own `tid 0` row for that
    /// process (e.g. the dispatcher's per-shard chunk spans) stays
    /// distinct. Errors if the dump belongs to a different trace id than
    /// this tracer is bound to. Returns the number of spans imported.
    pub fn import_process_dump(&self, text: &str, pid: u32, name: &str) -> Result<usize, String> {
        let Some(buf) = &self.buf else {
            return Ok(0);
        };
        let doc = Json::parse(text).map_err(|e| format!("span dump is not JSON: {e}"))?;
        match doc.opt::<String>("schema")?.as_deref() {
            Some(SPAN_DUMP_SCHEMA) => {}
            other => return Err(format!("unknown span dump schema {other:?}")),
        }
        if let (Some(mine), Some(theirs)) = (self.ctx(), doc.opt::<String>("trace_id")?) {
            if mine.trace_id_hex() != theirs {
                return Err(format!(
                    "span dump belongs to trace {theirs}, this tracer is bound to {}",
                    mine.trace_id_hex()
                ));
            }
        }
        // full-range u64 nanoseconds travel as decimal strings
        let nanos = |j: &Json, key: &str| -> Result<u64, String> {
            j.req::<String>(key)?
                .parse()
                .map_err(|e| format!("field `{key}`: {e}"))
        };
        let their_epoch = nanos(&doc, "t0_epoch_ns").unwrap_or(buf.t0_epoch_ns);
        // shift the remote timeline onto ours; clamp at 0 if the remote
        // anchor predates ours (clock skew)
        let shift = their_epoch as i128 - buf.t0_epoch_ns as i128;
        let proc_name = doc.opt("process")?.unwrap_or_else(|| name.to_string());
        buf.processes
            .lock()
            .unwrap()
            .entry(pid)
            .or_insert(proc_name);
        {
            let mut remote = buf.remote_tracks.lock().unwrap();
            for t in doc.get("tracks").and_then(Json::as_arr).unwrap_or_default() {
                if let (Ok(tid), Ok(tname)) = (t.req::<u32>("tid"), t.req::<String>("name")) {
                    remote.entry((pid, tid + 1)).or_insert(tname);
                }
            }
        }
        let events = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("span dump carries no events array")?;
        let mut imported = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            let at = |e: String| format!("dump event {i}: {e}");
            let name: String = ev.req("name").map_err(at)?;
            let tid: u32 = ev.req("tid").map_err(at)?;
            let ts_ns = nanos(ev, "ts_ns").map_err(at)?;
            let dur_ns = nanos(ev, "dur_ns").map_err(at)?;
            let cat = match ev.opt::<String>("cat").ok().flatten().as_deref() {
                Some("batch") => "batch",
                Some("stage") => "stage",
                Some("pass") => "pass",
                Some("slms") => "slms",
                Some("sim") => "sim",
                Some("verify") => "verify",
                Some("interp") => "interp",
                Some("shard") => "shard",
                Some("cell") => "cell",
                Some("serve") => "serve",
                _ => "remote",
            };
            let mut args: Vec<(&'static str, ArgValue)> = Vec::new();
            if let Some(Json::Obj(members)) = ev.get("args") {
                // imported arg keys are folded into one value to keep the
                // in-memory event's &'static keys; full fidelity lives in
                // the source process's own dump
                if !members.is_empty() {
                    let rendered = ev.get("args").unwrap().to_string();
                    args.push(("imported_args", ArgValue::S(rendered)));
                }
            }
            imported.push(TraceEvent {
                name,
                cat,
                pid,
                tid: tid + 1,
                ts_ns: (ts_ns as i128 + shift).max(0) as u64,
                dur_ns,
                args,
            });
        }
        let n = imported.len();
        buf.events.lock().unwrap().extend(imported);
        Ok(n)
    }

    /// Export the Chrome trace-event document (the JSON Object Format:
    /// `{"traceEvents": [...]}`), loadable in Perfetto. `None` if disabled.
    ///
    /// Emitted events: one `ph:"M"` `process_name` record per process (the
    /// implicit pid 1 "slc" plus every registered synthetic process), one
    /// `ph:"M"` `thread_name` record per registered track (and a tid-0
    /// `thread_name` per synthetic process so Perfetto labels its single
    /// row), then every span as a `ph:"X"` complete event with microsecond
    /// `ts`/`dur`.
    pub fn to_chrome_json(&self) -> Option<String> {
        self.buf.as_ref()?;
        let mut events = Vec::new();
        events.push(
            Json::obj()
                .field("ph", "M")
                .field("name", "process_name")
                .field("pid", 1i64)
                .field("tid", 0i64)
                .field("args", Json::obj().field("name", "slc")),
        );
        for (pid, name) in self.processes() {
            events.push(
                Json::obj()
                    .field("ph", "M")
                    .field("name", "process_name")
                    .field("pid", pid)
                    .field("tid", 0i64)
                    .field("args", Json::obj().field("name", name.as_str())),
            );
            events.push(
                Json::obj()
                    .field("ph", "M")
                    .field("name", "thread_name")
                    .field("pid", pid)
                    .field("tid", 0i64)
                    .field("args", Json::obj().field("name", name)),
            );
        }
        for (tid, name) in self.tracks() {
            events.push(
                Json::obj()
                    .field("ph", "M")
                    .field("name", "thread_name")
                    .field("pid", 1i64)
                    .field("tid", tid)
                    .field("args", Json::obj().field("name", name)),
            );
        }
        if let Some(buf) = &self.buf {
            let remote = buf.remote_tracks.lock().unwrap();
            for (&(pid, tid), name) in remote.iter() {
                events.push(
                    Json::obj()
                        .field("ph", "M")
                        .field("name", "thread_name")
                        .field("pid", pid)
                        .field("tid", tid)
                        .field("args", Json::obj().field("name", name.as_str())),
                );
            }
        }
        for ev in self.events() {
            let mut args = Json::obj();
            for (k, v) in ev.args {
                args = args.field(k, v);
            }
            events.push(
                Json::obj()
                    .field("ph", "X")
                    .field("name", ev.name)
                    .field("cat", ev.cat)
                    .field("pid", ev.pid)
                    .field("tid", ev.tid)
                    .field("ts", ev.ts_ns as f64 / 1000.0)
                    .field("dur", ev.dur_ns as f64 / 1000.0)
                    .field("args", args),
            );
        }
        let other = Json::obj()
            .field("generator", "slc-trace")
            .field_opt("trace_id", self.ctx().map(|c| c.trace_id_hex()));
        let doc = Json::obj()
            .field("displayTimeUnit", "ms")
            .field("otherData", other)
            .field("traceEvents", Json::Arr(events));
        Some(doc.to_pretty())
    }

    /// Export the structured event log: one compact JSON object per line
    /// (`ts_us`, `dur_us`, `pid`, `tid`, `cat`, `name`, `args`). `None` if
    /// disabled.
    pub fn to_jsonl(&self) -> Option<String> {
        self.buf.as_ref()?;
        let mut out = String::new();
        for ev in self.events() {
            let mut args = Json::obj();
            for (k, v) in ev.args {
                args = args.field(k, v);
            }
            let line = Json::obj()
                .field("ts_us", ev.ts_ns as f64 / 1000.0)
                .field("dur_us", ev.dur_ns as f64 / 1000.0)
                .field("pid", ev.pid)
                .field("tid", ev.tid)
                .field("cat", ev.cat)
                .field("name", ev.name)
                .field("args", args);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        Some(out)
    }
}

struct SpanRec {
    buf: Arc<TraceBuf>,
    name: String,
    cat: &'static str,
    pid: u32,
    tid: u32,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl std::fmt::Debug for SpanRec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRec")
            .field("name", &self.name)
            .field("cat", &self.cat)
            .finish_non_exhaustive()
    }
}

/// An open span; records one complete event when dropped. Obtained from
/// [`Tracer::span`] / [`Tracer::span_dyn`].
#[derive(Debug)]
#[must_use = "a span records its duration when dropped; binding it to _ closes it immediately"]
pub struct Span {
    rec: Option<SpanRec>,
}

impl Span {
    /// Attach an argument. The conversion into [`ArgValue`] only happens
    /// when the span is recording, so `&str`/`String` args are free on the
    /// disabled path.
    pub fn arg(&mut self, key: &'static str, v: impl Into<ArgValue>) {
        if let Some(rec) = &mut self.rec {
            rec.args.push((key, v.into()));
        }
    }

    /// Whether this span will be recorded (i.e. the tracer was enabled).
    pub fn is_recording(&self) -> bool {
        self.rec.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.rec.take() {
            let end_ns = rec.buf.now_ns();
            let ev = TraceEvent {
                name: rec.name,
                cat: rec.cat,
                pid: rec.pid,
                tid: rec.tid,
                ts_ns: rec.start_ns,
                dur_ns: end_ns.saturating_sub(rec.start_ns),
                args: rec.args,
            };
            rec.buf.events.lock().unwrap().push(ev);
        }
    }
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// number of `ph:"X"` complete events
    pub spans: usize,
    /// distinct tracks (tids) carrying at least one span
    pub tracks: Vec<i64>,
    /// track names from `thread_name` metadata, tid-ordered
    pub track_names: Vec<(i64, String)>,
    /// distinct span names, sorted
    pub span_names: Vec<String>,
}

/// Validate a Chrome trace-event JSON document: structure, required event
/// fields, and that every track carrying spans is named via `thread_name`
/// metadata (what Perfetto uses to label timeline rows).
pub fn validate_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("top-level object must carry a traceEvents array")?;
    let mut spans = 0usize;
    let mut tracks = std::collections::BTreeSet::new();
    let mut track_names = BTreeMap::new();
    let mut span_names = std::collections::BTreeSet::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |e: String| format!("event {i}: {e}");
        let ph: String = ev.req("ph").map_err(at)?;
        let name: String = ev.req("name").map_err(at)?;
        let tid: i64 = ev.req("tid").map_err(at)?;
        ev.req::<i64>("pid").map_err(at)?;
        match ph.as_str() {
            "X" => {
                let ts: f64 = ev.req("ts").map_err(at)?;
                let dur: f64 = ev.req("dur").map_err(at)?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                spans += 1;
                tracks.insert(tid);
                span_names.insert(name);
            }
            "M" if name == "thread_name" => {
                let tname = ev
                    .get("args")
                    .ok_or("missing field `args`".to_string())
                    .and_then(|a| a.req::<String>("name"))
                    .map_err(|e| at(format!("thread_name args: {e}")))?;
                track_names.insert(tid, tname);
            }
            "M" => {}
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for tid in &tracks {
        if !track_names.contains_key(tid) {
            return Err(format!("track {tid} carries spans but has no thread_name"));
        }
    }
    Ok(TraceSummary {
        spans,
        tracks: tracks.into_iter().collect(),
        track_names: track_names.into_iter().collect(),
        span_names: span_names.into_iter().collect(),
    })
}

/// Summary returned by [`validate_event_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLogSummary {
    /// number of event lines
    pub events: usize,
    /// distinct (pid, tid) pairs carrying events
    pub tracks: usize,
    /// distinct span names, sorted
    pub span_names: Vec<String>,
}

/// Validate a structured span log ([`Tracer::to_jsonl`] output): one JSON
/// object per line carrying `ts_us`/`dur_us`/`pid`/`tid`/`cat`/`name`,
/// with timestamps monotone non-decreasing within each (pid, tid) track.
pub fn validate_event_log(text: &str) -> Result<EventLogSummary, String> {
    let mut events = 0usize;
    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut span_names = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let obj = Json::parse(line).map_err(|e| at(format!("not valid JSON: {e}")))?;
        let ts: f64 = obj.req("ts_us").map_err(at)?;
        let dur: f64 = obj.req("dur_us").map_err(at)?;
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("line {}: negative ts_us/dur_us", i + 1));
        }
        let pid: i64 = obj.req("pid").map_err(at)?;
        let tid: i64 = obj.req("tid").map_err(at)?;
        obj.req::<String>("cat").map_err(at)?;
        let name: String = obj.req("name").map_err(at)?;
        let prev = last_ts.entry((pid, tid)).or_insert(0.0);
        if ts < *prev {
            return Err(format!(
                "line {}: ts_us {ts} regresses below {} on track ({pid}, {tid})",
                i + 1,
                *prev
            ));
        }
        *prev = ts;
        span_names.insert(name);
        events += 1;
    }
    if events == 0 {
        return Err("event log carries no events".into());
    }
    Ok(EventLogSummary {
        events,
        tracks: last_ts.len(),
        span_names: span_names.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        // The no-clock-read / no-allocation contract is asserted in the
        // isolated process test crates/trace/tests/zero_cost.rs (the global
        // clock counter would race with other unit tests here).
        let t = Tracer::disabled();
        for _ in 0..1000 {
            let mut s = t.span("stage", "parse");
            s.arg("n", 3u64);
            drop(s);
            let _named = t.span_dyn("cell", || unreachable!("dyn name built while disabled"));
        }
        t.set_thread_track(7, "worker-7");
        assert_eq!(t.event_count(), 0);
        assert!(t.to_chrome_json().is_none());
        assert!(t.to_jsonl().is_none());
    }

    #[test]
    fn enabled_tracer_records_spans_with_args_and_tracks() {
        let t = Tracer::enabled();
        t.set_thread_track(0, "main");
        {
            let mut s = t.span("stage", "parse");
            s.arg("n", 3u64);
            s.arg("kind", "orig");
        }
        {
            let _outer = t.span("cell", "outer");
            let _inner = t.span_dyn("stage", || format!("inner-{}", 1));
        }
        assert_eq!(t.event_count(), 3);
        let evs = t.events();
        assert_eq!(evs[0].name, "parse");
        assert_eq!(
            evs[0].args,
            vec![("n", ArgValue::I(3)), ("kind", ArgValue::S("orig".into()))]
        );
        // outer strictly encloses inner and sorts first at equal granularity
        let outer = evs.iter().find(|e| e.name == "outer").unwrap();
        let inner = evs.iter().find(|e| e.name == "inner-1").unwrap();
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(outer.ts_ns + outer.dur_ns >= inner.ts_ns + inner.dur_ns);
        assert_eq!(t.tracks(), vec![(0, "main".to_string())]);
    }

    #[test]
    fn chrome_export_validates_and_jsonl_lines_parse() {
        let t = Tracer::enabled();
        t.set_thread_track(1, "worker-1");
        {
            let mut s = t.span("stage", "simulate");
            s.arg("cycles", 99u64);
        }
        let chrome = t.to_chrome_json().unwrap();
        let summary = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.tracks, vec![1]);
        assert_eq!(summary.track_names, vec![(1, "worker-1".to_string())]);
        assert_eq!(summary.span_names, vec!["simulate".to_string()]);

        let jsonl = t.to_jsonl().unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        let obj = Json::parse(lines[0]).unwrap();
        assert_eq!(obj.get("name").and_then(Json::as_str), Some("simulate"));
        assert_eq!(obj.get("cat").and_then(Json::as_str), Some("stage"));
        assert_eq!(
            obj.get("args")
                .and_then(|a| a.get("cycles"))
                .and_then(Json::as_i64),
            Some(99)
        );
    }

    #[test]
    fn process_tracks_render_as_separate_perfetto_processes() {
        let t = Tracer::enabled();
        t.set_thread_track(0, "dispatcher");
        t.set_process_track(3, "shard-1");
        {
            let _s = t.span("shard", "chunk");
        }
        t.set_process_track(1, "slc");
        {
            let _s = t.span("batch", "reduce");
        }
        assert_eq!(t.processes(), vec![(3, "shard-1".to_string())]);
        let evs = t.events();
        // sort is (pid, tid, ts, ...): the pid-1 span precedes the pid-3 span
        assert_eq!(evs[0].name, "reduce");
        assert_eq!(evs[0].pid, 1);
        assert_eq!(evs[1].name, "chunk");
        assert_eq!(evs[1].pid, 3);

        let chrome = t.to_chrome_json().unwrap();
        let summary = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(summary.spans, 2);
        let doc = Json::parse(&chrome).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let proc_names: Vec<(i64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .map(|e| {
                (
                    e.get("pid").and_then(Json::as_i64).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(proc_names, vec![(1, "slc"), (3, "shard-1")]);

        let jsonl = t.to_jsonl().unwrap();
        let line = Json::parse(jsonl.lines().nth(1).unwrap()).unwrap();
        assert_eq!(line.get("pid").and_then(Json::as_i64), Some(3));
    }

    #[test]
    fn trace_ctx_round_trips_through_hex() {
        let ctx = TraceCtx::fresh();
        assert_ne!(ctx.trace_id, 0);
        assert_eq!(ctx.parent_span, 0);
        let back = TraceCtx::from_hex(&ctx.trace_id_hex(), &ctx.parent_span_hex()).unwrap();
        assert_eq!(back, ctx);
        let child = ctx.child(42);
        assert_eq!(child.trace_id, ctx.trace_id);
        assert_eq!(child.parent_span, 42);
        assert!(TraceCtx::from_hex("zz", "0").is_err());
    }

    #[test]
    fn first_ctx_binding_wins() {
        let t = Tracer::enabled();
        assert_eq!(t.ctx(), None);
        let a = TraceCtx {
            trace_id: 7,
            parent_span: 0,
        };
        t.set_ctx(a);
        t.set_ctx(TraceCtx {
            trace_id: 9,
            parent_span: 1,
        });
        assert_eq!(t.ctx(), Some(a));
        // disabled tracers hold no context
        let d = Tracer::disabled();
        d.set_ctx(a);
        assert_eq!(d.ctx(), None);
    }

    #[test]
    fn process_dump_merges_into_one_validating_trace() {
        let ctx = TraceCtx {
            trace_id: 0xabcd,
            parent_span: 0,
        };
        // "remote" process: a worker with two tracks and args
        let remote = Tracer::enabled();
        remote.set_ctx(ctx);
        remote.set_thread_track(0, "main");
        {
            let mut s = remote.span("stage", "simulate");
            s.arg("cycles", 99u64);
        }
        let dump = remote.export_process_dump("shard").unwrap();

        // local process: dispatcher with its own spans
        let local = Tracer::enabled();
        local.set_ctx(ctx);
        local.set_thread_track(0, "main");
        {
            let _s = local.span("batch", "batch.run");
        }
        let n = local.import_process_dump(&dump, 2, "shard-0").unwrap();
        assert_eq!(n, 1);
        assert_eq!(local.processes(), vec![(2, "shard".to_string())]);

        let chrome = local.to_chrome_json().unwrap();
        let summary = validate_chrome_trace(&chrome).unwrap();
        assert_eq!(summary.spans, 2);
        // the imported span landed on pid 2 with its tid shifted off 0
        let evs = local.events();
        let imported = evs.iter().find(|e| e.name == "simulate").unwrap();
        assert_eq!((imported.pid, imported.tid), (2, 1));
        // merged doc carries the shared trace id
        assert!(chrome.contains("\"trace_id\": \"000000000000abcd\""));
        // args survive as a folded rendering
        assert!(matches!(&imported.args[0].1, ArgValue::S(s) if s.contains("cycles")));
    }

    #[test]
    fn import_rejects_foreign_trace_ids_and_bad_schemas() {
        let a = Tracer::enabled();
        a.set_ctx(TraceCtx {
            trace_id: 1,
            parent_span: 0,
        });
        let b = Tracer::enabled();
        b.set_ctx(TraceCtx {
            trace_id: 2,
            parent_span: 0,
        });
        b.set_thread_track(0, "main");
        {
            let _s = b.span("stage", "parse");
        }
        let dump = b.export_process_dump("other").unwrap();
        let err = a.import_process_dump(&dump, 2, "other").unwrap_err();
        assert!(err.contains("trace"), "{err}");
        assert!(a
            .import_process_dump("{\"schema\":\"nope\"}", 2, "x")
            .is_err());
        // a disabled importer is a no-op, not an error
        assert_eq!(
            Tracer::disabled()
                .import_process_dump(&dump, 2, "x")
                .unwrap(),
            0
        );
    }

    #[test]
    fn event_log_validator_checks_monotone_timestamps() {
        let t = Tracer::enabled();
        t.set_thread_track(0, "main");
        for _ in 0..3 {
            let _s = t.span("stage", "parse");
        }
        let log = t.to_jsonl().unwrap();
        let sum = validate_event_log(&log).unwrap();
        assert_eq!(sum.events, 3);
        assert_eq!(sum.tracks, 1);
        assert_eq!(sum.span_names, vec!["parse".to_string()]);

        assert!(validate_event_log("").is_err());
        assert!(validate_event_log("not json\n").is_err());
        let regress = "{\"ts_us\":5.0,\"dur_us\":1.0,\"pid\":1,\"tid\":0,\"cat\":\"c\",\"name\":\"a\"}\n\
                       {\"ts_us\":4.0,\"dur_us\":1.0,\"pid\":1,\"tid\":0,\"cat\":\"c\",\"name\":\"b\"}\n";
        assert!(validate_event_log(regress).unwrap_err().contains("regress"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"{"foo":1}"#).is_err());
        // span on an unnamed track
        let bad = r#"{"traceEvents":[{"ph":"X","name":"s","pid":1,"tid":4,"ts":0.0,"dur":1.0,"args":{}}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("thread_name"));
        // missing dur
        let bad2 = r#"{"traceEvents":[{"ph":"X","name":"s","pid":1,"tid":0,"ts":0.0}]}"#;
        assert!(validate_chrome_trace(bad2).is_err());
    }
}
