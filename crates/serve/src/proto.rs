//! The `slc serve` wire protocol: newline-delimited JSON.
//!
//! One request per line, one response per line, always in order — the
//! daemon never reorders responses within a connection. Every object
//! carries a `type` tag. The protocol version rides in the handshake-free
//! schema constant [`PROTO_SCHEMA`], which the `stats` response echoes.
//!
//! The sharded batch tier speaks a sibling NDJSON protocol over worker
//! pipes (`slc-shard-proto-v3`, `slc_pipeline::shard`) with the same
//! framing discipline — one line, one typed object, malformed input is a
//! protocol fault rather than a wedge. They are deliberately separate
//! schemas: this one is request/response for interactive clients, that
//! one is a streaming dispatcher/worker conversation.
//!
//! ## Requests
//!
//! ```json
//! {"type":"compile","source":"…","passes":"normalize,slms","paper_style":false}
//! {"type":"explain","source":"…","passes":"slms"}
//! {"type":"verify","source":"…","scheduler":"exact"}
//! {"type":"stats"}
//! {"type":"dump"}
//! {"type":"metrics"}
//! {"type":"ping"}
//! {"type":"shutdown"}
//! ```
//!
//! `source` is required for compile/explain/verify. Optional knobs mirror
//! the one-shot CLI flags and default the same way: `passes` (plan text,
//! default `slms`), `expansion` (`mve`/`scalar`/`off`), `filter` (bool,
//! default true — `false` is `--no-filter`), `scheduler`
//! (`heuristic`/`exact`; like the CLI, `exact` without an explicit
//! `passes` swaps in the `exact` plan), `paper_style` (compile only).
//!
//! Compile/explain/verify requests may additionally carry a distributed
//! trace context — `trace_id` and `parent_span`, each a 16-digit hex u64.
//! A traced daemon binds its tracer to the first context it sees, tags the
//! request span with both fields, and the `dump` verb returns a
//! `slc-span-dump-v1` document the client can import to stitch daemon
//! spans into its own Chrome trace.
//!
//! ## Responses
//!
//! ```json
//! {"type":"compile","ok":true,"cached":false,"output":"…"}
//! {"type":"explain","ok":true,"output":"…"}
//! {"type":"verify","ok":true,"clean":true,"output":"…"}
//! {"type":"stats","ok":true,"schema":"slc-serve-proto-v1","counters":{…}}
//! {"type":"dump","ok":true,"trace":"…","flight":"…"}
//! {"type":"metrics","ok":true,"text":"…"}
//! {"type":"pong","ok":true}
//! {"type":"shutdown","ok":true}
//! {"type":"error","ok":false,"kind":"…","exit_code":1,"message":"…"}
//! ```
//!
//! `output` is byte-identical to the corresponding one-shot CLI stdout
//! (`slc`, `slc explain --json`, `slc verify`). Error kinds map onto the
//! CLI exit-code contract: `parse` and `plan` (the [`ServiceError`]
//! stages, whose messages embed the structured `SlmsError` reasons) carry
//! exit code 1, `usage` (malformed request line, unknown type, bad knob
//! value) and `too-large` (a request line over [`MAX_LINE`] bytes; the
//! daemon closes the connection after answering) carry 2, and the
//! daemon-transient kinds `busy` (admission queue full), `timeout`
//! (per-request deadline expired) and `shutdown` (daemon draining) carry
//! 3 — retryable, with no one-shot equivalent.

use slc_core::{Expansion, SchedulerKind, SlmsConfig};
use slc_pipeline::{Json, PassPlan, ServiceError};
use slc_trace::{CounterRegistry, FromJson, TraceCtx};

/// Protocol schema tag, echoed by the `stats` response.
pub const PROTO_SCHEMA: &str = "slc-serve-proto-v1";

/// The longest request line the daemon reads, newline excluded (the whole
/// 46-program workload corpus is under 25 KB).
pub const MAX_LINE: usize = 1 << 20;

/// Knobs shared by compile/explain/verify requests, mirroring the one-shot
/// CLI flags (and defaulting identically).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestOpts {
    /// pass plan text (`--passes`); `None` = the default `slms` plan
    pub passes: Option<String>,
    /// expansion kind (`--expansion`)
    pub expansion: Option<Expansion>,
    /// apply the §4 memory-ref-ratio filter (`false` = `--no-filter`)
    pub filter: bool,
    /// MI placement scheduler (`--scheduler`)
    pub scheduler: Option<SchedulerKind>,
    /// render `stmt; || stmt;` kernels (`--paper-style`; compile only)
    pub paper_style: bool,
    /// caller-supplied distributed trace context (`trace_id` +
    /// `parent_span` hex wire fields); when present the daemon binds its
    /// tracer to this trace so the client can stitch daemon spans into its
    /// own timeline
    pub ctx: Option<TraceCtx>,
}

impl RequestOpts {
    /// Resolve the knobs into the pass plan and SLMS config the one-shot
    /// CLI would build: defaults from [`SlmsConfig::default`], and
    /// `scheduler: exact` without explicit `passes` swaps in the `exact`
    /// plan.
    pub fn resolve(&self) -> Result<(PassPlan, SlmsConfig), String> {
        let mut cfg = SlmsConfig::default();
        if let Some(x) = self.expansion {
            cfg.expansion = x;
        }
        if let Some(s) = self.scheduler {
            cfg.scheduler = s;
        }
        cfg.apply_filter = self.filter;
        let plan = match &self.passes {
            Some(text) => PassPlan::parse(text).map_err(|e| format!("passes: {e}"))?,
            None if cfg.scheduler == SchedulerKind::Exact => PassPlan::exact_only(),
            None => PassPlan::slms_only(),
        };
        Ok((plan, cfg))
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// run a pass plan and return the optimized source
    Compile {
        /// program text
        source: String,
        /// CLI-mirroring knobs
        opts: RequestOpts,
    },
    /// per-loop JSONL decision trace (like `slc explain --json`)
    Explain {
        /// program text
        source: String,
        /// CLI-mirroring knobs
        opts: RequestOpts,
    },
    /// lint + static verification report (like `slc verify`)
    Verify {
        /// program text
        source: String,
        /// CLI-mirroring knobs
        opts: RequestOpts,
    },
    /// deterministic counter snapshot
    Stats,
    /// observability dump: span-dump document (if tracing) + flight ring
    Dump,
    /// Prometheus text exposition of counters and histograms
    Metrics,
    /// liveness probe (answered inline, never queued)
    Ping,
    /// begin graceful drain; the response is the last line on this socket
    Shutdown,
}

/// Typed error classes, each mapped onto the CLI exit-code contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// malformed request (bad JSON, unknown type, invalid knob) — exit 2
    Usage,
    /// request line longer than [`MAX_LINE`]; the connection closes — exit 2
    TooLarge,
    /// the source did not parse — exit 1
    Parse,
    /// the pass plan failed structurally — exit 1
    Plan,
    /// admission queue full; retry later — exit 3 (daemon-transient)
    Busy,
    /// per-request deadline expired — exit 3 (daemon-transient)
    Timeout,
    /// daemon is draining — exit 3 (daemon-transient)
    Shutdown,
}

impl ErrorKind {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::TooLarge => "too-large",
            ErrorKind::Parse => "parse",
            ErrorKind::Plan => "plan",
            ErrorKind::Busy => "busy",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Shutdown => "shutdown",
        }
    }

    /// The exit code a one-shot CLI invocation hitting this error class
    /// would return (3 = daemon-transient, retryable, no CLI equivalent).
    pub fn exit_code(&self) -> i64 {
        match self {
            ErrorKind::Usage | ErrorKind::TooLarge => 2,
            ErrorKind::Parse | ErrorKind::Plan => 1,
            ErrorKind::Busy | ErrorKind::Timeout | ErrorKind::Shutdown => 3,
        }
    }

    fn from_label(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "usage" => ErrorKind::Usage,
            "too-large" => ErrorKind::TooLarge,
            "parse" => ErrorKind::Parse,
            "plan" => ErrorKind::Plan,
            "busy" => ErrorKind::Busy,
            "timeout" => ErrorKind::Timeout,
            "shutdown" => ErrorKind::Shutdown,
            _ => return None,
        })
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// successful compile
    Compile {
        /// plan artifact came from cache (deterministic under a fixed
        /// request order)
        cached: bool,
        /// optimized source, byte-identical to one-shot `slc` stdout
        output: String,
    },
    /// successful explain (JSONL text)
    Explain {
        /// the per-loop trace, byte-identical to `slc explain --json`
        output: String,
    },
    /// successful verify
    Verify {
        /// no violations and no error-severity lints
        clean: bool,
        /// report text, byte-identical to `slc verify` stdout
        output: String,
    },
    /// counter snapshot
    Stats {
        /// the deterministic counter registry (includes the `serve.*`
        /// family)
        counters: CounterRegistry,
    },
    /// observability dump
    Dump {
        /// `slc-span-dump-v1` JSONL document of the daemon's spans so far;
        /// `None` when the daemon is not tracing
        trace: Option<String>,
        /// flight-recorder ring as `slc-flight-v1` JSONL
        flight: String,
    },
    /// Prometheus text exposition
    Metrics {
        /// `# TYPE`-annotated counter and histogram families
        text: String,
    },
    /// ping acknowledgement
    Pong,
    /// drain acknowledged; the daemon stops accepting new requests
    ShutdownAck,
    /// typed failure
    Error {
        /// error class
        kind: ErrorKind,
        /// human-readable detail
        message: String,
    },
}

impl Response {
    /// A typed error from a compile-service failure.
    pub fn from_service_error(e: &ServiceError) -> Response {
        match e {
            ServiceError::Parse(m) => Response::Error {
                kind: ErrorKind::Parse,
                message: m.clone(),
            },
            ServiceError::Plan(m) => Response::Error {
                kind: ErrorKind::Plan,
                message: m.clone(),
            },
        }
    }

    /// Is this an `error` response?
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }

    /// Serialize as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Response::Compile { cached, output } => Json::obj()
                .field("type", "compile")
                .field("ok", true)
                .field("cached", *cached)
                .field("output", output.as_str()),
            Response::Explain { output } => Json::obj()
                .field("type", "explain")
                .field("ok", true)
                .field("output", output.as_str()),
            Response::Verify { clean, output } => Json::obj()
                .field("type", "verify")
                .field("ok", true)
                .field("clean", *clean)
                .field("output", output.as_str()),
            Response::Stats { counters } => Json::obj()
                .field("type", "stats")
                .field("ok", true)
                .field("schema", PROTO_SCHEMA)
                .field("counters", counters),
            Response::Dump { trace, flight } => Json::obj()
                .field("type", "dump")
                .field("ok", true)
                .field_opt("trace", trace.as_deref())
                .field("flight", flight.as_str()),
            Response::Metrics { text } => Json::obj()
                .field("type", "metrics")
                .field("ok", true)
                .field("text", text.as_str()),
            Response::Pong => Json::obj().field("type", "pong").field("ok", true),
            Response::ShutdownAck => Json::obj().field("type", "shutdown").field("ok", true),
            Response::Error { kind, message } => Json::obj()
                .field("type", "error")
                .field("ok", false)
                .field("kind", kind.label())
                .field("exit_code", kind.exit_code())
                .field("message", message.as_str()),
        }
        .to_string()
    }

    /// Parse one response line.
    pub fn parse(line: &str) -> Result<Response, String> {
        let obj = Json::parse(line)?;
        let ty: String = obj.req("type")?;
        let text = |key: &str| -> Result<String, String> {
            obj.req(key)
                .map_err(|_| format!("{ty} response has no {key}"))
        };
        let flag = |key: &str| obj.opt(key).map(Option::unwrap_or_default);
        Ok(match ty.as_str() {
            "compile" => Response::Compile {
                cached: flag("cached")?,
                output: text("output")?,
            },
            "explain" => Response::Explain {
                output: text("output")?,
            },
            "verify" => Response::Verify {
                clean: flag("clean")?,
                output: text("output")?,
            },
            "stats" => Response::Stats {
                counters: obj.req("counters")?,
            },
            "dump" => Response::Dump {
                trace: obj.opt("trace")?,
                flight: text("flight")?,
            },
            "metrics" => Response::Metrics {
                text: text("text")?,
            },
            "pong" => Response::Pong,
            "shutdown" => Response::ShutdownAck,
            "error" => Response::Error {
                kind: obj
                    .opt::<String>("kind")?
                    .as_deref()
                    .and_then(ErrorKind::from_label)
                    .ok_or("error response has no known kind")?,
                message: text("message")?,
            },
            other => return Err(format!("unknown response type `{other}`")),
        })
    }
}

fn opts_fields(obj: Json, opts: &RequestOpts) -> Json {
    obj.field_opt("passes", opts.passes.as_deref())
        .field_opt("expansion", opts.expansion.map(|x| x.label()))
        .field_opt("filter", (!opts.filter).then_some(false))
        .field_opt("scheduler", opts.scheduler.map(|s| s.label()))
        .field_opt("paper_style", opts.paper_style.then_some(true))
        .field_opt("trace_id", opts.ctx.map(|c| c.trace_id_hex()))
        .field_opt("parent_span", opts.ctx.map(|c| c.parent_span_hex()))
}

/// A knob present in the request must decode; `usage` is the error text
/// when it does not.
fn knob<T: FromJson>(obj: &Json, key: &str, usage: &str) -> Result<Option<T>, String> {
    obj.get(key)
        .map(|_| obj.req(key).map_err(|_| usage.to_string()))
        .transpose()
}

fn parse_opts(obj: &Json) -> Result<RequestOpts, String> {
    const EXPANSION: &str = "`expansion` must be mve|scalar|off";
    const SCHEDULER: &str = "`scheduler` must be heuristic|exact";
    let ctx = match (
        obj.get("trace_id").and_then(Json::as_str),
        obj.get("parent_span").and_then(Json::as_str),
    ) {
        (Some(tid), Some(ps)) => Some(TraceCtx::from_hex(tid, ps)?),
        (None, None) => None,
        _ => return Err("`trace_id` and `parent_span` must be provided together".to_string()),
    };
    Ok(RequestOpts {
        passes: knob(obj, "passes", "`passes` must be a string")?,
        expansion: knob::<String>(obj, "expansion", EXPANSION)?
            .map(|l| Expansion::from_label(&l).ok_or(EXPANSION))
            .transpose()?,
        filter: knob(obj, "filter", "`filter` must be a boolean")?.unwrap_or(true),
        scheduler: knob::<String>(obj, "scheduler", SCHEDULER)?
            .map(|l| SchedulerKind::from_label(&l).ok_or(SCHEDULER))
            .transpose()?,
        paper_style: knob(obj, "paper_style", "`paper_style` must be a boolean")?.unwrap_or(false),
        ctx,
    })
}

impl Request {
    /// Serialize as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Compile { source, opts } => opts_fields(
                Json::obj()
                    .field("type", "compile")
                    .field("source", source.as_str()),
                opts,
            ),
            Request::Explain { source, opts } => opts_fields(
                Json::obj()
                    .field("type", "explain")
                    .field("source", source.as_str()),
                opts,
            ),
            Request::Verify { source, opts } => opts_fields(
                Json::obj()
                    .field("type", "verify")
                    .field("source", source.as_str()),
                opts,
            ),
            Request::Stats => Json::obj().field("type", "stats"),
            Request::Dump => Json::obj().field("type", "dump"),
            Request::Metrics => Json::obj().field("type", "metrics"),
            Request::Ping => Json::obj().field("type", "ping"),
            Request::Shutdown => Json::obj().field("type", "shutdown"),
        }
        .to_string()
    }

    /// Parse one request line. Errors are usage-class: the daemon answers
    /// them with an `error` response (`kind: "usage"`, exit code 2) and
    /// keeps the connection alive.
    pub fn parse(line: &str) -> Result<Request, String> {
        let obj = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let ty: String = obj.req("type").map_err(|_| "request has no `type` field")?;
        let source = || -> Result<String, String> {
            obj.req("source")
                .map_err(|_| format!("`{ty}` request requires a `source` string"))
        };
        Ok(match ty.as_str() {
            "compile" => Request::Compile {
                source: source()?,
                opts: parse_opts(&obj)?,
            },
            "explain" => Request::Explain {
                source: source()?,
                opts: parse_opts(&obj)?,
            },
            "verify" => Request::Verify {
                source: source()?,
                opts: parse_opts(&obj)?,
            },
            "stats" => Request::Stats,
            "dump" => Request::Dump,
            "metrics" => Request::Metrics,
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request type `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Compile {
                source: "int i;\nfor (i = 0; i < 4; i++) ;".to_string(),
                opts: RequestOpts {
                    passes: Some("normalize,slms".to_string()),
                    expansion: Some(Expansion::ScalarExpand),
                    filter: false,
                    scheduler: Some(SchedulerKind::Exact),
                    paper_style: true,
                    ctx: Some(TraceCtx::from_hex("00000000deadbeef", "0000000000000007").unwrap()),
                },
            },
            Request::Explain {
                source: "x".to_string(),
                opts: RequestOpts {
                    filter: true,
                    ..RequestOpts::default()
                },
            },
            Request::Verify {
                source: "y \"quoted\"".to_string(),
                opts: RequestOpts {
                    filter: true,
                    scheduler: Some(SchedulerKind::Heuristic),
                    ..RequestOpts::default()
                },
            },
            Request::Stats,
            Request::Dump,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let mut counters = CounterRegistry::default();
        counters.set("serve.requests", 7);
        let resps = [
            Response::Compile {
                cached: true,
                output: "a;\nb;\n".to_string(),
            },
            Response::Explain {
                output: "{}\n".to_string(),
            },
            Response::Verify {
                clean: false,
                output: "  summary: …\n".to_string(),
            },
            Response::Stats { counters },
            Response::Dump {
                trace: Some("{\"schema\":\"slc-span-dump-v1\"}\n".to_string()),
                flight: "{\"schema\":\"slc-flight-v1\"}\n".to_string(),
            },
            Response::Dump {
                trace: None,
                flight: String::new(),
            },
            Response::Metrics {
                text: "# TYPE slc_serve_requests counter\nslc_serve_requests 7\n".to_string(),
            },
            Response::Pong,
            Response::ShutdownAck,
            Response::Error {
                kind: ErrorKind::Busy,
                message: "admission queue full".to_string(),
            },
        ];
        for r in resps {
            let line = r.to_line();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn error_kinds_keep_the_exit_code_contract() {
        assert_eq!(ErrorKind::Usage.exit_code(), 2);
        assert_eq!(ErrorKind::Parse.exit_code(), 1);
        assert_eq!(ErrorKind::Plan.exit_code(), 1);
        for transient in [ErrorKind::Busy, ErrorKind::Timeout, ErrorKind::Shutdown] {
            assert_eq!(transient.exit_code(), 3);
        }
    }

    #[test]
    fn resolve_mirrors_cli_defaults() {
        let (plan, cfg) = RequestOpts {
            filter: true,
            ..RequestOpts::default()
        }
        .resolve()
        .unwrap();
        assert_eq!(plan.to_string(), "slms");
        assert!(cfg.apply_filter);
        // exact without passes swaps in the exact plan, like the CLI
        let (plan, cfg) = RequestOpts {
            filter: true,
            scheduler: Some(SchedulerKind::Exact),
            ..RequestOpts::default()
        }
        .resolve()
        .unwrap();
        assert_eq!(plan.to_string(), "exact");
        assert_eq!(cfg.scheduler, SchedulerKind::Exact);
        // explicit passes win
        let (plan, _) = RequestOpts {
            filter: true,
            passes: Some("normalize,slms".to_string()),
            scheduler: Some(SchedulerKind::Exact),
            ..RequestOpts::default()
        }
        .resolve()
        .unwrap();
        assert_eq!(plan.to_string(), "normalize,slms");
    }

    #[test]
    fn malformed_lines_are_usage_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"type\":\"nope\"}",
            "{\"type\":\"compile\"}",
            "{\"type\":\"compile\",\"source\":\"x\",\"expansion\":\"huge\"}",
            "{\"type\":\"compile\",\"source\":\"x\",\"trace_id\":\"ab\"}",
            "{\"type\":\"compile\",\"source\":\"x\",\"trace_id\":\"zz\",\"parent_span\":\"0\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
    }
}
