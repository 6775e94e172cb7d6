//! `slc bench-serve` — the daemon load generator.
//!
//! Replays the workload × pass-plan corpus against a daemon at a
//! configurable client concurrency, in `passes` full passes with a barrier
//! between them: with a fresh daemon, pass 1 populates the shared artifact
//! cache (every distinct (program, plan) key misses exactly once) and
//! every later pass is answered from it — so the *count* fields of the
//! report are deterministic and gateable, while latency distributions and
//! wall clock live in a separate `timing` section, following the
//! timing-sidecar discipline of `BENCH_batch.json`. Since v2 latencies are
//! folded into a log2-bucketed [`Histogram`] (the same type the daemon's
//! `metrics` verb exposes): percentiles are bucket upper bounds except the
//! exact max, and the report records the occupied bucket boundaries so the
//! baseline is self-describing.
//!
//! With no `addr` the bench owns the daemon: it spawns an in-process
//! [`Server`] on an ephemeral loopback port, replays the corpus, fetches a
//! `stats` snapshot, sends `shutdown` and verifies the drain was clean —
//! the full lifecycle the CI serve-smoke job gates.

use crate::client::Client;
use crate::daemon::{Endpoint, ServeConfig, Server};
use crate::proto::{Request, RequestOpts, Response};
use slc_pipeline::Json;
use slc_trace::{bucket_upper, Histogram, Tracer};
use std::time::{Duration, Instant};

/// Schema tag of the `BENCH_serve.json` document. v2: latency percentiles
/// come from a log2-bucketed histogram (p99.9 and exact max added, bucket
/// boundaries recorded); the `counts` section is unchanged from v1 so
/// count-based gates carry over.
pub const BENCH_SCHEMA: &str = "slc-serve-bench-v2";

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// daemon address (`host:port`); `None` = spawn an in-process daemon
    /// on an ephemeral loopback port and drive its full lifecycle
    pub addr: Option<String>,
    /// concurrent client connections
    pub clients: usize,
    /// full corpus replays (pass 2+ must be answered from cache)
    pub passes: usize,
    /// pass plans; the corpus is every plan × every built-in workload
    pub plans: Vec<String>,
    /// in-process daemon: per-request deadline
    pub timeout: Duration,
    /// in-process daemon: admission queue bound (clamped to ≥ `clients`
    /// so the bench itself is never backpressured)
    pub queue: usize,
    /// in-process daemon: artifact-store LRU capacity (`None` unbounded)
    pub capacity: Option<usize>,
    /// also send `shutdown` to an external daemon (`addr` mode) when done
    pub shutdown_external: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            addr: None,
            clients: 8,
            passes: 2,
            plans: vec!["slms".to_string(), "normalize,slms".to_string()],
            timeout: Duration::from_secs(30),
            queue: 64,
            capacity: None,
            shutdown_external: false,
        }
    }
}

/// Deterministic count fields of one bench run (gateable; no wall clock).
#[derive(Debug, Clone)]
pub struct BenchCounts {
    /// concurrent client connections
    pub clients: usize,
    /// corpus replays
    pub passes: usize,
    /// pass plans replayed
    pub plans: Vec<String>,
    /// distinct (workload, plan) corpus items
    pub corpus: usize,
    /// compile requests sent (corpus × passes)
    pub requests: usize,
    /// successful responses
    pub responses_ok: usize,
    /// error responses (the smoke gate requires 0)
    pub responses_error: usize,
    /// cache-hit responses per pass, pass-ordered
    pub pass_hits: Vec<usize>,
    /// hit rate of the final pass (the ≥ 90% gate)
    pub final_pass_hit_rate: f64,
    /// `serve.*` counter snapshot from the daemon's `stats` response
    /// (requests, rejections, timeouts, evictions, hits, refp_mismatches)
    pub serve: Vec<(String, u64)>,
    /// drain outcome (`None` when an external daemon was left running)
    pub drained_clean: Option<bool>,
}

/// One bench run: deterministic counts + wall-clock timing.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// deterministic, gateable counts
    pub counts: BenchCounts,
    /// end-to-end wall time
    pub wall_ns: u64,
    /// per-request latency distribution, nanoseconds, log2-bucketed
    pub latency: Histogram,
}

impl BenchReport {
    /// Render `BENCH_serve.json`: a `counts` section (deterministic,
    /// count-based — what gates compare) strictly separated from a
    /// `timing` section (the latency histogram and wall clock — baselines
    /// to eyeball, never gate).
    pub fn to_json(&self) -> String {
        let c = &self.counts;
        let mut serve = Json::obj();
        for (k, v) in &c.serve {
            serve = serve.field(k, *v as i64);
        }
        // occupied log2 buckets: inclusive upper bound (ms) → sample count
        let mut buckets = Json::obj();
        for (idx, &n) in self.latency.buckets().iter().enumerate() {
            if n > 0 {
                buckets = buckets.field(&format!("{}", bucket_upper(idx) as f64 / 1e6), n);
            }
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        Json::obj()
            .field("schema", BENCH_SCHEMA)
            .field(
                "counts",
                Json::obj()
                    .field("clients", c.clients)
                    .field("passes", c.passes)
                    .field("plans", c.plans.clone())
                    .field("corpus", c.corpus)
                    .field("requests", c.requests)
                    .field("responses_ok", c.responses_ok)
                    .field("responses_error", c.responses_error)
                    .field("pass_hits", c.pass_hits.clone())
                    .field("final_pass_hit_rate", c.final_pass_hit_rate)
                    .field("serve", serve)
                    .field("drained_clean", c.drained_clean),
            )
            .field(
                "timing",
                Json::obj()
                    .field("wall_ms", self.wall_ns as f64 / 1e6)
                    .field(
                        "latency_ms",
                        Json::obj()
                            .field("p50", ms(self.latency.percentile(0.50)))
                            .field("p90", ms(self.latency.percentile(0.90)))
                            .field("p99", ms(self.latency.percentile(0.99)))
                            .field("p99_9", ms(self.latency.percentile(0.999)))
                            .field("max", ms(self.latency.max())),
                    )
                    .field(
                        "latency_buckets_ms",
                        Json::obj()
                            .field("rule", "log2-ns")
                            .field("samples", self.latency.count())
                            .field("buckets", buckets),
                    ),
            )
            .to_pretty()
    }

    /// The serve-smoke gate: zero error responses, a final-pass hit rate
    /// of at least `min_hit_rate`, and (when the bench owned the daemon) a
    /// clean drain. Count-based only — wall clock never gates.
    pub fn gate(&self, min_hit_rate: f64) -> Result<(), String> {
        let c = &self.counts;
        if c.responses_error > 0 {
            return Err(format!("{} error response(s)", c.responses_error));
        }
        if c.final_pass_hit_rate < min_hit_rate {
            return Err(format!(
                "final-pass hit rate {:.3} below the {min_hit_rate:.3} gate",
                c.final_pass_hit_rate
            ));
        }
        if c.drained_clean == Some(false) {
            return Err("daemon did not drain cleanly".to_string());
        }
        Ok(())
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let c = &self.counts;
        format!(
            "{} request(s) over {} client(s) × {} pass(es): {} ok, {} error(s), \
             final-pass hit rate {:.1}%, p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms, wall {:.1} ms",
            c.requests,
            c.clients,
            c.passes,
            c.responses_ok,
            c.responses_error,
            c.final_pass_hit_rate * 100.0,
            self.latency.percentile(0.50) as f64 / 1e6,
            self.latency.percentile(0.99) as f64 / 1e6,
            self.latency.max() as f64 / 1e6,
            self.wall_ns as f64 / 1e6,
        )
    }
}

/// Build the corpus: every pass plan × every built-in workload.
fn corpus(plans: &[String]) -> Vec<Request> {
    let mut items = Vec::new();
    for plan in plans {
        for w in slc_workloads::all() {
            items.push(Request::Compile {
                source: w.source.to_string(),
                opts: RequestOpts {
                    passes: Some(plan.clone()),
                    filter: true,
                    ..RequestOpts::default()
                },
            });
        }
    }
    items
}

/// Run the bench. See [`BenchConfig`]; returns the report or a transport
/// error (a daemon that answers with typed `error` responses is NOT a
/// transport error — those are counted and fail [`BenchReport::gate`]).
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let items = corpus(&cfg.plans);
    if items.is_empty() || cfg.clients == 0 || cfg.passes == 0 {
        return Err("empty bench: need plans, clients ≥ 1 and passes ≥ 1".to_string());
    }

    // spawn the in-process daemon unless pointed at an external one
    let (addr, handle) = match &cfg.addr {
        Some(a) => (a.clone(), None),
        None => {
            let serve_cfg = ServeConfig {
                queue: cfg.queue.max(cfg.clients),
                timeout: cfg.timeout,
                capacity: cfg.capacity,
            };
            let handle = Server::spawn(
                &Endpoint::Tcp("127.0.0.1:0".to_string()),
                serve_cfg,
                Tracer::disabled(),
            )
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
            let addr = handle
                .local_addr()
                .ok_or("in-process daemon has no TCP address")?
                .to_string();
            (addr, Some(handle))
        }
    };

    // per client: Ok(vec of (ok, cached, latency_ns)) or a transport error
    type ClientResults = Result<Vec<(bool, bool, u64)>, String>;

    let t0 = Instant::now();
    let mut pass_hits: Vec<usize> = Vec::new();
    let mut responses_ok = 0usize;
    let mut responses_error = 0usize;
    let mut latency = Histogram::new();
    for _pass in 0..cfg.passes {
        // one pass: every client replays its round-robin share, barrier at
        // the end (so the next pass starts against a fully-warm cache)
        let results: Vec<ClientResults> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for client_id in 0..cfg.clients {
                let items = &items;
                let addr = &addr;
                joins.push(scope.spawn(move || {
                    let mut conn = Client::connect_tcp(addr)
                        .map_err(|e| format!("client {client_id}: connect: {e}"))?;
                    let mut out = Vec::new();
                    for req in items.iter().skip(client_id).step_by(cfg.clients.max(1)) {
                        let t = Instant::now();
                        let resp = conn
                            .request(req)
                            .map_err(|e| format!("client {client_id}: {e}"))?;
                        let ns = t.elapsed().as_nanos() as u64;
                        match resp {
                            Response::Compile { cached, .. } => out.push((true, cached, ns)),
                            r if r.is_error() => out.push((false, false, ns)),
                            _ => {
                                return Err(format!("client {client_id}: unexpected response type"))
                            }
                        }
                    }
                    Ok(out)
                }));
            }
            joins
                .into_iter()
                .map(|j| j.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect()
        });
        let mut hits = 0usize;
        for r in results {
            for (ok, cached, ns) in r? {
                if ok {
                    responses_ok += 1;
                    if cached {
                        hits += 1;
                    }
                } else {
                    responses_error += 1;
                }
                latency.record(ns);
            }
        }
        pass_hits.push(hits);
    }

    // final stats snapshot + lifecycle teardown on one control connection
    let mut control = Client::connect_tcp(&addr).map_err(|e| format!("control connect: {e}"))?;
    let serve = match control.request(&Request::Stats)? {
        Response::Stats { counters } => [
            "serve.requests",
            "serve.rejections",
            "serve.timeouts",
            "serve.evictions",
            "serve.hits",
            "serve.refp_mismatches",
        ]
        .iter()
        .map(|k| (k.to_string(), counters.get(k)))
        .collect(),
        other => return Err(format!("stats request answered with {other:?}")),
    };
    let drained_clean = if handle.is_some() || cfg.shutdown_external {
        match control.request(&Request::Shutdown)? {
            Response::ShutdownAck => {}
            other => return Err(format!("shutdown answered with {other:?}")),
        }
        handle.map(|h| h.wait().drained_clean)
    } else {
        None
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let last_pass_total = items.len().max(1);
    let final_pass_hit_rate = *pass_hits.last().unwrap_or(&0) as f64 / last_pass_total as f64;
    Ok(BenchReport {
        counts: BenchCounts {
            clients: cfg.clients,
            passes: cfg.passes,
            plans: cfg.plans.clone(),
            corpus: items.len(),
            requests: items.len() * cfg.passes,
            responses_ok,
            responses_error,
            pass_hits,
            final_pass_hit_rate,
            serve,
            drained_clean,
        },
        wall_ns,
        latency,
    })
}
