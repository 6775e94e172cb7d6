//! The `serve` workload: an in-process `slc serve` daemon on loopback,
//! driven by a closed loop of two clients (each sends its next request
//! only after the previous reply). The seed draws each client's request
//! stream: mostly `compile` over twelve knob sets (the `slms` and
//! `normalize,slms` plans × the `mve`/`scalar`/`off` expansions × plain or
//! paper-style output), a minority of uncached `verify` and `explain`
//! requests, over the corpus with Zipf-skewed program popularity. The
//! daemon's artifact stores hold fewer entries than the stream has distinct
//! keys, so they evict. Every response must equal what a fresh unbounded
//! `CompileService` answers to the same request.

use crate::ledger::{self, Layers, Ledger};
use crate::stats::{blocked_end_to_end, median, percentile, segment_end, Rng, SETUP_REPS};
use crate::{Args, Outcome};
use slc::analysis::{fingerprint_str, program_fingerprint};
use slc::ast::{parse_program, to_paper_style, to_source, Stmt};
use slc::pipeline::CompileService;
use slc::serve::{
    Client, Endpoint, Request, RequestOpts, Response, ServeConfig, Server, ServerHandle,
};
use slc::slms::{slms_program, Expansion, SlmsConfig};
use slc::trace::Tracer;
use slc::verify::{lint_program, verify_slms_program};
use std::time::{Duration, Instant};

// The traffic below is assumed, not measured: the repository holds no
// recorded request stream. The shares, the Zipf exponent (1, over corpus
// order), the uniform split over the knob sets and the store capacity only
// make the stream "mostly compile, skewed, evicting". Change them only
// together with the recorded numbers in perfbench/README.md.
const CLIENTS: usize = 2;
/// Artifact-store capacity per store, below the stream's distinct-key
/// count (assumed).
const CAPACITY: usize = 32;
const PLANS: [&str; 2] = ["slms", "normalize,slms"];
const EXPANSIONS: [Expansion; 3] = [Expansion::Mve, Expansion::ScalarExpand, Expansion::Off];
/// Share of `verify` and of `explain` requests in the stream (assumed).
const VERIFY_SHARE: f64 = 0.05;
const EXPLAIN_SHARE: f64 = 0.05;
/// Requests each client sends during set-up, to bring the daemon's stores
/// to their steady state.
const WARM_UP: usize = 100;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Compile,
    Verify,
    Explain,
}

/// One distinct request of the stream, with the answer it must get.
struct Spec {
    kind: Kind,
    plan: &'static str,
    expansion: Expansion,
    paper_style: bool,
    request: Request,
    expected: Response,
    /// sampling weight
    weight: f64,
}

fn opts(plan: &'static str, expansion: Expansion, paper_style: bool) -> RequestOpts {
    RequestOpts {
        passes: Some(plan.to_string()),
        expansion: Some(expansion),
        filter: true,
        paper_style,
        ..RequestOpts::default()
    }
}

/// Source and knobs of a compile-plane request (the only kind the stream
/// holds).
fn parts(request: &Request) -> (&str, &RequestOpts) {
    match request {
        Request::Compile { source, opts }
        | Request::Verify { source, opts }
        | Request::Explain { source, opts } => (source, opts),
        _ => unreachable!("the stream holds compile-plane requests only"),
    }
}

/// Answer `request` in process, through the compile service.
fn answer(svc: &CompileService, request: &Request) -> Response {
    let tracer = Tracer::disabled();
    let (source, o) = parts(request);
    let (plan, cfg) = match o.resolve() {
        Ok(x) => x,
        Err(e) => {
            return Response::Error {
                kind: slc::serve::ErrorKind::Usage,
                message: e,
            }
        }
    };
    match request {
        Request::Compile { .. } => {
            match svc.compile_request(source, &plan, &cfg, o.paper_style, &tracer) {
                Ok(out) => Response::Compile {
                    cached: out.cached,
                    output: out.output,
                },
                Err(e) => Response::from_service_error(&e),
            }
        }
        Request::Verify { .. } => match svc.verify_request(source, &cfg, &tracer) {
            Ok(out) => Response::Verify {
                clean: out.clean,
                output: out.output,
            },
            Err(e) => Response::from_service_error(&e),
        },
        _ => Response::Explain {
            output: svc.explain_request(source, &plan, &cfg),
        },
    }
}

/// Does `got` answer like `want`? The `cached` flag depends on the store's
/// history, so only the output and the verdict are compared.
fn matches(got: &Response, want: &Response) -> bool {
    match (got, want) {
        (Response::Compile { output: a, .. }, Response::Compile { output: b, .. }) => a == b,
        (Response::Explain { output: a }, Response::Explain { output: b }) => a == b,
        (
            Response::Verify {
                clean: c,
                output: a,
            },
            Response::Verify {
                clean: d,
                output: b,
            },
        ) => c == d && a == b,
        _ => false,
    }
}

/// Every distinct request the stream can hold, each answered by a fresh
/// unbounded service of its own, so no reference answer comes from a cache
/// entry another request left. Requests whose answer is an error are left
/// out, so no operation of the workload is expected to fail.
fn specs() -> Vec<Spec> {
    let programs = slc::workloads::all();
    // Zipf popularity over the corpus, by corpus order
    let h: f64 = (1..=programs.len()).map(|r| 1.0 / r as f64).sum();
    let mut out = Vec::new();
    for (p, w) in programs.iter().enumerate() {
        let pop = 1.0 / (p + 1) as f64 / h;
        let mut push = |kind, plan, expansion, paper_style, share: f64| {
            let o = opts(plan, expansion, paper_style);
            let source = w.source.to_string();
            let request = match kind {
                Kind::Compile => Request::Compile { source, opts: o },
                Kind::Verify => Request::Verify { source, opts: o },
                Kind::Explain => Request::Explain { source, opts: o },
            };
            let expected = answer(&CompileService::new(), &request);
            if !expected.is_error() {
                out.push(Spec {
                    kind,
                    plan,
                    expansion,
                    paper_style,
                    request,
                    expected,
                    weight: pop * share,
                });
            }
        };
        let knobs = PLANS.len() * EXPANSIONS.len() * 2;
        let compile_share = (1.0 - VERIFY_SHARE - EXPLAIN_SHARE) / knobs as f64;
        for plan in PLANS {
            for expansion in EXPANSIONS {
                for paper_style in [false, true] {
                    push(Kind::Compile, plan, expansion, paper_style, compile_share);
                }
            }
            push(
                Kind::Explain,
                plan,
                Expansion::Mve,
                false,
                EXPLAIN_SHARE / PLANS.len() as f64,
            );
        }
        push(Kind::Verify, "slms", Expansion::Mve, false, VERIFY_SHARE);
    }
    out
}

/// Seeded sampler over the specs' weights.
struct Stream {
    cdf: Vec<f64>,
    rng: Rng,
}

impl Stream {
    fn new(specs: &[Spec], seed: u64) -> Stream {
        let mut acc = 0.0;
        let cdf = specs
            .iter()
            .map(|s| {
                acc += s.weight;
                acc
            })
            .collect();
        Stream {
            cdf,
            rng: Rng::new(seed),
        }
    }

    fn next(&mut self) -> usize {
        let total = *self.cdf.last().expect("non-empty stream");
        let u = self.rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

fn client_seed(seed: u64, session: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x0100_0000_01b3) ^ session.wrapping_mul(0x9e37_79b9) ^ (client as u64 + 1)
}

struct Setup {
    specs: Vec<Spec>,
    daemon: ServerHandle,
    addr: String,
}

fn spawn_daemon() -> Result<(ServerHandle, String), String> {
    let handle = Server::spawn(
        &Endpoint::Tcp("127.0.0.1:0".into()),
        ServeConfig {
            queue: 64,
            timeout: Duration::from_secs(30),
            capacity: Some(CAPACITY),
        },
        Tracer::disabled(),
    )
    .map_err(|e| format!("cannot start the daemon: {e}"))?;
    let addr = handle
        .local_addr()
        .ok_or("daemon has no TCP address")?
        .to_string();
    Ok((handle, addr))
}

fn setup(args: &Args) -> Result<Setup, String> {
    let specs = specs();
    let (daemon, addr) = spawn_daemon()?;
    let st = Setup {
        specs,
        daemon,
        addr,
    };
    // warm-up: each client's stream seeded apart from the measured ones
    let mut client = Client::connect_tcp(&st.addr).map_err(|e| format!("connect: {e}"))?;
    let mut stream = Stream::new(&st.specs, !args.seed);
    for _ in 0..WARM_UP * CLIENTS {
        client.request(&st.specs[stream.next()].request)?;
    }
    Ok(st)
}

fn shut_down(daemon: ServerHandle) {
    daemon.stop();
    daemon.wait();
}

/// One request as a client saw it.
struct Sample {
    spec: usize,
    latency_s: f64,
    ok: bool,
}

/// Run the closed loop until `until`: every client sends its seeded
/// stream over its own connection. With a recording ledger, the client
/// also times both protocol codecs on each request it sends and each
/// response it receives.
fn drive(
    st: &Setup,
    args: &Args,
    session: u64,
    until: Instant,
    lg: &Ledger,
) -> Result<Vec<Vec<Sample>>, String> {
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<Sample>, String> {
                    lg.track(c as u32 + 1, &format!("client {c}"));
                    let mut client = Client::connect_tcp(&st.addr)
                        .map_err(|e| format!("client {c}: connect: {e}"))?;
                    let mut stream = Stream::new(&st.specs, client_seed(args.seed, session, c));
                    let mut out = Vec::new();
                    while out.is_empty() || Instant::now() < until {
                        let i = stream.next();
                        let spec = &st.specs[i];
                        let t = Instant::now();
                        let resp = client.request(&spec.request)?;
                        let latency_s = t.elapsed().as_secs_f64();
                        let corrupt = args.corrupt && out.is_empty();
                        let ok = !corrupt && matches(&resp, &spec.expected);
                        // the codecs are timed on every sixteenth request,
                        // which bounds the trace's size
                        if lg.is_recording() && out.len() % 16 == 0 {
                            let line = lg.call(ledger::REQ_ENCODE, || spec.request.to_line());
                            let _ = lg.call(ledger::REQ_DECODE, || Request::parse(&line));
                            let line = lg.call(ledger::RESP_ENCODE, || resp.to_line());
                            let _ = lg.call(ledger::RESP_DECODE, || Response::parse(&line));
                        }
                        out.push(Sample {
                            spec: i,
                            latency_s,
                            ok,
                        });
                    }
                    Ok(out)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if !args.trace {
        return measured(args);
    }
    let st = setup(args)?;
    let result = traced(args, &st);
    shut_down(st.daemon);
    result
}

/// The measured run is one session per segment of the run (`SETUP_REPS`).
/// Each session starts from its own set-up (a new daemon, warmed up) with
/// new client threads on new connections, and every metric is the median
/// over the sessions, so neither a stall nor one placement of the threads
/// on the cores decides it.
fn measured(args: &Args) -> Result<Outcome, String> {
    let (mut setups, mut blocks, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let run_start = Instant::now();
    for session in 0..SETUP_REPS {
        let t = Instant::now();
        let st = setup(args)?;
        setups.push(t.elapsed().as_secs_f64());
        let start = Instant::now();
        let until = segment_end(run_start, args.seconds, session);
        let per_client = drive(&st, args, session.into(), until, &Ledger::off());
        let elapsed_s = start.elapsed().as_secs_f64();
        shut_down(st.daemon);
        let per_client = per_client?;
        let samples: Vec<&Sample> = per_client.iter().flatten().collect();
        rates.push(samples.len() as f64 / elapsed_s);
        attempted += samples.len() as u64;
        failed += samples.iter().filter(|s| !s.ok).count() as u64;
        blocks.push(samples.iter().map(|s| s.latency_s).collect());
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: blocked_end_to_end(
            &setups,
            &blocks,
            median(&rates),
            &format!("requests per second, median of {SETUP_REPS} sessions"),
            0.99,
        ),
    })
}

/// Run one spec's work by calling each layer's public entry point, as the
/// daemon does on a miss (key derivation, parse, plan, render). Returns
/// whether the rendered output equals the expected response's.
fn walk_one(spec: &Spec, lg: &Ledger) -> Result<bool, String> {
    let (source, _) = parts(&spec.request);
    let prog = lg
        .call(ledger::PARSE, || parse_program(source))
        .map_err(|e| e.to_string())?;
    lg.call(ledger::FINGERPRINT, || {
        (fingerprint_str(source), program_fingerprint(&prog))
    });
    let cfg = SlmsConfig {
        expansion: spec.expansion,
        ..SlmsConfig::default()
    };
    if spec.kind == Kind::Verify {
        lg.call(ledger::LINT, || lint_program(&prog));
        lg.call(ledger::VALIDATE, || verify_slms_program(&prog, &cfg));
        return Ok(true);
    }
    let mut prog = prog;
    if spec.plan.starts_with("normalize") {
        // every top-level loop, back to front, as the `normalize` pass
        let positions: Vec<usize> = (0..prog.stmts.len())
            .filter(|&i| matches!(prog.stmts[i], Stmt::For(_)))
            .collect();
        for pos in positions.into_iter().rev() {
            let stmt = prog.stmts[pos].clone();
            let repl = lg
                .call(ledger::NORMALIZE, || {
                    slc::transforms::normalize(&mut prog, &stmt, "nrm")
                })
                .map_err(|e| e.to_string())?;
            prog.stmts.splice(pos..=pos, repl);
        }
    }
    let (out, _) = lg.call(ledger::SLMS, || slms_program(&prog, &cfg));
    if spec.kind == Kind::Explain {
        return Ok(true);
    }
    let text = lg.call(ledger::RENDER, || {
        if spec.paper_style {
            to_paper_style(&out)
        } else {
            to_source(&out)
        }
    });
    Ok(matches!(&spec.expected, Response::Compile { output, .. } if *output == text))
}

/// The traced run: the client loop with codec spans and the daemon's
/// store and admission figures, an in-process replay of the same requests
/// for `serve.overhead_us`, then layer walks over the replayed requests,
/// alternating with spans off and on.
fn traced(args: &Args, st: &Setup) -> Result<Outcome, String> {
    let start = Instant::now();
    let clients_lg = Ledger::on();
    let mut layers = Layers::default();
    let per_client = drive(st, args, 0, start + args.seconds.mul_f64(0.4), &clients_lg)?;
    let mut attempted = per_client.iter().map(Vec::len).sum::<usize>() as u64;
    let mut failed = per_client.iter().flatten().filter(|s| !s.ok).count() as u64;
    let svc = st.daemon.service();
    layers.cache_hit_ratio = svc.cache_report().overall_hit_rate();
    layers.evictions = svc.cache_report().total_evictions() as f64;
    let counters = svc.counters();
    layers.busy_rejections = counters.get("serve.rejections") as f64;
    layers.timeouts = counters.get("serve.timeouts") as f64;

    // replay the requests in process, round-robin over the clients (the
    // order the daemon interleaved them in), into a store of the same size
    let mut replay = Vec::new();
    let longest = per_client.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        replay.extend(per_client.iter().filter_map(|c| c.get(k)));
    }
    let bounded = CompileService::bounded(CAPACITY);
    let mut diffs = Vec::with_capacity(replay.len());
    for s in &replay {
        let t = Instant::now();
        let resp = answer(&bounded, &st.specs[s.spec].request);
        diffs.push(s.latency_s - t.elapsed().as_secs_f64());
        attempted += 1;
        if !matches(&resp, &st.specs[s.spec].expected) {
            failed += 1;
        }
    }
    layers.serve_overhead_us = percentile(&diffs, 0.5).0 * 1e6;

    let batch: Vec<&Spec> = replay.iter().take(500).map(|s| &st.specs[s.spec]).collect();
    let mut walks = ledger::paired(start + args.seconds, |lg| {
        for spec in &batch {
            attempted += 1;
            if !walk_one(spec, lg)? {
                failed += 1;
            }
        }
        Ok(())
    })?;
    layers.busy = clients_lg.busy();
    // the client-side trace (one track per client) is the one written out
    walks.last = clients_lg;
    layers.finish(walks, args)?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers.metrics(),
    })
}
