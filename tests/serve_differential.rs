//! Differential testing of the `slc serve` daemon: every response must be
//! byte-identical to the corresponding one-shot CLI output, under one
//! client and under concurrent clients; replaying the corpus must hit the
//! shared cache with exactly predictable counters; and the failure paths
//! (busy, timeout, malformed lines) must never wedge a connection.

use slc::ast::{parse_program, to_source};
use slc::pipeline::{explain_source_json, verify_report, PassManager, PassPlan};
use slc::serve::{
    Client, Endpoint, ErrorKind, Request, RequestOpts, Response, ServeConfig, Server, ServerHandle,
};
use slc::slms::SlmsConfig;
use slc::trace::Tracer;
use std::time::Duration;

const PLANS: [&str; 2] = ["slms", "normalize,slms"];

fn spawn(cfg: ServeConfig) -> (ServerHandle, String) {
    let handle = Server::spawn(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        cfg,
        Tracer::disabled(),
    )
    .expect("spawn daemon");
    let addr = handle.local_addr().expect("tcp addr").to_string();
    (handle, addr)
}

fn shutdown_clean(handle: ServerHandle, addr: &str) {
    let mut c = Client::connect_tcp(addr).expect("connect for shutdown");
    assert_eq!(
        c.request(&Request::Shutdown).unwrap(),
        Response::ShutdownAck
    );
    let drain = handle.wait();
    assert!(drain.drained_clean, "drain left work behind: {drain:?}");
}

fn opts_for(plan: &str) -> RequestOpts {
    RequestOpts {
        passes: Some(plan.to_string()),
        filter: true,
        ..RequestOpts::default()
    }
}

/// What one-shot `slc --passes <plan>` would print for this source.
fn one_shot_compile(src: &str, plan: &str) -> String {
    let cfg = SlmsConfig::default();
    let plan = PassPlan::parse(plan).unwrap();
    let prog = parse_program(src).unwrap();
    let (out, _) = PassManager::new(cfg).run(&prog, &plan).unwrap();
    to_source(&out)
}

/// Every workload × plan: compile, explain and verify responses are
/// byte-identical to the one-shot pipeline output.
#[test]
fn daemon_matches_one_shot_across_corpus() {
    let (handle, addr) = spawn(ServeConfig::default());
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let cfg = SlmsConfig::default();
    for w in slc::workloads::all() {
        for plan in PLANS {
            let resp = client
                .request(&Request::Compile {
                    source: w.source.to_string(),
                    opts: opts_for(plan),
                })
                .unwrap();
            match resp {
                Response::Compile { output, .. } => {
                    assert_eq!(
                        output,
                        one_shot_compile(w.source, plan),
                        "{} / {plan}",
                        w.name
                    )
                }
                other => panic!("{} / {plan}: unexpected {other:?}", w.name),
            }

            let parsed = PassPlan::parse(plan).unwrap();
            let resp = client
                .request(&Request::Explain {
                    source: w.source.to_string(),
                    opts: opts_for(plan),
                })
                .unwrap();
            match resp {
                Response::Explain { output } => assert_eq!(
                    output,
                    explain_source_json(w.source, &parsed, &cfg),
                    "{} / {plan}",
                    w.name
                ),
                other => panic!("{} / {plan}: unexpected {other:?}", w.name),
            }
        }

        let (want_clean, want_text) = verify_report(&w.program(), &cfg);
        let resp = client
            .request(&Request::Verify {
                source: w.source.to_string(),
                opts: RequestOpts {
                    filter: true,
                    ..RequestOpts::default()
                },
            })
            .unwrap();
        match resp {
            Response::Verify { clean, output } => {
                assert_eq!(clean, want_clean, "{}", w.name);
                assert_eq!(output, want_text, "{}", w.name);
            }
            other => panic!("{}: unexpected {other:?}", w.name),
        }
    }
    shutdown_clean(handle, &addr);
}

/// Eight concurrent clients replaying the same corpus all receive the
/// byte-identical output the one-shot pipeline produces — shared caching
/// never leaks one request's artifacts into another's response.
#[test]
fn concurrent_clients_get_identical_bytes() {
    let (handle, addr) = spawn(ServeConfig::default());
    let expected: Vec<(String, String)> = slc::workloads::all()
        .iter()
        .flat_map(|w| {
            PLANS
                .iter()
                .map(|plan| (w.source.to_string(), one_shot_compile(w.source, plan)))
                .collect::<Vec<_>>()
        })
        .collect();
    let corpus: Vec<Request> = slc::workloads::all()
        .iter()
        .flat_map(|w| {
            PLANS.map(|plan| Request::Compile {
                source: w.source.to_string(),
                opts: opts_for(plan),
            })
        })
        .collect();
    std::thread::scope(|scope| {
        for client_id in 0..8 {
            let corpus = &corpus;
            let expected = &expected;
            let addr = &addr;
            scope.spawn(move || {
                let mut client = Client::connect_tcp(addr).expect("connect");
                for (req, (_, want)) in corpus.iter().zip(expected) {
                    match client.request(req).unwrap() {
                        Response::Compile { output, .. } => {
                            assert_eq!(&output, want, "client {client_id}")
                        }
                        other => panic!("client {client_id}: unexpected {other:?}"),
                    }
                }
            });
        }
    });
    shutdown_clean(handle, &addr);
}

/// Replaying the workload × plan corpus twice over 8 concurrent clients
/// sees exactly-predictable cache behaviour: zero error responses, zero
/// first-pass hits, an all-hit second pass, store counters that are a pure
/// function of the corpus shape, and a clean drain.
#[test]
fn replay_hit_counters_are_exact() {
    const CLIENTS: usize = 8;
    let workloads = slc::workloads::all();
    let corpus: Vec<Request> = PLANS
        .iter()
        .flat_map(|plan| {
            workloads.iter().map(|w| Request::Compile {
                source: w.source.to_string(),
                opts: opts_for(plan),
            })
        })
        .collect();
    let n = corpus.len();
    assert_eq!(n, PLANS.len() * workloads.len());
    let (handle, addr) = spawn(ServeConfig::default());
    let mut pass_hits = Vec::new();
    for _pass in 0..2 {
        // every client replays its round-robin share; the scope is the
        // barrier, so pass 2 starts against a fully warm cache
        let hits: usize = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    let (corpus, addr) = (&corpus, &addr);
                    scope.spawn(move || {
                        let mut client = Client::connect_tcp(addr).expect("connect");
                        let mut hits = 0;
                        for req in corpus.iter().skip(id).step_by(CLIENTS) {
                            match client.request(req).unwrap() {
                                Response::Compile { cached, .. } => hits += usize::from(cached),
                                other => panic!("client {id}: unexpected {other:?}"),
                            }
                        }
                        hits
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).sum()
        });
        pass_hits.push(hits);
    }
    // pass 1 populates (every (source, plan) key distinct), pass 2 is
    // answered entirely from cache
    assert_eq!(pass_hits, vec![0, n]);
    // serve.* counters: every compile request admitted, none rejected or
    // timed out; artifact-level hits are a pure function of the corpus —
    // per request one parse lookup (one distinct source per workload) and
    // one plan lookup (n distinct keys)
    let mut control = Client::connect_tcp(&addr).expect("connect");
    let Response::Stats { counters } = control.request(&Request::Stats).unwrap() else {
        panic!("stats request answered with a non-stats response");
    };
    assert_eq!(counters.get("serve.requests"), 2 * n as u64);
    assert_eq!(counters.get("serve.rejections"), 0);
    assert_eq!(counters.get("serve.timeouts"), 0);
    assert_eq!(counters.get("serve.evictions"), 0);
    assert_eq!(counters.get("serve.refp_mismatches"), 0);
    let parse_hits = (2 * n - workloads.len()) as u64;
    assert_eq!(counters.get("serve.hits"), parse_hits + n as u64);
    shutdown_clean(handle, &addr);
}

/// With a zero-slot admission queue every compile request answers `busy`
/// (exit-code class 3) — and the control plane stays responsive.
#[test]
fn busy_backpressure_when_the_queue_is_full() {
    let (handle, addr) = spawn(ServeConfig {
        queue: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let w = &slc::workloads::all()[0];
    match client
        .request(&Request::Compile {
            source: w.source.to_string(),
            opts: opts_for("slms"),
        })
        .unwrap()
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Busy),
        other => panic!("unexpected {other:?}"),
    }
    // ping/stats are answered inline, never queued
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    match client.request(&Request::Stats).unwrap() {
        Response::Stats { counters } => {
            assert_eq!(counters.get("serve.rejections"), 1);
            assert_eq!(counters.get("serve.requests"), 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    shutdown_clean(handle, &addr);
}

/// A deadline shorter than any compile yields a `timeout` error instead of
/// a wedged daemon, and the same connection keeps answering afterwards.
#[test]
fn timeouts_never_wedge_the_connection() {
    // a zero deadline plus a deliberately huge exact-scheduled program:
    // the deadline expires long before the worker can possibly answer
    // (recv_timeout grants a brief spin-yield grace even at zero, enough
    // for a small compile to sneak in)
    let (handle, addr) = spawn(ServeConfig {
        timeout: Duration::ZERO,
        ..ServeConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let mut source = String::from("float x[1012]; float z[1012]; int i;\n");
    for _ in 0..64 {
        source.push_str("for (i = 1; i < 1000; i++) {\n  x[i] = z[i] * (x[i - 1] + z[i]);\n}\n");
    }
    match client
        .request(&Request::Compile {
            source,
            opts: opts_for("exact"),
        })
        .unwrap()
    {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    // the detached worker may still hold its admission slot; the drain
    // deadline (2× request timeout ≈ instant) may report it abandoned, so
    // only join here — no clean-drain assertion
    let mut c = Client::connect_tcp(&addr).expect("connect for shutdown");
    assert_eq!(
        c.request(&Request::Shutdown).unwrap(),
        Response::ShutdownAck
    );
    let drain = handle.wait();
    assert_eq!(drain.connections, 2);
}

/// Malformed request lines answer a `usage` error and leave the
/// connection fully usable; typed parse errors keep the exit-code
/// contract.
#[test]
fn malformed_and_failing_requests_keep_the_connection_alive() {
    let (handle, addr) = spawn(ServeConfig::default());

    // raw socket: garbage line, then a valid ping on the same connection
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .write_all(b"this is not json\n{\"type\":\"ping\"}\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::parse(line.trim_end()).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Usage),
        other => panic!("unexpected {other:?}"),
    }
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(Response::parse(line.trim_end()).unwrap(), Response::Pong);
    drop(reader);

    // typed client: a source that does not parse answers `parse` (exit 1)
    let mut client = Client::connect_tcp(&addr).expect("connect");
    match client
        .request(&Request::Compile {
            source: "this does not parse either".to_string(),
            opts: opts_for("slms"),
        })
        .unwrap()
    {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Parse);
            assert_eq!(kind.exit_code(), 1);
            assert!(message.starts_with("parse error:"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    shutdown_clean(handle, &addr);
}

/// Hostile input is refused with a typed error and never takes the daemon
/// down: deeply nested JSON (`usage`), a source nesting 3 000 parentheses
/// (`parse`), and a 2 MiB line without a newline (`too-large`, exit code 2,
/// then the connection closes). `ping` answers after each.
#[test]
fn hostile_requests_are_refused_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Read, Write};
    let (handle, addr) = spawn(ServeConfig::default());

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut line = "[".repeat(20_000);
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut got = String::new();
    reader.read_line(&mut got).unwrap();
    match Response::parse(got.trim_end()).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Usage);
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    stream.write_all(b"{\"type\":\"ping\"}\n").unwrap();
    got.clear();
    reader.read_line(&mut got).unwrap();
    assert_eq!(Response::parse(got.trim_end()).unwrap(), Response::Pong);

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let source = format!("float x; x = {}1.0{};", "(".repeat(3000), ")".repeat(3000));
    match client
        .request(&Request::Compile {
            source,
            opts: opts_for("slms"),
        })
        .unwrap()
    {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::Parse);
            assert!(message.contains("nesting deeper"), "{message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        // the daemon may close before reading all of it
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    got.clear();
    reader.read_line(&mut got).unwrap();
    match Response::parse(got.trim_end()).unwrap() {
        Response::Error { kind, .. } => {
            assert_eq!(kind, ErrorKind::TooLarge);
            assert_eq!(kind.exit_code(), 2);
        }
        other => panic!("unexpected {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "expected EOF");
    flood.join().unwrap();
    drop(stream);

    let mut client = Client::connect_tcp(&addr).expect("connect");
    assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);
    shutdown_clean(handle, &addr);
}

/// A bounded daemon under a capacity smaller than the corpus evicts and
/// recompiles — and the recompiled bytes are identical (refp check clean).
#[test]
fn bounded_daemon_recompiles_identically() {
    let (handle, addr) = spawn(ServeConfig {
        capacity: Some(2),
        ..ServeConfig::default()
    });
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let workloads = slc::workloads::all();
    for _pass in 0..2 {
        for w in workloads.iter().take(5) {
            match client
                .request(&Request::Compile {
                    source: w.source.to_string(),
                    opts: opts_for("slms"),
                })
                .unwrap()
            {
                Response::Compile { output, .. } => {
                    assert_eq!(output, one_shot_compile(w.source, "slms"), "{}", w.name)
                }
                other => panic!("{}: unexpected {other:?}", w.name),
            }
        }
    }
    match client.request(&Request::Stats).unwrap() {
        Response::Stats { counters } => {
            assert!(counters.get("serve.evictions") > 0, "capacity 2 must evict");
            assert_eq!(counters.get("serve.refp_mismatches"), 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    shutdown_clean(handle, &addr);
}
