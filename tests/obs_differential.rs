//! Differential tests for the cross-process observability tier: the
//! flight recorder, distributed trace stitching and histograms must obey
//! the same cardinal rule as the tracer — the canonical batch report and
//! the deterministic counter registry are byte-identical with every
//! observability feature on or off, wall clock stays quarantined in the
//! timing sidecar, and a dead shard leaves its black box behind.

use slc_core::SlmsConfig;
use slc_pipeline::{
    run_batch, run_sharded, BatchConfig, BatchEngine, CompilerKind, Json, PassPlan, ShardFault,
    ShardOptions,
};
use slc_serve::{Client, Endpoint, Request, RequestOpts, Response, ServeConfig, Server};
use slc_trace::{validate_chrome_trace, validate_flight_dump, TraceCtx, Tracer};

/// Exec the test-built `slc` binary in worker mode; the dispatcher itself
/// runs inside the test process, whose `current_exe` is the test harness.
fn worker_cmd() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_slc").to_string(),
        "batch-shard".to_string(),
    ]
}

fn opts(shards: usize) -> ShardOptions {
    ShardOptions {
        shards,
        threads_per_shard: Some(1),
        worker_cmd: Some(worker_cmd()),
        faults: Vec::new(),
    }
}

fn small_config() -> BatchConfig {
    BatchConfig {
        workloads: slc_workloads::paper_examples(),
        machines: vec![slc_sim::presets::itanium2(), slc_sim::presets::power4()],
        compilers: vec![CompilerKind::Weak, CompilerKind::Optimizing],
        slms: SlmsConfig::default(),
        plan: PassPlan::slms_only(),
        threads: Some(1),
        verify: false,
    }
}

/// A killed shard's last flight-recorder snapshot is quarantined into the
/// timing sidecar (schema-valid, non-empty), while the canonical report
/// and counters stay byte-identical to the in-process engine.
#[test]
fn killed_shard_leaves_its_flight_dump_in_the_sidecar() {
    let cfg = small_config();
    let reference = run_batch(&cfg);
    let mut o = opts(3);
    o.faults = vec![(1, ShardFault::KillAfterCells(3))];
    let rep = run_sharded(&cfg, &o, &Tracer::disabled()).expect("sharded run must complete");
    assert_eq!(rep.to_json(), reference.to_json());
    assert_eq!(rep.counters_json(), reference.counters_json());
    assert!(!rep.timing.shards[1].alive);

    let flight = rep.timing.shards[1]
        .flight
        .as_ref()
        .expect("dead shard must leave a flight dump");
    let sum = validate_flight_dump(flight).expect("flight dump must validate");
    assert!(sum.events >= 1, "flight dump carries no events");
    // the sidecar JSON carries it under the dead shard only
    let sidecar = rep.timing_json();
    assert!(sidecar.contains("flight_recorder"));
    for (i, s) in rep.timing.shards.iter().enumerate() {
        assert_eq!(
            s.flight.is_some(),
            i == 1,
            "only the dead shard carries a flight dump"
        );
    }
}

/// Tracing + the always-on recorder leave the canonical report and the
/// counter registry byte-identical, in-process and sharded, and the
/// deterministic histograms are identical traced vs untraced.
#[test]
fn observability_on_vs_off_is_byte_identical() {
    let cfg = small_config();

    // in-process: disabled vs enabled tracer on fresh engines
    let off = BatchEngine::new().run(&cfg);
    let tracer = Tracer::enabled();
    let on = BatchEngine::new().run_traced(&cfg, &tracer);
    assert_eq!(off.to_json(), on.to_json());
    assert_eq!(off.counters_json(), on.counters_json());
    assert_eq!(
        off.histograms.to_baseline_json(),
        on.histograms.to_baseline_json()
    );
    assert!(tracer.event_count() > 0);

    // sharded: untraced vs traced fleets reduce to the same bytes
    let sh_off = run_sharded(&cfg, &opts(2), &Tracer::disabled()).unwrap();
    let sh_tracer = Tracer::enabled();
    let sh_on = run_sharded(&cfg, &opts(2), &sh_tracer).unwrap();
    assert_eq!(sh_off.to_json(), off.to_json());
    assert_eq!(sh_on.to_json(), off.to_json());
    assert_eq!(sh_on.counters_json(), off.counters_json());

    // the new observability counter families are themselves deterministic
    // and present on every path
    for k in ["trace.span_sites", "recorder.ring_events"] {
        assert!(off.counters.get(k) > 0, "{k} never bumped");
        assert_eq!(off.counters.get(k), sh_on.counters.get(k));
    }
}

/// A traced sharded run merges every worker's span dump into one Chrome
/// trace: validator-clean, exactly one process track per shard, every
/// process contributing spans, all under a single trace id.
#[test]
fn sharded_traced_run_merges_into_one_timeline() {
    let cfg = small_config();
    let tracer = Tracer::enabled();
    let shards = 2;
    let rep = run_sharded(&cfg, &opts(shards), &tracer).unwrap();
    assert_eq!(rep.failed(), 0);

    let doc = tracer.to_chrome_json().expect("tracer is enabled");
    validate_chrome_trace(&doc).expect("merged trace must validate");

    let parsed = Json::parse(&doc).unwrap();
    let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut process_names = Vec::new();
    let mut span_pids = std::collections::BTreeSet::new();
    for e in events {
        let name = e.get("name").and_then(Json::as_str);
        let ph = e.get("ph").and_then(Json::as_str);
        let pid = e.get("pid").and_then(Json::as_i64).unwrap_or(-1);
        if ph == Some("M") && name == Some("process_name") {
            let pname = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            process_names.push((pid, pname));
        }
        if ph == Some("X") {
            span_pids.insert(pid);
        }
    }
    process_names.sort();
    // dispatcher (pid 1) + one track per shard, each named by the
    // dispatcher (not the worker's fallback name)
    assert_eq!(
        process_names,
        vec![
            (1, "slc".to_string()),
            (2, "shard-0".to_string()),
            (3, "shard-1".to_string()),
        ],
        "expected exactly one process track per shard"
    );
    assert_eq!(
        span_pids.len(),
        shards + 1,
        "every process must contribute spans"
    );
    // one trace id binds the whole timeline
    let trace_id = parsed
        .get("otherData")
        .and_then(|o| o.get("trace_id"))
        .and_then(Json::as_str)
        .expect("merged trace must carry its trace id")
        .to_string();
    assert_eq!(trace_id, tracer.ctx().unwrap().trace_id_hex());
}

/// A traced serve request stitches the daemon into the caller's trace:
/// the caller hands its context over the wire, pulls the daemon's span
/// dump back with the `dump` verb, imports it, and gets one
/// validator-clean timeline where both processes share the trace id.
#[test]
fn traced_serve_request_stitches_into_the_client_trace() {
    let daemon_tracer = Tracer::enabled();
    let handle = Server::spawn(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        ServeConfig::default(),
        daemon_tracer,
    )
    .expect("spawn daemon");
    let addr = handle.local_addr().unwrap().to_string();

    let client = Tracer::enabled();
    let ctx = TraceCtx::from_hex("00000000feedface", "0000000000000001").unwrap();
    client.set_ctx(ctx);
    client.set_thread_track(0, "client");

    let mut conn = Client::connect_tcp(&addr).expect("connect");
    {
        let mut span = client.span("serve", "client.request");
        span.arg("kind", "compile");
        let resp = conn
            .request(&Request::Compile {
                source: "int i;\nint a[64];\nfor (i = 0; i < 64; i++) { a[i] = a[i] + 1; }"
                    .to_string(),
                opts: RequestOpts {
                    filter: true,
                    ctx: Some(ctx),
                    ..RequestOpts::default()
                },
            })
            .expect("compile request");
        assert!(matches!(resp, Response::Compile { .. }), "{resp:?}");
    }

    // pull the daemon's spans + flight ring back out
    let (trace, flight) = match conn.request(&Request::Dump).expect("dump request") {
        Response::Dump { trace, flight } => (trace, flight),
        other => panic!("dump answered with {other:?}"),
    };
    let trace = trace.expect("traced daemon must return a span dump");
    let sum = validate_flight_dump(&flight).expect("daemon flight dump must validate");
    assert!(sum.events >= 1);

    // import succeeds only when the trace ids match — the daemon adopted
    // the caller's context
    let imported = client
        .import_process_dump(&trace, 2, "slc-serve")
        .expect("span dump must import cleanly");
    assert!(imported >= 1, "daemon contributed no spans");

    let doc = client.to_chrome_json().unwrap();
    validate_chrome_trace(&doc).expect("stitched timeline must validate");
    let parsed = Json::parse(&doc).unwrap();
    assert_eq!(
        parsed
            .get("otherData")
            .and_then(|o| o.get("trace_id"))
            .and_then(Json::as_str),
        Some("00000000feedface"),
        "stitched trace keeps the caller's id"
    );
    let span_pids: std::collections::BTreeSet<i64> = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("pid").and_then(Json::as_i64))
        .collect();
    assert!(
        span_pids.contains(&1) && span_pids.contains(&2),
        "both client and daemon must contribute spans: {span_pids:?}"
    );

    let shutdown = conn.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(shutdown, Response::ShutdownAck));
    assert!(handle.wait().drained_clean);
}

/// A daemon bound to a *different* trace refuses to stitch: importing its
/// dump into a foreign trace id is an error, not silent corruption.
#[test]
fn span_dump_import_rejects_foreign_trace_ids() {
    let exporter = Tracer::enabled();
    exporter.set_ctx(TraceCtx::from_hex("00000000000000aa", "0000000000000001").unwrap());
    {
        let _s = exporter.span("stage", "work");
    }
    let dump = exporter.export_process_dump("other").unwrap();

    let importer = Tracer::enabled();
    importer.set_ctx(TraceCtx::from_hex("00000000000000bb", "0000000000000001").unwrap());
    let err = importer.import_process_dump(&dump, 2, "other");
    assert!(err.is_err(), "foreign trace id must be rejected");
}

/// Histogram determinism: the deterministic work histograms are a pure
/// function of the matrix — identical across fresh engines and invariant
/// under thread count — and the wall-clock histogram family never appears
/// among them.
#[test]
fn work_histograms_are_deterministic_and_wall_free() {
    let cfg = small_config();
    let a = BatchEngine::new().run(&cfg);
    let mut cfg8 = small_config();
    cfg8.threads = Some(8);
    let b = BatchEngine::new().run(&cfg8);
    let doc = a.histograms.to_baseline_json();
    assert_eq!(doc, b.histograms.to_baseline_json());
    assert!(!a.histograms.is_empty(), "work histograms never populated");
    for (name, _) in a.histograms.iter() {
        assert!(
            !name.starts_with("wall."),
            "wall-clock histogram {name} leaked into the deterministic registry"
        );
    }
    // and none of it reaches the canonical report
    assert!(!a.to_json().contains("histogram"));
}
