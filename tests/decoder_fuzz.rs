//! Fixed-seed fuzzing of every decoder that reads untrusted bytes: the
//! JSON reader, the source parser, the `slc serve` request and response
//! decoders and the shard-protocol decoder. Inputs are valid lines from
//! each protocol and the workload corpus, truncated, byte-mutated,
//! spliced, flooded with nesting or given negative numbers. The property:
//! every call returns `Ok` or `Err` and never panics or overflows the
//! stack.

use proptest::prelude::*;
use slc_ast::parse_program;
use slc_core::{SchedulerKind, SlmsConfig};
use slc_pipeline::{
    BatchConfig, CellKeys, CellMetrics, Json, KeyedDelta, LoopInfo, PassPlan, ShardMsg,
    VerifySummary, WireCell, WorkerStats,
};
use slc_serve::{Request, RequestOpts, Response};
use slc_trace::{CounterRegistry, HistogramRegistry, TraceCtx};
use std::sync::OnceLock;

/// Valid inputs: one line per message shape, plus every workload source.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let ctx = TraceCtx::from_hex("00000000deadbeef", "ffffffffffffffff").unwrap();
        let opts = RequestOpts {
            passes: Some("normalize,slms".into()),
            filter: false,
            scheduler: Some(SchedulerKind::Exact),
            paper_style: true,
            ctx: Some(ctx),
            ..RequestOpts::default()
        };
        let mut counters = CounterRegistry::new();
        counters.add("sim.trips_total", 806_554);
        counters.add("serve.requests", 3);
        let mut wall = HistogramRegistry::new();
        wall.record("wall.pass.fuse:0+1_ns", 12_345);
        wall.record("wall.sim_ns", 0);
        let metrics = CellMetrics {
            cycles: 123,
            ops: 456,
            l1_hits: 7,
            l1_misses: 8,
            spill_accesses: 0,
            energy: 0.1 + 0.2,
            transformed: true,
            slms_ii: Some(3),
            optimality_gaps: vec![0, 2],
            loops: vec![LoopInfo {
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
        let keys = CellKeys {
            parse: u64::MAX,
            plan: Some(7),
            compile: Some(1 << 63),
            lir: None,
            sim: Some(42),
        };
        let mut cfg = BatchConfig::full_matrix();
        cfg.workloads.truncate(3);
        cfg.plan = PassPlan::parse("fuse:0+1,slms").unwrap();
        cfg.slms = SlmsConfig::default();
        let shard = [
            ShardMsg::Init {
                cfg: Box::new(cfg),
                threads: Some(2),
                ctx: Some(ctx),
            },
            ShardMsg::Run { lo: 0, hi: 10 },
            ShardMsg::Shutdown,
            ShardMsg::Ready,
            ShardMsg::Deltas {
                entries: vec![KeyedDelta {
                    stage: 2,
                    key: u64::MAX,
                    counters: counters.clone(),
                }],
                verify: vec![VerifySummary {
                    workload: "k".into(),
                    verified: 1,
                    skipped: 0,
                    obligations: 9,
                    violations: 0,
                }],
                flight: "{\"schema\":\"slc-flight-v1\"}\n".into(),
            },
            ShardMsg::Cells(vec![
                WireCell {
                    index: 4,
                    keys,
                    outcome: Ok(metrics),
                },
                WireCell {
                    index: 5,
                    keys: CellKeys::default(),
                    outcome: Err("lower: nope".into()),
                },
            ]),
            ShardMsg::Stats {
                cpu_ns: 1,
                workers: vec![WorkerStats {
                    worker: 0,
                    claimed: 3,
                    empty_polls: 1,
                    busy_ns: 99,
                }],
                wall,
                span_dump: Some("{}\n".into()),
            },
        ];
        let requests = [
            Request::Compile {
                source: "int i; float a[8];\nfor (i = 0; i < 8; i++) a[i] = a[i] + 1.0;".into(),
                opts: opts.clone(),
            },
            Request::Explain {
                source: "x".into(),
                opts: RequestOpts::default(),
            },
            Request::Verify {
                source: "y".into(),
                opts,
            },
            Request::Stats,
            Request::Ping,
        ];
        let mut out: Vec<String> = shard.iter().map(|m| Json::from(m).to_string()).collect();
        out.extend(requests.iter().map(Request::to_line));
        out.push(Response::Stats { counters }.to_line());
        out.extend(slc_workloads::all().iter().map(|w| w.source.to_string()));
        out
    })
}

/// Feed `text` to every decoder; each must return rather than panic.
fn decode_all(text: &str) {
    let _ = Json::parse(text);
    let _ = parse_program(text);
    let _ = Request::parse(text);
    let _ = Response::parse(text);
    let _ = ShardMsg::parse(text);
}

fn mutate(seed: &str, kind: u8, at: u64, byte: u8, len: usize) -> String {
    let mut b = seed.as_bytes().to_vec();
    let pos = (at % (b.len() as u64 + 1)) as usize;
    let end = (pos + len).min(b.len());
    match kind {
        0 => b.truncate(pos),
        1 if pos < b.len() => b[pos] = byte,
        2 => b.insert(pos, byte),
        3 => {
            b.drain(pos..end);
        }
        4 => {
            // nesting flood: far deeper than either parser accepts
            let open = [b'[', b'{', b'(', b'-', b'!'][usize::from(byte) % 5];
            b.splice(pos..pos, std::iter::repeat_n(open, 3000));
        }
        5 => {
            // negate the next number
            if let Some(k) = b[pos..].iter().position(u8::is_ascii_digit) {
                b.insert(pos + k, b'-');
            }
        }
        6 => {
            let dup = b[pos..end].to_vec();
            b.splice(pos..pos, dup);
        }
        _ => b = (0..len).map(|k| byte.wrapping_mul(k as u8 | 1)).collect(),
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Decode one mutation of the seed `pick` selects.
fn fuzz_one(pick: u64, kind: u8, at: u64, byte: u8, len: usize) {
    let all = seeds();
    let seed = &all[(pick % all.len() as u64) as usize];
    decode_all(&mutate(seed, kind, at, byte, len));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// Random mutations of every seed never make a decoder panic.
    #[test]
    fn decoders_never_panic(
        pick in any::<u64>(),
        kind in 0u8..8,
        at in any::<u64>(),
        byte in any::<u8>(),
        len in 0usize..64,
    ) {
        fuzz_one(pick, kind, at, byte, len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20_000, .. ProptestConfig::default() })]

    /// The same property over 20 000 cases, for the CI long-run fuzz job
    /// (`cargo test --release -- --ignored`).
    #[test]
    #[ignore]
    fn decoders_never_panic_long(
        pick in any::<u64>(),
        kind in 0u8..8,
        at in any::<u64>(),
        byte in any::<u8>(),
        len in 0usize..64,
    ) {
        fuzz_one(pick, kind, at, byte, len);
    }
}

/// The seeds themselves decode, and the hostile shapes the fuzzer mixes in
/// are refused outright: deep nesting and negative integers are `Err`.
#[test]
fn seeds_decode_and_hostile_shapes_are_errors() {
    for s in seeds() {
        let ok =
            ShardMsg::parse(s).is_ok() || Request::parse(s).is_ok() || Response::parse(s).is_ok();
        assert!(
            ok || parse_program(s).is_ok(),
            "seed does not decode: {s:.80}"
        );
        decode_all(s);
    }
    let deep_json = "[".repeat(20_000);
    assert!(Json::parse(&deep_json).is_err());
    assert!(Request::parse(&deep_json).is_err());
    assert!(ShardMsg::parse(&deep_json).is_err());
    let deep_src = format!("float x; x = {}1.0{};", "(".repeat(3000), ")".repeat(3000));
    assert!(parse_program(&deep_src).is_err());
    let long_chain = format!("float x; float a; x = a{};", " + a".repeat(200_000));
    assert!(parse_program(&long_chain).is_err());
    for negative in [
        r#"{"type":"run","lo":-1,"hi":4}"#,
        r#"{"type":"stats","cpu_ns":-5,"workers":[],"wall":{}}"#,
        r#"{"type":"deltas","entries":[{"stage":2,"key":"0000000000000001","counters":{"a":-1}}],"verify":[],"flight":""}"#,
    ] {
        assert!(ShardMsg::parse(negative).is_err(), "{negative}");
    }
    assert!(Response::parse(r#"{"type":"stats","ok":true,"counters":{"a":-1}}"#).is_err());
}
