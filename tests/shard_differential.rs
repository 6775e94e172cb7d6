//! Differential testing of the multi-process sharded batch tier: the
//! reduced report must be byte-identical to the in-process engine for
//! every shard count, survive shard deaths and malformed protocol lines
//! without losing or corrupting a single cell, and hold those guarantees
//! on the exact-scheduler path and on random sub-matrices.

use proptest::prelude::*;
use slc_core::{SchedulerKind, SlmsConfig};
use slc_pipeline::{run_batch, BatchConfig, CompilerKind, PassPlan, ShardFault, ShardOptions};
use slc_trace::{Json, Tracer};
use slc_workloads::{Suite, Workload};

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

fn run_with(cfg: &BatchConfig, o: &ShardOptions) -> slc_pipeline::BatchReport {
    slc_pipeline::run_sharded(cfg, o, &Tracer::disabled()).expect("sharded run must complete")
}

/// Canonical report and counter registry are byte-identical to the
/// in-process engine for shard counts below, at, and above the number of
/// natural work chunks.
#[test]
fn sharded_report_identical_across_shard_counts() {
    let cfg = small_config();
    let reference = run_batch(&cfg);
    let canon = reference.to_json();
    let counters = reference.counters_json();
    for shards in [1, 2, 4, 7] {
        let rep = run_with(&cfg, &opts(shards));
        assert_eq!(rep.to_json(), canon, "report differs at {shards} shards");
        assert_eq!(
            rep.counters_json(),
            counters,
            "counters differ at {shards} shards"
        );
        assert_eq!(rep.timing.shards.len(), shards);
        let cells: u64 = rep.timing.shards.iter().map(|s| s.cells).sum();
        assert_eq!(cells as usize, cfg.n_cells());
    }
}

/// Every timing-sidecar number is derived from one accumulator: `stage_ms`
/// and `pass_ms` are the sums and counts of the `wall.*` histograms the same
/// sidecar carries, and `sim_steady_state` is the `sim.*` counters. Holds
/// in process and across shards (whose histograms the dispatcher merges).
#[test]
fn timing_sidecar_derives_from_the_registries() {
    let cfg = BatchConfig {
        verify: true,
        ..small_config()
    };
    for rep in [run_batch(&cfg), run_with(&cfg, &opts(2))] {
        let t = Json::parse(&rep.timing_json()).unwrap();
        let wall = t.get("wall_histograms").unwrap();
        let hist = |name: &str, field: &str| {
            wall.get(name)
                .and_then(|h| h.get(field))
                .and_then(Json::as_i64)
                .unwrap_or(0)
        };
        let ms = |name: &str| hist(name, "sum") as f64 / 1e6;
        let stage = t.get("stage_ms").unwrap();
        for (key, name) in [
            ("parse", "wall.parse_ns"),
            ("slms", "wall.plan_ns"),
            ("lower", "wall.lower_ns"),
            ("compile", "wall.compile_ns"),
            ("simulate", "wall.sim_ns"),
        ] {
            assert!(hist(name, "count") > 0, "{name} is empty");
            assert_eq!(
                stage.get(key).and_then(Json::as_f64),
                Some(ms(name)),
                "{key}"
            );
        }
        let passes = t.get("pass_ms").and_then(Json::as_obj).unwrap();
        let pass_families = wall
            .as_obj()
            .unwrap()
            .iter()
            .filter(|(k, _)| k.starts_with("wall.pass."))
            .count();
        assert!(!passes.is_empty());
        assert_eq!(passes.len(), pass_families);
        for (pass, v) in passes {
            let name = format!("wall.pass.{pass}_ns");
            assert_eq!(
                v.get("ms").and_then(Json::as_f64),
                Some(ms(&name)),
                "{pass}"
            );
            assert_eq!(
                v.get("runs").and_then(Json::as_i64),
                Some(hist(&name, "count"))
            );
        }
        let steady = t.get("sim_steady_state").and_then(Json::as_obj).unwrap();
        assert_eq!(steady.len(), 6);
        assert!(rep.counters.get("sim.trips_total") > 0);
        for (key, v) in steady {
            let counter = rep.counters.get(&format!("sim.{key}"));
            assert_eq!(v.as_i64(), Some(counter as i64), "{key}");
        }
    }
}

/// The full paper matrix — the exact configuration behind
/// BENCH_batch.json — reduces byte-identically at 4 shards, and the
/// in-process report is the checked-in BENCH_batch.json byte for byte.
#[test]
fn full_matrix_sharded_identical() {
    let mut cfg = BatchConfig::full_matrix();
    cfg.threads = Some(1);
    let reference = run_batch(&cfg);
    assert_eq!(reference.to_json(), include_str!("../BENCH_batch.json"));
    let rep = run_with(&cfg, &opts(4));
    assert_eq!(rep.to_json(), reference.to_json());
    assert_eq!(rep.counters_json(), reference.counters_json());
    assert_eq!(rep.failed(), 0);
}

/// A shard that aborts mid-run is quarantined, its work is reassigned,
/// and the run still completes with zero failed cells and an identical
/// report.
#[test]
fn killed_shard_degrades_without_losing_cells() {
    let cfg = small_config();
    let reference = run_batch(&cfg);
    let mut o = opts(3);
    o.faults = vec![(1, ShardFault::KillAfterCells(3))];
    let rep = run_with(&cfg, &o);
    assert_eq!(rep.to_json(), reference.to_json());
    assert_eq!(rep.counters_json(), reference.counters_json());
    assert_eq!(rep.failed(), 0);
    assert!(
        !rep.timing.shards[1].alive,
        "the killed shard must be reported dead in the sidecar"
    );
    assert!(
        rep.timing
            .shards
            .iter()
            .any(|s| s.alive && s.steals_received >= 1),
        "a survivor must take over the killed shard's range"
    );
}

/// With a single shard that aborts, the dispatcher appends a fault-free
/// replacement: the report and counters stay byte-identical, the dead row
/// keeps its flight dump, and the replacement is a separate live row.
#[test]
fn killed_sole_shard_is_replaced_in_a_new_row() {
    let cfg = small_config();
    let reference = run_batch(&cfg);
    let mut o = opts(1);
    o.faults = vec![(0, ShardFault::KillAfterCells(3))];
    let rep = run_with(&cfg, &o);
    assert_eq!(rep.to_json(), reference.to_json());
    assert_eq!(rep.counters_json(), reference.counters_json());
    assert_eq!(rep.failed(), 0);
    let rows = &rep.timing.shards;
    assert_eq!(rows.len(), 2, "dead row plus one replacement row");
    assert!(!rows[0].alive);
    let flight = rows[0]
        .flight
        .as_ref()
        .expect("dead row keeps its flight dump");
    slc_trace::validate_flight_dump(flight).expect("flight dump must validate");
    assert!(rows[1].alive && rows[1].flight.is_none());
    assert_eq!(rows[1].shard, 1);
    assert!(rows[1].steals_received >= 1);
}

/// A shard that emits a malformed NDJSON line is treated as dead from
/// that point; the dispatcher reassigns and the report is unchanged.
#[test]
fn malformed_shard_output_degrades_without_losing_cells() {
    let cfg = small_config();
    let reference = run_batch(&cfg);
    let mut o = opts(2);
    o.faults = vec![(0, ShardFault::GarbageFromShard(2))];
    let rep = run_with(&cfg, &o);
    assert_eq!(rep.to_json(), reference.to_json());
    assert_eq!(rep.counters_json(), reference.counters_json());
    assert_eq!(rep.failed(), 0);
    assert!(!rep.timing.shards[0].alive);
}

/// A worker fed a malformed dispatcher line must reject it (exit 4), and
/// the dispatcher must absorb that exactly like a crash.
#[test]
fn malformed_dispatcher_input_degrades_without_losing_cells() {
    let cfg = small_config();
    let reference = run_batch(&cfg);
    let mut o = opts(2);
    o.faults = vec![(0, ShardFault::GarbageToShard)];
    let rep = run_with(&cfg, &o);
    assert_eq!(rep.to_json(), reference.to_json());
    assert_eq!(rep.counters_json(), reference.counters_json());
    assert_eq!(rep.failed(), 0);
    assert!(!rep.timing.shards[0].alive);
}

/// The exact-scheduler path (SAT-backed, the expensive cells the
/// work-stealing dispatcher exists for) shards byte-identically too.
#[test]
fn exact_scheduler_sharded_smoke() {
    let ws = slc_workloads::paper_examples();
    let cfg = BatchConfig {
        workloads: ws.into_iter().take(2).collect(),
        machines: vec![slc_sim::presets::itanium2()],
        compilers: vec![CompilerKind::OptimizingMs],
        slms: SlmsConfig {
            scheduler: SchedulerKind::Exact,
            ..SlmsConfig::default()
        },
        plan: PassPlan::exact_only(),
        threads: Some(1),
        verify: false,
    };
    let reference = run_batch(&cfg);
    let rep = run_with(&cfg, &opts(2));
    assert_eq!(rep.to_json(), reference.to_json());
    assert_eq!(rep.counters_json(), reference.counters_json());
}

/// A random but parseable single-loop program (same shape as
/// tests/batch_prop.rs — the property here is reduction correctness, not
/// the transformation).
fn loop_source(arr: usize, off: i64, k: i64) -> String {
    let idx = |o: i64| match o {
        0 => "i".to_string(),
        o if o > 0 => format!("i + {o}"),
        o => format!("i - {}", -o),
    };
    format!(
        "float A0[64]; float A1[64]; float A2[64]; int i;\n\
         for (i = 4; i < 60; i++) A{arr}[i] = A{}[{}] + A{}[{}] + {k}.0;\n",
        (arr + 1) % 3,
        idx(off),
        (arr + 2) % 3,
        idx(off - 1),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    /// Shard-count invariance on random matrices: any workload mix, any
    /// shard count (including more shards than cells) reduces to the
    /// in-process report byte-for-byte.
    #[test]
    fn sharded_matches_in_process_on_random_matrices(
        arrs in proptest::collection::vec((0usize..3, -2i64..3, 0i64..5), 1..4),
        shards in 1usize..6,
        second_machine in any::<bool>(),
    ) {
        let workloads: Vec<Workload> = arrs
            .iter()
            .enumerate()
            .map(|(i, &(arr, off, k))| Workload {
                name: Box::leak(format!("shard_prop_{i}").into_boxed_str()),
                suite: Suite::Paper,
                source: Box::leak(loop_source(arr, off, k).into_boxed_str()),
            })
            .collect();
        let mut machines = vec![slc_sim::presets::itanium2()];
        if second_machine {
            machines.push(slc_sim::presets::arm7tdmi());
        }
        let cfg = BatchConfig {
            workloads,
            machines,
            compilers: vec![CompilerKind::Optimizing],
            slms: SlmsConfig::default(),
            plan: PassPlan::slms_only(),
            threads: Some(1),
            verify: false,
        };
        let reference = run_batch(&cfg);
        let rep = run_with(&cfg, &opts(shards));
        prop_assert_eq!(rep.to_json(), reference.to_json());
        prop_assert_eq!(rep.counters_json(), reference.counters_json());
    }
}
