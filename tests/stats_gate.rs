//! The count-based CI perf gate: re-run the full matrix (verification on,
//! exactly what `slc stats` does) and compare the deterministic counters
//! against the checked-in `BENCH_counters.json` baseline. A failure here
//! means the pipeline is doing a different *amount of work* than the
//! baseline records — either an accidental perf regression or a deliberate
//! change that needs `slc stats --out BENCH_counters.json` to be re-run.

use slc_core::SchedulerKind;
use slc_pipeline::{BatchConfig, BatchEngine, PassPlan};
use slc_trace::{check_counters, CounterBaseline, COUNTERS_SCHEMA};

/// Mirror of what `slc stats` runs: the heuristic full matrix plus the
/// exact-scheduler matrix on one engine, so the baseline pins both the
/// heuristic pipeline counters and the `exact.*` solver counters.
fn stats_run() -> slc_trace::CounterRegistry {
    let mut cfg = BatchConfig::full_matrix();
    cfg.verify = true;
    let engine = BatchEngine::new();
    let heuristic = engine.run(&cfg);
    assert_eq!(heuristic.failed(), 0);
    let mut exact_cfg = cfg.clone();
    exact_cfg.plan = PassPlan::exact_only();
    exact_cfg.slms.scheduler = SchedulerKind::Exact;
    let report = engine.run(&exact_cfg);
    assert_eq!(report.failed(), 0);
    report.counters
}

#[test]
fn checked_in_counter_baseline_gates_clean() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_counters.json");
    let text = std::fs::read_to_string(path).expect("BENCH_counters.json is checked in");
    assert!(text.contains(COUNTERS_SCHEMA));
    let base = CounterBaseline::parse(&text).unwrap_or_else(|e| panic!("bad baseline: {e}"));

    let counters = stats_run();
    let failures = check_counters(&counters, &base);
    assert!(
        failures.is_empty(),
        "counter gate failures:\n{}",
        failures
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // drift-tightness: every counter the run emits is pinned by the
    // baseline, so new instrumentation cannot silently escape the gate
    // after the next regeneration
    for (name, _) in counters.iter() {
        assert!(
            base.counters.contains_key(name),
            "counter {name} is not in BENCH_counters.json — regenerate it"
        );
    }

    // counters are deterministic: beyond the tolerance gate above, every
    // one equals its baseline value exactly, so a drift inside a
    // counter's tolerance (2% of `sim.cycles_total`) still shows here
    for (name, &want) in &base.counters {
        assert_eq!(counters.get(name), want, "counter {name}");
    }
}

#[test]
fn gate_detects_injected_regressions() {
    let counters = stats_run();
    let mut doc = CounterBaseline::parse(&counters.to_json(&[("sim.cycles_total", 0.02)])).unwrap();

    // a clean run gates clean against its own baseline
    assert!(check_counters(&counters, &doc).is_empty());

    // +1 on an exact counter (an extra decompose retry) must trip the gate
    let retries = doc.counters.get_mut("slms.decompose_retries").unwrap();
    *retries += 1;
    let failures = check_counters(&counters, &doc);
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].name, "slms.decompose_retries");

    // a 10% cycle swing overwhelms the 2% tolerance
    *doc.counters.get_mut("slms.decompose_retries").unwrap() -= 1;
    let cycles = doc.counters.get_mut("sim.cycles_total").unwrap();
    *cycles = *cycles + *cycles / 10;
    let failures = check_counters(&counters, &doc);
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].name, "sim.cycles_total");
    assert_eq!(failures[0].tolerance, 0.02);
}
