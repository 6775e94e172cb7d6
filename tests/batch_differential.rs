//! Differential testing of the batch engine: every cell of the full
//! experiment matrix must be bit-identical to the serial reference path
//! (`slc_pipeline::compile` + `slc_sim::simulate`), and the canonical JSON
//! report must be byte-identical across thread counts.

use slc_core::{slms_program, SlmsConfig};
use slc_pipeline::{compile, run_batch, BatchConfig, BatchEngine, CompilerKind, PassPlan};
use slc_sim::cycle::simulate;
use slc_sim::power::EnergyModel;
use slc_workloads::Variant;

/// The whole matrix, every cell checked against the serial path.
#[test]
fn batch_equals_serial_on_full_matrix() {
    let cfg = BatchConfig::full_matrix();
    let report = run_batch(&cfg);
    assert_eq!(report.cells.len(), cfg.n_cells());

    let cells = slc_workloads::enumerate_matrix(
        cfg.workloads.len(),
        cfg.machines.len(),
        cfg.compilers.len(),
    );
    // serial reference artifacts, one per workload (recomputed honestly,
    // not through the engine's caches)
    let programs: Vec<_> = cfg.workloads.iter().map(|w| w.program()).collect();
    let slmsed: Vec<_> = programs
        .iter()
        .map(|p| slms_program(p, &cfg.slms))
        .collect();

    for (cell, result) in cells.iter().zip(&report.cells) {
        let w = &cfg.workloads[cell.workload];
        let m = &cfg.machines[cell.machine];
        let kind = cfg.compilers[cell.compiler];
        assert_eq!(result.id.workload, w.name);
        assert_eq!(result.id.machine, m.name);
        assert_eq!(result.id.compiler, kind.label());

        let prog = match cell.variant {
            Variant::Original => &programs[cell.workload],
            Variant::Slms => &slmsed[cell.workload].0,
        };
        match compile(prog, m, kind) {
            Err(e) => {
                let err = result
                    .outcome
                    .as_ref()
                    .expect_err("serial path failed but batch cell completed");
                assert_eq!(err, &format!("lower: {e}"), "{}", w.name);
            }
            Ok(c) => {
                let got = result
                    .outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{} degraded unexpectedly: {e}", w.name));
                let sim = simulate(&c.compiled, m);
                let power = EnergyModel::default().report(&sim);
                let ctx = format!(
                    "{} / {} / {} / {}",
                    w.name,
                    m.name,
                    kind.label(),
                    cell.variant
                );
                assert_eq!(got.cycles, sim.cycles, "{ctx}");
                assert_eq!(got.ops, sim.total_ops(), "{ctx}");
                assert_eq!(got.l1_hits, sim.cache.hits, "{ctx}");
                assert_eq!(got.l1_misses, sim.cache.misses, "{ctx}");
                assert_eq!(got.spill_accesses, sim.spill_accesses, "{ctx}");
                assert_eq!(got.energy.to_bits(), power.energy.to_bits(), "{ctx}");
                assert_eq!(got.loops, c.loops, "{ctx}");
                if cell.variant == Variant::Original {
                    assert!(!got.transformed && got.slms_ii.is_none(), "{ctx}");
                } else {
                    let outcomes = &slmsed[cell.workload].1;
                    assert_eq!(
                        got.transformed,
                        outcomes.iter().any(|o| o.result.is_ok()),
                        "{ctx}"
                    );
                    assert_eq!(
                        got.slms_ii,
                        outcomes
                            .iter()
                            .find_map(|o| o.result.as_ref().ok().map(|r| r.ii)),
                        "{ctx}"
                    );
                }
            }
        }
    }
}

/// The canonical report is byte-identical no matter how many worker
/// threads evaluate it — fresh engine each time, so cache counters agree
/// as well.
#[test]
fn report_is_thread_count_invariant() {
    let base = BatchConfig {
        workloads: slc_workloads::paper_examples(),
        machines: vec![slc_sim::presets::itanium2(), slc_sim::presets::arm7tdmi()],
        compilers: vec![CompilerKind::Weak, CompilerKind::OptimizingMs],
        slms: SlmsConfig::default(),
        plan: PassPlan::slms_only(),
        threads: Some(1),
        verify: false,
    };
    let serial = run_batch(&base).to_json();
    for threads in [2, 4, 8] {
        let cfg = BatchConfig {
            threads: Some(threads),
            ..base.clone()
        };
        let json = run_batch(&cfg).to_json();
        assert_eq!(serial, json, "report differs with {threads} threads");
    }
    // and across repeated runs of one engine (hits instead of misses, but
    // identical cells)
    let engine = BatchEngine::new();
    let first = engine.run(&base);
    let second = engine.run(&base);
    for (a, b) in first.cells.iter().zip(&second.cells) {
        assert_eq!(a.id, b.id);
        match (&a.outcome, &b.outcome) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.cycles, y.cycles);
                assert_eq!(x.loops, y.loops);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("outcome kind changed between runs"),
        }
    }
    assert!(second.cache.overall_hit_rate() > first.cache.overall_hit_rate());
}

/// Plan-keyed caching: a non-trivial pass plan is (a) thread-count
/// invariant like the default, and (b) keyed separately from other plans
/// on a shared engine — changing the plan forces fresh transform work.
#[test]
fn plan_keyed_reports_are_thread_invariant_and_isolated() {
    let base = BatchConfig {
        workloads: slc_workloads::paper_examples(),
        machines: vec![slc_sim::presets::itanium2()],
        compilers: vec![CompilerKind::Optimizing],
        slms: SlmsConfig::default(),
        plan: PassPlan::parse("normalize,slms").unwrap(),
        threads: Some(1),
        verify: false,
    };
    let serial = run_batch(&base).to_json();
    for threads in [2, 8] {
        let cfg = BatchConfig {
            threads: Some(threads),
            ..base.clone()
        };
        assert_eq!(
            serial,
            run_batch(&cfg).to_json(),
            "plan-keyed report differs with {threads} threads"
        );
    }

    let engine = BatchEngine::new();
    engine.run(&base);
    let misses_plan_a = engine.cache_report().slms.misses;
    // same engine, same inputs, different plan → new cache keys, new misses
    let cfg_b = BatchConfig {
        plan: PassPlan::slms_only(),
        ..base.clone()
    };
    engine.run(&cfg_b);
    let misses_plan_b = engine.cache_report().slms.misses;
    assert!(
        misses_plan_b > misses_plan_a,
        "distinct plans must not share transform artifacts ({misses_plan_a} vs {misses_plan_b})"
    );
    // and re-running either plan is now fully cached
    let hits_before = engine.cache_report().slms.hits;
    engine.run(&base);
    assert_eq!(engine.cache_report().slms.misses, misses_plan_b);
    assert!(engine.cache_report().slms.hits > hits_before);
}
