//! The per-layer ledger: the benchmark's own spans around the public calls
//! into each layer, and the per-layer metrics derived from them.
//!
//! Spans are recorded with the `slc-trace` collector, so the traced run is
//! exported and validated as a Chrome trace like any `slc --trace` run.
//! With the collector disabled a span costs nothing, which is how the
//! untraced half of `trace.overhead_ratio` runs the very same code.

use crate::stats::median;
use crate::Metric;
use slc::trace::{validate_chrome_trace, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span names, one per public entry point the benchmark times. The layer
/// is the prefix; the per-layer metrics below read them back by name.
pub const PARSE: &str = "ast.parse_program";
pub const RENDER: &str = "ast.to_source";
pub const DEPS: &str = "analysis.build_ddg_ranged";
pub const FINGERPRINT: &str = "analysis.fingerprint";
pub const SLMS: &str = "core.slms_program";
pub const SLMS_EXACT: &str = "core.slms_program_exact";
pub const CERT_CHECK: &str = "exact.check_certificate";
pub const NORMALIZE: &str = "transforms.normalize";
pub const LOWER: &str = "machine.lower_program";
pub const COMPILE: &str = "machine.compile_lir";
pub const SIMULATE: &str = "sim.simulate_with";
pub const LINT: &str = "verify.lint_program";
pub const VALIDATE: &str = "verify.verify_slms_program";
pub const REQ_ENCODE: &str = "serve.request_to_line";
pub const REQ_DECODE: &str = "serve.request_parse";
pub const RESP_ENCODE: &str = "serve.response_to_line";
pub const RESP_DECODE: &str = "serve.response_parse";

/// A span collector that is either recording or free.
pub struct Ledger {
    tracer: Tracer,
}

impl Ledger {
    pub fn off() -> Ledger {
        Ledger {
            tracer: Tracer::disabled(),
        }
    }

    pub fn on() -> Ledger {
        let tracer = Tracer::enabled();
        tracer.set_thread_track(0, "main");
        Ledger { tracer }
    }

    /// Run `f` inside a span named after the public call it makes.
    #[inline]
    pub fn call<T>(&self, layer_call: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.tracer.span("layer", layer_call);
        f()
    }

    pub fn is_recording(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Bind the calling thread to its own named trace track.
    pub fn track(&self, tid: u32, name: &str) {
        self.tracer.set_thread_track(tid, name);
    }

    /// Busy nanoseconds and call count per span name so far.
    pub fn busy(&self) -> Busy {
        let mut m = BTreeMap::new();
        for ev in self.tracer.events() {
            let slot: &mut (u64, u64) = m.entry(ev.name).or_default();
            slot.0 += ev.dur_ns;
            slot.1 += 1;
        }
        Busy(m)
    }

    /// Export the spans as a Chrome trace, validate it with the trace
    /// crate's validator and write it to `path` (when given). Returns the
    /// number of spans in the validated trace.
    pub fn export(&self, path: Option<&str>) -> Result<usize, String> {
        let json = self
            .tracer
            .to_chrome_json()
            .ok_or("tracer recorded nothing")?;
        let summary = validate_chrome_trace(&json).map_err(|e| format!("invalid trace: {e}"))?;
        if let Some(p) = path {
            if let Some(dir) = std::path::Path::new(p).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(p, &json).map_err(|e| format!("cannot write {p}: {e}"))?;
        }
        Ok(summary.spans)
    }
}

/// Busy time per span name: (total ns, calls).
#[derive(Default)]
pub struct Busy(BTreeMap<String, (u64, u64)>);

impl Busy {
    /// Mean milliseconds per call of the named spans together (0 when
    /// none ran).
    pub fn ms_per_call(&self, names: &[&str]) -> f64 {
        let (ns, calls) = names
            .iter()
            .filter_map(|n| self.0.get(*n))
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1e6
        }
    }

    pub fn ns(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |s| s.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.0.get(name).map_or(0, |s| s.1)
    }

    /// Busy time of every span, in ns.
    pub fn total_ns(&self) -> u64 {
        self.0.values().map(|s| s.0).sum()
    }

    pub fn merge(&mut self, other: Busy) {
        for (name, (ns, calls)) in other.0 {
            let slot = self.0.entry(name).or_default();
            slot.0 += ns;
            slot.1 += calls;
        }
    }
}

/// Passes of one workload run alternately with spans off and on.
pub struct Paired {
    /// busy time of every traced pass
    pub busy: Busy,
    /// the last traced pass, which is what gets exported
    pub last: Ledger,
    /// traced passes
    pub traced: u64,
    /// traced pass wall ÷ untraced pass wall, at the medians
    pub overhead_ratio: f64,
    pub note: String,
}

/// Run `pass` alternately untraced and traced (a fresh collector per
/// traced pass, which bounds the exported trace to one pass) until
/// `until`, and at least once each.
pub fn paired(
    until: Instant,
    mut pass: impl FnMut(&Ledger) -> Result<(), String>,
) -> Result<Paired, String> {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut busy = Busy::default();
    let mut last = Ledger::off();
    while on.is_empty() || Instant::now() < until {
        let t = Instant::now();
        pass(&Ledger::off())?;
        off.push(t.elapsed().as_secs_f64());
        let lg = Ledger::on();
        let t = Instant::now();
        pass(&lg)?;
        on.push(t.elapsed().as_secs_f64());
        busy.merge(lg.busy());
        last = lg;
    }
    Ok(Paired {
        busy,
        last,
        traced: on.len() as u64,
        overhead_ratio: median(&on) / median(&off),
        note: format!("{} pass pairs", on.len()),
    })
}

/// Everything the per-layer metrics are computed from. A workload fills
/// what its layers do; a layer the workload leaves idle reads 0.
#[derive(Default)]
pub struct Layers {
    pub busy: Busy,
    /// traced passes over the workload's unit of work, which per-pass
    /// counts are divided by
    pub passes: u64,
    pub pairs_decided: u64,
    pub sat_decisions: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
    pub verify_obligations: u64,
    /// the engine's figures for one evaluation of the matrix
    pub compile_calls: u64,
    pub ims_tried: u64,
    pub ims_applied: u64,
    pub trips_total: u64,
    pub trips_skipped: u64,
    pub fallback_loops: u64,
    pub slms_speedup_geomean: f64,
    pub cache_hit_ratio: f64,
    pub evictions: f64,
    pub parallel_efficiency: f64,
    pub shard_overhead_ms: f64,
    pub shard_steals: f64,
    pub shard_imbalance: f64,
    pub serve_overhead_us: f64,
    pub busy_rejections: f64,
    pub timeouts: f64,
    pub overhead_ratio: f64,
    pub overhead_note: String,
    pub spans: usize,
}

impl Layers {
    /// Take the traced passes' busy time and overhead, and export the last
    /// traced pass as a validated Chrome trace.
    pub fn finish(&mut self, walks: Paired, args: &crate::Args) -> Result<(), String> {
        self.spans = walks.last.export(args.trace_out.as_deref())?;
        self.passes = walks.traced;
        self.busy.merge(walks.busy);
        self.overhead_ratio = walks.overhead_ratio;
        self.overhead_note = walks.note;
        Ok(())
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let b = &self.busy;
        let per_pass = |n: u64| {
            if self.passes == 0 {
                0.0
            } else {
                n as f64 / self.passes as f64
            }
        };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        // both protocol directions, per request
        let requests = b.calls(REQ_ENCODE);
        let both_us = |x: &str, y: &str| {
            if requests == 0 {
                0.0
            } else {
                (b.ns(x) + b.ns(y)) as f64 / requests as f64 / 1e3
            }
        };
        vec![
            Metric::new("ast.parse_ms", b.ms_per_call(&[PARSE]), "ms"),
            Metric::new("analysis.deps_ms", b.ms_per_call(&[DEPS]), "ms"),
            Metric::new(
                "analysis.pairs_decided",
                per_pass(self.pairs_decided),
                "count",
            ),
            Metric::new(
                "analysis.fingerprint_ms",
                b.ms_per_call(&[FINGERPRINT]),
                "ms",
            ),
            Metric::new("core.slms_ms", b.ms_per_call(&[SLMS]), "ms"),
            Metric::new("core.slms_exact_ms", b.ms_per_call(&[SLMS_EXACT]), "ms"),
            Metric::new(
                "core.slms_speedup_geomean",
                self.slms_speedup_geomean,
                "ratio",
            ),
            Metric::new("exact.cert_check_ms", b.ms_per_call(&[CERT_CHECK]), "ms"),
            Metric::new("sat.decisions", per_pass(self.sat_decisions), "count"),
            Metric::new("sat.conflicts", per_pass(self.sat_conflicts), "count"),
            Metric::new("sat.propagations", per_pass(self.sat_propagations), "count"),
            Metric::new("transforms.normalize_ms", b.ms_per_call(&[NORMALIZE]), "ms"),
            Metric::new("machine.lower_ms", b.ms_per_call(&[LOWER]), "ms"),
            Metric::new("machine.compile_ms", b.ms_per_call(&[COMPILE]), "ms"),
            Metric::new("machine.compile_calls", self.compile_calls as f64, "count"),
            Metric::new(
                "machine.ims_useful_ratio",
                ratio(self.ims_applied, self.ims_tried),
                "ratio",
            ),
            Metric::new("sim.simulate_ms", b.ms_per_call(&[SIMULATE]), "ms"),
            Metric::new(
                "sim.ns_per_trip",
                per_pass(b.ns(SIMULATE)) / self.trips_total.max(1) as f64,
                "ns",
            ),
            Metric::new(
                "sim.ff_skip_ratio",
                ratio(self.trips_skipped, self.trips_total),
                "ratio",
            ),
            Metric::new("sim.fallback_loops", self.fallback_loops as f64, "count"),
            Metric::new("verify.validate_ms", b.ms_per_call(&[VALIDATE]), "ms"),
            Metric::new(
                "verify.obligations",
                per_pass(self.verify_obligations),
                "count",
            ),
            Metric::new("pipeline.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            Metric::new("pipeline.evictions", self.evictions, "count"),
            Metric::new(
                "pipeline.parallel_efficiency",
                self.parallel_efficiency,
                "ratio",
            ),
            Metric::new("pipeline.shard_overhead_ms", self.shard_overhead_ms, "ms"),
            Metric::new("pipeline.shard_steals", self.shard_steals, "count"),
            Metric::new("pipeline.shard_imbalance", self.shard_imbalance, "ratio"),
            Metric::new("serve.overhead_us", self.serve_overhead_us, "us"),
            Metric::new(
                "serve.proto_encode_us",
                both_us(REQ_ENCODE, RESP_ENCODE),
                "us",
            ),
            Metric::new(
                "serve.proto_decode_us",
                both_us(REQ_DECODE, RESP_DECODE),
                "us",
            ),
            Metric::new("serve.busy_rejections", self.busy_rejections, "count"),
            Metric::new("serve.timeouts", self.timeouts, "count"),
            Metric::new("trace.overhead_ratio", self.overhead_ratio, "ratio")
                .with_note(self.overhead_note.clone()),
            Metric::new("trace.spans", self.spans as f64, "count"),
        ]
    }
}
