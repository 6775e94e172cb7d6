//! The `matrix` and `sharded` workloads: the paper's full experiment
//! matrix (every workload × machine × personality × {orig, slms}) through
//! `BatchEngine::run` with two threads, or through `run_sharded` with two
//! `slc batch-shard` worker processes of one thread each.
//!
//! Every evaluation starts from a fresh compile service, as every `slc
//! batch` does. The seed permutes the workload axis; the report is put back
//! into canonical cell order by cell identity and must then be
//! byte-identical to the pinned canonical report (`golden/matrix.tsv`).

use crate::ledger::{self, Layers, Ledger};
use crate::stats::{self, latency_metric, median, segment_end, Rng, SETUP_REPS};
use crate::{Args, Outcome};
use slc::analysis::{fingerprint_str, program_fingerprint};
use slc::ast::parse_program;
use slc::machine::lower::lower_program;
use slc::pipeline::{
    compile_lir, run_sharded, BatchConfig, BatchEngine, BatchReport, CellResult, CompilerKind,
    Json, ShardOptions,
};
use slc::sim::cycle::{simulate_with, SimFidelity};
use slc::slms::slms_program;
use slc::trace::Tracer;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

const GOLDEN: &str = include_str!("../golden/matrix.tsv");
const THREADS: usize = 2;
const SHARDS: usize = 2;

/// The pinned canonical report: its digest and every cell's digest, in
/// canonical order.
struct Golden {
    report_fp: u64,
    cells: Vec<(String, u64)>,
    index: HashMap<String, usize>,
}

fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("golden digest {s:?}: {e}"))
}

impl Golden {
    fn load() -> Result<Golden, String> {
        let mut lines = GOLDEN.lines();
        let head: Vec<&str> = lines
            .next()
            .ok_or("empty golden table")?
            .split('\t')
            .collect();
        if head.len() != 3 || head[0] != "report" {
            return Err("golden table must start with a report line".into());
        }
        let report_fp = parse_hex(head[1])?;
        let mut cells = Vec::new();
        for l in lines {
            let (id, fp) = l.split_once('\t').ok_or("malformed golden cell line")?;
            cells.push((id.to_string(), parse_hex(fp)?));
        }
        let index = cells
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (id.clone(), i))
            .collect();
        Ok(Golden {
            report_fp,
            cells,
            index,
        })
    }

    /// Failed cells of one evaluation: put the cells back into canonical
    /// order, render the canonical report and compare it with the pinned
    /// one; on a mismatch, count the differing cells (at least one).
    fn check(&self, mut report: BatchReport, corrupt: bool) -> u64 {
        let n = self.cells.len();
        if corrupt {
            if let Some(Ok(m)) = report.cells.first_mut().map(|c| &mut c.outcome) {
                m.cycles += 1;
            }
        }
        let mut slots: Vec<Option<CellResult>> = vec![None; n];
        for c in std::mem::take(&mut report.cells) {
            match self.index.get(&cell_id(&c)) {
                Some(&i) if slots[i].is_none() => slots[i] = Some(c),
                _ => return n as u64,
            }
        }
        let Some(cells) = slots.into_iter().collect::<Option<Vec<_>>>() else {
            return n as u64;
        };
        report.cells = cells;
        let text = report.to_json();
        if fingerprint_str(&text) == self.report_fp {
            return 0;
        }
        let cells = Json::parse(&text).ok().and_then(|doc| {
            doc.get("cells")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
        });
        let Some(cells) = cells else {
            return n as u64;
        };
        let bad = cells
            .iter()
            .zip(&self.cells)
            .filter(|(c, (_, fp))| fingerprint_str(&c.to_string()) != *fp)
            .count();
        bad.max(1) as u64
    }
}

fn cell_id(c: &CellResult) -> String {
    format!(
        "{}/{}/{}/{}",
        c.id.workload, c.id.machine, c.id.compiler, c.id.variant
    )
}

/// The canonical report: the full matrix in corpus order, as `slc batch`
/// writes it.
pub fn canonical_report() -> String {
    let mut cfg = BatchConfig::full_matrix();
    cfg.threads = Some(THREADS);
    BatchEngine::new().run(&cfg).to_json()
}

/// The golden table for `report`: its digest, then one digest per cell.
pub fn golden_table(report: &str) -> Result<String, String> {
    let doc = Json::parse(report)?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("report has no cells")?;
    let mut out = format!(
        "report\t{:016x}\t{}\n",
        fingerprint_str(report),
        cells.len()
    );
    for c in cells {
        let field = |k: &str| c.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        out.push_str(&format!(
            "{}/{}/{}/{}\t{:016x}\n",
            field("workload"),
            field("machine"),
            field("compiler"),
            field("variant"),
            fingerprint_str(&c.to_string())
        ));
    }
    Ok(out)
}

struct Setup {
    cfg: BatchConfig,
    shard_opts: Option<ShardOptions>,
    /// cycles of every cell, by identity, from the warm-up evaluation
    cycles: HashMap<String, u64>,
}

impl Setup {
    fn eval(&self) -> Result<BatchReport, String> {
        match &self.shard_opts {
            Some(opts) => run_sharded(&self.cfg, opts, &Tracer::disabled()),
            None => Ok(BatchEngine::new().run(&self.cfg)),
        }
    }
}

fn setup(args: &Args, sharded: bool) -> Result<Setup, String> {
    let mut cfg = BatchConfig::full_matrix();
    Rng::new(args.seed).shuffle(&mut cfg.workloads);
    let shard_opts = if sharded {
        let slc = args
            .slc
            .clone()
            .ok_or("the sharded workload needs --slc PATH (the built slc binary)")?;
        cfg.threads = Some(1);
        Some(ShardOptions {
            shards: SHARDS,
            threads_per_shard: Some(1),
            worker_cmd: Some(vec![slc, "batch-shard".into()]),
            ..ShardOptions::default()
        })
    } else {
        cfg.threads = Some(THREADS);
        None
    };
    let mut st = Setup {
        cfg,
        shard_opts,
        cycles: HashMap::new(),
    };
    // warm-up evaluation: pays first-touch costs; its cycles are what the
    // traced layer walk must reproduce (the timed evaluations are each
    // checked against the pinned report)
    let warm = st.eval()?;
    st.cycles = warm
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref().ok().map(|m| (cell_id(c), m.cycles)))
        .collect();
    Ok(st)
}

pub fn run(args: &Args, sharded: bool) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let n_cells = golden.cells.len() as u64;
    if args.trace {
        let st = setup(args, sharded)?;
        return traced(args, &st, &golden, sharded);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for k in 0..SETUP_REPS {
        let t = Instant::now();
        let st = setup(args, sharded)?;
        setups.push(t.elapsed().as_secs_f64());
        let until = segment_end(start, args.seconds, k);
        let mut first = true;
        while first || Instant::now() < until {
            first = false;
            let t = Instant::now();
            let report = st.eval()?;
            walls.push(t.elapsed().as_secs_f64());
            attempted += n_cells;
            failed += golden.check(report, args.corrupt);
        }
    }
    let mut metrics = stats::end_to_end(
        &setups,
        n_cells as f64 / median(&walls),
        "cells per second, at the median evaluation",
        latency_metric("op_p50_ms", &walls, 0.5),
        latency_metric("op_tail_ms", &walls, 0.75),
        sharded,
    );
    metrics[2].note = format!("per evaluation of {n_cells} cells; {}", metrics[2].note);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Evaluate the matrix by calling each layer's public entry point
/// directly, memoized like the compile service (parse and SLMS once per
/// workload, lowering once per program, scheduling and simulation once per
/// program × machine × personality), so each call does the work it does
/// inside one evaluation. Returns the cycles of every cell, by identity.
///
/// The walk gives the time per call of each entry point; how many calls an
/// evaluation makes is read from the engine's own report
/// ([`engine_counts`]).
fn walk(cfg: &BatchConfig, lg: &Ledger) -> Result<HashMap<String, u64>, String> {
    let mut out = HashMap::new();
    let mut lowered = HashMap::new();
    let mut simulated: HashMap<(u64, usize, usize), u64> = HashMap::new();
    for w in &cfg.workloads {
        let prog = lg
            .call(ledger::PARSE, || parse_program(w.source))
            .map_err(|e| format!("{}: {e}", w.name))?;
        let orig_fp = lg.call(ledger::FINGERPRINT, || program_fingerprint(&prog));
        let (slms, _) = lg.call(ledger::SLMS, || slms_program(&prog, &cfg.slms));
        let slms_fp = lg.call(ledger::FINGERPRINT, || program_fingerprint(&slms));
        for (variant, p, fp) in [("orig", &prog, orig_fp), ("slms", &slms, slms_fp)] {
            let lir = match lowered.entry(fp) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let lir = lg.call(ledger::LOWER, || lower_program(p));
                    e.insert(lir.map_err(|e| format!("{}: lower: {e}", w.name))?)
                }
            };
            for (mi, m) in cfg.machines.iter().enumerate() {
                for (ci, &kind) in cfg.compilers.iter().enumerate() {
                    let cycles = match simulated.get(&(fp, mi, ci)) {
                        Some(&c) => c,
                        None => {
                            let comp = lg.call(ledger::COMPILE, || compile_lir(lir, m, kind));
                            let sim = lg.call(ledger::SIMULATE, || {
                                simulate_with(&comp.compiled, m, SimFidelity::Fast)
                            });
                            simulated.insert((fp, mi, ci), sim.result.cycles);
                            sim.result.cycles
                        }
                    };
                    let id = format!("{}/{}/{}/{variant}", w.name, m.name, kind.label());
                    out.insert(id, cycles);
                }
            }
        }
    }
    Ok(out)
}

/// Geometric mean over (workload, machine, personality) of orig cycles ÷
/// slms cycles.
fn speedup_geomean(cycles: &HashMap<String, u64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for (id, &orig) in cycles {
        if let Some(stem) = id.strip_suffix("/orig") {
            if let Some(&slms) = cycles.get(&format!("{stem}/slms")) {
                log_sum += (orig as f64 / slms as f64).ln();
                n += 1;
            }
        }
    }
    (log_sum / f64::from(n.max(1))).exp()
}

/// The work one evaluation did, as the engine reports it. Every evaluation
/// starts from a fresh service, so the report's cumulative figures are that
/// evaluation's: scheduling calls are compile-store misses, trip and
/// fallback counts come from the counter registry, IMS outcomes and cycles
/// from the cells.
fn engine_counts(report: &BatchReport, layers: &mut Layers) {
    layers.compile_calls = report.cache.compile.misses;
    layers.trips_total = report.counters.get("sim.trips_total");
    layers.trips_skipped = report.counters.get("sim.trips_skipped");
    layers.fallback_loops = report.counters.get("sim.fallback_loops");
    let ms = CompilerKind::OptimizingMs.label();
    let (mut tried, mut applied) = (0u64, 0u64);
    let mut cycles = HashMap::new();
    for c in &report.cells {
        let Ok(m) = &c.outcome else { continue };
        if c.id.compiler == ms {
            tried += m.loops.len() as u64;
            applied += m.loops.iter().filter(|l| l.ms_applied).count() as u64;
        }
        cycles.insert(cell_id(c), m.cycles);
    }
    layers.ims_tried = tried;
    layers.ims_applied = applied;
    layers.slms_speedup_geomean = speedup_geomean(&cycles);
}

/// The traced run: engine evaluations (in-process and, for `sharded`,
/// through the shard fleet) for the work counts, cache, parallelism and
/// shard figures, then layer walks alternating with spans off and on for
/// the time per call.
fn traced(args: &Args, st: &Setup, golden: &Golden, sharded: bool) -> Result<Outcome, String> {
    let n_cells = golden.cells.len() as u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut layers = Layers::default();
    let start = Instant::now();
    let phase_a = start + args.seconds.mul_f64(0.4);
    let deadline = start + args.seconds;

    let in_process = Setup {
        cfg: BatchConfig {
            threads: Some(THREADS),
            ..st.cfg.clone()
        },
        shard_opts: None,
        cycles: HashMap::new(),
    };
    let (mut engine_walls, mut shard_walls) = (Vec::new(), Vec::new());
    let (mut steals, mut imbalance) = (Vec::new(), Vec::new());
    while engine_walls.is_empty() || Instant::now() < phase_a {
        let t = Instant::now();
        let report = in_process.eval()?;
        engine_walls.push(t.elapsed().as_secs_f64());
        layers.cache_hit_ratio = report.cache.overall_hit_rate();
        layers.evictions = report.cache.total_evictions() as f64;
        if !sharded {
            engine_counts(&report, &mut layers);
        }
        attempted += n_cells;
        failed += golden.check(report, args.corrupt);
        if sharded {
            let t = Instant::now();
            let report = st.eval()?;
            shard_walls.push(t.elapsed().as_secs_f64());
            engine_counts(&report, &mut layers);
            let cells: Vec<f64> = report
                .timing
                .shards
                .iter()
                .map(|s| s.cells as f64)
                .collect();
            let mean = cells.iter().sum::<f64>() / cells.len().max(1) as f64;
            imbalance.push(cells.iter().copied().fold(0.0, f64::max) / mean);
            steals.push(
                report
                    .timing
                    .shards
                    .iter()
                    .map(|s| s.steals_received as f64)
                    .sum::<f64>(),
            );
            attempted += n_cells;
            failed += golden.check(report, args.corrupt);
        }
    }

    let walks = ledger::paired(deadline, |lg| {
        let cycles = walk(&st.cfg, lg)?;
        attempted += cycles.len() as u64;
        failed += st
            .cycles
            .iter()
            .filter(|(id, c)| cycles.get(*id) != Some(c))
            .count() as u64;
        Ok(())
    })?;
    let parallel_wall = median(if sharded { &shard_walls } else { &engine_walls });
    let serial_busy_s = walks.busy.total_ns() as f64 / 1e9 / walks.traced as f64;
    layers.parallel_efficiency = serial_busy_s / (parallel_wall * THREADS as f64);
    if sharded {
        layers.shard_overhead_ms = (median(&shard_walls) - median(&engine_walls)) * 1e3;
        layers.shard_steals = median(&steals);
        layers.shard_imbalance = median(&imbalance);
    }
    layers.finish(walks, args)?;
    Ok(Outcome {
        attempted,
        failed,
        metrics: layers.metrics(),
    })
}
