//! The `certify` workload: the checker's path (`slc verify --scheduler
//! exact`). Every corpus program is parsed, scheduled with the exact
//! scheduler (`slms_program`), validated (`verify_slms_program`) and has
//! its optimality certificates re-checked (`check_certificate`) against a
//! dependence set the benchmark derives itself. Nothing is lowered or
//! simulated. The seed permutes the program order; verdicts are compared by
//! program name with `golden/certify.tsv`.

use crate::ledger::{self, Layers, Ledger};
use crate::stats::{blocked_end_to_end, segment_end, Block, Rng, SETUP_REPS};
use crate::{Args, Outcome};
use slc::analysis::{build_ddg_ranged, partition_mis, DepEdge, DepKind, DepStats, LoopRange};
use slc::ast::{parse_program, ForLoop, Program, Stmt};
use slc::exact::{check_certificate, Dep};
use slc::slms::{
    constraints_of, slms_program, DiagEvent, LoopOutcome, SchedulerKind, SlmsConfig, SlmsReport,
};
use slc::verify::verify_slms_program;
use slc::workloads::Workload;
use std::collections::HashMap;
use std::time::Instant;

const GOLDEN: &str = include_str!("../golden/certify.tsv");

fn exact_cfg() -> SlmsConfig {
    SlmsConfig {
        scheduler: SchedulerKind::Exact,
        ..SlmsConfig::default()
    }
}

/// What `golden/certify.tsv` pins per program: loops, certified loops,
/// independently re-checked loops, obligations.
type Pinned = (usize, usize, usize, usize);

/// The verdict on one program, and the work counts behind it.
#[derive(Default, Debug, Clone, PartialEq)]
struct Verdict {
    loops: usize,
    certified: usize,
    obligations: usize,
    violations: usize,
    positive_gaps: usize,
    rechecked: usize,
    recheck_failures: usize,
    pairs_decided: u64,
    sat_decisions: u64,
    sat_conflicts: u64,
    sat_propagations: u64,
}

impl Verdict {
    /// The pinned part of the verdict.
    fn pinned(&self) -> Pinned {
        (self.loops, self.certified, self.rechecked, self.obligations)
    }

    fn ok(&self, pinned: Option<&Pinned>) -> bool {
        self.violations == 0
            && self.positive_gaps == 0
            && self.recheck_failures == 0
            && pinned == Some(&self.pinned())
    }
}

/// Innermost `for` loops in the order the SLMS driver and the validator
/// visit them.
fn innermost_loops<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a ForLoop>) {
    for s in stmts {
        match s {
            Stmt::For(f) if !f.body.iter().any(Stmt::contains_loop) => out.push(f),
            Stmt::For(f) => innermost_loops(&f.body, out),
            Stmt::Block(b) => innermost_loops(b, out),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                innermost_loops(then_branch, out);
                innermost_loops(else_branch, out);
            }
            _ => {}
        }
    }
}

/// Re-check one loop's certificate against the dependences of its emitted
/// body, derived here from the source loop and the report's reordering.
/// Returns `None` when the emitted body is not the reordered source body
/// (decomposition or if-conversion rewrote it); the validator's own
/// re-check still covers those loops.
fn recheck(
    f: &ForLoop,
    r: &SlmsReport,
    lg: &Ledger,
    stats: &mut DepStats,
) -> Option<Result<(), String>> {
    let (cert, order) = (r.certificate.as_ref()?, r.exact_order.as_ref()?);
    let range = LoopRange::of_loop(f)?;
    if !r.decomposed.is_empty() || r.if_converted {
        return None;
    }
    let mis = partition_mis(&f.body).ok()?;
    if order.len() != mis.len() || order.iter().any(|&k| k >= mis.len()) {
        return Some(Err(format!(
            "exact order {order:?} is no permutation of the body"
        )));
    }
    let permuted: Vec<Stmt> = order.iter().map(|&k| mis[k].stmt.clone()).collect();
    let emitted = match partition_mis(&permuted) {
        Ok(m) => m,
        Err(e) => return Some(Err(e.to_string())),
    };
    let rd = lg.call(ledger::DEPS, || {
        build_ddg_ranged(&emitted, &f.var, &range, stats)
    });
    // anti/output dependences on scalars that MVE or expansion renamed
    // are removed by the renaming, as in the scheduler
    let renamed = |s: &str| {
        r.renamed.iter().any(|(n, _)| n == s) || r.expanded_arrays.iter().any(|(n, _)| n == s)
    };
    let removable = |e: &DepEdge| {
        matches!(e.kind, DepKind::Anti | DepKind::Output)
            && e.scalar.as_deref().is_some_and(renamed)
    };
    let deps: Vec<Dep> = constraints_of(&rd.ddg, &removable)
        .iter()
        .map(|c| Dep {
            from: c.u,
            to: c.v,
            dist: c.d,
        })
        .collect();
    Some(
        lg.call(ledger::CERT_CHECK, || {
            check_certificate(&deps, emitted.len(), cert)
        })
        .map_err(|e| e.to_string()),
    )
}

/// Time to a certified, validated verdict on one program.
fn certify(w: &Workload, cfg: &SlmsConfig, lg: &Ledger) -> Result<Verdict, String> {
    let prog: Program = lg
        .call(ledger::PARSE, || parse_program(w.source))
        .map_err(|e| format!("{}: {e}", w.name))?;
    let (_, outcomes): (Program, Vec<LoopOutcome>) =
        lg.call(ledger::SLMS_EXACT, || slms_program(&prog, cfg));
    let verdict = lg.call(ledger::VALIDATE, || verify_slms_program(&prog, cfg));
    let mut loops = Vec::new();
    innermost_loops(&prog.stmts, &mut loops);
    if loops.len() != outcomes.len() {
        return Err(format!(
            "{}: {} innermost loops but {} outcomes",
            w.name,
            loops.len(),
            outcomes.len()
        ));
    }
    let mut v = Verdict {
        loops: outcomes.len(),
        obligations: verdict.obligation_count(),
        violations: verdict.violation_count(),
        ..Verdict::default()
    };
    let mut dep_stats = DepStats::default();
    for (f, o) in loops.iter().zip(&outcomes) {
        for ev in &o.trace {
            if let DiagEvent::ExactScheduled {
                sat_decisions,
                sat_conflicts,
                sat_propagations,
                ..
            } = ev
            {
                v.sat_decisions += sat_decisions;
                v.sat_conflicts += sat_conflicts;
                v.sat_propagations += sat_propagations;
            }
        }
        let Ok(r) = &o.result else { continue };
        if r.certificate.is_some() {
            v.certified += 1;
        }
        if r.heuristic_ii.is_some_and(|h| h > r.ii) {
            v.positive_gaps += 1;
        }
        match recheck(f, r, lg, &mut dep_stats) {
            None => {}
            Some(Ok(())) => v.rechecked += 1,
            Some(Err(_)) => v.recheck_failures += 1,
        }
    }
    v.pairs_decided = dep_stats.pairs_decided;
    Ok(v)
}

fn golden() -> Result<HashMap<String, Pinned>, String> {
    GOLDEN
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let num = |i: usize| -> Result<usize, String> {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or(format!("malformed golden line {l:?}"))
            };
            Ok((f[0].to_string(), (num(1)?, num(2)?, num(3)?, num(4)?)))
        })
        .collect()
}

/// The golden table: one line per corpus program with its loop count,
/// certified loops, independently re-checked loops and obligations.
pub fn golden_table() -> Result<String, String> {
    let cfg = exact_cfg();
    let mut out = String::new();
    for w in slc::workloads::all() {
        let v = certify(&w, &cfg, &Ledger::off())?;
        if !v.ok(Some(&v.pinned())) {
            return Err(format!("{}: not certified clean: {v:?}", w.name));
        }
        let (a, b, c, d) = v.pinned();
        out.push_str(&format!("{}\t{a}\t{b}\t{c}\t{d}\n", w.name));
    }
    Ok(out)
}

struct Setup {
    programs: Vec<Workload>,
    cfg: SlmsConfig,
    golden: HashMap<String, Pinned>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let mut programs = slc::workloads::all();
    Rng::new(args.seed).shuffle(&mut programs);
    let st = Setup {
        programs,
        cfg: exact_cfg(),
        golden: golden()?,
    };
    sweep(&st, &Ledger::off(), false)?; // warm-up
    Ok(st)
}

/// One sweep over the corpus in seed order: failed programs and the
/// verdicts.
fn sweep(st: &Setup, lg: &Ledger, corrupt: bool) -> Result<(u64, Vec<Verdict>), String> {
    let mut failed = 0;
    let mut verdicts = Vec::with_capacity(st.programs.len());
    for (i, w) in st.programs.iter().enumerate() {
        let mut v = certify(w, &st.cfg, lg)?;
        if corrupt && i == 0 {
            v.obligations += 1;
        }
        if !v.ok(st.golden.get(w.name)) {
            failed += 1;
        }
        verdicts.push(v);
    }
    Ok((failed, verdicts))
}

/// Concurrent checkers in the measured run, one per core: each sweeps the
/// corpus over and over in its own seeded order, like independent `slc
/// verify` users, so the result does not hang on the speed of one core.
const CHECKERS: usize = 2;

/// Latency percentiles are taken per block of this many whole sweeps of
/// one checker, and the median over the blocks is reported. A block holds
/// every program equally often, so a percentile always falls on the same
/// programs' verdicts; and 3 × 46 latencies leave ten beyond the p90.
const SWEEPS_PER_BLOCK: usize = 3;

/// One segment of the measured run: per checker, (latency s, verdict
/// correct) of every program it checked, in order. Checker `k` has already
/// checked `done[k]` programs in earlier segments and carries on from there
/// in its order, so its latencies over the whole run are whole sweeps.
fn checkers(
    st: &Setup,
    args: &Args,
    until: Instant,
    done: &[usize],
) -> Result<Vec<Vec<(f64, bool)>>, String> {
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CHECKERS)
            .map(|k| {
                scope.spawn(move || -> Result<Vec<(f64, bool)>, String> {
                    let n = st.programs.len();
                    let mut order: Vec<usize> = (0..n).collect();
                    Rng::new(args.seed.wrapping_add(k as u64)).shuffle(&mut order);
                    let mut out = Vec::new();
                    for &i in order.iter().cycle().skip(done[k] % n) {
                        if !out.is_empty() && Instant::now() >= until {
                            break;
                        }
                        let w = &st.programs[i];
                        let t = Instant::now();
                        let mut v = certify(w, &st.cfg, &Ledger::off())?;
                        let latency_s = t.elapsed().as_secs_f64();
                        if args.corrupt && out.is_empty() {
                            v.obligations += 1;
                        }
                        out.push((latency_s, v.ok(st.golden.get(w.name))));
                    }
                    Ok(out)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|_| Err("checker panicked".into())))
            .collect()
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        let st = setup(args)?;
        let n = st.programs.len() as u64;
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut layers = Layers::default();
        let deadline = Instant::now() + args.seconds;
        let sweeps = ledger::paired(deadline, |lg| {
            let (f, verdicts) = sweep(&st, lg, args.corrupt)?;
            attempted += n;
            failed += f;
            if lg.is_recording() {
                for v in &verdicts {
                    layers.pairs_decided += v.pairs_decided;
                    layers.sat_decisions += v.sat_decisions;
                    layers.sat_conflicts += v.sat_conflicts;
                    layers.sat_propagations += v.sat_propagations;
                    layers.verify_obligations += v.obligations as u64;
                }
            }
            Ok(())
        })?;
        layers.finish(sweeps, args)?;
        return Ok(Outcome {
            attempted,
            failed,
            metrics: layers.metrics(),
        });
    }

    let mut setups = Vec::new();
    let mut per_checker: Vec<Vec<(f64, bool)>> = vec![Vec::new(); CHECKERS];
    let (mut elapsed_s, mut n) = (0.0, 0);
    let start = Instant::now();
    for k in 0..SETUP_REPS {
        let t = Instant::now();
        let st = setup(args)?;
        setups.push(t.elapsed().as_secs_f64());
        n = st.programs.len();
        let done: Vec<usize> = per_checker.iter().map(Vec::len).collect();
        let t = Instant::now();
        let segment = checkers(&st, args, segment_end(start, args.seconds, k), &done)?;
        elapsed_s += t.elapsed().as_secs_f64();
        for (all, new) in per_checker.iter_mut().zip(segment) {
            all.extend(new);
        }
    }
    let done: Vec<&(f64, bool)> = per_checker.iter().flatten().collect();
    let blocks: Vec<Block> = per_checker
        .iter()
        .flat_map(|c| c.chunks_exact(SWEEPS_PER_BLOCK * n))
        .map(|b| b.iter().map(|d| d.0).collect())
        .collect();
    // a run too short for one whole block (a smoke run) uses what it has
    let blocks = if blocks.is_empty() {
        vec![done.iter().map(|d| d.0).collect()]
    } else {
        blocks
    };
    Ok(Outcome {
        attempted: done.len() as u64,
        failed: done.iter().filter(|d| !d.1).count() as u64,
        metrics: blocked_end_to_end(
            &setups,
            &blocks,
            done.len() as f64 / elapsed_s,
            "programs per second over the run",
            0.9,
        ),
    })
}
