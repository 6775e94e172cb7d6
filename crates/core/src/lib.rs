//! # slc-core — Source Level Modulo Scheduling (SLMS)
//!
//! The paper's primary contribution: modulo scheduling applied as a
//! source-to-source loop transformation on the AST (Ben-Asher & Meisler,
//! ICPP 2006). The algorithm (§5):
//!
//! 1. filter bad cases by memory-ref ratio ([`filter`]);
//! 2. source-level if-conversion ([`ifconv`]);
//! 3. partition the body into multi-instructions (`slc-analysis`);
//! 4. compute dependence delays ([`delay`]) and the MII ([`mii`]);
//! 5. if no valid II exists, decompose MIs ([`decompose`]) and retry;
//! 6. emit prologue/kernel/epilogue with index shifting and eliminate
//!    decomposition-/scalar-induced dependences with modulo variable
//!    expansion or scalar expansion ([`mod@emit`]).
//!
//! Entry points: [`slms_loop`] transforms one `for` statement; [`slms_program`]
//! walks a whole program transforming every eligible innermost loop.
//!
//! Every successful transformation is *observationally identity*: the
//! emitted statements leave all originally-declared variables (including the
//! induction variable) with exactly the values the original loop produced.
//! The workspace's interpreter-based equivalence tests rely on this.

pub mod decompose;
pub mod delay;
pub mod diag;
pub mod emit;
pub mod emit_symbolic;
pub mod extensions;
pub mod filter;
pub mod ifconv;
pub mod mii;

pub use diag::{
    loop_outcome_json, render_loop_trace, slms_error_json, DiagEvent, DiagSink, PassArtifact,
    PassDiag,
};
pub use emit::{emit, EmitOutput, ExpandVar, Expansion};
pub use emit_symbolic::emit_symbolic_guarded;
pub use extensions::{frequent_path_ms, unroll_while, FrequentPathOutput};
pub use filter::{filter_loop, FilterVerdict};
pub use ifconv::{if_convert, needs_if_conversion};
pub use mii::{constraints_of, cycles_mii, placement_mii, Constraint};

use slc_analysis::{
    build_ddg, partition_mis, AnalysisError, Ddg, DepKind, DepPairSummary, DepStats, Distance,
    LoopRange,
};
use slc_ast::{AssignOp, LValue, LoopId, Program, Stmt};
use slc_trace::{FromJson, Json, Tracer};
use std::collections::HashSet;

/// Which scheduler picks the MI ordering of the emitted body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The paper's fixed placement over the body's source order (after
    /// decomposition): MI `k` of iteration `j` lands at row `II·j + k`.
    #[default]
    Heuristic,
    /// SAT-based exact search over all MI orderings of the final
    /// (decomposed) body: finds the least II any ordering achieves and
    /// attaches a re-checkable [`slc_exact::OptimalityCertificate`].
    Exact,
}

impl SchedulerKind {
    /// Stable wire and CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Heuristic => "heuristic",
            SchedulerKind::Exact => "exact",
        }
    }

    /// Inverse of [`SchedulerKind::label`].
    pub fn from_label(s: &str) -> Option<SchedulerKind> {
        Some(match s {
            "heuristic" => SchedulerKind::Heuristic,
            "exact" => SchedulerKind::Exact,
            _ => return None,
        })
    }
}

/// Configuration of the SLMS driver: the settings callers choose. The
/// §4 threshold ([`filter::MAX_MEMREF_RATIO`]), if-conversion, the
/// symbolic-bounds guard and the decomposition bound are fixed steps of
/// the algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SlmsConfig {
    /// Whether to apply the bad-case filter at all (the figure-16/17 style
    /// ablations disable it to measure unfiltered behaviour).
    pub apply_filter: bool,
    /// How scalar/decomposition dependences are expanded away (§3.3–3.4).
    pub expansion: Expansion,
    /// Which scheduler orders the MIs of the final body.
    pub scheduler: SchedulerKind,
}

impl Default for SlmsConfig {
    fn default() -> Self {
        SlmsConfig {
            apply_filter: true,
            expansion: Expansion::Mve,
            scheduler: SchedulerKind::Heuristic,
        }
    }
}

impl SlmsConfig {
    /// Stable content fingerprint of the configuration, part of the cache
    /// key for memoized SLMS artifacts in the batch experiment engine.
    /// Every field that can change the transformation output is fed to the
    /// hash explicitly; adding a field to the struct without extending this
    /// method is caught by the exhaustive destructuring below.
    pub fn fingerprint(&self) -> u64 {
        let SlmsConfig {
            apply_filter,
            expansion,
            scheduler,
        } = self;
        let mut h = slc_analysis::Fnv64::new();
        h.write_bool(*apply_filter);
        h.write_u64(match expansion {
            Expansion::Off => 0,
            Expansion::Mve => 1,
            Expansion::ScalarExpand => 2,
        });
        h.write_u64(match scheduler {
            SchedulerKind::Heuristic => 0,
            SchedulerKind::Exact => 1,
        });
        h.finish()
    }
}

/// Decomposition rounds (§5 step 5) before the driver gives up with
/// [`SlmsError::NoValidIi`]; a termination bound, not a tuning value.
const MAX_DECOMPOSITIONS: usize = 8;

/// Why SLMS declined or failed to transform a loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SlmsError {
    /// The statement is not a `for` loop.
    NotAForLoop,
    /// Rejected by the §4 bad-case filter.
    Filtered(FilterVerdict),
    /// Loop-shape/eligibility failure from the analysis layer.
    Analysis(AnalysisError),
    /// The induction variable is written inside the body.
    VarWrittenInBody,
    /// No valid `II < n` exists even after decomposition.
    NoValidIi,
    /// Emission requires constant loop bounds.
    SymbolicBounds,
    /// The loop has fewer iterations than the pipeline depth.
    TooFewIterations {
        /// constant trip count of the loop
        trip: i64,
        /// minimum trip count required (`max_offset + 1`)
        needed: i64,
    },
    /// MVE would need to unroll the kernel more than the sanity cap.
    UnrollTooLarge(i64),
    /// Emission was asked to place `n_mis` MIs at an II outside `1..n_mis`
    /// (the fixed placement is undefined there — a driver bug, not a
    /// property of the input loop).
    InvalidIi {
        /// requested initiation interval
        ii: i64,
        /// number of multi-instructions in the body
        n_mis: usize,
    },
}

impl std::fmt::Display for SlmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlmsError::NotAForLoop => write!(f, "not a for loop"),
            SlmsError::Filtered(v) => write!(f, "filtered as a bad case: {v}"),
            SlmsError::Analysis(e) => write!(f, "{e}"),
            SlmsError::VarWrittenInBody => write!(f, "induction variable written in body"),
            SlmsError::NoValidIi => write!(f, "no valid initiation interval"),
            SlmsError::SymbolicBounds => write!(f, "loop bounds are not constant"),
            SlmsError::TooFewIterations { trip, needed } => {
                write!(f, "trip count {trip} below pipeline depth {needed}")
            }
            SlmsError::UnrollTooLarge(u) => write!(f, "MVE unroll factor {u} too large"),
            SlmsError::InvalidIi { ii, n_mis } => {
                write!(f, "II = {ii} outside the valid range 1..{n_mis}")
            }
        }
    }
}

impl std::error::Error for SlmsError {}

impl From<AnalysisError> for SlmsError {
    fn from(e: AnalysisError) -> Self {
        SlmsError::Analysis(e)
    }
}

/// Statistics of one successful SLMS application.
#[derive(Debug, Clone, PartialEq)]
pub struct SlmsReport {
    /// Achieved initiation interval.
    pub ii: i64,
    /// The paper's cycle-based MII (Iterative Shortest Path), for
    /// comparison; `None` when that computation finds no feasible II < n.
    pub cycles_mii: Option<i64>,
    /// Number of multi-instructions scheduled.
    pub n_mis: usize,
    /// MVE kernel unroll factor (1 = none).
    pub unroll: i64,
    /// Temporaries introduced by decomposition.
    pub decomposed: Vec<String>,
    /// Variables renamed by MVE with their version names.
    pub renamed: Vec<(String, Vec<String>)>,
    /// Variables turned into arrays by scalar expansion.
    pub expanded_arrays: Vec<(String, String)>,
    /// Whether if-conversion ran.
    pub if_converted: bool,
    /// Pipeline depth in iterations (`max_k off_k`).
    pub max_offset: i64,
    /// II the fixed-placement heuristic achieved before the exact search.
    /// `Some` exactly when the exact scheduler ran on this loop; the
    /// optimality gap is `heuristic_ii − ii`.
    pub heuristic_ii: Option<i64>,
    /// Exact reordering as emitted-position → pre-reorder MI index
    /// (identity when the heuristic order was already optimal). `Some`
    /// exactly when the exact scheduler ran.
    pub exact_order: Option<Vec<usize>>,
    /// Re-checkable II-optimality certificate, in the emitted index
    /// space. `Some` exactly when the exact scheduler ran.
    pub certificate: Option<slc_exact::OptimalityCertificate>,
    /// Per-pair dependence verdicts (with certificates) of the exact
    /// engine's final analysis of the emitted body. Empty when the loop
    /// range was not a compile-time constant (the classic pair test, which
    /// records no verdicts, built the DDG instead).
    pub dep_pairs: Vec<DepPairSummary>,
}

/// A successful transformation: replacement statements plus statistics.
#[derive(Debug, Clone)]
pub struct SlmsOutput {
    /// Statements that replace the original loop statement.
    pub stmts: Vec<Stmt>,
    /// Transformation statistics.
    pub report: SlmsReport,
}

/// The scheduling constraints of `ddg`, without the scalar anti and output
/// edges that renaming the `expand` variables removes.
fn renamed_away(ddg: &Ddg, expand: &[ExpandVar]) -> Vec<Constraint> {
    constraints_of(ddg, &|e| {
        matches!(e.kind, DepKind::Anti | DepKind::Output)
            && e.scalar
                .as_deref()
                .is_some_and(|s| expand.iter().any(|v| v.name == s))
    })
}

/// Find scalars that expansion may rename: single unconditional plain def,
/// no cross-iteration flow (every consumer reads the value produced in its
/// own iteration).
fn expandable_vars(
    mis: &[Stmt],
    ddg: &Ddg,
    var: &str,
    original: &HashSet<String>,
) -> Vec<ExpandVar> {
    let mut out = Vec::new();
    for (d, mi) in mis.iter().enumerate() {
        let Stmt::Assign {
            target: LValue::Var(name),
            op: AssignOp::Set,
            ..
        } = mi
        else {
            continue;
        };
        if name == var {
            continue;
        }
        // single def across the loop?
        let defs = (0..mis.len())
            .filter(|&k| ddg.accesses[k].scalar_writes(var).any(|s| s.name == *name))
            .count();
        if defs != 1 {
            continue;
        }
        // no cross-iteration flow on this scalar
        let crosses = ddg.edges.iter().any(|e| {
            e.scalar.as_deref() == Some(name.as_str())
                && e.kind == DepKind::Flow
                && e.dists.iter().any(|dd| *dd != Distance::Const(0))
        });
        if crosses {
            continue;
        }
        // uses: any scalar read (including subscript position)
        let max_use = (0..mis.len())
            .filter(|&k| {
                ddg.accesses[k]
                    .scalars
                    .iter()
                    .any(|s| !s.write && s.name == *name)
            })
            .max()
            .unwrap_or(d);
        if max_use < d {
            // a use before the def would be a cross-iteration flow; already
            // excluded above, but keep the guard for clarity
            continue;
        }
        out.push(ExpandVar {
            name: name.clone(),
            def_pos: d,
            max_use_pos: max_use.max(d),
            restore: original.contains(name),
        });
    }
    out
}

/// Apply SLMS to one `for` statement. On success the returned statements
/// replace the loop; `prog` gains declarations for any temporaries. On
/// failure `prog` is left unchanged.
///
/// ```
/// use slc_core::{slms_loop, SlmsConfig};
/// use slc_ast::parse_program;
///
/// let mut prog = parse_program(
///     "float A[32]; float B[32]; float s; float t; int i;\n\
///      for (i = 0; i < 32; i++) { t = A[i] * B[i]; s = s + t; }",
/// ).unwrap();
/// let loop_stmt = prog.stmts[0].clone();
/// let out = slms_loop(&mut prog, &loop_stmt, &SlmsConfig::default()).unwrap();
/// assert_eq!(out.report.ii, 1);          // pipelined at II = 1
/// assert_eq!(out.report.unroll, 2);      // MVE renamed t into 2 versions
/// ```
pub fn slms_loop(
    prog: &mut Program,
    loop_stmt: &Stmt,
    cfg: &SlmsConfig,
) -> Result<SlmsOutput, SlmsError> {
    slms_loop_traced(prog, loop_stmt, cfg, &mut Vec::new())
}

/// [`slms_loop`] with a decision trace: every filter verdict, MII round,
/// decomposition retry and the final schedule (or structured rejection) is
/// appended to `events`. The transformation result is identical to
/// [`slms_loop`] — tracing never changes what is emitted.
pub fn slms_loop_traced(
    prog: &mut Program,
    loop_stmt: &Stmt,
    cfg: &SlmsConfig,
    events: &mut Vec<DiagEvent>,
) -> Result<SlmsOutput, SlmsError> {
    slms_loop_spanned(prog, loop_stmt, cfg, events, &Tracer::disabled())
}

/// [`slms_loop_traced`] with wall-clock spans: the filter check, the MII /
/// decomposition iteration and emission each open a span on `tracer`
/// (category `"slms"`). Spans carry timings only — the decision trace in
/// `events` and the transformation result are byte-identical whether the
/// tracer is enabled or not.
pub fn slms_loop_spanned(
    prog: &mut Program,
    loop_stmt: &Stmt,
    cfg: &SlmsConfig,
    events: &mut Vec<DiagEvent>,
    tracer: &Tracer,
) -> Result<SlmsOutput, SlmsError> {
    let r = slms_loop_inner(prog, loop_stmt, cfg, events, tracer);
    if let Err(e) = &r {
        events.push(DiagEvent::Rejected { error: e.clone() });
    }
    r
}

fn slms_loop_inner(
    prog: &mut Program,
    loop_stmt: &Stmt,
    cfg: &SlmsConfig,
    events: &mut Vec<DiagEvent>,
    tracer: &Tracer,
) -> Result<SlmsOutput, SlmsError> {
    let Stmt::For(f) = loop_stmt else {
        return Err(SlmsError::NotAForLoop);
    };
    // Work on a scratch program so failed attempts leave no stray decls.
    let mut scratch = prog.clone();
    let original: HashSet<String> = prog.decls.iter().map(|d| d.name.clone()).collect();

    // Induction variable must not be written by the body.
    let body_writes: Vec<String> = f
        .body
        .iter()
        .flat_map(slc_ast::visit::scalars_written)
        .collect();
    if body_writes.contains(&f.var) {
        return Err(SlmsError::VarWrittenInBody);
    }

    if cfg.apply_filter {
        let mut span = tracer.span("slms", "slms.filter");
        let verdict = filter_loop(&f.body, &f.var);
        span.arg("passed", verdict.passed());
        events.push(DiagEvent::FilterChecked {
            verdict: verdict.clone(),
        });
        if !verdict.passed() {
            return Err(SlmsError::Filtered(verdict));
        }
    }

    // If-conversion (§3.1).
    let mut body = f.body.clone();
    let mut if_converted = false;
    if needs_if_conversion(&body) {
        let conv = if_convert(&mut scratch, &body);
        body = conv.body;
        if_converted = true;
        events.push(DiagEvent::IfConverted);
    }

    // Symbolic bounds: only the guarded, expansion-free path can handle
    // them, and it needs a unit stride.
    let symbolic = f.trip_count().is_none();
    if symbolic && f.step.abs() != 1 {
        return Err(SlmsError::SymbolicBounds);
    }
    if symbolic {
        events.push(DiagEvent::SymbolicGuard);
    }

    // The exact pair test runs whenever the loop range is fully constant;
    // `None` (symbolic bounds) selects the classic one.
    let range = LoopRange::of_loop(f);
    let mut dep_stats = DepStats::default();

    // Decomposition loop (§5 step 5).
    let mut mii_span = tracer.span("slms", "slms.mii");
    let mut decomposed: Vec<String> = Vec::new();
    let (ii, mis, expand, cons) = loop {
        let mis = partition_mis(&body)?;
        let ddg = build_ddg(&mis, &f.var, f.step, range.as_ref(), &mut dep_stats).ddg;
        let expand = if cfg.expansion == Expansion::Off || symbolic {
            vec![]
        } else {
            expandable_vars(&body, &ddg, &f.var, &original)
        };
        let cons = renamed_away(&ddg, &expand);
        let placement = placement_mii(&cons, mis.len());
        events.push(DiagEvent::MiiAttempt {
            round: decomposed.len(),
            n_mis: mis.len(),
            placement_ii: placement,
        });
        if let Some(ii) = placement {
            break (ii, mis, expand, cons);
        }
        if decomposed.len() >= MAX_DECOMPOSITIONS {
            push_deps_event(events, range.as_ref(), &dep_stats);
            return Err(SlmsError::NoValidIi);
        }
        // Choose a victim: prefer MIs with loop-carried self dependences,
        // then fall back to sequential order (§5 footnote).
        let n = mis.len();
        let order: Vec<usize> = (0..n)
            .filter(|&k| ddg.has_self_carried(k))
            .chain((0..n).filter(|&k| !ddg.has_self_carried(k)))
            .collect();
        let mut progressed = false;
        for k in order {
            if let Some(t) = decompose::break_self_dep(&mut scratch, &mut body, k, &f.var, f.step) {
                decomposed.push(t.clone());
                events.push(DiagEvent::Decomposed {
                    round: decomposed.len(),
                    temp: t,
                });
                progressed = true;
                break;
            }
        }
        if !progressed {
            push_deps_event(events, range.as_ref(), &dep_stats);
            return Err(SlmsError::NoValidIi);
        }
    };

    mii_span.arg("rounds", decomposed.len() + 1);
    mii_span.arg("n_mis", mis.len());
    mii_span.arg("ii", ii);
    drop(mii_span);

    // Exact scheduling (optional): the heuristic fixes the placement to
    // the body's source order; the SAT-based exact scheduler searches all
    // MI orderings of the *same* decomposed body for the least II, proves
    // optimality, and reorders the body when it wins. The certificate is
    // relabeled into the emitted index space, so its witness is always
    // the identity order of what we actually emit.
    let heuristic_ii = ii;
    let mut ii = ii;
    let mut mis = mis;
    let mut expand = expand;
    let mut exact_info: Option<(Vec<usize>, slc_exact::OptimalityCertificate)> = None;
    if cfg.scheduler == SchedulerKind::Exact {
        let mut exact_span = tracer.span("slms", "slms.exact");
        let deps: Vec<slc_exact::Dep> = cons
            .iter()
            .map(|c| slc_exact::Dep {
                from: c.u,
                to: c.v,
                dist: c.d,
            })
            .collect();
        if let Some(r) = slc_exact::ExactScheduler::default().solve(&deps, mis.len(), ii) {
            let mut accepted = true;
            if r.reordered {
                // Re-derive the whole schedule on the permuted body; the
                // fixed-placement bound must reproduce the proven II.
                let permuted: Vec<Stmt> = r.order.iter().map(|&k| mis[k].stmt.clone()).collect();
                let new_mis = partition_mis(&permuted)?;
                let new_ddg =
                    build_ddg(&new_mis, &f.var, f.step, range.as_ref(), &mut dep_stats).ddg;
                let new_expand = if cfg.expansion == Expansion::Off || symbolic {
                    vec![]
                } else {
                    expandable_vars(&permuted, &new_ddg, &f.var, &original)
                };
                let new_cons = renamed_away(&new_ddg, &new_expand);
                if placement_mii(&new_cons, new_mis.len()) == Some(r.ii) {
                    ii = r.ii;
                    mis = new_mis;
                    expand = new_expand;
                } else {
                    // The removable-dependence set can shift under the
                    // permutation; never emit an order whose placement
                    // bound disagrees with the proven II.
                    debug_assert!(false, "exact order does not reproduce the proven II");
                    accepted = false;
                }
            }
            if accepted {
                exact_span.arg("ii", r.ii);
                exact_span.arg("reordered", r.reordered);
                events.push(DiagEvent::ExactScheduled {
                    ii: r.ii,
                    heuristic_ii,
                    reordered: r.reordered,
                    warm_start: r.warm_start,
                    sat_decisions: r.stats.decisions,
                    sat_conflicts: r.stats.conflicts,
                    sat_propagations: r.stats.propagations,
                    sat_restarts: r.stats.restarts,
                    proof_clauses: r.certificate.proof.as_ref().map_or(0, |p| p.clauses.len()),
                });
                exact_info = Some((r.order, r.certificate));
            }
        }
    }

    // Emit.
    let mut emit_span = tracer.span("slms", "slms.emit");
    let mi_stmts: Vec<Stmt> = mis.iter().map(|m| m.stmt.clone()).collect();
    let out = if symbolic {
        emit_symbolic_guarded(f, &mi_stmts, ii)?
    } else {
        emit(&mut scratch, f, &mi_stmts, ii, cfg.expansion, &expand)?
    };
    emit_span.arg("unroll", out.unroll);
    emit_span.arg("max_offset", out.max_offset);
    drop(emit_span);

    // Cycle-based MII for the report (recomputed on the final body).
    let final_ddg = build_ddg(&mis, &f.var, f.step, range.as_ref(), &mut dep_stats);
    let cmii = cycles_mii(&renamed_away(&final_ddg.ddg, &expand), mis.len());
    push_deps_event(events, range.as_ref(), &dep_stats);
    events.push(DiagEvent::Scheduled {
        ii,
        cycles_mii: cmii,
        unroll: out.unroll,
        max_offset: out.max_offset,
    });

    *prog = scratch;
    let (exact_order, certificate) = match exact_info {
        Some((o, c)) => (Some(o), Some(c)),
        None => (None, None),
    };
    Ok(SlmsOutput {
        stmts: out.stmts,
        report: SlmsReport {
            ii,
            cycles_mii: cmii,
            n_mis: mis.len(),
            unroll: out.unroll,
            decomposed,
            renamed: out.renamed,
            expanded_arrays: out.expanded_arrays,
            if_converted,
            max_offset: out.max_offset,
            heuristic_ii: certificate.as_ref().map(|_| heuristic_ii),
            exact_order,
            certificate,
            dep_pairs: final_ddg.pairs,
        },
    })
}

/// Record the accumulated exact-engine counters in the decision trace (one
/// event per attempt; skipped when the classic pair test ran instead).
fn push_deps_event(events: &mut Vec<DiagEvent>, range: Option<&LoopRange>, s: &DepStats) {
    if range.is_none() {
        return;
    }
    events.push(DiagEvent::DepsAnalyzed {
        pairs_decided: s.pairs_decided,
        gcd_hits: s.gcd_hits,
        banerjee_hits: s.banerjee_hits,
        sat_decided: s.sat_decided,
        widened_to_any: s.widened_to_any,
        certs_checked: s.certs_checked,
    });
}

/// Outcome of attempting SLMS on one loop inside a program.
#[derive(Debug, Clone)]
pub struct LoopOutcome {
    /// Stable identity of the loop (variable, pre-order index, body
    /// length); `id.to_string()` renders the legacy
    /// `for (i = …) [k stmts]` description.
    pub id: LoopId,
    /// `Ok(report)` when transformed, `Err(reason)` when left unchanged.
    pub result: Result<SlmsReport, SlmsError>,
    /// The decision trace behind the result (filter verdict with the
    /// measured ratio, MII rounds, decomposition retries, final schedule).
    pub trace: Vec<DiagEvent>,
}

/// Apply SLMS to every eligible innermost `for` loop of a program.
/// Returns the transformed program and the per-loop outcomes.
///
/// ```
/// use slc_core::{slms_program, SlmsConfig};
/// use slc_ast::{parse_program, to_paper_style};
///
/// let prog = parse_program(
///     "float a[64]; float b[64]; int i;\n\
///      for (i = 0; i < 60; i++) { a[i] = b[i] * 2.0; b[i] = b[i] + 1.0; }",
/// ).unwrap();
/// let (optimized, outcomes) = slms_program(&prog, &SlmsConfig::default());
/// assert!(outcomes[0].result.is_ok());
/// assert!(to_paper_style(&optimized).contains("||")); // parallel kernel rows
/// ```
pub fn slms_program(prog: &Program, cfg: &SlmsConfig) -> (Program, Vec<LoopOutcome>) {
    slms_program_spanned(prog, cfg, &Tracer::disabled())
}

/// [`slms_program`] with wall-clock spans: one span per visited innermost
/// loop (category `"slms"`, named after the [`LoopId`]) with the per-stage
/// child spans of [`slms_loop_spanned`] nested inside. The transformed
/// program and outcomes are byte-identical to [`slms_program`].
pub fn slms_program_spanned(
    prog: &Program,
    cfg: &SlmsConfig,
    tracer: &Tracer,
) -> (Program, Vec<LoopOutcome>) {
    let mut new_prog = prog.clone();
    let mut outcomes = Vec::new();
    let stmts = std::mem::take(&mut new_prog.stmts);
    let mut next_loop = 0usize;
    let new_stmts = transform_stmts(
        &mut new_prog,
        stmts,
        cfg,
        &mut outcomes,
        &mut next_loop,
        tracer,
    );
    new_prog.stmts = new_stmts;
    (new_prog, outcomes)
}

fn transform_stmts(
    prog: &mut Program,
    stmts: Vec<Stmt>,
    cfg: &SlmsConfig,
    outcomes: &mut Vec<LoopOutcome>,
    next_loop: &mut usize,
    tracer: &Tracer,
) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::For(f) => {
                let is_innermost = !f.body.iter().any(Stmt::contains_loop);
                if is_innermost {
                    let id = LoopId::of(&f, *next_loop);
                    *next_loop += 1;
                    let stmt = Stmt::For(f);
                    let mut trace = Vec::new();
                    let mut span = tracer.span_dyn("slms", || format!("slms {}", id.verbose()));
                    match slms_loop_spanned(prog, &stmt, cfg, &mut trace, tracer) {
                        Ok(res) => {
                            span.arg("transformed", true);
                            outcomes.push(LoopOutcome {
                                id,
                                result: Ok(res.report),
                                trace,
                            });
                            out.extend(res.stmts);
                        }
                        Err(e) => {
                            span.arg("transformed", false);
                            outcomes.push(LoopOutcome {
                                id,
                                result: Err(e),
                                trace,
                            });
                            out.push(stmt);
                        }
                    }
                } else {
                    let mut f = f;
                    f.body = transform_stmts(prog, f.body, cfg, outcomes, next_loop, tracer);
                    out.push(Stmt::For(f));
                }
            }
            Stmt::Block(b) => {
                out.push(Stmt::Block(transform_stmts(
                    prog, b, cfg, outcomes, next_loop, tracer,
                )));
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                out.push(Stmt::If {
                    cond,
                    then_branch: transform_stmts(
                        prog,
                        then_branch,
                        cfg,
                        outcomes,
                        next_loop,
                        tracer,
                    ),
                    else_branch: transform_stmts(
                        prog,
                        else_branch,
                        cfg,
                        outcomes,
                        next_loop,
                        tracer,
                    ),
                });
            }
            other => out.push(other),
        }
    }
    out
}

impl From<&SlmsConfig> for Json {
    fn from(s: &SlmsConfig) -> Json {
        Json::obj()
            .field("apply_filter", s.apply_filter)
            .field("expansion", s.expansion.label())
            .field("scheduler", s.scheduler.label())
    }
}

impl FromJson for SlmsConfig {
    fn from_json(j: &Json) -> Result<SlmsConfig, String> {
        let expansion: String = j.req("expansion")?;
        let scheduler: String = j.req("scheduler")?;
        Ok(SlmsConfig {
            apply_filter: j.req("apply_filter")?,
            expansion: Expansion::from_label(&expansion)
                .ok_or_else(|| format!("unknown expansion `{expansion}`"))?,
            scheduler: SchedulerKind::from_label(&scheduler)
                .ok_or_else(|| format!("unknown scheduler `{scheduler}`"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::pretty::stmts_to_source;
    use slc_ast::{parse_program, to_source};

    fn cfg_nofilter() -> SlmsConfig {
        SlmsConfig {
            apply_filter: false,
            ..SlmsConfig::default()
        }
    }

    #[test]
    fn intro_dot_product_ii1() {
        let mut prog = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
        )
        .unwrap();
        let loop_stmt = prog.stmts[0].clone();
        let out = slms_loop(&mut prog, &loop_stmt, &SlmsConfig::default()).unwrap();
        assert_eq!(out.report.ii, 1);
        assert_eq!(out.report.n_mis, 2);
        let src = stmts_to_source(&out.stmts);
        assert!(src.contains("s = s + t"), "got:\n{src}");
    }

    #[test]
    fn single_mi_recurrence_decomposes_to_ii1() {
        // §3.2 worked example.
        let mut prog = parse_program(
            "float A[64]; int i;\n\
             for (i = 2; i < 60; i++) A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];",
        )
        .unwrap();
        let loop_stmt = prog.stmts[0].clone();
        let out = slms_loop(&mut prog, &loop_stmt, &cfg_nofilter()).unwrap();
        assert_eq!(out.report.ii, 1);
        assert_eq!(out.report.decomposed.len(), 1);
        assert_eq!(out.report.unroll, 2, "MVE must unroll twice");
        let src = stmts_to_source(&out.stmts);
        assert!(src.contains("reg1") && src.contains("reg2"), "got:\n{src}");
    }

    #[test]
    fn flow_only_recurrence_fails() {
        // A[i] = A[i-1]*2 — every load is flow-fed; no decomposition helps.
        let mut prog =
            parse_program("float A[64]; int i; for (i = 1; i < 60; i++) A[i] = A[i - 1] * 2.0;")
                .unwrap();
        let loop_stmt = prog.stmts[0].clone();
        let err = slms_loop(&mut prog, &loop_stmt, &cfg_nofilter()).unwrap_err();
        assert_eq!(err, SlmsError::NoValidIi);
        // no stray decls on failure
        assert_eq!(prog.decls.len(), 2);
    }

    #[test]
    fn swap_loop_is_filtered() {
        let mut prog = parse_program(
            "float X[8][8]; float CT; int k; int i; int j;\n\
             for (k = 0; k < 8; k++) { CT = X[k][i]; X[k][i] = X[k][j] * 2.0; X[k][j] = CT; }",
        )
        .unwrap();
        let loop_stmt = prog.stmts[0].clone();
        let err = slms_loop(&mut prog, &loop_stmt, &SlmsConfig::default()).unwrap_err();
        assert!(matches!(err, SlmsError::Filtered(_)));
    }

    #[test]
    fn max_loop_if_converted() {
        // §5 max example (without the manual reduction split).
        let mut prog = parse_program(
            "float arr[64]; float max; int i;\n\
             for (i = 1; i < 60; i++) if (max < arr[i]) max = arr[i];",
        )
        .unwrap();
        let loop_stmt = prog.stmts[0].clone();
        let out = slms_loop(&mut prog, &loop_stmt, &cfg_nofilter()).unwrap();
        assert!(out.report.if_converted);
        assert_eq!(out.report.ii, 1);
        let src = stmts_to_source(&out.stmts);
        assert!(src.contains("pred"), "got:\n{src}");
    }

    #[test]
    fn big_parallel_body_ii1_no_decomposition() {
        // §5 DU1/DU2/DU3-style loop: many MIs, no binding recurrence —
        // the paper reports MII = 1 without decomposition.
        let mut prog = parse_program(
            "float DU1[128]; float DU2[128]; float DU3[128];\n\
             float U1[256]; float U2[256]; float U3[256]; int ky;\n\
             for (ky = 1; ky < 100; ky++) {\n\
               DU1[ky] = U1[ky + 1] - U1[ky - 1];\n\
               DU2[ky] = U2[ky + 1] - U2[ky - 1];\n\
               DU3[ky] = U3[ky + 1] - U3[ky - 1];\n\
               U1[ky + 101] = U1[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];\n\
               U2[ky + 101] = U2[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];\n\
               U3[ky + 101] = U3[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];\n\
             }",
        )
        .unwrap();
        let loop_stmt = prog.stmts[0].clone();
        let out = slms_loop(&mut prog, &loop_stmt, &cfg_nofilter()).unwrap();
        assert_eq!(out.report.ii, 1);
        assert_eq!(out.report.n_mis, 6);
        assert!(out.report.decomposed.is_empty());
    }

    #[test]
    fn exact_scheduler_certifies_optimal_heuristic() {
        // Dot product is already II = 1 in source order: the exact
        // scheduler must keep the identity order, emit byte-identical
        // statements, and attach a proof-free (II = MII) certificate.
        let src = "float A[32]; float B[32]; float s; float t; int i;\n\
                   for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }";
        let mut heur_prog = parse_program(src).unwrap();
        let loop_stmt = heur_prog.stmts[0].clone();
        let heur = slms_loop(&mut heur_prog, &loop_stmt, &SlmsConfig::default()).unwrap();

        let mut prog = parse_program(src).unwrap();
        let cfg = SlmsConfig {
            scheduler: SchedulerKind::Exact,
            ..SlmsConfig::default()
        };
        let out = slms_loop(&mut prog, &loop_stmt, &cfg).unwrap();
        assert_eq!(out.report.ii, 1);
        assert_eq!(out.report.heuristic_ii, Some(1));
        assert_eq!(out.report.exact_order.as_deref(), Some(&[0, 1][..]));
        let cert = out.report.certificate.as_ref().unwrap();
        assert_eq!((cert.ii, cert.mii, cert.n_mis), (1, 1, 2));
        assert!(cert.proof.is_none(), "II = MII needs no refutation");
        assert_eq!(
            stmts_to_source(&out.stmts),
            stmts_to_source(&heur.stmts),
            "certified-optimal loops must emit exactly the heuristic output"
        );
    }

    #[test]
    fn exact_scheduler_reorders_to_beat_source_order() {
        // The Z recurrence threads through the whole body in source order
        // (producer last, consumer first ⇒ placement needs II·1 ≥ 3), but
        // moving the consumer right after the producer achieves II = 1.
        let src = "float A[64]; float B[64]; float C[64]; float Z[64]; int i;\n\
                   for (i = 1; i < 60; i++) {\n\
                     A[i] = Z[i - 1];\n\
                     B[i] = B[i] + 1.0;\n\
                     C[i] = C[i] * 2.0;\n\
                     Z[i] = A[i] + 1.0;\n\
                   }";
        let mut heur_prog = parse_program(src).unwrap();
        let loop_stmt = heur_prog.stmts[0].clone();
        let heur = slms_loop(&mut heur_prog, &loop_stmt, &cfg_nofilter()).unwrap();
        assert_eq!(heur.report.ii, 3, "source order pays for the recurrence");
        assert_eq!(heur.report.certificate, None);

        let mut prog = parse_program(src).unwrap();
        let cfg = SlmsConfig {
            apply_filter: false,
            scheduler: SchedulerKind::Exact,
            ..SlmsConfig::default()
        };
        let mut trace = Vec::new();
        let out = slms_loop_traced(&mut prog, &loop_stmt, &cfg, &mut trace).unwrap();
        assert_eq!(out.report.ii, 1, "exact order hides the recurrence");
        assert_eq!(out.report.heuristic_ii, Some(3));
        let order = out.report.exact_order.as_ref().unwrap();
        assert_ne!(order.as_slice(), &[0, 1, 2, 3], "must actually reorder");
        let cert = out.report.certificate.as_ref().unwrap();
        assert_eq!((cert.ii, cert.mii), (1, 1));
        assert!(trace.iter().any(|e| matches!(
            e,
            DiagEvent::ExactScheduled {
                ii: 1,
                heuristic_ii: 3,
                reordered: true,
                ..
            }
        )));
        // the pipelined emission still covers all four statements
        let src_out = stmts_to_source(&out.stmts);
        for arr in ["A[", "B[", "C[", "Z["] {
            assert!(src_out.contains(arr), "missing {arr}:\n{src_out}");
        }
    }

    #[test]
    fn program_driver_transforms_innermost() {
        let prog = parse_program(
            "float A[16][32]; int i; int j;\n\
             for (j = 0; j < 16; j++) for (i = 0; i < 30; i++) A[j][i] = A[j][i] + 1.0;",
        )
        .unwrap();
        let (newp, outcomes) = slms_program(&prog, &cfg_nofilter());
        assert_eq!(outcomes.len(), 1);
        let printed = to_source(&newp);
        assert!(outcomes[0].result.is_ok(), "{:?}\n{printed}", outcomes[0]);
    }

    #[test]
    fn too_short_loops_untouched() {
        let mut prog = parse_program(
            "float A[8]; float B[8]; int i; for (i = 0; i < 1; i++) { A[i] = 1.0; B[i] = 2.0; }",
        )
        .unwrap();
        let loop_stmt = prog.stmts[0].clone();
        let err = slms_loop(&mut prog, &loop_stmt, &cfg_nofilter()).unwrap_err();
        assert!(matches!(err, SlmsError::TooFewIterations { .. }));
    }
}
