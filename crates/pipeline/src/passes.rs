//! The unified pass framework: one composable driver for SLMS and every
//! §6 loop transformation.
//!
//! The paper's source-level compiler is *interactive*: the user picks
//! transformations from a menu, applies them in any order, and §6 shows the
//! order matters (SLMS∘fusion ≠ fusion∘SLMS). This module turns that menu
//! into data:
//!
//! * a [`PassSpec`] names one transformation with its parameters, with a
//!   textual syntax (`fuse:0+1`, `unroll:0+4`, `slms`) that parses and
//!   renders losslessly (`parse(render(p)) == p`);
//! * a [`PassPlan`] is an ordered list of specs (`normalize,fuse:0+1,slms`)
//!   with a stable content [`PassPlan::fingerprint`] — the batch engine
//!   memoizes transformed programs under *(program, plan)* keys, so two
//!   plans that differ anywhere (shape, order, arguments, SLMS config)
//!   never share a cache entry;
//! * the [`PassManager`] runs a plan against a base [`SlmsConfig`], one
//!   pass at a time, each appending structured per-loop diagnostics to a
//!   [`DiagSink`] as it runs, producing the transformed program plus the
//!   full decision trace (rendered by `slc explain`).
//!
//! Statement-level transforms address loops by their index among the
//! program's **top-level** `for` statements, in source order, as the plan
//! syntax counts them (`fuse:0+1` fuses the first two). Structural
//! failures (fusing loops with different headers, addressing a loop that
//! is not there) are hard [`PassError`]s — the §6 transforms are
//! user-directed and must apply — while SLMS declining a loop is *not* an
//! error: the loop stays, and the reason lands in the diagnostics.

use slc_ast::{Program, Stmt};
use slc_core::diag::{DiagSink, PassArtifact, PassDiag};
use slc_core::{slms_program_spanned, SchedulerKind, SlmsConfig};
use slc_trace::Tracer;
use slc_transforms::{
    distribute, fuse, interchange, normalize, peel_front, reverse, unroll, TransformError,
};
use std::time::Instant;

/// One transformation with its parameters, as named in a plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PassSpec {
    /// `normalize` (every top-level loop) or `normalize:K` (one loop):
    /// rewrite to canonical `for (k = 0; k < T; k++)` form.
    Normalize {
        /// target loop, `None` = all top-level loops
        target: Option<usize>,
    },
    /// `fuse:A+B`: fuse top-level loops `A` and `B` (result replaces `A`).
    Fuse {
        /// first loop (kept position)
        a: usize,
        /// second loop (removed)
        b: usize,
    },
    /// `distribute:K+S`: split loop `K`'s body before statement `S`.
    Distribute {
        /// target loop
        target: usize,
        /// body split point (1 ≤ S < body length)
        split: usize,
    },
    /// `interchange:K`: swap the two outer loops of the perfect nest at
    /// top-level loop `K`.
    Interchange {
        /// target loop
        target: usize,
    },
    /// `reverse:K`: reverse loop `K`'s iteration direction.
    Reverse {
        /// target loop
        target: usize,
    },
    /// `peel:K+N`: peel the first `N` iterations of loop `K`.
    Peel {
        /// target loop
        target: usize,
        /// iterations to peel
        n: i64,
    },
    /// `unroll:K+F`: unroll loop `K` by factor `F`.
    Unroll {
        /// target loop
        target: usize,
        /// unroll factor
        factor: i64,
    },
    /// `slms` or `slms:nofilter`: source-level modulo scheduling of every
    /// eligible innermost loop (the `nofilter` modifier disables the §4
    /// bad-case filter on top of the manager's base config).
    Slms {
        /// disable the §4 filter for this pass
        no_filter: bool,
    },
    /// `exact` or `exact:nofilter`: SLMS with the exact (SAT-backed)
    /// scheduler — every small-enough loop additionally gets an
    /// [`OptimalityCertificate`](slc_exact::OptimalityCertificate), pushed
    /// into the pass's [`PassArtifact`] channel.
    Exact {
        /// disable the §4 filter for this pass
        no_filter: bool,
    },
}

impl PassSpec {
    /// The bare pass name (no arguments).
    pub fn kind(&self) -> &'static str {
        match self {
            PassSpec::Normalize { .. } => "normalize",
            PassSpec::Fuse { .. } => "fuse",
            PassSpec::Distribute { .. } => "distribute",
            PassSpec::Interchange { .. } => "interchange",
            PassSpec::Reverse { .. } => "reverse",
            PassSpec::Peel { .. } => "peel",
            PassSpec::Unroll { .. } => "unroll",
            PassSpec::Slms { .. } => "slms",
            PassSpec::Exact { .. } => "exact",
        }
    }
}

impl std::fmt::Display for PassSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassSpec::Normalize { target: None } => write!(f, "normalize"),
            PassSpec::Normalize { target: Some(k) } => write!(f, "normalize:{k}"),
            PassSpec::Fuse { a, b } => write!(f, "fuse:{a}+{b}"),
            PassSpec::Distribute { target, split } => write!(f, "distribute:{target}+{split}"),
            PassSpec::Interchange { target } => write!(f, "interchange:{target}"),
            PassSpec::Reverse { target } => write!(f, "reverse:{target}"),
            PassSpec::Peel { target, n } => write!(f, "peel:{target}+{n}"),
            PassSpec::Unroll { target, factor } => write!(f, "unroll:{target}+{factor}"),
            PassSpec::Slms { no_filter: false } => write!(f, "slms"),
            PassSpec::Slms { no_filter: true } => write!(f, "slms:nofilter"),
            PassSpec::Exact { no_filter: false } => write!(f, "exact"),
            PassSpec::Exact { no_filter: true } => write!(f, "exact:nofilter"),
        }
    }
}

/// A malformed plan string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// the offending plan item (or the whole string)
    pub item: String,
    /// what was wrong with it
    pub reason: String,
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad pass `{}`: {}", self.item, self.reason)
    }
}

impl std::error::Error for PlanParseError {}

fn parse_err(item: &str, reason: impl Into<String>) -> PlanParseError {
    PlanParseError {
        item: item.to_string(),
        reason: reason.into(),
    }
}

/// Known pass names with their argument syntax, for error messages.
pub const PLAN_SYNTAX: &str = "normalize[:K] | fuse:A+B | distribute:K+S | interchange:K \
                               | reverse:K | peel:K+N | unroll:K+F | slms[:nofilter] \
                               | exact[:nofilter]";

fn parse_spec(item: &str) -> Result<PassSpec, PlanParseError> {
    let (name, args) = match item.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (item, None),
    };
    let ints = |args: Option<&str>, n: usize| -> Result<Vec<i64>, PlanParseError> {
        let raw = args.ok_or_else(|| parse_err(item, format!("needs {n} argument(s)")))?;
        let parts: Vec<&str> = raw.split('+').collect();
        if parts.len() != n {
            return Err(parse_err(
                item,
                format!("needs {n} argument(s), got {}", parts.len()),
            ));
        }
        parts
            .iter()
            .map(|p| {
                p.parse::<i64>()
                    .map_err(|_| parse_err(item, format!("`{p}` is not an integer")))
            })
            .collect()
    };
    let idx = |v: i64| -> Result<usize, PlanParseError> {
        usize::try_from(v).map_err(|_| parse_err(item, "loop index must be non-negative"))
    };
    match name {
        "normalize" => match args {
            None => Ok(PassSpec::Normalize { target: None }),
            Some(_) => {
                let v = ints(args, 1)?;
                Ok(PassSpec::Normalize {
                    target: Some(idx(v[0])?),
                })
            }
        },
        "fuse" => {
            let v = ints(args, 2)?;
            Ok(PassSpec::Fuse {
                a: idx(v[0])?,
                b: idx(v[1])?,
            })
        }
        "distribute" => {
            let v = ints(args, 2)?;
            Ok(PassSpec::Distribute {
                target: idx(v[0])?,
                split: idx(v[1])?,
            })
        }
        "interchange" => {
            let v = ints(args, 1)?;
            Ok(PassSpec::Interchange { target: idx(v[0])? })
        }
        "reverse" => {
            let v = ints(args, 1)?;
            Ok(PassSpec::Reverse { target: idx(v[0])? })
        }
        "peel" => {
            let v = ints(args, 2)?;
            Ok(PassSpec::Peel {
                target: idx(v[0])?,
                n: v[1],
            })
        }
        "unroll" => {
            let v = ints(args, 2)?;
            Ok(PassSpec::Unroll {
                target: idx(v[0])?,
                factor: v[1],
            })
        }
        "slms" => match args {
            None => Ok(PassSpec::Slms { no_filter: false }),
            Some("nofilter") => Ok(PassSpec::Slms { no_filter: true }),
            Some(other) => Err(parse_err(
                item,
                format!("unknown slms modifier `{other}` (valid: nofilter)"),
            )),
        },
        "exact" => match args {
            None => Ok(PassSpec::Exact { no_filter: false }),
            Some("nofilter") => Ok(PassSpec::Exact { no_filter: true }),
            Some(other) => Err(parse_err(
                item,
                format!("unknown exact modifier `{other}` (valid: nofilter)"),
            )),
        },
        other => Err(parse_err(
            item,
            format!("unknown pass `{other}` (valid: {PLAN_SYNTAX})"),
        )),
    }
}

/// An ordered list of passes — the unit the CLI, the batch engine, and the
/// §6 ordering experiments all consume.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PassPlan {
    /// passes in application order
    pub specs: Vec<PassSpec>,
}

impl PassPlan {
    /// The classic pipeline: SLMS alone (what `slc` without `--passes`
    /// runs, and what [`crate::BatchConfig::full_matrix`] measures).
    pub fn slms_only() -> Self {
        PassPlan {
            specs: vec![PassSpec::Slms { no_filter: false }],
        }
    }

    /// The exact-scheduler pipeline: one `exact` pass (what
    /// `slc --scheduler exact` and `slc batch --scheduler exact` run).
    pub fn exact_only() -> Self {
        PassPlan {
            specs: vec![PassSpec::Exact { no_filter: false }],
        }
    }

    /// Parse a comma-separated plan (`normalize,fuse:0+1,slms`).
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let items: Vec<&str> = text
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if items.is_empty() {
            return Err(parse_err(text, "empty plan"));
        }
        let specs = items
            .into_iter()
            .map(parse_spec)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PassPlan { specs })
    }

    /// Stable content fingerprint of the plan as *resolved* against a base
    /// SLMS configuration: every pass feeds its name and parameters, and
    /// each `slms` pass feeds the full fingerprint of the configuration it
    /// would actually run with. Cache keys built from this are exhaustive —
    /// any change to plan shape, order, arguments or SLMS knobs changes
    /// the key.
    pub fn fingerprint(&self, slms_base: &SlmsConfig) -> u64 {
        let parts: Vec<u64> = self
            .specs
            .iter()
            .map(|s| match s {
                PassSpec::Normalize { target } => slc_analysis::fingerprint::tagged(
                    "normalize",
                    &[target.map_or(u64::MAX, |t| t as u64)],
                ),
                PassSpec::Fuse { a, b } => {
                    slc_analysis::fingerprint::tagged("fuse", &[*a as u64, *b as u64])
                }
                PassSpec::Distribute { target, split } => slc_analysis::fingerprint::tagged(
                    "distribute",
                    &[*target as u64, *split as u64],
                ),
                PassSpec::Interchange { target } => {
                    slc_analysis::fingerprint::tagged("interchange", &[*target as u64])
                }
                PassSpec::Reverse { target } => {
                    slc_analysis::fingerprint::tagged("reverse", &[*target as u64])
                }
                PassSpec::Peel { target, n } => {
                    slc_analysis::fingerprint::tagged("peel", &[*target as u64, *n as u64])
                }
                PassSpec::Unroll { target, factor } => {
                    slc_analysis::fingerprint::tagged("unroll", &[*target as u64, *factor as u64])
                }
                PassSpec::Slms { no_filter } => slc_analysis::fingerprint::tagged(
                    "slms",
                    &[resolve_slms(slms_base, *no_filter).fingerprint()],
                ),
                PassSpec::Exact { no_filter } => slc_analysis::fingerprint::tagged(
                    "exact",
                    &[resolve_exact(slms_base, *no_filter).fingerprint()],
                ),
            })
            .collect();
        slc_analysis::fingerprint::tagged("plan", &parts)
    }
}

impl std::fmt::Display for PassPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rendered: Vec<String> = self.specs.iter().map(|s| s.to_string()).collect();
        f.write_str(&rendered.join(","))
    }
}

impl std::str::FromStr for PassPlan {
    type Err = PlanParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PassPlan::parse(s)
    }
}

/// Why a pass failed to apply. SLMS declining a loop is *not* a
/// `PassError` (the loop stays, the reason lands in the diagnostics);
/// structural transform failures are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassError {
    /// A §6 transformation could not be applied.
    Transform {
        /// plan-syntax name of the failing pass (`fuse:0+1`)
        pass: String,
        /// the uniform transform error
        err: TransformError,
    },
}

impl std::fmt::Display for PassError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassError::Transform { pass, err } => write!(f, "pass {pass}: {err}"),
        }
    }
}

impl std::error::Error for PassError {}

fn resolve_slms(base: &SlmsConfig, no_filter: bool) -> SlmsConfig {
    let mut cfg = base.clone();
    if no_filter {
        cfg.apply_filter = false;
    }
    cfg
}

fn resolve_exact(base: &SlmsConfig, no_filter: bool) -> SlmsConfig {
    let mut cfg = resolve_slms(base, no_filter);
    cfg.scheduler = SchedulerKind::Exact;
    cfg
}

/// Indices into `prog.stmts` of the top-level `for` loops, in source order.
fn top_loop_positions(prog: &Program) -> Vec<usize> {
    prog.stmts
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Stmt::For(_)))
        .map(|(i, _)| i)
        .collect()
}

/// One [`PassSpec`] of a plan, bound to the base SLMS configuration and
/// tracer of the [`PassManager`] that runs it.
struct Step<'a> {
    spec: &'a PassSpec,
    slms: &'a SlmsConfig,
    tracer: &'a Tracer,
}

impl Step<'_> {
    fn name(&self) -> String {
        self.spec.to_string()
    }

    /// Apply to a program; append diagnostics (and the pass's wall clock)
    /// to the sink. Leaves `prog` untouched on failure.
    fn apply(&self, prog: &Program, sink: &mut DiagSink) -> Result<Program, PassError> {
        let mut span = self
            .tracer
            .span_dyn("pass", || format!("pass {}", self.name()));
        let idx = sink.begin_pass(self.name());
        let t0 = Instant::now();
        let result = self.apply_inner(prog, sink.pass_mut(idx));
        sink.pass_mut(idx).elapsed_ns = t0.elapsed().as_nanos() as u64;
        if let Err(e) = &result {
            sink.pass_mut(idx).notes.push(format!("FAILED: {e}"));
        }
        span.arg("ok", result.is_ok());
        result
    }

    fn target_pos(&self, prog: &Program, index: usize) -> Result<usize, PassError> {
        let loops = top_loop_positions(prog);
        loops
            .get(index)
            .copied()
            .ok_or_else(|| PassError::Transform {
                pass: self.name(),
                err: TransformError::TargetNotFound {
                    index,
                    n_loops: loops.len(),
                },
            })
    }

    fn transform_err(&self, err: TransformError) -> PassError {
        PassError::Transform {
            pass: self.name(),
            err,
        }
    }

    fn loop_var(prog: &Program, pos: usize) -> String {
        match &prog.stmts[pos] {
            Stmt::For(f) => f.var.clone(),
            _ => unreachable!("top_loop_positions only returns for loops"),
        }
    }

    fn apply_inner(&self, prog: &Program, diag: &mut PassDiag) -> Result<Program, PassError> {
        match self.spec {
            PassSpec::Slms { no_filter } => {
                let cfg = resolve_slms(self.slms, *no_filter);
                let (out, outcomes) = slms_program_spanned(prog, &cfg, self.tracer);
                let ok = outcomes.iter().filter(|o| o.result.is_ok()).count();
                diag.notes.push(format!(
                    "{ok} of {} innermost loop(s) pipelined",
                    outcomes.len()
                ));
                diag.loops = outcomes;
                Ok(out)
            }
            PassSpec::Exact { no_filter } => {
                let cfg = resolve_exact(self.slms, *no_filter);
                let (out, outcomes) = slms_program_spanned(prog, &cfg, self.tracer);
                let ok = outcomes.iter().filter(|o| o.result.is_ok()).count();
                for o in &outcomes {
                    if let Ok(r) = &o.result {
                        if let (Some(heuristic_ii), Some(cert)) = (r.heuristic_ii, &r.certificate) {
                            diag.artifacts.push(PassArtifact::Certificate {
                                loop_id: o.id.clone(),
                                heuristic_ii,
                                certificate: cert.clone(),
                            });
                        }
                    }
                }
                diag.notes.push(format!(
                    "{ok} of {} innermost loop(s) pipelined, {} with optimality certificate(s)",
                    outcomes.len(),
                    diag.artifacts.len()
                ));
                diag.loops = outcomes;
                Ok(out)
            }
            PassSpec::Normalize { target } => {
                let mut out = prog.clone();
                let positions = match target {
                    Some(t) => vec![self.target_pos(prog, *t)?],
                    None => top_loop_positions(prog),
                };
                // back-to-front so earlier positions survive the splices
                for pos in positions.into_iter().rev() {
                    let stmt = out.stmts[pos].clone();
                    let var = Self::loop_var(&out, pos);
                    let repl =
                        normalize(&mut out, &stmt, "nrm").map_err(|e| self.transform_err(e))?;
                    let changed = repl.len() != 1 || repl[0] != stmt;
                    diag.notes.push(if changed {
                        format!("loop over `{var}` normalized to canonical form")
                    } else {
                        format!("loop over `{var}` already canonical")
                    });
                    out.stmts.splice(pos..=pos, repl);
                }
                Ok(out)
            }
            PassSpec::Fuse { a, b } => {
                if a == b {
                    return Err(self.transform_err(TransformError::BadParameter(
                        "cannot fuse a loop with itself".into(),
                    )));
                }
                let pa = self.target_pos(prog, *a)?;
                let pb = self.target_pos(prog, *b)?;
                let fused =
                    fuse(&prog.stmts[pa], &prog.stmts[pb]).map_err(|e| self.transform_err(e))?;
                let mut out = prog.clone();
                diag.notes.push(format!(
                    "loops #{a} and #{b} (over `{}`) fused",
                    Self::loop_var(prog, pa)
                ));
                out.stmts[pa] = fused;
                out.stmts.remove(pb);
                Ok(out)
            }
            PassSpec::Distribute { target, split } => {
                let pos = self.target_pos(prog, *target)?;
                let (s1, s2) =
                    distribute(&prog.stmts[pos], *split).map_err(|e| self.transform_err(e))?;
                let mut out = prog.clone();
                diag.notes.push(format!(
                    "loop #{target} (over `{}`) distributed at statement {split}",
                    Self::loop_var(prog, pos)
                ));
                out.stmts.splice(pos..=pos, [s1, s2]);
                Ok(out)
            }
            PassSpec::Interchange { target } => {
                let pos = self.target_pos(prog, *target)?;
                let swapped = interchange(&prog.stmts[pos]).map_err(|e| self.transform_err(e))?;
                let mut out = prog.clone();
                diag.notes.push(format!(
                    "nest #{target} (outer `{}`) interchanged",
                    Self::loop_var(prog, pos)
                ));
                out.stmts[pos] = swapped;
                Ok(out)
            }
            PassSpec::Reverse { target } => {
                let pos = self.target_pos(prog, *target)?;
                let repl = reverse(&prog.stmts[pos]).map_err(|e| self.transform_err(e))?;
                let mut out = prog.clone();
                diag.notes.push(format!(
                    "loop #{target} (over `{}`) reversed",
                    Self::loop_var(prog, pos)
                ));
                out.stmts.splice(pos..=pos, repl);
                Ok(out)
            }
            PassSpec::Peel { target, n } => {
                let pos = self.target_pos(prog, *target)?;
                let repl = peel_front(&prog.stmts[pos], *n).map_err(|e| self.transform_err(e))?;
                let mut out = prog.clone();
                diag.notes.push(format!(
                    "loop #{target} (over `{}`): first {n} iteration(s) peeled",
                    Self::loop_var(prog, pos)
                ));
                out.stmts.splice(pos..=pos, repl);
                Ok(out)
            }
            PassSpec::Unroll { target, factor } => {
                let pos = self.target_pos(prog, *target)?;
                let repl = unroll(&prog.stmts[pos], *factor).map_err(|e| self.transform_err(e))?;
                let mut out = prog.clone();
                diag.notes.push(format!(
                    "loop #{target} (over `{}`) unrolled ×{factor}",
                    Self::loop_var(prog, pos)
                ));
                out.stmts.splice(pos..=pos, repl);
                Ok(out)
            }
        }
    }
}

/// Runs plans against a base SLMS configuration.
#[derive(Debug, Clone, Default)]
pub struct PassManager {
    /// base SLMS configuration `slms` passes run with (modifiers like
    /// `:nofilter` adjust a copy)
    pub slms: SlmsConfig,
    /// span collector (disabled by default; see [`PassManager::with_tracer`])
    tracer: Tracer,
}

impl PassManager {
    /// Manager with the given base SLMS configuration.
    pub fn new(slms: SlmsConfig) -> Self {
        PassManager {
            slms,
            tracer: Tracer::disabled(),
        }
    }

    /// Collect spans while running plans: one `pass` span per executed pass
    /// plus the `slms`/`verify` spans the core stages open. A disabled
    /// tracer (the default) makes every span a no-op.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Run a plan over a program. Returns the transformed program and the
    /// full diagnostics (one [`PassDiag`] per executed pass). On a
    /// structural failure the error names the failing pass; the sink
    /// gathered so far is discarded with the partial program.
    ///
    /// In debug builds every `slms` pass is additionally checked by the
    /// static schedule verifier (`slc-verify`) and a violation trips a
    /// `debug_assert` — release builds skip the check entirely. Verdicts
    /// never enter the sink, so the diagnostics (and `slc explain`) are the
    /// same in both build profiles.
    pub fn run(&self, prog: &Program, plan: &PassPlan) -> Result<(Program, DiagSink), PassError> {
        let (out, sink, verdicts) = self.run_with_verify(prog, plan, cfg!(debug_assertions))?;
        for vd in &verdicts {
            debug_assert!(
                vd.clean(),
                "static schedule verification failed:\n{}",
                vd.render()
            );
        }
        Ok((out, sink))
    }

    /// Like [`PassManager::run`], but when `verify` is set the program
    /// state *before* each `slms` pass is handed to the static schedule
    /// verifier. One [`ProgramVerdict`](slc_verify::ProgramVerdict) per
    /// `slms` pass is returned in plan order.
    pub fn run_with_verify(
        &self,
        prog: &Program,
        plan: &PassPlan,
        verify: bool,
    ) -> Result<(Program, DiagSink, Vec<slc_verify::ProgramVerdict>), PassError> {
        let mut sink = DiagSink::new();
        let mut cur = prog.clone();
        let mut verdicts = Vec::new();
        for spec in &plan.specs {
            let is_sched = matches!(spec, PassSpec::Slms { .. } | PassSpec::Exact { .. });
            let pre = (verify && is_sched).then(|| cur.clone());
            let step = Step {
                spec,
                slms: &self.slms,
                tracer: &self.tracer,
            };
            cur = step.apply(&cur, &mut sink)?;
            if let Some(pre) = pre {
                let cfg = match spec {
                    PassSpec::Slms { no_filter } => resolve_slms(&self.slms, *no_filter),
                    PassSpec::Exact { no_filter } => resolve_exact(&self.slms, *no_filter),
                    _ => unreachable!("pre-state is only cloned for scheduling passes"),
                };
                verdicts.push(slc_verify::verify_slms_program_spanned(
                    &pre,
                    &cfg,
                    &self.tracer,
                ));
            }
        }
        Ok((cur, sink, verdicts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::{parse_program, to_source};
    use slc_core::slms_program;

    fn plan(s: &str) -> PassPlan {
        PassPlan::parse(s).unwrap()
    }

    #[test]
    fn parse_render_roundtrip_examples() {
        for text in [
            "slms",
            "slms:nofilter",
            "exact",
            "exact:nofilter",
            "normalize",
            "normalize:2",
            "fuse:0+1,slms",
            "fuse:0+1,exact",
            "normalize,fuse:0+1,slms",
            "distribute:1+2,interchange:0,reverse:3,peel:0+2,unroll:1+4",
        ] {
            let p = plan(text);
            assert_eq!(p.to_string(), text);
            assert_eq!(PassPlan::parse(&p.to_string()).unwrap(), p);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in [
            "",
            "slmz",
            "fuse:0",
            "fuse:0+1+2",
            "unroll:a+2",
            "slms:x",
            "exact:x",
            "peel",
        ] {
            assert!(PassPlan::parse(text).is_err(), "{text} should not parse");
        }
        // whitespace is tolerated
        assert_eq!(plan(" fuse:0+1 , slms "), plan("fuse:0+1,slms"));
    }

    #[test]
    fn fingerprint_distinguishes_order_args_and_config() {
        let base = SlmsConfig::default();
        let a = plan("fuse:0+1,slms").fingerprint(&base);
        let b = plan("slms,fuse:0+1").fingerprint(&base);
        let c = plan("fuse:0+2,slms").fingerprint(&base);
        let d = plan("fuse:0+1,slms:nofilter").fingerprint(&base);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // base-config changes flow into the key too
        let nf = SlmsConfig {
            apply_filter: false,
            ..SlmsConfig::default()
        };
        assert_ne!(
            plan("slms").fingerprint(&base),
            plan("slms").fingerprint(&nf)
        );
        // ...and `slms:nofilter` under a filtering base equals `slms`
        // under a non-filtering base (same resolved config)
        assert_eq!(
            plan("slms:nofilter").fingerprint(&base),
            plan("slms").fingerprint(&nf)
        );
        // the exact scheduler never shares a cache key with the heuristic
        assert_ne!(
            plan("exact").fingerprint(&base),
            plan("slms").fingerprint(&base)
        );
        assert_ne!(
            plan("exact").fingerprint(&base),
            plan("exact:nofilter").fingerprint(&base)
        );
    }

    #[test]
    fn exact_plan_fills_the_artifact_channel() {
        let prog = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
        )
        .unwrap();
        let pm = PassManager::default();
        let (_, sink) = pm.run(&prog, &PassPlan::exact_only()).unwrap();
        let arts = &sink.passes[0].artifacts;
        assert_eq!(arts.len(), 1, "notes: {:?}", sink.passes[0].notes);
        let PassArtifact::Certificate {
            heuristic_ii,
            certificate,
            ..
        } = &arts[0];
        assert!(arts[0].optimality_gap() >= 0);
        assert_eq!(*heuristic_ii - certificate.ii, arts[0].optimality_gap());
        assert!(sink.passes[0].notes[0].contains("1 with optimality certificate"));
        // the heuristic plan leaves the sidecar channel empty
        let (_, sink) = pm.run(&prog, &PassPlan::slms_only()).unwrap();
        assert!(sink.passes[0].artifacts.is_empty());
    }

    #[test]
    fn exact_plan_verifies_like_slms() {
        let prog = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
        )
        .unwrap();
        let pm = PassManager::default();
        let (_, _, verdicts) = pm
            .run_with_verify(&prog, &PassPlan::exact_only(), true)
            .unwrap();
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].clean(), "{}", verdicts[0].render());
    }

    #[test]
    fn fuse_then_slms_runs_and_reports() {
        let prog = parse_program(
            "float a[64]; float b[64]; int i;\n\
             for (i = 1; i < 60; i++) a[i] = a[i - 1] * 2.0 + a[i + 1] * 2.0;\n\
             for (i = 1; i < 60; i++) b[i] = b[i - 1] * 2.0 + b[i + 1] * 2.0;",
        )
        .unwrap();
        let pm = PassManager::new(SlmsConfig {
            apply_filter: false,
            ..SlmsConfig::default()
        });
        let (out, sink) = pm.run(&prog, &plan("fuse:0+1,slms")).unwrap();
        assert_eq!(sink.passes.len(), 2);
        assert_eq!(sink.passes[0].pass, "fuse:0+1");
        assert_eq!(sink.passes[1].pass, "slms");
        assert_eq!(sink.passes[1].loops.len(), 1, "one fused loop");
        assert!(sink.passes[1].loops[0].result.is_ok());
        assert!(to_source(&out).contains("par {"), "kernel emitted");
    }

    #[test]
    fn bad_target_is_a_structured_error() {
        let prog = parse_program("float a[8]; int i; for (i = 0; i < 4; i++) a[i] = 1.0;").unwrap();
        let pm = PassManager::default();
        let err = pm.run(&prog, &plan("fuse:0+3,slms")).unwrap_err();
        let PassError::Transform { pass, err } = err;
        assert_eq!(pass, "fuse:0+3");
        assert_eq!(
            err,
            TransformError::TargetNotFound {
                index: 3,
                n_loops: 1
            }
        );
    }

    #[test]
    fn normalize_all_is_identity_on_canonical_loops() {
        let prog = parse_program("float a[8]; int i; for (i = 0; i < 4; i++) a[i] = 1.0;").unwrap();
        let pm = PassManager::default();
        let (out, sink) = pm.run(&prog, &plan("normalize")).unwrap();
        assert_eq!(to_source(&out), to_source(&prog));
        assert!(sink.passes[0].notes[0].contains("already canonical"));
    }

    #[test]
    fn slms_only_plan_matches_direct_slms_program() {
        let prog = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
        )
        .unwrap();
        let cfg = SlmsConfig::default();
        let (direct, outcomes) = slms_program(&prog, &cfg);
        let (via_plan, sink) = PassManager::new(cfg)
            .run(&prog, &PassPlan::slms_only())
            .unwrap();
        assert_eq!(to_source(&direct), to_source(&via_plan));
        assert_eq!(outcomes.len(), sink.passes[0].loops.len());
    }
}
