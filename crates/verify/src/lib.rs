//! # slc-verify — static schedule verification for SLMS
//!
//! The paper's central claim is that a modulo schedule produced at source
//! level is *visible* at source level: every placement decision — which
//! iteration's instance of which multi-instruction occupies which kernel
//! row, which MVE version a copy must use, what the prologue and epilogue
//! must contain — is a closed-form function of `(II, n, trip count)`
//! documented in `slc-core`'s emitter. This crate exploits that visibility
//! in two ways:
//!
//! * **Translation validation** ([`verify_emission`], [`verify_slms_program`])
//!   — maps every statement instance of an emitted pipeline back to its
//!   `(MI k, original iteration j)` origin, rebuilds the original body's
//!   dependence graph with `slc-analysis`, and statically proves each
//!   edge's distance is respected by the schedule, that `II ≥ MII`, that
//!   MVE renaming is a consistent rotation with statically-known residues
//!   (and live-out restoration), and that scalar-expansion subscripts index
//!   the right iteration. No execution involved — unlike the interpreter
//!   equivalence tests, the proof covers *all* inputs.
//! * **Source linting** ([`lint_program`]) — flags constructs that make a
//!   schedule unverifiable or a loop untransformable: uninitialized scalar
//!   reads, alias hazards between array references, non-affine subscripts,
//!   unguarded symbolic trip counts. Each finding carries a stable
//!   `SLMS-Lxxx` code.
//!
//! The SAT/SMT modulo-scheduling literature (optimal software pipelining
//! via SMT solvers, SAT-MapIt) treats schedule validity as constraint
//! checking; this crate is the checking half of that pairing, specialised
//! to the fixed §5 placement so it runs in linear time without a solver.

pub mod lint;
pub mod validate;

pub use lint::{lint_program, Lint, LintSeverity};
pub use validate::{verify_emission, EmissionVerdict};

use slc_ast::{LoopId, Program};
use slc_core::{slms_program_checked, DiagEvent, LoopOutcome, SlmsConfig};
use slc_trace::Tracer;

/// Reason string used when an emission is skipped because the loop has
/// symbolic bounds (guarded emission is checked dynamically, not here).
pub const VERIFY_SKIP_SYMBOLIC: &str =
    "symbolic trip count: runtime-guarded emission is not statically checkable";

/// One statically-proven-false property of an emitted schedule. Each
/// variant names the placement/dependence/renaming rule it violates;
/// [`Violation::rule`] gives the stable short name used in reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The emitted statements do not have the §5 prologue/kernel/epilogue
    /// shape (row counts, member counts, one kernel loop).
    KernelShape {
        /// what deviates
        detail: String,
    },
    /// The kernel `for` header deviates from the placement formulas.
    BadHeader {
        /// which header field deviates
        detail: String,
    },
    /// A constant-region statement matches no expected `(MI, iteration)`
    /// instance.
    UnknownInstance {
        /// region the statement was found in
        where_: String,
        /// the offending statement
        stmt: String,
    },
    /// An expected `(MI, iteration)` instance is missing from the emitted
    /// constant region.
    MissingInstance {
        /// MI position
        k: usize,
        /// original iteration
        j: i64,
        /// region the instance should appear in
        where_: String,
    },
    /// A dependence edge is executed sink-before-source.
    DependenceViolated {
        /// source MI position
        from: usize,
        /// sink MI position
        to: usize,
        /// dependence kind (`Flow`/`Anti`/`Output`)
        kind: String,
        /// violated iteration distance (after renaming adjustment)
        dist: i64,
        /// first source iteration exhibiting the violation
        at_iter: i64,
        /// rendered evidence
        detail: String,
    },
    /// MVE renaming is not the consistent rotation the placement demands.
    RenamingViolated {
        /// renamed variable
        var: String,
        /// rendered evidence
        detail: String,
    },
    /// Two kernel copies of the same MI disagree (after un-renaming and
    /// un-shifting they must be identical).
    CopyMismatch {
        /// MI position
        k: usize,
        /// offending kernel copy
        copy: i64,
        /// rendered evidence
        detail: String,
    },
    /// A scalar-expansion subscript does not index its iteration's cell.
    ExpansionSubscript {
        /// expanded variable
        var: String,
        /// rendered evidence
        detail: String,
    },
    /// The achieved II is below the placement MII of the scheduled body.
    IiBelowMii {
        /// achieved initiation interval
        ii: i64,
        /// required minimum
        mii: i64,
    },
    /// The kernel unroll factor is not a multiple of a version count, so
    /// per-copy residues are not statically known.
    UnrollInconsistent {
        /// kernel unroll factor
        unroll: i64,
        /// renamed variable
        var: String,
        /// its version count
        p: i64,
    },
    /// A live-out restore (induction variable or renamed scalar) is wrong
    /// or missing.
    RestoreViolated {
        /// variable whose restore is wrong
        var: String,
        /// rendered evidence
        detail: String,
    },
    /// A kernel row member, un-renamed and un-shifted, is not the original
    /// multi-instruction.
    UnfaithfulMi {
        /// MI position
        k: usize,
        /// rendered evidence
        detail: String,
    },
    /// The report's exact reordering is not a valid permutation of the
    /// scheduled body, or it breaks a same-iteration dependence.
    ExactOrderInvalid {
        /// rendered evidence
        detail: String,
    },
    /// The exact scheduler was requested and in scope, but the report
    /// carries no optimality certificate to re-check.
    CertificateMissing {
        /// MIs in the scheduled body
        n_mis: usize,
    },
    /// The certificate's claimed II disagrees with the achieved schedule
    /// (or the recorded heuristic II is below it).
    CertificateIi {
        /// rendered evidence
        detail: String,
    },
    /// The certificate's claimed MII does not match the independently
    /// recomputed lower bound.
    CertificateMii {
        /// rendered evidence
        detail: String,
    },
    /// The emitted order itself does not satisfy the dependences at the
    /// certificate's claimed II — the optimality witness fails.
    CertificateWitness {
        /// rendered evidence
        detail: String,
    },
    /// The infeasibility proof is structurally broken: missing, redundant,
    /// refuting the wrong II, or containing a clause the encoding cannot
    /// derive.
    CertificateProofClause {
        /// rendered evidence
        detail: String,
    },
    /// The infeasibility proof's clause set is satisfiable — it refutes
    /// nothing, so the optimality claim is unproven.
    CertificateProofSat {
        /// rendered evidence
        detail: String,
    },
    /// The exact dependence engine decided an array pair but the report
    /// carries no certificate for it to re-check.
    DepCertMissing {
        /// rendered evidence
        detail: String,
    },
    /// A dependence-witness certificate does not re-evaluate to a genuine
    /// conflict (wrong iterations, infeasible equation, or claimed for an
    /// independent pair).
    DepCertWitness {
        /// rendered evidence
        detail: String,
    },
    /// An independence-proof certificate is broken: its Diophantine system
    /// does not match the re-derived one, or re-solving it finds a
    /// satisfying iteration pair (the "proof" proves nothing).
    DepCertProof {
        /// rendered evidence
        detail: String,
    },
}

impl Violation {
    /// Stable short rule name (used by `slc explain`, tests and reports).
    pub fn rule(&self) -> &'static str {
        match self {
            Violation::KernelShape { .. } => "kernel-shape",
            Violation::BadHeader { .. } => "loop-header",
            Violation::UnknownInstance { .. } => "unknown-instance",
            Violation::MissingInstance { .. } => "missing-instance",
            Violation::DependenceViolated { .. } => "dependence",
            Violation::RenamingViolated { .. } => "mve-residue",
            Violation::CopyMismatch { .. } => "kernel-copy",
            Violation::ExpansionSubscript { .. } => "expansion-subscript",
            Violation::IiBelowMii { .. } => "ii-below-mii",
            Violation::UnrollInconsistent { .. } => "unroll-residue",
            Violation::RestoreViolated { .. } => "live-out-restore",
            Violation::UnfaithfulMi { .. } => "mi-faithfulness",
            Violation::ExactOrderInvalid { .. } => "exact-order",
            Violation::CertificateMissing { .. } => "cert-missing",
            Violation::CertificateIi { .. } => "cert-ii",
            Violation::CertificateMii { .. } => "cert-mii",
            Violation::CertificateWitness { .. } => "cert-witness",
            Violation::CertificateProofClause { .. } => "cert-proof-clause",
            Violation::CertificateProofSat { .. } => "cert-proof-sat",
            Violation::DepCertMissing { .. } => "dep-cert-missing",
            Violation::DepCertWitness { .. } => "dep-cert-witness",
            Violation::DepCertProof { .. } => "dep-cert-proof",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.rule())?;
        match self {
            Violation::KernelShape { detail }
            | Violation::BadHeader { detail }
            | Violation::RenamingViolated { detail, .. }
            | Violation::CopyMismatch { detail, .. }
            | Violation::ExpansionSubscript { detail, .. }
            | Violation::RestoreViolated { detail, .. }
            | Violation::UnfaithfulMi { detail, .. }
            | Violation::DependenceViolated { detail, .. }
            | Violation::ExactOrderInvalid { detail }
            | Violation::CertificateIi { detail }
            | Violation::CertificateMii { detail }
            | Violation::CertificateWitness { detail }
            | Violation::CertificateProofClause { detail }
            | Violation::CertificateProofSat { detail }
            | Violation::DepCertMissing { detail }
            | Violation::DepCertWitness { detail }
            | Violation::DepCertProof { detail } => f.write_str(detail),
            Violation::CertificateMissing { n_mis } => {
                write!(
                    f,
                    "exact scheduling requested but the {n_mis}-MI loop carries no \
                     optimality certificate"
                )
            }
            Violation::UnknownInstance { where_, stmt } => {
                write!(
                    f,
                    "{where_} contains `{stmt}`, which is no instance the placement expects"
                )
            }
            Violation::MissingInstance { k, j, where_ } => {
                write!(
                    f,
                    "instance of MI {k} at original iteration {j} missing from {where_}"
                )
            }
            Violation::IiBelowMii { ii, mii } => {
                write!(f, "achieved II = {ii} is below the placement MII = {mii}")
            }
            Violation::UnrollInconsistent { unroll, var, p } => {
                write!(
                    f,
                    "kernel unroll {unroll} is not a multiple of `{var}`'s {p} versions; \
                     copy residues are not statically known"
                )
            }
        }
    }
}

/// Verdict for one loop of a program.
#[derive(Debug, Clone)]
pub enum LoopVerdict {
    /// Every obligation discharged.
    Verified {
        /// number of elementary obligations proved
        obligations: usize,
    },
    /// Verification did not apply (loop untransformed, or symbolic-guarded).
    Skipped {
        /// why
        reason: String,
    },
    /// At least one obligation failed.
    Violated {
        /// obligations that did succeed
        obligations: usize,
        /// the failed ones
        violations: Vec<Violation>,
    },
}

/// One loop's identity plus its verdict.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// stable loop identity (same scheme as `slc-core` outcomes)
    pub id: LoopId,
    /// the verdict
    pub verdict: LoopVerdict,
}

/// Verdict for a whole program (one entry per innermost loop, in the same
/// pre-order the SLMS driver visits them).
#[derive(Debug, Clone, Default)]
pub struct ProgramVerdict {
    /// per-loop verdicts
    pub loops: Vec<LoopReport>,
}

impl ProgramVerdict {
    /// True when no loop has violations.
    pub fn clean(&self) -> bool {
        self.violation_count() == 0
    }

    /// Total violations across all loops.
    pub fn violation_count(&self) -> usize {
        self.loops
            .iter()
            .map(|l| match &l.verdict {
                LoopVerdict::Violated { violations, .. } => violations.len(),
                _ => 0,
            })
            .sum()
    }

    /// Total obligations discharged across all loops.
    pub fn obligation_count(&self) -> usize {
        self.loops
            .iter()
            .map(|l| match &l.verdict {
                LoopVerdict::Verified { obligations }
                | LoopVerdict::Violated { obligations, .. } => *obligations,
                LoopVerdict::Skipped { .. } => 0,
            })
            .sum()
    }

    /// Diagnostic events for the `slc explain` / `DiagSink` machinery.
    pub fn events(&self) -> Vec<DiagEvent> {
        let mut out = Vec::new();
        for l in &self.loops {
            match &l.verdict {
                LoopVerdict::Verified { obligations } => out.push(DiagEvent::Verified {
                    obligations: *obligations,
                }),
                LoopVerdict::Violated { violations, .. } => {
                    for viol in violations {
                        out.push(DiagEvent::VerifyViolation {
                            rule: viol.rule().into(),
                            detail: viol.to_string(),
                        });
                    }
                }
                LoopVerdict::Skipped { .. } => {}
            }
        }
        out
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.loops {
            match &l.verdict {
                LoopVerdict::Verified { obligations } => out.push_str(&format!(
                    "  {}: verified — {obligations} obligations discharged\n",
                    l.id
                )),
                LoopVerdict::Skipped { reason } => {
                    out.push_str(&format!("  {}: skipped — {reason}\n", l.id))
                }
                LoopVerdict::Violated {
                    obligations,
                    violations,
                } => {
                    out.push_str(&format!(
                        "  {}: {} VIOLATION(S) ({obligations} obligations passed)\n",
                        l.id,
                        violations.len()
                    ));
                    for viol in violations {
                        out.push_str(&format!("    ✗ {viol}\n"));
                    }
                }
            }
        }
        if self.loops.is_empty() {
            out.push_str("  (no innermost loops)\n");
        }
        out
    }
}

/// Run SLMS over `prog` with `cfg` and statically validate every emitted
/// schedule against the §5 placement rules — the translation-validation
/// entry point. The driver's own walk schedules each innermost loop once
/// and hands the emission to [`verify_emission`] before committing it, with
/// the declarations as they stood before that loop.
pub fn verify_slms_program(prog: &Program, cfg: &SlmsConfig) -> ProgramVerdict {
    verify_slms_program_spanned(prog, cfg, &Tracer::disabled())
}

/// [`verify_slms_program`] with wall-clock spans: the driver's `"slms"`
/// spans, plus one span per innermost loop (category `"verify"`, named
/// after the [`LoopId`]) carrying the obligation/violation counts as span
/// arguments. The verdict is identical to [`verify_slms_program`] — spans
/// record timings only.
pub fn verify_slms_program_spanned(
    prog: &Program,
    cfg: &SlmsConfig,
    tracer: &Tracer,
) -> ProgramVerdict {
    slms_program_verified(prog, cfg, tracer).2
}

/// [`slms_program_checked`] with the translation validation of
/// [`verify_slms_program`] as its check: the transformed program and
/// outcomes are those of `slms_program`, the verdict that of
/// `verify_slms_program`, and the spans those of
/// [`verify_slms_program_spanned`].
pub fn slms_program_verified(
    prog: &Program,
    cfg: &SlmsConfig,
    tracer: &Tracer,
) -> (Program, Vec<LoopOutcome>, ProgramVerdict) {
    let mut loops = Vec::new();
    let (out, outcomes) = slms_program_checked(prog, cfg, tracer, &mut |pre, f, result| {
        let id = LoopId::of(f, loops.len());
        let mut span = tracer.span_dyn("verify", || format!("verify {}", id.verbose()));
        let verdict = match result {
            Err(e) => {
                span.arg("skipped", "not transformed");
                LoopVerdict::Skipped {
                    reason: format!("not transformed: {e}"),
                }
            }
            Ok(_) if f.trip_count().is_none() => {
                span.arg("skipped", VERIFY_SKIP_SYMBOLIC);
                LoopVerdict::Skipped {
                    reason: VERIFY_SKIP_SYMBOLIC.into(),
                }
            }
            Ok(res) => {
                let ev = verify_emission(pre, f, &res.report, &res.stmts, cfg);
                span.arg("obligations", ev.obligations);
                if ev.clean() {
                    LoopVerdict::Verified {
                        obligations: ev.obligations,
                    }
                } else {
                    span.arg("violations", ev.violations.len());
                    LoopVerdict::Violated {
                        obligations: ev.obligations,
                        violations: ev.violations,
                    }
                }
            }
        };
        loops.push(LoopReport { id, verdict });
    });
    (out, outcomes, ProgramVerdict { loops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_program;

    #[test]
    fn intro_example_verifies() {
        let prog = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
        )
        .unwrap();
        let verdict = verify_slms_program(&prog, &SlmsConfig::default());
        assert_eq!(verdict.loops.len(), 1);
        assert!(verdict.clean(), "{}", verdict.render());
        assert!(verdict.obligation_count() > 10, "{}", verdict.render());
    }

    #[test]
    fn decomposed_recurrence_verifies() {
        let prog = parse_program(
            "float A[64]; int i;\n\
             for (i = 2; i < 60; i++) A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];",
        )
        .unwrap();
        let cfg = SlmsConfig {
            apply_filter: false,
            ..SlmsConfig::default()
        };
        let verdict = verify_slms_program(&prog, &cfg);
        assert!(verdict.clean(), "{}", verdict.render());
    }

    #[test]
    fn scalar_expansion_verifies() {
        let prog = parse_program(
            "float A[64]; int i;\n\
             for (i = 2; i < 60; i++) A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];",
        )
        .unwrap();
        let cfg = SlmsConfig {
            apply_filter: false,
            expansion: slc_core::Expansion::ScalarExpand,
            ..SlmsConfig::default()
        };
        let verdict = verify_slms_program(&prog, &cfg);
        assert!(verdict.clean(), "{}", verdict.render());
    }

    #[test]
    fn exact_scheduled_loops_verify_with_certificates() {
        // One loop the heuristic already schedules optimally (identity
        // order, proof-free certificate) and one the exact scheduler must
        // reorder (heuristic II = 3 → exact II = 1): both must verify
        // clean, discharging the extra certificate obligations.
        let prog = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             float P[64]; float Q[64]; float R[64]; float Z[64]; int k;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }\n\
             for (k = 1; k < 60; k++) {\n\
               P[k] = Z[k - 1];\n\
               Q[k] = Q[k] + 1.0;\n\
               R[k] = R[k] * 2.0;\n\
               Z[k] = P[k] + 1.0;\n\
             }",
        )
        .unwrap();
        let heuristic_cfg = SlmsConfig {
            apply_filter: false,
            ..SlmsConfig::default()
        };
        let base = verify_slms_program(&prog, &heuristic_cfg);
        assert!(base.clean(), "{}", base.render());
        let cfg = SlmsConfig {
            apply_filter: false,
            scheduler: slc_core::SchedulerKind::Exact,
            ..SlmsConfig::default()
        };
        let verdict = verify_slms_program(&prog, &cfg);
        assert_eq!(verdict.loops.len(), 2);
        assert!(verdict.clean(), "{}", verdict.render());
        assert!(
            verdict.obligation_count() > base.obligation_count(),
            "certificate re-checks must add obligations ({} vs {})",
            verdict.obligation_count(),
            base.obligation_count()
        );
    }

    #[test]
    fn untransformed_loops_are_skipped_clean() {
        let prog =
            parse_program("float A[64]; int i; for (i = 1; i < 60; i++) A[i] = A[i - 1] * 2.0;")
                .unwrap();
        let cfg = SlmsConfig {
            apply_filter: false,
            ..SlmsConfig::default()
        };
        let verdict = verify_slms_program(&prog, &cfg);
        assert_eq!(verdict.loops.len(), 1);
        assert!(matches!(
            verdict.loops[0].verdict,
            LoopVerdict::Skipped { .. }
        ));
        assert!(verdict.clean());
    }
}
