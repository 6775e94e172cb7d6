//! Structured, explainable per-loop diagnostics.
//!
//! SLMS makes a chain of decisions per loop — filter, if-conversion, MII
//! iteration, decomposition retries, emission — and the §6 transformations
//! make one structural decision each. Solver-based schedulers (SMT/SAT
//! modulo scheduling) expose exactly this kind of infeasibility/decision
//! trace to let users debug why an II is or is not achievable; this module
//! is the source-level equivalent. Every decision is recorded as a
//! [`DiagEvent`] carrying the *computed numbers* (the measured `LS/(LS+AO)`
//! ratio, the per-round placement II, the decomposition victims), not a
//! pre-formatted string, so reports, the `slc explain` CLI mode, and tests
//! all render from the same data.
//!
//! The [`DiagSink`] groups events per pass (one [`PassDiag`] per pass of a
//! `PassPlan`; a bare [`slms_program`](crate::slms_program) call fills a
//! single implicit pass). Wall-clock per pass is recorded in the sink but
//! is *not* part of any canonical report — it flows into the batch engine's
//! non-deterministic timing sidecar only.

use crate::filter::FilterVerdict;
use crate::{LoopOutcome, SlmsError};
use slc_trace::Json;

/// One recorded decision while transforming a single loop.
#[derive(Debug, Clone, PartialEq)]
pub enum DiagEvent {
    /// The §4 bad-case filter ran; the verdict carries the measured
    /// `LS/(LS+AO)` ratio and the threshold.
    FilterChecked {
        /// verdict with measured numbers
        verdict: FilterVerdict,
    },
    /// Source-level if-conversion rewrote the body (§3.1).
    IfConverted,
    /// Symbolic bounds: the runtime-guarded, expansion-free path was taken.
    SymbolicGuard,
    /// One round of the §5 MII iteration: with `n_mis` multi-instructions
    /// the fixed-placement bound produced `placement_ii` (`None` = no
    /// `II < n_mis` exists at this body shape).
    MiiAttempt {
        /// decomposition round (0 = original body)
        round: usize,
        /// multi-instructions in the candidate body
        n_mis: usize,
        /// feasible placement II, if any
        placement_ii: Option<i64>,
    },
    /// A multi-instruction was decomposed to break a self dependence,
    /// introducing temporary `temp` (§5 step 5 retry).
    Decomposed {
        /// decomposition round that produced this split (1-based)
        round: usize,
        /// name of the introduced temporary
        temp: String,
    },
    /// The SAT-based exact scheduler ran on the final (decomposed) body:
    /// `ii` is proven optimal over all MI orderings, the heuristic's
    /// fixed placement achieved `heuristic_ii`, and the body was
    /// reordered when the exact order wins. Solver work is recorded as
    /// deterministic counts.
    ExactScheduled {
        /// proven-optimal II
        ii: i64,
        /// II of the heuristic (source-order) placement
        heuristic_ii: i64,
        /// whether the emitted body order differs from source order
        reordered: bool,
        /// whether the heuristic warm start closed the search without a
        /// single SAT call (heuristic II == MII)
        warm_start: bool,
        /// SAT branching decisions across the solve
        sat_decisions: u64,
        /// SAT conflicts analyzed
        sat_conflicts: u64,
        /// SAT unit propagations
        sat_propagations: u64,
        /// SAT restarts
        sat_restarts: u64,
        /// clauses in the attached infeasibility proof (0 = `II == MII`)
        proof_clauses: usize,
    },
    /// The exact dependence engine analyzed the loop's array access pairs
    /// (accumulated across every DDG build of the attempt — decomposition
    /// rounds, exact-scheduler rebuilds and the final body). Only emitted
    /// when the loop range was a compile-time constant; the counts feed the
    /// `deps.*` registry family.
    DepsAnalyzed {
        /// pairs given a definite verdict (not `Undecidable`)
        pairs_decided: u64,
        /// pairs refuted by the GCD divisibility layer
        gcd_hits: u64,
        /// pairs refuted by the Banerjee bounds layer
        banerjee_hits: u64,
        /// pairs whose verdict needed the SAT layer
        sat_decided: u64,
        /// dependent pairs widened past the distance cap
        widened_to_any: u64,
        /// certificates self-checked clean
        certs_checked: u64,
    },
    /// The loop was scheduled and emitted.
    Scheduled {
        /// achieved initiation interval
        ii: i64,
        /// the paper's cycle-based MII, for comparison
        cycles_mii: Option<i64>,
        /// MVE kernel unroll factor (1 = none)
        unroll: i64,
        /// pipeline depth in iterations
        max_offset: i64,
    },
    /// The loop was left unchanged; the structured reason.
    Rejected {
        /// why SLMS declined
        error: SlmsError,
    },
    /// The static schedule verifier (`slc-verify`) checked this loop's
    /// emitted prologue/kernel/epilogue and discharged every obligation.
    Verified {
        /// number of obligations proved (dependence edges × distances,
        /// renaming residues, instance placements, …)
        obligations: usize,
    },
    /// The static schedule verifier found a violation; `rule` names the
    /// violated placement/dependence/renaming rule and `detail` carries the
    /// rendered evidence.
    VerifyViolation {
        /// short rule name (e.g. `dependence`, `mve-residue`)
        rule: String,
        /// rendered evidence for the violation
        detail: String,
    },
}

impl DiagEvent {
    /// Machine-readable rendering with stable field names — the `"trace"`
    /// entries of `slc explain --json`. Every object carries an `"event"`
    /// discriminator (`filter_checked`, `if_converted`, `symbolic_guard`,
    /// `mii_attempt`, `decomposed`, `exact_scheduled`, `scheduled`,
    /// `rejected`, `verified`, `verify_violation`); the remaining members
    /// are the event's computed numbers under the same names as the
    /// struct fields.
    pub fn to_json(&self) -> Json {
        match self {
            DiagEvent::FilterChecked { verdict } => {
                let j = Json::obj()
                    .field("event", "filter_checked")
                    .field("passed", verdict.passed());
                match verdict {
                    FilterVerdict::Pass => j.field("verdict", "pass"),
                    FilterVerdict::MemRefRatio { ratio, threshold } => j
                        .field("verdict", "memref_ratio")
                        .field("ratio", *ratio)
                        .field("threshold", *threshold),
                }
            }
            DiagEvent::IfConverted => Json::obj().field("event", "if_converted"),
            DiagEvent::SymbolicGuard => Json::obj().field("event", "symbolic_guard"),
            DiagEvent::MiiAttempt {
                round,
                n_mis,
                placement_ii,
            } => Json::obj()
                .field("event", "mii_attempt")
                .field("round", *round)
                .field("n_mis", *n_mis)
                .field("placement_ii", *placement_ii),
            DiagEvent::Decomposed { round, temp } => Json::obj()
                .field("event", "decomposed")
                .field("round", *round)
                .field("temp", temp.as_str()),
            DiagEvent::ExactScheduled {
                ii,
                heuristic_ii,
                reordered,
                warm_start,
                sat_decisions,
                sat_conflicts,
                sat_propagations,
                sat_restarts,
                proof_clauses,
            } => Json::obj()
                .field("event", "exact_scheduled")
                .field("ii", *ii)
                .field("heuristic_ii", *heuristic_ii)
                .field("reordered", *reordered)
                .field("warm_start", *warm_start)
                .field("sat_decisions", *sat_decisions)
                .field("sat_conflicts", *sat_conflicts)
                .field("sat_propagations", *sat_propagations)
                .field("sat_restarts", *sat_restarts)
                .field("proof_clauses", *proof_clauses),
            DiagEvent::DepsAnalyzed {
                pairs_decided,
                gcd_hits,
                banerjee_hits,
                sat_decided,
                widened_to_any,
                certs_checked,
            } => Json::obj()
                .field("event", "deps_analyzed")
                .field("pairs_decided", *pairs_decided)
                .field("gcd_hits", *gcd_hits)
                .field("banerjee_hits", *banerjee_hits)
                .field("sat_decided", *sat_decided)
                .field("widened_to_any", *widened_to_any)
                .field("certs_checked", *certs_checked),
            DiagEvent::Scheduled {
                ii,
                cycles_mii,
                unroll,
                max_offset,
            } => Json::obj()
                .field("event", "scheduled")
                .field("ii", *ii)
                .field("cycles_mii", *cycles_mii)
                .field("unroll", *unroll)
                .field("max_offset", *max_offset),
            DiagEvent::Rejected { error } => Json::obj()
                .field("event", "rejected")
                .field("error", slms_error_json(error)),
            DiagEvent::Verified { obligations } => Json::obj()
                .field("event", "verified")
                .field("obligations", *obligations),
            DiagEvent::VerifyViolation { rule, detail } => Json::obj()
                .field("event", "verify_violation")
                .field("rule", rule.as_str())
                .field("detail", detail.as_str()),
        }
    }
}

/// Machine-readable rejection reason: a stable `"kind"` discriminator plus
/// the human `"message"` (and the structured numbers where the variant
/// carries them).
pub fn slms_error_json(e: &SlmsError) -> Json {
    let kind = match e {
        SlmsError::NotAForLoop => "not_a_for_loop",
        SlmsError::Filtered(_) => "filtered",
        SlmsError::Analysis(_) => "analysis",
        SlmsError::VarWrittenInBody => "var_written_in_body",
        SlmsError::NoValidIi => "no_valid_ii",
        SlmsError::SymbolicBounds => "symbolic_bounds",
        SlmsError::TooFewIterations { .. } => "too_few_iterations",
        SlmsError::UnrollTooLarge(_) => "unroll_too_large",
        SlmsError::InvalidIi { .. } => "invalid_ii",
    };
    let j = Json::obj()
        .field("kind", kind)
        .field("message", e.to_string());
    match e {
        SlmsError::TooFewIterations { trip, needed } => {
            j.field("trip", *trip).field("needed", *needed)
        }
        SlmsError::UnrollTooLarge(u) => j.field("unroll", *u),
        SlmsError::InvalidIi { ii, n_mis } => j.field("ii", *ii).field("n_mis", *n_mis),
        _ => j,
    }
}

/// Machine-readable rendering of one loop outcome — the per-loop objects
/// `slc explain --json` emits (one JSON object per loop). Stable members:
/// `loop` ([`slc_ast::LoopId::to_json`]), `transformed`, `report` (schedule
/// statistics, `null` when rejected), `error` (structured reason, `null`
/// when transformed), `trace` (the [`DiagEvent::to_json`] list). When the
/// exact scheduler ran, `report` additionally carries `scheduler`
/// (`"exact"`), `heuristic_ii`, `exact_order`, and a `certificate`
/// summary; heuristic runs emit byte-identical JSON to before the exact
/// scheduler existed.
pub fn loop_outcome_json(o: &LoopOutcome) -> Json {
    let (report, error) = match &o.result {
        Ok(r) => {
            let renamed: Vec<Json> = r
                .renamed
                .iter()
                .map(|(var, versions)| {
                    Json::obj()
                        .field("var", var.as_str())
                        .field("versions", versions.clone())
                })
                .collect();
            let expanded: Vec<Json> = r
                .expanded_arrays
                .iter()
                .map(|(var, arr)| {
                    Json::obj()
                        .field("var", var.as_str())
                        .field("array", arr.as_str())
                })
                .collect();
            let report = Json::obj()
                .field("ii", r.ii)
                .field("cycles_mii", r.cycles_mii)
                .field("n_mis", r.n_mis)
                .field("unroll", r.unroll)
                .field("max_offset", r.max_offset)
                .field("if_converted", r.if_converted)
                .field("decomposed", r.decomposed.clone())
                .field("renamed", renamed)
                .field("expanded_arrays", expanded);
            let report = match (&r.certificate, &r.exact_order, r.heuristic_ii) {
                (Some(cert), Some(order), Some(heuristic_ii)) => report
                    .field("scheduler", "exact")
                    .field("heuristic_ii", heuristic_ii)
                    .field("exact_order", order.clone())
                    .field(
                        "certificate",
                        Json::obj()
                            .field("ii", cert.ii)
                            .field("mii", cert.mii)
                            .field("n_mis", cert.n_mis)
                            .field(
                                "proof_clauses",
                                cert.proof.as_ref().map(|p| p.clauses.len() as i64),
                            ),
                    ),
                _ => report,
            };
            (report, Json::Null)
        }
        Err(e) => (Json::Null, slms_error_json(e)),
    };
    Json::obj()
        .field("loop", o.id.to_json())
        .field("transformed", o.result.is_ok())
        .field("report", report)
        .field("error", error)
        .field("trace", Json::arr(o.trace.iter().map(DiagEvent::to_json)))
}

impl std::fmt::Display for DiagEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiagEvent::FilterChecked { verdict } => match verdict {
                FilterVerdict::Pass => write!(f, "filter: {verdict}"),
                _ => write!(f, "filter: REJECTED — {verdict}"),
            },
            DiagEvent::IfConverted => write!(f, "if-conversion: compound conditional flattened"),
            DiagEvent::SymbolicGuard => {
                write!(f, "symbolic bounds: emitting runtime-guarded pipeline")
            }
            DiagEvent::MiiAttempt {
                round,
                n_mis,
                placement_ii,
            } => match placement_ii {
                Some(ii) => write!(f, "MII round {round}: {n_mis} MIs → placement II = {ii}"),
                None => write!(f, "MII round {round}: {n_mis} MIs → no valid II < {n_mis}"),
            },
            DiagEvent::Decomposed { round, temp } => {
                write!(
                    f,
                    "decomposition round {round}: split via temporary `{temp}`"
                )
            }
            DiagEvent::ExactScheduled {
                ii,
                heuristic_ii,
                reordered,
                sat_conflicts,
                proof_clauses,
                ..
            } => {
                write!(f, "exact: II = {ii} proven optimal")?;
                if *reordered {
                    write!(f, " by reordering (heuristic II = {heuristic_ii})")?;
                } else {
                    write!(f, " (heuristic order kept)")?;
                }
                match proof_clauses {
                    0 => write!(f, ", II = MII"),
                    c => write!(
                        f,
                        ", {c}-clause refutation of II − 1 ({sat_conflicts} conflicts)"
                    ),
                }
            }
            DiagEvent::DepsAnalyzed {
                pairs_decided,
                gcd_hits,
                banerjee_hits,
                sat_decided,
                widened_to_any,
                certs_checked,
            } => {
                write!(
                    f,
                    "deps: {pairs_decided} pairs decided (gcd {gcd_hits}, banerjee \
                     {banerjee_hits}, sat {sat_decided}), {widened_to_any} widened, \
                     {certs_checked} certificates self-checked"
                )
            }
            DiagEvent::Scheduled {
                ii,
                cycles_mii,
                unroll,
                max_offset,
            } => {
                write!(f, "scheduled: II = {ii}")?;
                match cycles_mii {
                    Some(c) => write!(f, " (cycle-MII {c})")?,
                    None => write!(f, " (cycle-MII infeasible)")?,
                }
                write!(f, ", depth {max_offset}, unroll ×{unroll}")
            }
            DiagEvent::Rejected { error } => write!(f, "rejected: {error}"),
            DiagEvent::Verified { obligations } => {
                write!(f, "verified: {obligations} static obligations discharged")
            }
            DiagEvent::VerifyViolation { rule, detail } => {
                write!(f, "VERIFY VIOLATION [{rule}]: {detail}")
            }
        }
    }
}

/// Render the decision trace of one loop outcome as an indented block.
pub fn render_loop_trace(outcome: &LoopOutcome) -> String {
    let mut out = format!("{}\n", outcome.id.verbose());
    for ev in &outcome.trace {
        out.push_str(&format!("  {ev}\n"));
    }
    match &outcome.result {
        Ok(r) => out.push_str(&format!(
            "  ⇒ transformed: II = {} over {} MIs{}{}\n",
            r.ii,
            r.n_mis,
            if r.if_converted { ", if-converted" } else { "" },
            if r.decomposed.is_empty() {
                String::new()
            } else {
                format!(", decomposed {:?}", r.decomposed)
            },
        )),
        Err(e) => out.push_str(&format!("  ⇒ left unchanged: {e}\n")),
    }
    out
}

/// A typed sidecar artifact a pass attaches to its diagnostics — data
/// that is *about* the transformation but not part of the transformed
/// program, carried alongside the loop outcomes so downstream consumers
/// (the verifier, the batch gap report) need not re-run the pass.
/// Historically passes had no such channel and stuffed everything into
/// free-form `notes`; artifacts keep the payload structured.
#[derive(Debug, Clone, PartialEq)]
pub enum PassArtifact {
    /// An II-optimality certificate the exact scheduler produced for one
    /// loop, with the heuristic II for optimality-gap computation.
    Certificate {
        /// the loop the certificate covers
        loop_id: slc_ast::LoopId,
        /// II of the heuristic (source-order) placement
        heuristic_ii: i64,
        /// the re-checkable certificate
        certificate: slc_exact::OptimalityCertificate,
    },
}

impl PassArtifact {
    /// The optimality gap this artifact witnesses (heuristic II − proven
    /// optimal II; 0 = the heuristic was optimal).
    pub fn optimality_gap(&self) -> i64 {
        match self {
            PassArtifact::Certificate {
                heuristic_ii,
                certificate,
                ..
            } => heuristic_ii - certificate.ii,
        }
    }
}

/// Diagnostics of one pass over the program.
#[derive(Debug, Clone, Default)]
pub struct PassDiag {
    /// pass name as rendered in the plan (e.g. `slms`, `fuse:0+1`)
    pub pass: String,
    /// per-loop outcomes with their decision traces (SLMS passes)
    pub loops: Vec<LoopOutcome>,
    /// free-form structural notes (transform passes)
    pub notes: Vec<String>,
    /// typed sidecar artifacts (certificates, …)
    pub artifacts: Vec<PassArtifact>,
    /// wall clock spent inside the pass (non-deterministic; sidecar only)
    pub elapsed_ns: u64,
}

/// Collector for the diagnostics of a whole pass plan.
#[derive(Debug, Clone, Default)]
pub struct DiagSink {
    /// one entry per executed pass, in plan order
    pub passes: Vec<PassDiag>,
}

impl DiagSink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start recording a pass; returns the index for [`DiagSink::pass_mut`].
    pub fn begin_pass(&mut self, name: impl Into<String>) -> usize {
        self.passes.push(PassDiag {
            pass: name.into(),
            ..PassDiag::default()
        });
        self.passes.len() - 1
    }

    /// Mutable access to a pass diag opened by [`DiagSink::begin_pass`].
    pub fn pass_mut(&mut self, idx: usize) -> &mut PassDiag {
        &mut self.passes[idx]
    }

    /// All loop outcomes across every pass, in execution order.
    pub fn all_outcomes(&self) -> impl Iterator<Item = &LoopOutcome> {
        self.passes.iter().flat_map(|p| p.loops.iter())
    }

    /// Render the full human-readable decision trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.passes {
            out.push_str(&format!("── pass {} ──\n", p.pass));
            for n in &p.notes {
                out.push_str(&format!("  {n}\n"));
            }
            for o in &p.loops {
                out.push_str(&render_loop_trace(o));
            }
            if p.notes.is_empty() && p.loops.is_empty() {
                out.push_str("  (no loops visited)\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{slms_program, SlmsConfig};
    use slc_ast::parse_program;

    #[test]
    fn trace_records_filter_and_schedule() {
        let p = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
        )
        .unwrap();
        let (_, outcomes) = slms_program(&p, &SlmsConfig::default());
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert!(matches!(
            o.trace.first(),
            Some(DiagEvent::FilterChecked {
                verdict: FilterVerdict::Pass
            })
        ));
        assert!(o.trace.iter().any(|e| matches!(
            e,
            DiagEvent::MiiAttempt {
                round: 0,
                n_mis: 2,
                placement_ii: Some(1)
            }
        )));
        assert!(o
            .trace
            .iter()
            .any(|e| matches!(e, DiagEvent::Scheduled { ii: 1, .. })));
        let text = render_loop_trace(o);
        assert!(text.contains("loop#0"), "{text}");
        assert!(text.contains("placement II = 1"), "{text}");
    }

    #[test]
    fn filtered_loop_trace_carries_ratio() {
        let p = parse_program(
            "float X[8][8]; float CT; int k; int i; int j;\n\
             for (k = 0; k < 8; k++) { CT = X[k][i]; X[k][i] = X[k][j] * 2.0; X[k][j] = CT; }",
        )
        .unwrap();
        let (_, outcomes) = slms_program(&p, &SlmsConfig::default());
        let o = &outcomes[0];
        assert!(o.result.is_err());
        let text = render_loop_trace(o);
        assert!(text.contains("memory-ref ratio"), "{text}");
        assert!(text.contains("0.85"), "{text}");
    }

    #[test]
    fn loop_outcome_json_stable_fields() {
        let p = parse_program(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
        )
        .unwrap();
        let (_, outcomes) = slms_program(&p, &SlmsConfig::default());
        let j = loop_outcome_json(&outcomes[0]);
        let text = j.to_string();
        // round-trips through the parser
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(
            j.get("loop")
                .and_then(|l| l.get("var"))
                .and_then(Json::as_str),
            Some("i")
        );
        assert_eq!(j.get("transformed"), Some(&Json::Bool(true)));
        assert_eq!(
            j.get("report")
                .and_then(|r| r.get("ii"))
                .and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(j.get("error"), Some(&Json::Null));
        let trace = j.get("trace").and_then(Json::as_arr).unwrap();
        assert_eq!(
            trace[0].get("event").and_then(Json::as_str),
            Some("filter_checked")
        );
        assert!(trace
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("scheduled")));

        // a rejected loop carries the structured error with a kind
        let bad = parse_program(
            "float X[8][8]; float CT; int k; int i; int j;\n\
             for (k = 0; k < 8; k++) { CT = X[k][i]; X[k][i] = X[k][j] * 2.0; X[k][j] = CT; }",
        )
        .unwrap();
        let (_, outcomes) = slms_program(&bad, &SlmsConfig::default());
        let j = loop_outcome_json(&outcomes[0]);
        assert_eq!(j.get("transformed"), Some(&Json::Bool(false)));
        assert_eq!(
            j.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("filtered")
        );
        assert_eq!(j.get("report"), Some(&Json::Null));
    }

    #[test]
    fn decomposition_rounds_traced() {
        let p = parse_program(
            "float A[64]; int i;\n\
             for (i = 2; i < 60; i++) A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];",
        )
        .unwrap();
        let cfg = SlmsConfig {
            apply_filter: false,
            ..SlmsConfig::default()
        };
        let (_, outcomes) = slms_program(&p, &cfg);
        let o = &outcomes[0];
        assert!(o.result.is_ok());
        let attempts = o
            .trace
            .iter()
            .filter(|e| matches!(e, DiagEvent::MiiAttempt { .. }))
            .count();
        let splits = o
            .trace
            .iter()
            .filter(|e| matches!(e, DiagEvent::Decomposed { .. }))
            .count();
        assert!(splits >= 1, "{:?}", o.trace);
        assert_eq!(attempts, splits + 1, "{:?}", o.trace);
    }
}
