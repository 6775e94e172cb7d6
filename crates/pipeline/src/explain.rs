//! Rendering of pass-plan decision traces — the engine behind `slc explain`.
//!
//! The paper's SLC is an interactive tool: the user applies a
//! transformation and inspects what happened. `slc explain` is the batch
//! form of that inspection — it runs a [`PassPlan`] over a
//! program and prints, for every loop, the full decision trace: the §4
//! filter verdict with its measured memory-ref ratio, each MII /
//! decomposition round, and the final II (or the structured reason the
//! loop was left alone).

use crate::passes::{PassManager, PassPlan};
use slc_ast::parse_program;
use slc_core::{loop_outcome_json, SlmsConfig};
use slc_trace::Json;
use slc_workloads::Workload;

/// Run `plan` over `src` and render the per-loop decision trace. On a hard
/// failure (parse error, structural transform error) the rendered text
/// reports it — `explain` never panics on a valid plan over any workload.
pub fn explain_source(src: &str, plan: &PassPlan, cfg: &SlmsConfig) -> String {
    let prog = match parse_program(src) {
        Ok(p) => p,
        Err(e) => return format!("plan: {plan}\nparse error: {e}\n"),
    };
    let pm = PassManager::new(cfg.clone());
    match pm.run(&prog, plan) {
        Ok((out, sink)) => {
            let mut text = format!("plan: {plan}\n");
            text.push_str(&sink.render());
            let total: usize = sink.all_outcomes().count();
            let transformed: usize = sink.all_outcomes().filter(|o| o.result.is_ok()).count();
            let n_passes = sink.passes.len();
            text.push_str(&format!(
                "summary: {n_passes} pass(es), {transformed}/{total} loop(s) pipelined, \
                 {} statement(s) in output\n",
                out.stmts.len()
            ));
            text
        }
        Err(e) => format!("plan: {plan}\nplan failed: {e}\n"),
    }
}

/// Machine-readable `explain`: run `plan` over `src` and emit one compact
/// JSON object **per loop** (JSONL), each carrying the stable fields
/// `workload` (null for raw sources), `plan`, `pass`, then the
/// [`loop_outcome_json`] schema (`loop` / `transformed` / `report` /
/// `error` / `trace`). Hard failures (parse error, structural transform
/// error) become a single line with `plan` and `error` fields instead —
/// like [`explain_source`], this never panics on a valid plan.
pub fn explain_source_json(src: &str, plan: &PassPlan, cfg: &SlmsConfig) -> String {
    render_lines(explain_json_lines(None, src, plan, cfg))
}

/// One JSONL line per loop of one named workload (the `workload` field
/// carries its name; see [`explain_source_json`] for the schema).
pub fn explain_workload_json(w: &Workload, plan: &PassPlan, cfg: &SlmsConfig) -> String {
    render_lines(explain_json_lines(Some(w), w.source, plan, cfg))
}

/// JSONL traces for every workload in every suite (`slc explain --all
/// --json`).
pub fn explain_all_json(plan: &PassPlan, cfg: &SlmsConfig) -> String {
    let mut out = String::new();
    for w in slc_workloads::all() {
        out.push_str(&explain_workload_json(&w, plan, cfg));
    }
    out
}

fn render_lines(lines: Vec<Json>) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

fn explain_json_lines(
    w: Option<&Workload>,
    src: &str,
    plan: &PassPlan,
    cfg: &SlmsConfig,
) -> Vec<Json> {
    let head = |mut obj: Json| -> Json {
        obj = match w {
            Some(w) => obj
                .field("workload", w.name)
                .field("suite", w.suite.to_string()),
            None => obj.field("workload", Json::Null),
        };
        obj.field("plan", plan.to_string())
    };
    let prog = match parse_program(src) {
        Ok(p) => p,
        Err(e) => return vec![head(Json::obj()).field("error", format!("parse: {e}"))],
    };
    let pm = PassManager::new(cfg.clone());
    match pm.run(&prog, plan) {
        Ok((_, sink)) => {
            let mut lines = Vec::new();
            for pd in &sink.passes {
                for o in &pd.loops {
                    let mut line = head(Json::obj()).field("pass", pd.pass.as_str());
                    if let Json::Obj(fields) = loop_outcome_json(o) {
                        for (k, v) in fields {
                            line = line.field(&k, v);
                        }
                    }
                    lines.push(line);
                }
            }
            lines
        }
        Err(e) => vec![head(Json::obj()).field("error", format!("plan: {e}"))],
    }
}

/// Render the decision trace of one named workload.
pub fn explain_workload(w: &Workload, plan: &PassPlan, cfg: &SlmsConfig) -> String {
    format!(
        "═══ {} [{}] ═══\n{}",
        w.name,
        w.suite,
        explain_source(w.source, plan, cfg)
    )
}

/// Render traces for every workload in every suite (the `slc explain --all`
/// mode, and the guarantee the integration tests pin down: no loop in any
/// suite panics the explainer).
pub fn explain_all(plan: &PassPlan, cfg: &SlmsConfig) -> String {
    let mut out = String::new();
    for w in slc_workloads::all() {
        out.push_str(&explain_workload(&w, plan, cfg));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_reports_filter_ratio_or_schedule() {
        let plan = PassPlan::slms_only();
        let cfg = SlmsConfig::default();
        let text = explain_source(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
            &plan,
            &cfg,
        );
        assert!(text.contains("── pass slms ──"), "{text}");
        assert!(text.contains("scheduled: II = 1"), "{text}");
        assert!(
            text.contains("summary: 1 pass(es), 1/1 loop(s) pipelined"),
            "{text}"
        );
    }

    #[test]
    fn explain_json_emits_one_parsable_object_per_loop() {
        let plan = PassPlan::slms_only();
        let cfg = SlmsConfig::default();
        let text = explain_source_json(
            "float A[32]; float B[32]; float s; float t; int i;\n\
             for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
            &plan,
            &cfg,
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "{text}");
        let obj = Json::parse(lines[0]).unwrap();
        assert_eq!(obj.get("workload"), Some(&Json::Null));
        assert_eq!(obj.get("plan").and_then(Json::as_str), Some("slms"));
        assert_eq!(obj.get("pass").and_then(Json::as_str), Some("slms"));
        assert_eq!(obj.get("transformed"), Some(&Json::Bool(true)));
        let report = obj.get("report").unwrap();
        assert_eq!(report.get("ii").and_then(Json::as_i64), Some(1));
        let trace = obj.get("trace").and_then(Json::as_arr).unwrap();
        assert!(!trace.is_empty());

        // hard failures still produce exactly one stable line
        let failed = explain_source_json("int x; x = ;", &plan, &cfg);
        let obj = Json::parse(failed.lines().next().unwrap()).unwrap();
        assert!(obj
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("parse:"));
    }

    #[test]
    fn explain_all_json_lines_all_parse_and_name_workloads() {
        let plan = PassPlan::slms_only();
        let cfg = SlmsConfig::default();
        let text = explain_all_json(&plan, &cfg);
        assert!(!text.is_empty());
        for line in text.lines() {
            let obj = Json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(obj.get("workload").and_then(Json::as_str).is_some());
            assert!(obj.get("loop").is_some() || obj.get("error").is_some());
        }
    }

    #[test]
    fn explain_survives_hard_plan_failure() {
        let plan = PassPlan::parse("fuse:0+7,slms").unwrap();
        let cfg = SlmsConfig::default();
        let text = explain_source(
            "float A[8]; int i; for (i = 0; i < 4; i++) A[i] = 1.0;",
            &plan,
            &cfg,
        );
        assert!(text.contains("plan failed: pass fuse:0+7"), "{text}");
    }
}
