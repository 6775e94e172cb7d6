//! Renders the SAT solver's trajectory over a fixed instance set: random
//! 3-CNF near the satisfiability threshold, pigeonhole formulas and exact
//! scheduler solves on random dependence sets, plus the corpus totals of
//! the exact scheduler's `ExactScheduled` events. Every line is a pure
//! function of the solver's search — outcome, model or core, all five
//! `Stats` fields, the minimized core — so any change to decisions,
//! propagation order, learned clauses or restarts shows up as a diff
//! against `crates/sat/tests/golden/trajectory.txt`.
//!
//! Shared by the tier-1 test `tests/sat_trajectory.rs` and the example
//! that regenerates the golden:
//! `cargo run --release -q --example sat_trajectory > crates/sat/tests/golden/trajectory.txt`.

use slc::ast::parse_program;
use slc::exact::{Dep, ExactScheduler};
use slc::sat::{minimize_core, Lit, Outcome, Solver};
use slc::slms::{slms_program, DiagEvent, SchedulerKind, SlmsConfig};
use std::fmt::Write;

/// SplitMix64: a local, fixed-seed generator, so the instances never
/// depend on a library's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn ids(v: &[usize]) -> String {
    let s: Vec<String> = v.iter().map(usize::to_string).collect();
    format!("[{}]", s.join(","))
}

/// Solve `clauses` and append the outcome, the model or core, the five
/// `Stats` fields and (when unsatisfiable) the minimized core.
fn record(out: &mut String, clauses: &[Vec<Lit>]) {
    let mut s = Solver::new();
    for c in clauses {
        s.add_clause(c);
    }
    let outcome = s.solve();
    match &outcome {
        Outcome::Sat(m) => {
            let bits: String = m.iter().map(|&b| if b { '1' } else { '0' }).collect();
            writeln!(out, "  sat model={bits}").unwrap();
        }
        Outcome::Unsat(core) => writeln!(out, "  unsat core={}", ids(core)).unwrap(),
    }
    let st = s.stats();
    writeln!(
        out,
        "  stats decisions={} propagations={} conflicts={} restarts={} learned={}",
        st.decisions, st.propagations, st.conflicts, st.restarts, st.learned
    )
    .unwrap();
    if let Outcome::Unsat(core) = &outcome {
        writeln!(out, "  min_core={}", ids(&minimize_core(clauses, core))).unwrap();
    }
}

/// Uniform random 3-CNF with `m` clauses over `nv` variables (three
/// distinct variables per clause).
fn random_3cnf(rng: &mut Rng, nv: usize, m: usize) -> Vec<Vec<Lit>> {
    (0..m)
        .map(|_| {
            let mut vars: Vec<usize> = Vec::new();
            while vars.len() < 3 {
                let v = rng.below(nv);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| {
                    if rng.next() & 1 == 1 {
                        Lit::neg(v)
                    } else {
                        Lit::pos(v)
                    }
                })
                .collect()
        })
        .collect()
}

/// PHP(n+1, n): n+1 pigeons, n holes, variable `i·n + j` = pigeon `i`
/// sits in hole `j`.
fn pigeonhole(n: usize) -> Vec<Vec<Lit>> {
    let p = |i: usize, j: usize| i * n + j;
    let mut clauses: Vec<Vec<Lit>> = (0..=n)
        .map(|i| (0..n).map(|j| Lit::pos(p(i, j))).collect())
        .collect();
    for j in 0..n {
        for i1 in 0..=n {
            for i2 in i1 + 1..=n {
                clauses.push(vec![Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
            }
        }
    }
    clauses
}

/// A random dependence set over `n` MIs: forward edges at any distance,
/// backward and self edges at distance ≥ 1.
fn random_deps(rng: &mut Rng, n: usize) -> Vec<Dep> {
    let edges = n + rng.below(2 * n);
    (0..edges)
        .map(|_| {
            let (from, to) = (rng.below(n), rng.below(n));
            let dist = if from < to {
                rng.below(3) as i64
            } else {
                1 + rng.below(2) as i64
            };
            Dep {
                from,
                to,
                dist: Some(dist),
            }
        })
        .collect()
}

/// Exact-scheduler section: one line per dependence set with the
/// heuristic (identity-order) II it starts from and the full result.
fn exact_section(out: &mut String) {
    let mut rng = Rng(0x5eed_e8ac);
    let mut proofs = 0;
    for n in 4..=12 {
        for k in 0..4 {
            let deps = random_deps(&mut rng, n);
            let width = (k == 3).then_some(2);
            let sched = ExactScheduler {
                max_row_width: width,
            };
            // the heuristic's II already meets the row-width bound
            let floor = width.map_or(1, |w| n.div_ceil(w)) as i64;
            let heuristic =
                (floor..n as i64).find(|&ii| slc::exact::identity_feasible(&deps, n, ii));
            writeln!(out, "exact n={n} k={k} deps={deps:?}").unwrap();
            let Some(max_ii) = heuristic else {
                writeln!(out, "  identity infeasible at every II").unwrap();
                continue;
            };
            let r = sched.solve(&deps, n, max_ii);
            if r.as_ref().is_some_and(|r| r.certificate.proof.is_some()) {
                proofs += 1;
            }
            writeln!(out, "  max_ii={max_ii} result={r:?}").unwrap();
        }
    }
    writeln!(out, "exact instances with a refutation: {proofs}").unwrap();
}

/// Totals of the `ExactScheduled` events over one exact-scheduled sweep
/// of the workload corpus.
fn corpus_section(out: &mut String) {
    let cfg = SlmsConfig {
        scheduler: SchedulerKind::Exact,
        ..SlmsConfig::default()
    };
    let (mut decisions, mut conflicts, mut propagations, mut restarts, mut proof_clauses) =
        (0, 0, 0, 0, 0);
    for w in slc::workloads::all() {
        let prog = parse_program(w.source).expect("corpus parses");
        let (_, outcomes) = slms_program(&prog, &cfg);
        for ev in outcomes.iter().flat_map(|o| &o.trace) {
            if let DiagEvent::ExactScheduled {
                sat_decisions,
                sat_conflicts,
                sat_propagations,
                sat_restarts,
                proof_clauses: pc,
                ..
            } = ev
            {
                decisions += sat_decisions;
                conflicts += sat_conflicts;
                propagations += sat_propagations;
                restarts += sat_restarts;
                proof_clauses += pc;
            }
        }
    }
    writeln!(
        out,
        "corpus decisions={decisions} conflicts={conflicts} propagations={propagations} \
         restarts={restarts} proof_clauses={proof_clauses}"
    )
    .unwrap();
}

/// The full trajectory text.
pub fn render() -> String {
    let mut out = String::new();
    let mut rng = Rng(0x3c9f_2601);
    for nv in [20, 30, 40, 50, 60] {
        // 4.26 clauses per variable: the 3-SAT phase transition
        let m = (nv * 426 + 50) / 100;
        for k in 0..6 {
            writeln!(out, "cnf3 nv={nv} m={m} k={k}").unwrap();
            let clauses = random_3cnf(&mut rng, nv, m);
            record(&mut out, &clauses);
        }
    }
    for n in 3..=6 {
        writeln!(out, "php pigeons={} holes={n}", n + 1).unwrap();
        record(&mut out, &pigeonhole(n));
    }
    exact_section(&mut out);
    corpus_section(&mut out);
    out
}
