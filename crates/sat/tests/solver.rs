//! SAT solver correctness suite (ISSUE 6 satellite): the CDCL solver is
//! property-tested against the exhaustive model enumerator on random
//! small CNF, and its internals (unit propagation, conflict analysis,
//! unsat cores) are pinned on hand-built instances.

use proptest::prelude::*;
use slc_sat::{
    brute_force, check_model, minimize_core, minimize_core_with, solve_subset, Lit, Outcome, Solver,
};

/// A random clause over `num_vars` variables with 1–4 literals.
fn clause_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..num_vars, any::<bool>()), 1..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(v, neg)| if neg { Lit::neg(v) } else { Lit::pos(v) })
            .collect()
    })
}

fn cnf_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Vec<Lit>>> {
    proptest::collection::vec(clause_strategy(num_vars), 1..40)
}

/// sat/unsat agreement with the brute-force enumerator on CNF of up to 20
/// variables; models returned by the solver must actually satisfy the
/// formula, and unsat cores must be unsatisfiable subsets.
fn agrees_with_brute_force(clauses: &[Vec<Lit>]) -> TestCaseResult {
    let reference = brute_force(20, clauses);
    let mut s = Solver::new();
    for c in clauses {
        s.add_clause(c);
    }
    match s.solve() {
        Outcome::Sat(mut model) => {
            prop_assert!(
                reference.is_some(),
                "solver SAT but enumerator found no model"
            );
            model.resize(20, false);
            prop_assert!(
                check_model(&model, clauses),
                "solver model does not satisfy CNF"
            );
        }
        Outcome::Unsat(core) => {
            prop_assert!(
                reference.is_none(),
                "solver UNSAT but enumerator found a model"
            );
            // the core must itself be an unsatisfiable subset
            let subset: Vec<Vec<Lit>> = core.iter().map(|&i| clauses[i].clone()).collect();
            prop_assert!(
                brute_force(20, &subset).is_none(),
                "unsat core is satisfiable"
            );
        }
    }
    Ok(())
}

/// `solve_subset` and `minimize_core` preserve unsatisfiability and
/// produce cores in the original id space, minimized from two starts: the
/// solver's own core, and the whole clause set. The solver's cores on
/// these instances are nearly always minimal already, so only the second
/// start makes the deletion loop replace its core with a smaller
/// unsatisfiable trial's.
fn minimized_core_is_minimal(clauses: &[Vec<Lit>]) -> TestCaseResult {
    let mut s = Solver::new();
    for c in clauses {
        s.add_clause(c);
    }
    if let Outcome::Unsat(core) = s.solve() {
        minimizes_to_a_minimal_subset(clauses, &core)?;
        minimizes_to_a_minimal_subset(clauses, &(0..clauses.len()).collect::<Vec<_>>())?;
    }
    Ok(())
}

/// `minimize_core` from the unsatisfiable `start` keeps a subset of it
/// that is unsatisfiable and loses that on dropping any one clause.
fn minimizes_to_a_minimal_subset(clauses: &[Vec<Lit>], start: &[usize]) -> TestCaseResult {
    let min = minimize_core(clauses, start);
    prop_assert!(min.iter().all(|i| start.contains(i)), "minimized core grew");
    let subset: Vec<Vec<Lit>> = min.iter().map(|&i| clauses[i].clone()).collect();
    prop_assert!(
        brute_force(8, &subset).is_none(),
        "minimized core is satisfiable"
    );
    // minimality: dropping any single clause makes it satisfiable
    for k in 0..min.len() {
        let mut trial = min.clone();
        trial.remove(k);
        prop_assert!(
            solve_subset(clauses, &trial).is_sat(),
            "core is not minimal: clause {} is redundant",
            min[k]
        );
    }
    Ok(())
}

/// `minimize_core_with` returns exactly `minimize_core`'s core whatever
/// its model finder answers: nothing, the trial's brute-force model, that
/// model with one variable flipped, a model cut to half length, or
/// all-true. The last three also answer unsatisfiable trials (from an
/// all-false guess), so a wrong or short model that settled a trial would
/// change the core. Minimization starts from the whole clause set: the
/// solver's own cores on these instances are nearly always minimal
/// already, and a minimal core has no unsatisfiable trial to get wrong.
/// One more finder checks what it is told: `dropped` is exactly the
/// working-core clause the trial leaves out, every model of the trial
/// falsifies it, and `new_core` is true exactly when the working core is
/// not the previous call's.
fn finders_never_change_the_core(clauses: &[Vec<Lit>]) -> TestCaseResult {
    if brute_force(8, clauses).is_some() {
        return Ok(());
    }
    let core: Vec<usize> = (0..clauses.len()).collect();
    let plain = minimize_core(clauses, &core);
    let model_of = |trial: &[usize]| {
        let subset: Vec<Vec<Lit>> = trial.iter().map(|&i| clauses[i].clone()).collect();
        brute_force(8, &subset)
    };
    let guess = |trial: &[usize]| model_of(trial).unwrap_or_else(|| vec![false; 8]);
    prop_assert_eq!(minimize_core_with(clauses, &core, |_, _, _| None), plain);
    prop_assert_eq!(
        minimize_core_with(clauses, &core, |trial, _, _| model_of(trial)),
        plain
    );
    prop_assert_eq!(
        minimize_core_with(clauses, &core, |trial, _, _| {
            let mut m = guess(trial);
            m[trial.len() % 8] ^= true;
            Some(m)
        }),
        plain
    );
    prop_assert_eq!(
        minimize_core_with(clauses, &core, |trial, _, _| Some(
            guess(trial)[..4].to_vec()
        )),
        plain
    );
    prop_assert_eq!(
        minimize_core_with(clauses, &core, |_, _, _| Some(vec![true; 8])),
        plain
    );

    // the working core is the trial plus `dropped`: replay it (a settled
    // trial keeps it, a refuted one takes the sub-solve's core, as
    // `minimize_core` does) and compare
    let mut working = core.clone();
    let mut previous: Option<Vec<usize>> = None;
    let mut bad: Option<String> = None;
    let told = minimize_core_with(clauses, &core, |trial, dropped, new_core| {
        if bad.is_none() && new_core != (previous.as_ref() != Some(&working)) {
            bad = Some(format!(
                "working core {working:?} after {previous:?}: told new_core = {new_core}"
            ));
        }
        previous = Some(working.clone());
        let missing: Vec<usize> = working
            .iter()
            .copied()
            .filter(|id| !trial.contains(id))
            .collect();
        if bad.is_none() && (missing != [dropped] || trial.len() + 1 != working.len()) {
            bad = Some(format!(
                "trial {trial:?} of working core {working:?}: told {dropped}, missing {missing:?}"
            ));
        }
        let model = model_of(trial);
        match &model {
            Some(m) if check_model(m, &clauses[dropped..=dropped]) && bad.is_none() => {
                bad = Some(format!(
                    "a model of trial {trial:?} satisfies dropped {dropped}"
                ));
            }
            Some(_) => {}
            None => {
                if let Outcome::Unsat(smaller) = solve_subset(clauses, trial) {
                    working = smaller;
                }
            }
        }
        model
    });
    prop_assert!(bad.is_none(), "{}", bad.unwrap_or_default());
    prop_assert_eq!(told, plain);
    Ok(())
}

/// PHP(n+1, n): n+1 pigeons, n holes, variable `i·n + j` = pigeon `i`
/// sits in hole `j`. Unsatisfiable, and hard for resolution.
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

/// The exact scheduler's `(n, ii)` placement encoding, as `slc-exact`
/// builds it: variable `k·n + p` = MI `k` at position `p`; each MI takes
/// at least one and at most one position, each position at most one MI,
/// and each dependence `(from, to, d)` forbids every position pair that
/// violates it (`p_from < p_to` at distance 0, `p_from − p_to ≤ ii·d`
/// otherwise). Edges are folded into range; a backward edge gets
/// distance ≥ 1 and a self edge is dropped, as in the scheduler.
fn placement_encoding(n: usize, ii: i64, edges: &[(usize, usize, i64)]) -> Vec<Vec<Lit>> {
    let x = |k: usize, p: usize| k * n + p;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for k in 0..n {
        clauses.push((0..n).map(|p| Lit::pos(x(k, p))).collect());
        for p in 0..n {
            for q in p + 1..n {
                clauses.push(vec![Lit::neg(x(k, p)), Lit::neg(x(k, q))]);
            }
        }
    }
    for p in 0..n {
        for k1 in 0..n {
            for k2 in k1 + 1..n {
                clauses.push(vec![Lit::neg(x(k1, p)), Lit::neg(x(k2, p))]);
            }
        }
    }
    for &(from, to, d) in edges {
        let (from, to) = (from % n, to % n);
        if from == to {
            continue;
        }
        let d = if from < to { d } else { d.max(1) };
        for pu in 0..n {
            for pv in 0..n {
                let violating = if d == 0 {
                    pu >= pv
                } else {
                    pu as i64 - pv as i64 > ii * d
                };
                if violating {
                    clauses.push(vec![Lit::neg(x(from, pu)), Lit::neg(x(to, pv))]);
                }
            }
        }
    }
    clauses
}

/// One instance of the reuse differential: random 3-CNF over 30
/// variables from sparse to past the satisfiability threshold, a
/// pigeonhole formula, or an exact-scheduler placement encoding.
fn instance_strategy() -> impl Strategy<Value = Vec<Vec<Lit>>> {
    let lit = |(v, neg): (usize, bool)| if neg { Lit::neg(v) } else { Lit::pos(v) };
    prop_oneof![
        proptest::collection::vec(
            (
                (0..30usize, any::<bool>()),
                (0..30usize, any::<bool>()),
                (0..30usize, any::<bool>())
            ),
            10..140
        )
        .prop_map(move |cs| cs
            .into_iter()
            .map(|(a, b, c)| vec![lit(a), lit(b), lit(c)])
            .collect()),
        (2..6usize).prop_map(pigeonhole),
        (
            3..8usize,
            1..7i64,
            proptest::collection::vec((0..8usize, 0..8usize, 0..3i64), 2..16)
        )
            .prop_map(|(n, ii, edges)| placement_encoding(n, ii.min(n as i64 - 1), &edges)),
    ]
}

/// One [`Solver`] workspace, [`Solver::reset`] between instances, gives
/// every instance of a sequence the outcome (model or core) and all five
/// `Stats` fields a fresh [`Solver::new`] gives it. The instances differ
/// in variable and clause count, so the reset workspace is exercised with
/// more and with fewer variables and origin words than it last held.
fn reused_workspace_matches_fresh(instances: &[Vec<Vec<Lit>>]) -> TestCaseResult {
    let mut workspace = Solver::new();
    for (i, clauses) in instances.iter().enumerate() {
        workspace.reset();
        let mut fresh = Solver::new();
        for c in clauses {
            prop_assert_eq!(workspace.add_clause(c), fresh.add_clause(c));
        }
        prop_assert_eq!(workspace.num_vars(), fresh.num_vars());
        prop_assert_eq!(workspace.solve(), fresh.solve(), "instance {}", i);
        prop_assert_eq!(workspace.stats(), fresh.stats(), "instance {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn minimize_core_with_any_finder_equals_minimize_core(clauses in cnf_strategy(8)) {
        finders_never_change_the_core(&clauses)?;
    }

    #[test]
    fn cdcl_agrees_with_brute_force(clauses in cnf_strategy(20)) {
        agrees_with_brute_force(&clauses)?;
    }

    #[test]
    fn minimized_cores_stay_unsat(clauses in cnf_strategy(8)) {
        minimized_core_is_minimal(&clauses)?;
    }

    #[test]
    fn reset_workspace_solves_like_a_fresh_solver(
        instances in proptest::collection::vec(instance_strategy(), 1..6)
    ) {
        reused_workspace_matches_fresh(&instances)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

    /// The same properties over 20 000 cases each, for the CI long-run
    /// fuzz job (`cargo test --release -- --ignored`).
    #[test]
    #[ignore]
    fn cdcl_agrees_with_brute_force_long(clauses in cnf_strategy(20)) {
        agrees_with_brute_force(&clauses)?;
    }

    #[test]
    #[ignore]
    fn minimized_cores_stay_unsat_long(clauses in cnf_strategy(8)) {
        minimized_core_is_minimal(&clauses)?;
    }

    #[test]
    #[ignore]
    fn minimize_core_with_any_finder_equals_minimize_core_long(clauses in cnf_strategy(8)) {
        finders_never_change_the_core(&clauses)?;
    }

    #[test]
    #[ignore]
    fn reset_workspace_solves_like_a_fresh_solver_long(
        instances in proptest::collection::vec(instance_strategy(), 1..6)
    ) {
        reused_workspace_matches_fresh(&instances)?;
    }
}

/// Unit propagation alone solves a Horn-style chain: x0, x0→x1, x1→x2 …
/// with zero decisions.
#[test]
fn unit_propagation_solves_implication_chain() {
    let mut s = Solver::new();
    s.add_clause(&[Lit::pos(0)]);
    for v in 0..9 {
        s.add_clause(&[Lit::neg(v), Lit::pos(v + 1)]);
    }
    match s.solve() {
        Outcome::Sat(model) => assert!(model.iter().all(|&b| b)),
        Outcome::Unsat(_) => panic!("chain is satisfiable"),
    }
    assert_eq!(
        s.stats().decisions,
        0,
        "pure propagation needs no decisions"
    );
    assert!(s.stats().propagations >= 10);
}

/// Conflict analysis learns something on the classic 2-level conflict
/// instance and still reports SAT.
#[test]
fn conflict_analysis_learns_and_recovers() {
    // (x0 ∨ x1) (x0 ∨ ¬x1) force x0 after any x0=false branch;
    // (¬x0 ∨ x2) (¬x0 ∨ ¬x2 ∨ x3) then propagate the rest.
    let mut s = Solver::new();
    s.add_clause(&[Lit::pos(0), Lit::pos(1)]);
    s.add_clause(&[Lit::pos(0), Lit::neg(1)]);
    s.add_clause(&[Lit::neg(0), Lit::pos(2)]);
    s.add_clause(&[Lit::neg(0), Lit::neg(2), Lit::pos(3)]);
    match s.solve() {
        Outcome::Sat(model) => {
            assert!(model[0] && model[2] && model[3]);
        }
        Outcome::Unsat(_) => panic!("instance is satisfiable"),
    }
    // the default phase assigns false first, so x0=false must have
    // conflicted and been repaired by a learned unit
    assert!(s.stats().conflicts >= 1);
    assert!(s.stats().learned >= 1);
}

/// Unsat core on a hand-built instance: pigeonhole-free core among
/// irrelevant clauses. The relevant contradiction is x5 ∧ (¬x5 ∨ x6) ∧ ¬x6;
/// decoy clauses over other variables must not appear in the core.
#[test]
fn unsat_core_excludes_irrelevant_clauses() {
    let clauses: Vec<Vec<Lit>> = vec![
        vec![Lit::pos(0), Lit::pos(1)],              // 0: decoy
        vec![Lit::pos(5)],                           // 1: core
        vec![Lit::neg(2), Lit::pos(3)],              // 2: decoy
        vec![Lit::neg(5), Lit::pos(6)],              // 3: core
        vec![Lit::neg(6)],                           // 4: core
        vec![Lit::pos(4), Lit::neg(0), Lit::pos(2)], // 5: decoy
    ];
    let mut s = Solver::new();
    for c in &clauses {
        s.add_clause(c);
    }
    let core = match s.solve() {
        Outcome::Unsat(core) => core,
        Outcome::Sat(_) => panic!("instance is unsatisfiable"),
    };
    let min = minimize_core(&clauses, &core);
    assert_eq!(min, vec![1, 3, 4], "exact minimal core expected");
}

/// The core of a conflict discovered below decision level 0 (via learned
/// units) is still sound and minimal after minimization: XOR-style chain
/// with both parities blocked.
#[test]
fn unsat_core_minimality_on_xor_block() {
    // x0⊕x1 = 1 (clauses 0,1), x1⊕x2 = 1 (2,3), x0⊕x2 = 1 (4,5): odd
    // cycle — unsat; plus two decoys (6,7).
    let clauses: Vec<Vec<Lit>> = vec![
        vec![Lit::pos(0), Lit::pos(1)],
        vec![Lit::neg(0), Lit::neg(1)],
        vec![Lit::pos(1), Lit::pos(2)],
        vec![Lit::neg(1), Lit::neg(2)],
        vec![Lit::pos(0), Lit::pos(2)],
        vec![Lit::neg(0), Lit::neg(2)],
        vec![Lit::pos(3), Lit::pos(4)],
        vec![Lit::neg(3), Lit::pos(4)],
    ];
    let mut s = Solver::new();
    for c in &clauses {
        s.add_clause(c);
    }
    let core = match s.solve() {
        Outcome::Unsat(core) => core,
        Outcome::Sat(_) => panic!("odd XOR cycle is unsatisfiable"),
    };
    assert!(core.iter().all(|&i| i < 6), "decoys leaked into the core");
    let min = minimize_core(&clauses, &core);
    assert_eq!(min, vec![0, 1, 2, 3, 4, 5]);
    for k in 0..min.len() {
        let mut trial = min.clone();
        trial.remove(k);
        assert!(solve_subset(&clauses, &trial).is_sat());
    }
}

/// Determinism: identical instances yield identical models, cores, and
/// statistics.
#[test]
fn solver_is_deterministic() {
    let run = || {
        let mut s = Solver::new();
        let clauses = [
            vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)],
            vec![Lit::neg(0), Lit::pos(3)],
            vec![Lit::neg(1), Lit::neg(3)],
            vec![Lit::neg(2), Lit::pos(1)],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        (s.solve(), s.stats())
    };
    assert_eq!(run(), run());
}
