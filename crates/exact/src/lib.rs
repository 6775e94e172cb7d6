//! # slc-exact — exact modulo scheduling with optimality certificates
//!
//! The heuristic SLMS scheduler (`slc-core`) keeps the loop body in
//! source order and pays whatever II the fixed placement then demands.
//! This crate answers the question the ROADMAP keeps open: *how far is
//! that from optimal?* It searches over every **MI ordering** of the
//! scheduled body — the one degree of freedom SLMS's fixed placement
//! leaves (MI at body position `p` of iteration `j` lands at global row
//! `II·j + p + const`) — for the smallest feasible II, in the spirit of
//! HatScheT's Moovac formulation but encoded as SAT over an in-workspace
//! CDCL solver (`slc-sat`) instead of ILP.
//!
//! **Encoding** (per candidate II): boolean `x[k][p]` = "MI `k` is
//! emitted at body position `p`", `n²` variables. One-slot-per-MI
//! (at-least-one + pairwise at-most-one per MI), distinct (pairwise per
//! position), and for every dependence edge `u → v` at iteration distance
//! `d` a binary conflict clause per *violating* position pair:
//! distance 0 demands `p_u < p_v`; distance ≥ 1 demands
//! `II·d ≥ p_u − p_v` (the same-row case is serialized by the emitter's
//! descending-position row order, exactly as in `placement_mii`).
//! Resource conflicts degenerate under the fixed placement: every
//! ordering fills the II kernel rows to width `⌈n/II⌉`, so a row-width
//! cap is a *lower bound* `II ≥ ⌈n/W⌉`, not a clause set.
//!
//! **Search**: binary search for the least feasible II in
//! `[MII, heuristic II]` — feasibility is monotone in II because every
//! constraint only relaxes. The MII lower bound is the max of the
//! resource bound and a cycle bound: [`min_feasible_ii`], a binary search
//! with a Bellman–Ford positive-cycle test over the position
//! inequalities, the same search `cycles_mii` runs. The identity order is checked
//! first at each candidate, so loops whose source order is already
//! optimal never touch the solver.
//!
//! **Certificates**: the result carries an [`OptimalityCertificate`] that
//! `slc verify` re-checks independently — the witness is the emitted
//! order itself (identity in the emitted program's index space), and
//! optimality is an [`InfeasibilityProof`]: a deletion-minimal unsat core
//! at `II − 1`, stored as *semantic* [`ProofClause`]s whose literals are a
//! pure function of `(n, II)`. The checker re-derives each clause's
//! validity from its own dependence analysis and re-establishes
//! unsatisfiability by brute-force enumeration (small cores) or a fresh
//! CDCL run — never trusting the scheduler's solver.
//!
//! **Minimization**: the core is shrunk by
//! [`slc_sat::minimize_core_with`], one trial per clause. A placement
//! search over the trial's semantic clauses, seeded with the clause the
//! trial drops (every model of the trial falsifies it), settles the
//! satisfiable trials (the clause is needed) with a model that is checked
//! before it counts; only the few unsatisfiable trials pay for a fresh
//! solve, all on one reset solver workspace. The search builds its tables
//! once per working core and toggles only each trial's dropped clause.
//! The proof is the one plain [`slc_sat::minimize_core`] returns.

use slc_sat::{brute_force, minimize_core_with, Lit, Outcome, Solver};

/// One dependence edge of the scheduled body: MI `from` → MI `to` at
/// iteration distance `dist` (`None` = unknown, never exactly
/// schedulable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Source MI index.
    pub from: usize,
    /// Sink MI index.
    pub to: usize,
    /// Iteration distance.
    pub dist: Option<i64>,
}

/// One clause of an infeasibility proof, in semantic form: the literals
/// are a pure function of `(n, ii)` via [`ProofClause::lits`], so a
/// checker can re-derive the clause instead of trusting stored literals.
/// MI indices refer to the *emitted* body order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofClause {
    /// MI `mi` must occupy some body position.
    SlotAtLeastOne {
        /// the MI
        mi: usize,
    },
    /// MI `mi` cannot occupy positions `p` and `q` at once (`p < q`).
    SlotAtMostOne {
        /// the MI
        mi: usize,
        /// first position
        p: usize,
        /// second position
        q: usize,
    },
    /// Position `p` cannot hold MIs `mi1` and `mi2` at once
    /// (`mi1 < mi2`).
    SlotDistinct {
        /// the position
        p: usize,
        /// first MI
        mi1: usize,
        /// second MI
        mi2: usize,
    },
    /// The dependence `from → to` at distance `dist` forbids placing
    /// `from` at `pu` while `to` is at `pv` (a violating pair at this
    /// II).
    DepForbids {
        /// source MI of the cited dependence
        from: usize,
        /// sink MI of the cited dependence
        to: usize,
        /// iteration distance of the cited dependence
        dist: i64,
        /// position of `from` the clause forbids
        pu: usize,
        /// position of `to` the clause forbids
        pv: usize,
    },
}

/// SAT variable for "MI `k` at position `p`" in an `n`-MI body.
fn xvar(k: usize, p: usize, n: usize) -> usize {
    k * n + p
}

impl ProofClause {
    /// The literals this clause denotes in the `(n, ii)` encoding.
    pub fn lits(&self, n: usize) -> Vec<Lit> {
        match *self {
            ProofClause::SlotAtLeastOne { mi } => {
                (0..n).map(|p| Lit::pos(xvar(mi, p, n))).collect()
            }
            ProofClause::SlotAtMostOne { mi, p, q } => {
                vec![Lit::neg(xvar(mi, p, n)), Lit::neg(xvar(mi, q, n))]
            }
            ProofClause::SlotDistinct { p, mi1, mi2 } => {
                vec![Lit::neg(xvar(mi1, p, n)), Lit::neg(xvar(mi2, p, n))]
            }
            ProofClause::DepForbids {
                from, to, pu, pv, ..
            } => {
                vec![Lit::neg(xvar(from, pu, n)), Lit::neg(xvar(to, pv, n))]
            }
        }
    }

    /// Relabel MI indices through `sigma` (old index → new index).
    fn relabel(&self, sigma: &[usize]) -> ProofClause {
        match *self {
            ProofClause::SlotAtLeastOne { mi } => ProofClause::SlotAtLeastOne { mi: sigma[mi] },
            ProofClause::SlotAtMostOne { mi, p, q } => ProofClause::SlotAtMostOne {
                mi: sigma[mi],
                p,
                q,
            },
            ProofClause::SlotDistinct { p, mi1, mi2 } => {
                let (a, b) = (sigma[mi1], sigma[mi2]);
                ProofClause::SlotDistinct {
                    p,
                    mi1: a.min(b),
                    mi2: a.max(b),
                }
            }
            ProofClause::DepForbids {
                from,
                to,
                dist,
                pu,
                pv,
            } => ProofClause::DepForbids {
                from: sigma[from],
                to: sigma[to],
                dist,
                pu,
                pv,
            },
        }
    }

    /// Short kind tag for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ProofClause::SlotAtLeastOne { .. } => "slot-at-least-one",
            ProofClause::SlotAtMostOne { .. } => "slot-at-most-one",
            ProofClause::SlotDistinct { .. } => "slot-distinct",
            ProofClause::DepForbids { .. } => "dep-forbids",
        }
    }
}

/// Proof that no MI ordering achieves `ii`: a set of encoding clauses
/// (typically a minimized unsat core) that is jointly unsatisfiable. By
/// monotonicity of feasibility in II this refutes every `II ≤ ii`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibilityProof {
    /// The refuted II (`certificate.ii − 1`).
    pub ii: i64,
    /// The unsatisfiable clause set.
    pub clauses: Vec<ProofClause>,
}

/// The exact scheduler's claim about one loop, re-checkable by
/// [`check_certificate`] without trusting the solver: `ii` is feasible
/// (witnessed by the emitted order itself) and no smaller II is —
/// either because `ii == mii` (the recomputable lower bound) or by the
/// attached [`InfeasibilityProof`] at `ii − 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimalityCertificate {
    /// The proven-optimal initiation interval.
    pub ii: i64,
    /// The recomputable lower bound the search started from.
    pub mii: i64,
    /// Number of MIs in the scheduled body (pins the encoding size).
    pub n_mis: usize,
    /// `None` iff `ii == mii`; otherwise the refutation of `ii − 1`.
    pub proof: Option<InfeasibilityProof>,
}

/// Aggregate deterministic solver statistics across one exact solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// SAT instances solved (identity-order hits never reach the solver)
    pub sat_calls: u64,
    /// branching decisions
    pub decisions: u64,
    /// unit propagations
    pub propagations: u64,
    /// conflicts analyzed
    pub conflicts: u64,
    /// restarts
    pub restarts: u64,
}

impl SolveStats {
    fn absorb(&mut self, s: slc_sat::Stats) {
        self.sat_calls += 1;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.conflicts += s.conflicts;
        self.restarts += s.restarts;
    }
}

/// Result of an exact solve: the optimal II, the ordering that achieves
/// it, and the re-checkable certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactResult {
    /// Proven-optimal II over all MI orderings.
    pub ii: i64,
    /// `order[p]` = input MI index emitted at body position `p`.
    pub order: Vec<usize>,
    /// True when `order` differs from the identity.
    pub reordered: bool,
    /// True when the heuristic warm start closed the search alone: the
    /// heuristic II equals the MII, so the binary search window is empty
    /// and the solver is never invoked (`stats.sat_calls == 0`).
    pub warm_start: bool,
    /// The certificate, already relabeled into the emitted index space.
    pub certificate: OptimalityCertificate,
    /// Solver statistics.
    pub stats: SolveStats,
}

/// Bodies larger than this are not solved exactly (the encoding is
/// `n²` variables and ~`n³` clauses; paper-corpus loops are far below).
pub const MAX_EXACT_MIS: usize = 32;

/// The exact scheduler. `max_row_width` optionally caps how many MIs a
/// kernel row may hold (a machine-resource stand-in); under the fixed
/// placement every ordering fills rows equally, so the cap folds into
/// the MII lower bound rather than the clause set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactScheduler {
    /// Maximum MIs per kernel row (`None` = unbounded).
    pub max_row_width: Option<usize>,
}

/// True when the identity order (MI `k` at position `k`) satisfies every
/// dependence at `ii` — the check `placement_mii` performs, as a
/// predicate.
pub fn identity_feasible(deps: &[Dep], n: usize, ii: i64) -> bool {
    if n < 2 || ii < 1 || ii >= n as i64 {
        return false;
    }
    deps.iter().all(|e| match e.dist {
        None => false,
        Some(0) => e.from < e.to,
        Some(d) => ii * d >= e.from as i64 - e.to as i64,
    })
}

/// The smallest `ii` in `[lo, hi]` at which the difference-constraint
/// graph over nodes `0..n` has no positive cycle, where edge
/// `(from, to, a, d)` weighs `a − ii·d`; `None` when no `ii` in the window
/// works. Every `d ≥ 0` (debug-asserted), so each cycle's weight is
/// non-increasing in `ii` and feasibility is monotone: a binary search
/// with an O(n·E) Bellman–Ford positive-cycle test finds the same `ii` as
/// a linear scan. Both II bounds use it: SLMS's cycle MII (`cycles_mii`
/// in `slc-core`) and [`ExactScheduler::lower_bound`].
pub fn min_feasible_ii(
    n: usize,
    edges: &[(usize, usize, i64, i64)],
    lo: i64,
    hi: i64,
) -> Option<i64> {
    debug_assert!(edges.iter().all(|e| e.3 >= 0), "negative distance");
    if lo > hi || has_positive_cycle(n, edges, hi) {
        return None;
    }
    // invariant: `hi` is feasible, everything below `lo` is infeasible
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(n, edges, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(hi)
}

/// Does the graph hold a cycle of positive `a − ii·d` weight? Longest
/// path relaxation from a virtual source reaching every node: without a
/// positive cycle it settles within `n` rounds, so a change in round
/// `n + 1` proves one.
fn has_positive_cycle(n: usize, edges: &[(usize, usize, i64, i64)], ii: i64) -> bool {
    let mut dist = vec![0i64; n];
    for _ in 0..=n {
        let mut changed = false;
        for &(from, to, a, d) in edges {
            let w = dist[from] + a - ii * d;
            if w > dist[to] {
                dist[to] = w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    true
}

/// An `(n, ii)` instance the solver refuted: its clauses, their semantic
/// form and the solver's unsat core, which [`slc_sat::minimize_core_with`]
/// shrinks into the proof. Its satisfiable trials are settled by a
/// [`PlacementSearch`] over the trial's semantic clauses; the core is the
/// one plain [`slc_sat::minimize_core`] returns.
struct Refuted {
    ii: i64,
    clauses: Vec<Vec<Lit>>,
    meta: Vec<ProofClause>,
    core: Vec<usize>,
}

impl ExactScheduler {
    /// Lower bound on the II of *any* ordering: max of the resource bound
    /// `⌈n/W⌉` and the smallest II whose position-inequality graph
    /// (`p_v ≥ p_u + 1` for distance 0, `p_v ≥ p_u − II·d` otherwise)
    /// has no positive cycle. `None` when a distance is unknown or no
    /// `II < n` works.
    pub fn lower_bound(&self, deps: &[Dep], n: usize) -> Option<i64> {
        if n < 2 {
            return None;
        }
        let floor = match self.max_row_width {
            Some(0) => return None,
            Some(w) => n.div_ceil(w) as i64,
            None => 1,
        };
        let edges = deps
            .iter()
            .map(|e| Some((e.from, e.to, (e.dist? == 0) as i64, e.dist?)))
            .collect::<Option<Vec<_>>>()?;
        min_feasible_ii(n, &edges, floor, n as i64 - 1)
    }

    /// Build the `(n, ii)` encoding: clauses plus the aligned semantic
    /// description of each clause.
    fn encode(&self, deps: &[Dep], n: usize, ii: i64) -> (Vec<Vec<Lit>>, Vec<ProofClause>) {
        let mut clauses = Vec::new();
        let mut meta = Vec::new();
        for k in 0..n {
            meta.push(ProofClause::SlotAtLeastOne { mi: k });
            clauses.push(meta.last().unwrap().lits(n));
            for p in 0..n {
                for q in p + 1..n {
                    meta.push(ProofClause::SlotAtMostOne { mi: k, p, q });
                    clauses.push(meta.last().unwrap().lits(n));
                }
            }
        }
        for p in 0..n {
            for k1 in 0..n {
                for k2 in k1 + 1..n {
                    meta.push(ProofClause::SlotDistinct {
                        p,
                        mi1: k1,
                        mi2: k2,
                    });
                    clauses.push(meta.last().unwrap().lits(n));
                }
            }
        }
        for e in deps {
            let d = e.dist.expect("encode called with known distances");
            if e.from == e.to {
                continue; // d ≥ 1 self edges hold at any II; d = 0 never occurs
            }
            for pu in 0..n {
                for pv in 0..n {
                    let violating = if d == 0 {
                        pu >= pv
                    } else {
                        pu as i64 - pv as i64 > ii * d
                    };
                    if violating {
                        meta.push(ProofClause::DepForbids {
                            from: e.from,
                            to: e.to,
                            dist: d,
                            pu,
                            pv,
                        });
                        clauses.push(meta.last().unwrap().lits(n));
                    }
                }
            }
        }
        (clauses, meta)
    }

    /// Is any ordering feasible at `ii`? Returns the order if so, or the
    /// refuted instance. The identity order short-circuits the solver.
    fn feasible(
        &self,
        deps: &[Dep],
        n: usize,
        ii: i64,
        stats: &mut SolveStats,
    ) -> Result<Vec<usize>, Refuted> {
        if identity_feasible(deps, n, ii) {
            return Ok((0..n).collect());
        }
        let (clauses, meta) = self.encode(deps, n, ii);
        let mut s = Solver::new();
        for c in &clauses {
            s.add_clause(c);
        }
        let out = s.solve();
        stats.absorb(s.stats());
        match out {
            Outcome::Sat(model) => Ok((0..n)
                .map(|p| {
                    (0..n)
                        .find(|&k| model[xvar(k, p, n)])
                        .expect("one MI per position")
                })
                .collect()),
            Outcome::Unsat(core) => Err(Refuted {
                ii,
                clauses,
                meta,
                core,
            }),
        }
    }

    /// Find the optimal II over all MI orderings of an `n`-MI body whose
    /// dependences are `deps`, given that the identity order is known
    /// feasible at `max_ii` (the heuristic's II). Returns `None` when the
    /// body is out of scope (unknown distances, `n < 2`, `n` above
    /// [`MAX_EXACT_MIS`], or an inconsistent `max_ii`). The certificate
    /// in the result is already relabeled into the *emitted* index space,
    /// where the witness order is the identity.
    ///
    /// The heuristic schedule is a feasibility witness, so `max_ii` seeds
    /// the binary search's upper bound. When `max_ii` already equals the
    /// MII the search window is empty and the result is returned with
    /// `warm_start = true` without ever constructing a SAT instance.
    pub fn solve(&self, deps: &[Dep], n: usize, max_ii: i64) -> Option<ExactResult> {
        if !(2..=MAX_EXACT_MIS).contains(&n) || !identity_feasible(deps, n, max_ii) {
            return None;
        }
        let mii = self.lower_bound(deps, n)?;
        debug_assert!(mii <= max_ii, "lower bound exceeds a feasible II");
        // When the heuristic II meets the lower bound the window is empty:
        // the identity order is the optimal witness, no proof is needed
        // (ii == mii certifies optimality by itself) and the solver is
        // never touched.
        let mut stats = SolveStats::default();
        let mut best: (i64, Vec<usize>) = (max_ii, (0..n).collect());
        let mut refuted = None;
        let (mut lo, mut hi) = (mii, max_ii);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.feasible(deps, n, mid, &mut stats) {
                Ok(order) => {
                    best = (mid, order);
                    hi = mid;
                }
                Err(r) => {
                    refuted = Some(r);
                    lo = mid + 1;
                }
            }
        }
        let (ii, order) = best;
        debug_assert_eq!(ii, hi);
        // `lo` reaches `ii` only through `lo = mid + 1` on a refuted `mid`,
        // and nothing is refuted after that: the last refutation is of
        // `ii − 1`, and there is one exactly when `ii > mii`
        let proof = refuted.map(|r| {
            debug_assert_eq!(r.ii, ii - 1);
            // sigma: input MI index → emitted position, so the proof
            // cites dependences as the verifier will re-derive them from
            // the emitted body (UNSAT is invariant under relabeling)
            let mut sigma = vec![0usize; n];
            for (p, &k) in order.iter().enumerate() {
                sigma[k] = p;
            }
            let mut search = PlacementSearch::new(n);
            let core = minimize_core_with(&r.clauses, &r.core, |trial, dropped, new_core| {
                search.find(&r.meta, trial, dropped, new_core)
            });
            InfeasibilityProof {
                ii: r.ii,
                clauses: core.iter().map(|&i| r.meta[i].relabel(&sigma)).collect(),
            }
        });
        let reordered = order.iter().enumerate().any(|(p, &k)| p != k);
        Some(ExactResult {
            ii,
            reordered,
            warm_start: mii == max_ii,
            order,
            certificate: OptimalityCertificate {
                ii,
                mii,
                n_mis: n,
                proof,
            },
            stats,
        })
    }
}

/// The position pair a two-MI clause forbids, as `(a, pa, b, pb)`: MI `a`
/// at `pa` together with MI `b` at `pb`. `None` for the one-MI clauses.
fn forbidden_pair(clause: ProofClause) -> Option<(usize, usize, usize, usize)> {
    match clause {
        ProofClause::SlotDistinct { p, mi1, mi2 } => Some((mi1, p, mi2, p)),
        ProofClause::DepForbids {
            from, to, pu, pv, ..
        } => Some((from, pu, to, pv)),
        ProofClause::SlotAtLeastOne { .. } | ProofClause::SlotAtMostOne { .. } => None,
    }
}

/// Search-tree nodes [`PlacementSearch::find`] may visit before it gives
/// a trial back to the solver.
const PLACEMENT_NODE_CAP: usize = 2048;

/// A model finder for the satisfiable trials of proof-core minimization.
///
/// A trial is a subset of the `(n, ii)` encoding. Every clause but
/// `SlotAtLeastOne` is a pair of negative literals, so a trial asks for a
/// position for each MI whose `SlotAtLeastOne` it contains, avoiding the
/// position pairs its `SlotDistinct` and `DepForbids` clauses forbid. MIs
/// without that clause stay unplaced (all their variables false), and
/// `SlotAtMostOne` holds because a placed MI takes exactly one position.
///
/// The search is seeded with the clause the trial drops. The working core
/// is unsatisfiable, so every model of the trial falsifies that clause.
/// A dropped `SlotDistinct` or `DepForbids` therefore fixes its two MIs
/// at the positions it forbids before the search starts; if another
/// clause of the trial forbids the same pair, the trial has no model. A
/// dropped `SlotAtMostOne` is falsified only by an MI at two positions,
/// which no one-position-per-MI placement is, so that trial goes straight
/// to the solver. A dropped `SlotAtLeastOne` leaves its MI unplaced, as
/// the trial already does, and the search runs unseeded.
///
/// The search is backtracking with forward checking: it places the MI
/// with the fewest open positions first, trims the other MIs' open
/// positions, and gives up after [`PLACEMENT_NODE_CAP`] nodes. It answers
/// `None` for a trial it refutes or abandons; the minimization then runs
/// its fresh solve. Its models are checked clause by clause before they
/// count, so a wrong answer here costs a solve, never a proof.
///
/// The `need` and `forbid` tables are built once per working core, when
/// [`slc_sat::minimize_core_with`] says the core is new; a trial only
/// toggles its dropped clause out and back in. A pair forbidden by two or
/// more clauses of the core (a distance-0 `DepForbids` at `pu == pv` and
/// a `SlotDistinct`, or two dependences between the same MIs) is marked
/// `shared` and stays forbidden when one of them is dropped.
struct PlacementSearch {
    n: usize,
    /// MIs the trial requires to be placed.
    need: Vec<bool>,
    /// `forbid[(k·n + p)·n + k2]`: positions of `k2` excluded by `k` at `p`.
    forbid: Vec<u64>,
    /// The pairs of `forbid` that two or more clauses of the working core
    /// forbid, indexed the same way.
    shared: Vec<u64>,
    /// Open positions per MI, one row of `n` per search depth.
    open: Vec<u64>,
    /// Chosen position per MI (`usize::MAX` = unplaced).
    pos: Vec<usize>,
    nodes: usize,
}

impl PlacementSearch {
    fn new(n: usize) -> Self {
        debug_assert!(n <= MAX_EXACT_MIS, "positions are a u64 mask");
        PlacementSearch {
            n,
            need: vec![false; n],
            forbid: vec![0; n * n * n],
            shared: vec![0; n * n * n],
            open: vec![0; (n + 1) * n],
            pos: vec![usize::MAX; n],
            nodes: 0,
        }
    }

    /// A model of the `trial` clauses (ids into `meta`), or `None`.
    /// `dropped` is the clause of the working core the trial leaves out,
    /// and `new_core` says the working core changed since the last call.
    fn find(
        &mut self,
        meta: &[ProofClause],
        trial: &[usize],
        dropped: usize,
        new_core: bool,
    ) -> Option<Vec<bool>> {
        if new_core {
            self.build(meta, trial.iter().chain([&dropped]));
        }
        let clause = meta[dropped];
        self.toggle(clause, false);
        #[cfg(test)]
        self.assert_tables_match(meta, trial);
        let placed = self.search(clause);
        self.toggle(clause, true);
        if !placed {
            return None;
        }
        let n = self.n;
        let mut model = vec![false; n * n];
        for (k, &p) in self.pos.iter().enumerate() {
            if p != usize::MAX {
                model[xvar(k, p, n)] = true;
            }
        }
        Some(model)
    }

    /// Rebuild `need`, `forbid` and `shared` over the clauses `ids`.
    fn build<'a>(&mut self, meta: &[ProofClause], ids: impl Iterator<Item = &'a usize>) {
        self.need.fill(false);
        self.forbid.fill(0);
        self.shared.fill(0);
        for &id in ids {
            if let ProofClause::SlotAtLeastOne { mi } = meta[id] {
                self.need[mi] = true;
            } else if let Some((a, pa, b, pb)) = forbidden_pair(meta[id]) {
                self.exclude(a, pa, b, pb);
            }
        }
    }

    /// Take `clause` out of the tables (`on = false`) or put it back. A
    /// shared pair is never taken out: another clause still forbids it.
    fn toggle(&mut self, clause: ProofClause, on: bool) {
        if let ProofClause::SlotAtLeastOne { mi } = clause {
            self.need[mi] = on;
        }
        let Some((a, pa, b, pb)) = forbidden_pair(clause) else {
            return;
        };
        let n = self.n;
        let (ab, ba) = ((a * n + pa) * n + b, (b * n + pb) * n + a);
        if on {
            self.forbid[ab] |= 1 << pb;
            self.forbid[ba] |= 1 << pa;
        } else if self.shared[ab] & 1 << pb == 0 {
            self.forbid[ab] &= !(1 << pb);
            self.forbid[ba] &= !(1 << pa);
        }
    }

    /// Check that the tables kept across trials are the ones a build
    /// from scratch over the `trial` clauses gives.
    #[cfg(test)]
    fn assert_tables_match(&self, meta: &[ProofClause], trial: &[usize]) {
        let mut scratch = PlacementSearch::new(self.n);
        scratch.build(meta, trial.iter());
        assert_eq!(
            self.need, scratch.need,
            "kept `need` differs from the trial's"
        );
        assert!(
            self.forbid == scratch.forbid,
            "kept `forbid` differs from the trial's"
        );
    }

    /// Search for a placement of the current tables, seeded with the
    /// dropped `clause`; true with the positions left in `pos`.
    fn search(&mut self, clause: ProofClause) -> bool {
        let n = self.n;
        self.nodes = 0;
        if let ProofClause::SlotAtMostOne { .. } = clause {
            return false;
        }
        let seed = forbidden_pair(clause);
        self.pos.fill(usize::MAX);
        for k in 0..n {
            self.open[k] = if self.need[k] { (1u64 << n) - 1 } else { 0 };
        }
        if let Some((a, pa, b, pb)) = seed {
            if self.forbid[(a * n + pa) * n + b] & 1 << pb != 0 {
                return false;
            }
            self.pos[a] = pa;
            self.pos[b] = pb;
            for k in 0..n {
                self.open[k] &=
                    !(self.forbid[(a * n + pa) * n + k] | self.forbid[(b * n + pb) * n + k]);
            }
        }
        self.place(0)
    }

    /// Record that `a` at `pa` and `b` at `pb` cannot both hold, and mark
    /// the pair shared if a clause already forbids it. A pair on one MI is
    /// never consulted: one position per MI settles `pa ≠ pb`, and the
    /// model check catches `pa = pb`.
    fn exclude(&mut self, a: usize, pa: usize, b: usize, pb: usize) {
        let n = self.n;
        let (ab, ba) = ((a * n + pa) * n + b, (b * n + pb) * n + a);
        if self.forbid[ab] & 1 << pb != 0 {
            self.shared[ab] |= 1 << pb;
            self.shared[ba] |= 1 << pa;
        }
        self.forbid[ab] |= 1 << pb;
        self.forbid[ba] |= 1 << pa;
    }

    /// Place every required, unplaced MI given the open positions in row
    /// `depth`; true on success, with the positions left in `pos`.
    fn place(&mut self, depth: usize) -> bool {
        let n = self.n;
        self.nodes += 1;
        if self.nodes > PLACEMENT_NODE_CAP {
            return false;
        }
        let row = depth * n;
        let pick = (0..n)
            .filter(|&k| self.need[k] && self.pos[k] == usize::MAX)
            .min_by_key(|&k| self.open[row + k].count_ones());
        let Some(k) = pick else {
            return true;
        };
        let mut choices = self.open[row + k];
        while choices != 0 {
            let p = choices.trailing_zeros() as usize;
            choices &= choices - 1;
            self.pos[k] = p;
            let (cur, next) = self.open.split_at_mut(row + n);
            let (cur, next) = (&cur[row..], &mut next[..n]);
            let excluded = &self.forbid[(k * n + p) * n..][..n];
            let mut wiped = false;
            for k2 in 0..n {
                next[k2] = cur[k2] & !excluded[k2];
                wiped |= self.need[k2] && self.pos[k2] == usize::MAX && next[k2] == 0;
            }
            if !wiped && self.place(depth + 1) {
                return true;
            }
            if self.nodes > PLACEMENT_NODE_CAP {
                break;
            }
        }
        self.pos[k] = usize::MAX;
        false
    }
}

/// Why a certificate was rejected. Each variant corresponds to a named
/// `slc verify` rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// `n_mis` disagrees with the scheduled body.
    WrongMiCount {
        /// MIs in the body being verified
        expected: usize,
        /// MIs the certificate claims
        claimed: usize,
    },
    /// The claimed MII does not match the recomputed lower bound.
    MiiMismatch {
        /// MII the certificate claims
        claimed: i64,
        /// independently recomputed bound (`None` = unschedulable)
        recomputed: Option<i64>,
    },
    /// The emitted order itself does not satisfy the dependences at the
    /// claimed II — the witness fails.
    WitnessInfeasible {
        /// the claimed II
        ii: i64,
    },
    /// `ii > mii` but no infeasibility proof is attached.
    ProofMissing,
    /// `ii == mii` yet a proof is attached (non-canonical certificate).
    ProofUnexpected,
    /// The proof refutes the wrong II (must be `ii − 1`).
    ProofIiMismatch {
        /// expected refuted II
        expected: i64,
        /// II the proof refutes
        got: i64,
    },
    /// A proof clause is not derivable from the encoding — e.g. a
    /// `DepForbids` citing a dependence that does not exist or a position
    /// pair it does not actually forbid.
    UnfoundedClause {
        /// index into `proof.clauses`
        index: usize,
        /// human-readable reason
        reason: String,
    },
    /// The proof's clause set is satisfiable — it refutes nothing.
    ProofSatisfiable,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::WrongMiCount { expected, claimed } => write!(
                f,
                "certificate covers {claimed} MIs but the scheduled body has {expected}"
            ),
            CertError::MiiMismatch {
                claimed,
                recomputed: Some(m),
            } => write!(
                f,
                "certificate claims MII {claimed} but recomputation gives {m}"
            ),
            CertError::MiiMismatch {
                claimed,
                recomputed: None,
            } => write!(
                f,
                "certificate claims MII {claimed} but the body has no valid lower bound"
            ),
            CertError::WitnessInfeasible { ii } => write!(
                f,
                "emitted order violates a dependence at the claimed II {ii}"
            ),
            CertError::ProofMissing => {
                write!(f, "II above MII without an infeasibility proof")
            }
            CertError::ProofUnexpected => {
                write!(f, "II equals MII yet a proof is attached")
            }
            CertError::ProofIiMismatch { expected, got } => write!(
                f,
                "proof refutes II {got} but optimality of the claim needs II {expected}"
            ),
            CertError::UnfoundedClause { index, reason } => {
                write!(f, "proof clause {index} is unfounded: {reason}")
            }
            CertError::ProofSatisfiable => {
                write!(f, "proof clause set is satisfiable — refutes nothing")
            }
        }
    }
}

/// Largest compressed variable count the checker hands to the
/// brute-force enumerator; larger proofs are re-solved with a fresh CDCL
/// instance.
const BRUTE_FORCE_VARS: usize = 20;

/// Independently re-check a certificate against the dependences `deps`
/// of the `n`-MI *emitted* body (where the witness order is the
/// identity). Trusts only `deps` and the encoding algebra — not the
/// scheduler or its solver.
pub fn check_certificate(
    deps: &[Dep],
    n: usize,
    cert: &OptimalityCertificate,
) -> Result<(), CertError> {
    if cert.n_mis != n {
        return Err(CertError::WrongMiCount {
            expected: n,
            claimed: cert.n_mis,
        });
    }
    let sched = ExactScheduler::default();
    let recomputed = sched.lower_bound(deps, n);
    if recomputed != Some(cert.mii) {
        return Err(CertError::MiiMismatch {
            claimed: cert.mii,
            recomputed,
        });
    }
    if !identity_feasible(deps, n, cert.ii) {
        return Err(CertError::WitnessInfeasible { ii: cert.ii });
    }
    let proof = match (&cert.proof, cert.ii > cert.mii) {
        (None, false) => return Ok(()),
        (None, true) => return Err(CertError::ProofMissing),
        (Some(_), false) => return Err(CertError::ProofUnexpected),
        (Some(p), true) => p,
    };
    if proof.ii != cert.ii - 1 {
        return Err(CertError::ProofIiMismatch {
            expected: cert.ii - 1,
            got: proof.ii,
        });
    }
    // every clause must be founded: structurally in range, and dependence
    // clauses must cite a real dependence and a genuinely violating pair
    for (i, c) in proof.clauses.iter().enumerate() {
        let bad = |reason: String| CertError::UnfoundedClause { index: i, reason };
        match *c {
            ProofClause::SlotAtLeastOne { mi } => {
                if mi >= n {
                    return Err(bad(format!("MI {mi} out of range")));
                }
            }
            ProofClause::SlotAtMostOne { mi, p, q } => {
                if mi >= n || p >= q || q >= n {
                    return Err(bad(format!("bad at-most-one ({mi}, {p}, {q})")));
                }
            }
            ProofClause::SlotDistinct { p, mi1, mi2 } => {
                if p >= n || mi1 >= mi2 || mi2 >= n {
                    return Err(bad(format!("bad distinct ({p}, {mi1}, {mi2})")));
                }
            }
            ProofClause::DepForbids {
                from,
                to,
                dist,
                pu,
                pv,
            } => {
                if from >= n || to >= n || pu >= n || pv >= n {
                    return Err(bad(format!(
                        "indices out of range ({from}→{to} @ {pu},{pv})"
                    )));
                }
                if !deps
                    .iter()
                    .any(|e| e.from == from && e.to == to && e.dist == Some(dist))
                {
                    return Err(bad(format!(
                        "no dependence {from} → {to} at distance {dist}"
                    )));
                }
                let violating = if dist == 0 {
                    pu >= pv
                } else {
                    pu as i64 - pv as i64 > proof.ii * dist
                };
                if !violating {
                    return Err(bad(format!(
                        "({pu}, {pv}) does not violate {from} → {to} at II {}",
                        proof.ii
                    )));
                }
            }
        }
    }
    // the clause set must be unsatisfiable; compress the variable space
    // first, then enumerate (small) or re-solve (large)
    let rendered: Vec<Vec<Lit>> = proof.clauses.iter().map(|c| c.lits(n)).collect();
    let mut var_map: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for c in &rendered {
        for l in c {
            let next = var_map.len();
            var_map.entry(l.var()).or_insert(next);
        }
    }
    let compressed: Vec<Vec<Lit>> = rendered
        .iter()
        .map(|c| {
            c.iter()
                .map(|l| {
                    let v = var_map[&l.var()];
                    if l.is_neg() {
                        Lit::neg(v)
                    } else {
                        Lit::pos(v)
                    }
                })
                .collect()
        })
        .collect();
    let satisfiable = if var_map.len() <= BRUTE_FORCE_VARS {
        brute_force(var_map.len(), &compressed).is_some()
    } else {
        let mut s = Solver::new();
        for c in &compressed {
            s.add_clause(c);
        }
        s.solve().is_sat()
    };
    if satisfiable {
        return Err(CertError::ProofSatisfiable);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(from: usize, to: usize, dist: i64) -> Dep {
        Dep {
            from,
            to,
            dist: Some(dist),
        }
    }

    /// In-order feasible loop: exact agrees with the heuristic, no proof
    /// needed, certificate checks clean.
    #[test]
    fn identity_optimal_yields_mii_certificate() {
        // flow 0→1 d0, self flow 1→1 d1 (the paper's intro example after
        // expansion): II 1 both ways
        let deps = [dep(0, 1, 0), dep(1, 1, 1)];
        let r = ExactScheduler::default().solve(&deps, 2, 1).unwrap();
        assert_eq!(r.ii, 1);
        assert!(!r.reordered);
        assert_eq!(r.certificate.mii, 1);
        assert!(r.certificate.proof.is_none());
        assert_eq!(r.stats.sat_calls, 0, "identity hit must not invoke SAT");
        assert!(r.warm_start, "heuristic II == MII is a warm-start hit");
        check_certificate(&deps, 2, &r.certificate).unwrap();
    }

    /// The constructed gap example: a distance-0 chain head + a back edge
    /// the source order pays II 3 for, reordered to II 1.
    #[test]
    fn reordering_beats_source_order() {
        // body: S0 reads Z[i-1] into A; S1, S2 independent; S3 writes Z
        // from A — deps: 0→3 d0 (A), 3→0 d1 (Z back edge)
        let deps = [dep(0, 3, 0), dep(3, 0, 1)];
        assert!(identity_feasible(&deps, 4, 3));
        assert!(!identity_feasible(&deps, 4, 2));
        let r = ExactScheduler::default().solve(&deps, 4, 3).unwrap();
        assert_eq!(r.ii, 1);
        assert!(r.reordered);
        assert!(
            !r.warm_start,
            "search below the heuristic II is not a warm-start hit"
        );
        // the order must put S0 right before S3
        let pos = |k: usize| r.order.iter().position(|&x| x == k).unwrap();
        assert!(pos(0) < pos(3));
        assert!(pos(3) as i64 - pos(0) as i64 <= 1);
        assert_eq!(r.certificate.mii, 1);
        assert!(r.certificate.proof.is_none());
        // re-check in the emitted space: relabel deps through the order
        let mut sigma = [0usize; 4];
        for (p, &k) in r.order.iter().enumerate() {
            sigma[k] = p;
        }
        let emitted: Vec<Dep> = deps
            .iter()
            .map(|e| Dep {
                from: sigma[e.from],
                to: sigma[e.to],
                dist: e.dist,
            })
            .collect();
        check_certificate(&emitted, 4, &r.certificate).unwrap();
    }

    /// A loop where the optimum sits strictly above the cycle bound, so
    /// optimality needs a real unsat-core proof — and the checker accepts
    /// it and rejects mutations.
    #[test]
    fn proof_backed_certificate_roundtrips() {
        // two distance-1 back edges with span 2 force II ≥ 2 in every
        // order (three mutually-ordered d0 chains prevent compression),
        // but the cycle bound only sees II ≥ 1
        let deps = [
            dep(0, 1, 0),
            dep(1, 2, 0),
            dep(2, 0, 1), // back edge span 2 at d1
        ];
        // identity: ii ≥ 2; any order: the d0 chain forces pos spread 2,
        // so the back edge still needs ii ≥ 2; cycle bound: 1+1-ii ≤ 0 → 2
        let r = ExactScheduler::default().solve(&deps, 3, 2).unwrap();
        assert_eq!(r.ii, 2);
        assert_eq!(r.certificate.mii, 2);
        assert!(
            r.certificate.proof.is_none(),
            "cycle bound already proves this"
        );

        // now a genuinely-above-mii case: no d0 edges, two crossing back
        // edges — every permutation leaves one of them spanning ≥ 2
        let deps = [dep(2, 0, 2), dep(0, 2, 0), dep(1, 0, 0), dep(2, 1, 1)];
        let sched = ExactScheduler::default();
        let mii = sched.lower_bound(&deps, 3);
        let r = sched.solve(&deps, 3, 2);
        if let Some(r) = r {
            if r.ii > r.certificate.mii {
                let proof = r.certificate.proof.as_ref().unwrap();
                assert_eq!(proof.ii, r.ii - 1);
                assert!(!proof.clauses.is_empty());
            }
            assert_eq!(Some(r.certificate.mii), mii);
        }
    }

    /// Hand-built proof-backed case: order is free (no d0 edges) but a
    /// pair of opposing back edges makes II 1 impossible for 4 MIs.
    #[test]
    fn above_mii_needs_and_gets_proof() {
        // A distance-1 pair u ↔ v requires |p_u − p_v| ≤ II. Tying MI 0
        // to all of 1, 2, 3 demands three distinct positions within
        // II of p_0 — impossible at II 1 (only two adjacent slots
        // exist), satisfiable at II 2 (0 in the middle). The cycle
        // bound only sees weight −2·II cycles, so MII stays 1: the
        // optimality of II 2 genuinely needs the unsat core.
        let deps = [
            dep(0, 1, 1),
            dep(1, 0, 1),
            dep(0, 2, 1),
            dep(2, 0, 1),
            dep(0, 3, 1),
            dep(3, 0, 1),
        ];
        let sched = ExactScheduler::default();
        assert_eq!(sched.lower_bound(&deps, 4), Some(1));
        assert!(identity_feasible(&deps, 4, 3)); // 3→0 spans 3 ≤ II·1
        let r = sched.solve(&deps, 4, 3).unwrap();
        assert_eq!(r.ii, 2);
        assert_eq!(r.certificate.mii, 1);
        let proof = r.certificate.proof.clone().unwrap();
        assert_eq!(proof.ii, 1);
        // the emitted space is the identity relabeling when not reordered
        let emitted: Vec<Dep> = if r.reordered {
            let mut sigma = [0usize; 4];
            for (p, &k) in r.order.iter().enumerate() {
                sigma[k] = p;
            }
            deps.iter()
                .map(|e| Dep {
                    from: sigma[e.from],
                    to: sigma[e.to],
                    dist: e.dist,
                })
                .collect()
        } else {
            deps.to_vec()
        };
        check_certificate(&emitted, 4, &r.certificate).unwrap();

        // mutations the checker must reject
        let mut c = r.certificate.clone();
        c.ii -= 1;
        assert!(matches!(
            check_certificate(&emitted, 4, &c),
            Err(CertError::ProofUnexpected) | Err(CertError::WitnessInfeasible { .. })
        ));

        let mut c = r.certificate.clone();
        c.proof = None;
        assert_eq!(
            check_certificate(&emitted, 4, &c),
            Err(CertError::ProofMissing)
        );

        let mut c = r.certificate.clone();
        c.mii = 2;
        assert!(matches!(
            check_certificate(&emitted, 4, &c),
            Err(CertError::MiiMismatch { .. })
        ));

        // dropping any dependence clause from the (minimized) proof must
        // make the clause set satisfiable
        let dep_positions: Vec<usize> = proof
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, cl)| matches!(cl, ProofClause::DepForbids { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(!dep_positions.is_empty());
        for &i in &dep_positions {
            let mut c = r.certificate.clone();
            let p = c.proof.as_mut().unwrap();
            p.clauses.remove(i);
            assert_eq!(
                check_certificate(&emitted, 4, &c),
                Err(CertError::ProofSatisfiable),
                "dropping proof clause {i} must break the refutation"
            );
        }

        // forging a clause that cites a nonexistent dependence
        let mut c = r.certificate.clone();
        c.proof
            .as_mut()
            .unwrap()
            .clauses
            .push(ProofClause::DepForbids {
                from: 1,
                to: 2,
                dist: 0,
                pu: 2,
                pv: 0,
            });
        assert!(matches!(
            check_certificate(&emitted, 4, &c),
            Err(CertError::UnfoundedClause { .. })
        ));
    }

    /// SplitMix64, seeded as the solver-trajectory golden's generator, so
    /// the instances below are the golden's exact-scheduler instances.
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

    /// The golden's random dependence set over `n` MIs: forward edges at
    /// any distance, backward and self edges at distance ≥ 1.
    fn random_deps(rng: &mut Rng, n: usize) -> Vec<Dep> {
        let edges = n + rng.below(2 * n);
        (0..edges)
            .map(|_| {
                let (from, to) = (rng.below(n), rng.below(n));
                let d = if from < to {
                    rng.below(3) as i64
                } else {
                    1 + rng.below(2) as i64
                };
                dep(from, to, d)
            })
            .collect()
    }

    /// Every refutation the exact scheduler makes on the trajectory
    /// golden's random instances (n = 4…12) and on the hand-built
    /// above-MII instance: (scheduler, deps, n, heuristic II).
    fn refuting_instances() -> Vec<(ExactScheduler, Vec<Dep>, usize, i64)> {
        let mut out = Vec::new();
        let mut rng = Rng(0x5eed_e8ac);
        for n in 4..=12 {
            for k in 0..4 {
                let deps = random_deps(&mut rng, n);
                let width = (k == 3).then_some(2);
                let floor = width.map_or(1, |w| n.div_ceil(w)) as i64;
                if let Some(max_ii) = (floor..n as i64).find(|&ii| identity_feasible(&deps, n, ii))
                {
                    out.push((
                        ExactScheduler {
                            max_row_width: width,
                        },
                        deps,
                        n,
                        max_ii,
                    ));
                }
            }
        }
        let star = vec![
            dep(0, 1, 1),
            dep(1, 0, 1),
            dep(0, 2, 1),
            dep(2, 0, 1),
            dep(0, 3, 1),
            dep(3, 0, 1),
        ];
        out.push((ExactScheduler::default(), star, 4, 3));
        out.retain(|(sched, deps, n, max_ii)| {
            let r = sched.solve(deps, *n, *max_ii);
            r.is_some_and(|r| r.certificate.proof.is_some())
        });
        out
    }

    /// The placement search never changes a proof, and it settles every
    /// trial that plain minimization finds satisfiable: the count of
    /// satisfiable trials (each solved from scratch, as `minimize_core`
    /// does) equals the count of trials the search answered with a model
    /// that satisfies the trial. A search that silently fell back to the
    /// solver would show up as a smaller second count. The nodes the
    /// seeded search visits over the six refutations are pinned (44 040
    /// without the seed), so a search that lost its seed fails by a count.
    #[test]
    fn placement_search_settles_every_satisfiable_trial() {
        let instances = refuting_instances();
        assert_eq!(instances.len(), 6, "5 golden refutations + the star");
        let mut total_nodes = 0usize;
        for (sched, deps, n, max_ii) in instances {
            let r = sched.solve(&deps, n, max_ii).unwrap();
            let refuted = r.ii - 1;
            let (clauses, meta) = sched.encode(&deps, n, refuted);
            let mut s = Solver::new();
            for c in &clauses {
                s.add_clause(c);
            }
            let Outcome::Unsat(core) = s.solve() else {
                panic!("II {refuted} is refuted, so its encoding is unsatisfiable");
            };

            let mut sat_trials = 0usize;
            let plain = minimize_core_with(&clauses, &core, |trial, _, _| {
                if slc_sat::solve_subset(&clauses, trial).is_sat() {
                    sat_trials += 1;
                }
                None
            });
            assert_eq!(plain, slc_sat::minimize_core(&clauses, &core));

            let mut settled = 0usize;
            let mut search = PlacementSearch::new(n);
            let mut nodes = 0usize;
            let searched = minimize_core_with(&clauses, &core, |trial, dropped, new_core| {
                let model = search.find(&meta, trial, dropped, new_core);
                nodes += search.nodes;
                let model = model?;
                assert!(
                    trial
                        .iter()
                        .all(|&id| slc_sat::check_model(&model, &clauses[id..=id])),
                    "the placement search returned a non-model"
                );
                settled += 1;
                Some(model)
            });
            assert_eq!(searched, plain, "n={n} deps={deps:?}: proof changed");
            assert_eq!(
                settled, sat_trials,
                "n={n} deps={deps:?}: satisfiable trials left to the solver"
            );
            assert_eq!(
                sat_trials,
                plain.len(),
                "one satisfiable trial per kept clause"
            );

            // the search's own refutation of II − 1 minimizes to this core,
            // relabeled into the emitted order
            let mut sigma = vec![0usize; n];
            for (p, &k) in r.order.iter().enumerate() {
                sigma[k] = p;
            }
            let want: Vec<ProofClause> = plain.iter().map(|&i| meta[i].relabel(&sigma)).collect();
            assert_eq!(r.certificate.proof.as_ref().unwrap().clauses, want);
            println!(
                "n={n} II {refuted} refuted: {} proof clauses, {settled} of {sat_trials} \
                 satisfiable trials settled by the placement search in {nodes} nodes",
                plain.len()
            );
            total_nodes += nodes;
        }
        println!("{total_nodes} placement-search nodes over the six refutations");
        assert_eq!(
            total_nodes, 7604,
            "placement-search nodes over the six refutations"
        );
    }

    /// A pair two clauses forbid stays forbidden when one is dropped. With
    /// a distance-0 edge `0 → 1`, `SlotDistinct { p, 0, 1 }` and the
    /// `DepForbids` at `pu = pv = p` are the same clause. Every clause of
    /// the whole encoding is dropped in turn from one working core: each
    /// call checks (in this test build) that the kept tables equal a build
    /// from scratch over the trial, and answers what a search built for
    /// that trial alone answers. Dropping either of the duplicate pair
    /// leaves the pair forbidden, so the seeded search finds no model.
    #[test]
    fn placement_tables_keep_a_pair_two_clauses_forbid() {
        let n = 3;
        let deps = [dep(0, 1, 0), dep(1, 2, 1), dep(2, 0, 1)];
        let (_, meta) = ExactScheduler::default().encode(&deps, n, 1);
        let core: Vec<usize> = (0..meta.len()).collect();
        let mut kept = PlacementSearch::new(n);
        let mut duplicates = 0;
        for (i, &dropped) in core.iter().enumerate() {
            let trial: Vec<usize> = core.iter().copied().filter(|&id| id != dropped).collect();
            let answer = kept.find(&meta, &trial, dropped, i == 0);
            let fresh = PlacementSearch::new(n).find(&meta, &trial, dropped, true);
            assert_eq!(answer, fresh, "dropping {:?}", meta[dropped]);
            let still_forbidden = forbidden_pair(meta[dropped]).is_some_and(|pair| {
                trial
                    .iter()
                    .any(|&id| forbidden_pair(meta[id]) == Some(pair))
            });
            if still_forbidden {
                duplicates += 1;
                assert_eq!(answer, None, "{:?} is still forbidden", meta[dropped]);
            }
        }
        assert_eq!(duplicates, 2 * n, "SlotDistinct and DepForbids at each p");
    }

    /// Unknown distances and oversized bodies are out of scope.
    #[test]
    fn out_of_scope_inputs_are_rejected() {
        let unknown = [Dep {
            from: 0,
            to: 1,
            dist: None,
        }];
        assert!(ExactScheduler::default().solve(&unknown, 2, 1).is_none());
        assert_eq!(ExactScheduler::default().lower_bound(&unknown, 2), None);
        let deps: Vec<Dep> = Vec::new();
        assert!(ExactScheduler::default()
            .solve(&deps, MAX_EXACT_MIS + 1, 1)
            .is_none());
    }

    /// The resource cap folds into the lower bound: 6 MIs with a width
    /// cap of 2 need II ≥ 3 regardless of dependences.
    #[test]
    fn row_width_cap_raises_the_bound() {
        let sched = ExactScheduler {
            max_row_width: Some(2),
        };
        assert_eq!(sched.lower_bound(&[], 6), Some(3));
        let r = sched.solve(&[], 6, 4).unwrap();
        assert_eq!(r.ii, 3);
        assert_eq!(r.certificate.mii, 3);
        assert!(r.certificate.proof.is_none());
    }

    /// Exact II never exceeds the heuristic II (by construction) and the
    /// search is deterministic.
    #[test]
    fn exact_at_most_heuristic_and_deterministic() {
        let deps = [dep(0, 2, 0), dep(3, 1, 1), dep(2, 3, 0), dep(1, 1, 1)];
        let hii = 2; // placement: edge 3→1 d1 needs ii ≥ 2
        assert!(identity_feasible(&deps, 4, hii));
        let a = ExactScheduler::default().solve(&deps, 4, hii).unwrap();
        let b = ExactScheduler::default().solve(&deps, 4, hii).unwrap();
        assert_eq!(a, b);
        assert!(a.ii <= hii);
    }

    /// The linear scan of max-plus Floyd–Warshall closures that
    /// [`min_feasible_ii`] replaced in `cycles_mii` and
    /// [`ExactScheduler::lower_bound`], kept as its oracle.
    fn min_feasible_ii_reference(
        n: usize,
        edges: &[(usize, usize, i64, i64)],
        lo: i64,
        hi: i64,
    ) -> Option<i64> {
        const NEG: i64 = i64::MIN / 4;
        'next_ii: for ii in lo..=hi {
            let mut dist = vec![vec![NEG; n]; n];
            for &(from, to, a, d) in edges {
                dist[from][to] = dist[from][to].max(a - ii * d);
            }
            for k in 0..n {
                for i in 0..n {
                    if dist[i][k] == NEG {
                        continue;
                    }
                    for j in 0..n {
                        if dist[k][j] != NEG {
                            dist[i][j] = dist[i][j].max(dist[i][k] + dist[k][j]);
                        }
                    }
                }
            }
            if (0..n).any(|i| dist[i][i] > 0) {
                continue 'next_ii;
            }
            return Some(ii);
        }
        None
    }

    /// Random graphs over `0..n` (edge ends folded into range) and windows.
    fn ii_search_agrees(
        n: usize,
        raw: &[(usize, usize, i64, i64)],
        lo: i64,
        hi: i64,
    ) -> proptest::TestCaseResult {
        let edges: Vec<_> = raw
            .iter()
            .filter(|_| n > 0)
            .map(|&(from, to, a, d)| (from % n, to % n, a - 2, d))
            .collect();
        proptest::prop_assert_eq!(
            min_feasible_ii(n, &edges, lo, hi),
            min_feasible_ii_reference(n, &edges, lo, hi),
            "n {} window [{}, {}] edges {:?}",
            n,
            lo,
            hi,
            edges
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]
        #[test]
        fn min_feasible_ii_matches_linear_scan(
            n in 0usize..10,
            raw in proptest::collection::vec((0usize..64, 0usize..64, 0i64..8, 0i64..4), 0..20),
            lo in 0i64..12,
            hi in 0i64..14,
        ) {
            ii_search_agrees(n, &raw, lo, hi)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 20_000, ..Default::default() })]
        /// The same property over 20 000 cases, for the CI long-run fuzz
        /// job (`cargo test --release -- --ignored`).
        #[test]
        #[ignore]
        fn min_feasible_ii_matches_linear_scan_long(
            n in 0usize..10,
            raw in proptest::collection::vec((0usize..64, 0usize..64, 0i64..8, 0i64..4), 0..20),
            lo in 0i64..12,
            hi in 0i64..14,
        ) {
            ii_search_agrees(n, &raw, lo, hi)?;
        }
    }
}
