//! # slc-sat — a small CDCL SAT solver with unsat cores
//!
//! In-workspace solver backing the exact modulo scheduler (`slc-exact`).
//! Like the proptest shim, it exists because the build environment has
//! no registry access; unlike it, this is a real solver:
//! two-watched-literal propagation, first-UIP clause learning, Luby
//! restarts, and — the part the certificate machinery depends on —
//! **unsat-core extraction**: every learned clause carries the set of
//! original clause ids it was resolved from, so a refutation names the
//! exact subset of input clauses that is jointly unsatisfiable.
//!
//! Everything is deterministic: no randomness, no wall clock, ties broken
//! by variable index. The same instance always produces the same model or
//! the same core, which is what lets solver statistics flow into the
//! byte-identical batch report.
//!
//! **Invariant: the search is a pure function of the clause list.** The
//! clauses and their order fix every decision, propagation, learned
//! clause, restart, model, core and [`Stats`] field. A change to how the
//! solver *represents* its state (origin sets as bitsets over original
//! clause ids, reused analysis scratch, watch lists compacted in place)
//! may make it faster but may not alter any of them; the repository's
//! solver-trajectory golden (`tests/sat_trajectory.rs` at the workspace
//! root) compares them byte for byte. A [`Solver`] memoizes only its own
//! outcome; nothing is shared between solvers.
//!
//! ```
//! use slc_sat::{Lit, Outcome, Solver};
//! let mut s = Solver::new();
//! s.add_clause(&[Lit::pos(0), Lit::pos(1)]);
//! s.add_clause(&[Lit::neg(0)]);
//! match s.solve() {
//!     Outcome::Sat(m) => assert!(m[1] && !m[0]),
//!     Outcome::Unsat(_) => unreachable!(),
//! }
//! ```

/// Variable index (0-based, dense).
pub type Var = usize;

/// A literal: a variable with a polarity, packed as `2·var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit((v as u32) << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// The variable this literal tests.
    pub fn var(self) -> Var {
        (self.0 >> 1) as usize
    }

    /// True for `¬v` literals.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for watch lists.
    fn idx(self) -> usize {
        self.0 as usize
    }

    /// Truth value under a complete assignment.
    pub fn eval(self, model: &[bool]) -> bool {
        model[self.var()] != self.is_neg()
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// Result of [`Solver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Satisfiable, with one model (`model[v]` = assigned value of `v`).
    Sat(Vec<bool>),
    /// Unsatisfiable, with an unsat core: a sorted set of original clause
    /// ids (as returned by [`Solver::add_clause`]) that is jointly
    /// unsatisfiable.
    Unsat(Vec<usize>),
}

impl Outcome {
    /// True for [`Outcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }
}

/// Deterministic search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// branching decisions made
    pub decisions: u64,
    /// literals enqueued by unit propagation
    pub propagations: u64,
    /// conflicts analyzed
    pub conflicts: u64,
    /// Luby restarts performed
    pub restarts: u64,
    /// clauses learned
    pub learned: u64,
}

/// One stored clause (original or learned).
struct Clause {
    lits: Vec<Lit>,
    /// bitset over the original clause ids a learned clause was resolved
    /// from (bit `i` of word `i / 64`); empty for an original clause, whose
    /// origin set is just its own id
    origins: Vec<u64>,
}

/// Conflict-driven clause-learning solver. Build with [`Solver::new`],
/// add clauses, then call [`Solver::solve`] (idempotent — the outcome is
/// memoized).
pub struct Solver {
    clauses: Vec<Clause>,
    /// ids of original clauses (prefix of `clauses`)
    n_original: usize,
    /// indices of active unit clauses, enqueued at level 0
    units: Vec<usize>,
    /// watch lists: literal index → clause indices watching it
    watches: Vec<Vec<usize>>,
    assigns: Vec<Option<bool>>,
    /// saved phase per variable (last assigned polarity; initially false)
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    root_unsat: Option<Vec<usize>>,
    memo: Option<Outcome>,
    stats: Stats,
    /// conflict-analysis marks, all false between analyses
    seen: Vec<bool>,
    /// level-0 reason-chain marks, all false between analyses; the
    /// variables set are listed in `seen0_set`
    seen0: Vec<bool>,
    seen0_set: Vec<Var>,
    /// DFS stack of the level-0 reason-chain walk
    stack: Vec<Var>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Conflicts per Luby unit.
const RESTART_UNIT: u64 = 64;

impl Solver {
    /// An empty instance.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            n_original: 0,
            units: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            root_unsat: None,
            memo: None,
            stats: Stats::default(),
            seen: Vec::new(),
            seen0: Vec::new(),
            seen0_set: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Number of variables (highest mentioned + 1).
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    fn grow_to(&mut self, v: Var) {
        while self.assigns.len() <= v {
            self.assigns.push(None);
            self.phase.push(false);
            self.level.push(0);
            self.reason.push(None);
            self.activity.push(0.0);
            self.seen.push(false);
            self.seen0.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
    }

    /// Add a clause (a disjunction of literals) and return its id.
    /// Duplicate literals are removed; tautologies are accepted but never
    /// constrain the search. The empty clause makes the instance
    /// trivially unsatisfiable with core `[id]`.
    pub fn add_clause(&mut self, lits: &[Lit]) -> usize {
        assert!(self.memo.is_none(), "add_clause after solve");
        let id = self.clauses.len();
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort();
        ls.dedup();
        let tautology = ls.windows(2).any(|w| w[0].var() == w[1].var());
        if let Some(&m) = ls.iter().map(|l| l.var()).max().as_ref() {
            self.grow_to(m);
        }
        if !tautology {
            match ls.len() {
                0 => {
                    if self.root_unsat.is_none() {
                        self.root_unsat = Some(vec![id]);
                    }
                }
                1 => self.units.push(id),
                _ => {
                    self.watches[ls[0].idx()].push(id);
                    self.watches[ls[1].idx()].push(id);
                }
            }
        }
        // tautologies are stored (for id stability) but never attached
        self.clauses.push(Clause {
            lits: ls,
            origins: Vec::new(),
        });
        self.n_original = self.clauses.len();
        id
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var()].map(|b| b != l.is_neg())
    }

    /// Assign `p` true. Only call when `p` is unassigned.
    fn enqueue(&mut self, p: Lit, reason: Option<usize>) {
        debug_assert!(self.lit_value(p).is_none());
        let v = p.var();
        self.assigns[v] = Some(!p.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(p);
        if reason.is_some() {
            self.stats.propagations += 1;
        }
    }

    /// Two-watched-literal BCP. Returns a conflicting clause index.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negate();
            // Compact the watch list in place: `ws[..kept]` holds the
            // clauses that still watch `false_lit`, in their old order. A
            // clause that moves its watch never moves it back onto
            // `false_lit` (that literal is false), so nothing is pushed
            // onto the list while it is out of `self.watches`.
            let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
            let mut kept = 0;
            let mut conflict = None;
            for wi in 0..ws.len() {
                let ci = ws[wi];
                if conflict.is_some() {
                    ws[kept] = ci;
                    kept += 1;
                    continue;
                }
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.lit_value(first) == Some(true) {
                    ws[kept] = ci;
                    kept += 1;
                    continue;
                }
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let lk = self.clauses[ci].lits[k];
                    if self.lit_value(lk) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        let w = self.clauses[ci].lits[1];
                        self.watches[w.idx()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                ws[kept] = ci;
                kept += 1;
                if self.lit_value(first) == Some(false) {
                    // the rest of this watch list is kept untouched
                    conflict = Some(ci);
                } else {
                    self.enqueue(first, Some(ci));
                }
            }
            ws.truncate(kept);
            self.watches[false_lit.idx()] = ws;
            if let Some(ci) = conflict {
                self.qhead = self.trail.len();
                return Some(ci);
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn decay(&mut self) {
        self.var_inc /= 0.95;
    }

    /// An empty origin set: one bit per original clause.
    fn no_origins(&self) -> Vec<u64> {
        vec![0; self.n_original.div_ceil(64)]
    }

    /// Union clause `ci`'s origin set into `out`.
    fn add_origins(&self, ci: usize, out: &mut [u64]) {
        if ci < self.n_original {
            out[ci / 64] |= 1 << (ci % 64);
        } else {
            for (o, w) in out.iter_mut().zip(&self.clauses[ci].origins) {
                *o |= w;
            }
        }
    }

    /// Union the origin closure of a level-0 assigned variable into `out`
    /// (the reason chain that forced it). Variables already walked since
    /// the last [`Solver::clear_seen0`] are skipped: their origins are in
    /// `out` already, and union is idempotent.
    fn level0_origins(&mut self, v0: Var, out: &mut [u64]) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(v0);
        while let Some(v) = stack.pop() {
            if self.seen0[v] {
                continue;
            }
            self.seen0[v] = true;
            self.seen0_set.push(v);
            if let Some(r) = self.reason[v] {
                self.add_origins(r, out);
                for &q in &self.clauses[r].lits {
                    if q.var() != v && !self.seen0[q.var()] {
                        stack.push(q.var());
                    }
                }
            }
        }
        self.stack = stack;
    }

    /// Reset the marks [`Solver::level0_origins`] set.
    fn clear_seen0(&mut self) {
        for v in self.seen0_set.drain(..) {
            self.seen0[v] = false;
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first, second-highest-level literal second), the backjump
    /// level, and the origin set of the resolution.
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, u32, Vec<u64>) {
        let cur = self.decision_level();
        let mut learnt: Vec<Lit> = Vec::new();
        let mut origins = self.no_origins();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            self.add_origins(confl, &mut origins);
            for k in 0..self.clauses[confl].lits.len() {
                let q = self.clauses[confl].lits[k];
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if self.seen[v] {
                    continue;
                }
                if self.level[v] == 0 {
                    // globally-false literal, dropped from the learned
                    // clause — but its derivation stays in the origin set
                    self.level0_origins(v, &mut origins);
                    continue;
                }
                self.seen[v] = true;
                self.bump(v);
                if self.level[v] >= cur {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var()] = false;
            counter -= 1;
            if counter == 0 {
                learnt.insert(0, pl.negate());
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var()].expect("non-UIP literal has a reason");
        }
        // every current-level mark was cleared on the trail walk; the
        // lower-level ones are exactly the rest of the learned clause
        for l in &learnt[1..] {
            self.seen[l.var()] = false;
        }
        self.clear_seen0();
        let mut back = 0;
        if learnt.len() > 1 {
            let mut mi = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var()] > self.level[learnt[mi].var()] {
                    mi = i;
                }
            }
            learnt.swap(1, mi);
            back = self.level[learnt[1].var()];
        }
        (learnt, back, origins)
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level implies a limit");
            while self.trail.len() > lim {
                let p = self.trail.pop().expect("trail above limit");
                let v = p.var();
                self.phase[v] = !p.is_neg();
                self.assigns[v] = None;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
    }

    /// Store a learned clause, attach watches, and assert its first
    /// literal.
    fn learn(&mut self, lits: Vec<Lit>, origins: Vec<u64>) {
        self.stats.learned += 1;
        let ci = self.clauses.len();
        let asserting = lits[0];
        let attach = lits.len() > 1;
        if attach {
            self.watches[lits[0].idx()].push(ci);
            self.watches[lits[1].idx()].push(ci);
        }
        self.clauses.push(Clause { lits, origins });
        self.enqueue(asserting, Some(ci));
    }

    /// Unsat core of a conflict at decision level 0: resolve the conflict
    /// clause against the reason chain of every falsified literal.
    fn final_core(&mut self, confl: usize) -> Vec<usize> {
        let mut origins = self.no_origins();
        self.add_origins(confl, &mut origins);
        for k in 0..self.clauses[confl].lits.len() {
            let v = self.clauses[confl].lits[k].var();
            self.level0_origins(v, &mut origins);
        }
        self.clear_seen0();
        // set bits in ascending order: the sorted core
        let mut core = Vec::new();
        for (wi, &w) in origins.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                core.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        core
    }

    /// Pick the unassigned variable with the highest activity (ties →
    /// lowest index).
    fn pick_branch(&self) -> Option<Var> {
        let mut best: Option<Var> = None;
        for v in 0..self.num_vars() {
            if self.assigns[v].is_none() && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    /// Decide satisfiability. The outcome is memoized; repeated calls are
    /// cheap and identical.
    pub fn solve(&mut self) -> Outcome {
        if let Some(o) = &self.memo {
            return o.clone();
        }
        let o = self.solve_inner();
        self.memo = Some(o.clone());
        o
    }

    fn solve_inner(&mut self) -> Outcome {
        if let Some(core) = &self.root_unsat {
            return Outcome::Unsat(core.clone());
        }
        // assert the original unit clauses at level 0
        for ci in self.units.clone() {
            let l = self.clauses[ci].lits[0];
            match self.lit_value(l) {
                Some(true) => {}
                Some(false) => return Outcome::Unsat(self.final_core(ci)),
                None => self.enqueue(l, Some(ci)),
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                return Outcome::Unsat(self.final_core(confl));
            }
        }
        let mut since_restart = 0u64;
        let mut restart_idx = 0u64;
        let mut limit = RESTART_UNIT * luby(restart_idx);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    return Outcome::Unsat(self.final_core(confl));
                }
                let (learnt, back, origins) = self.analyze(confl);
                self.cancel_until(back);
                self.learn(learnt, origins);
                self.decay();
                since_restart += 1;
            } else if since_restart >= limit {
                self.stats.restarts += 1;
                restart_idx += 1;
                limit = RESTART_UNIT * luby(restart_idx);
                since_restart = 0;
                self.cancel_until(0);
            } else {
                match self.pick_branch() {
                    None => {
                        let model: Vec<bool> = self
                            .assigns
                            .iter()
                            .map(|a| a.expect("complete assignment"))
                            .collect();
                        return Outcome::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = if self.phase[v] {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        };
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }
}

/// True when `model` satisfies every clause (an empty clause is never
/// satisfied). A literal over a variable past the end of `model`
/// satisfies nothing, so a short model is rejected rather than trusted.
pub fn check_model(model: &[bool], clauses: &[Vec<Lit>]) -> bool {
    clauses.iter().all(|c| satisfies(model, c))
}

/// True when some literal of `clause` is true under `model`.
fn satisfies(model: &[bool], clause: &[Lit]) -> bool {
    clause
        .iter()
        .any(|l| model.get(l.var()).is_some_and(|&b| b != l.is_neg()))
}

/// Exhaustive model enumeration — the trusted reference the CDCL solver
/// is property-tested against, and the checker `slc verify` uses to
/// re-establish that a certificate's clause set is unsatisfiable. Returns
/// the lexicographically first model (variable 0 is the least significant
/// bit of the enumeration), or `None` when unsatisfiable. Exponential in
/// `num_vars`; callers keep `num_vars ≤ 24`.
pub fn brute_force(num_vars: usize, clauses: &[Vec<Lit>]) -> Option<Vec<bool>> {
    assert!(num_vars <= 24, "brute_force is exponential in num_vars");
    // Per-clause bitmasks: a clause is falsified by a model `bits` iff
    // `bits & care == falsify` (every literal assigned its false value).
    // Tautologies can never match and are dropped.
    let mut masks: Vec<(u64, u64)> = Vec::with_capacity(clauses.len());
    for c in clauses {
        if c.is_empty() {
            return None;
        }
        let (mut care, mut falsify) = (0u64, 0u64);
        let mut tautology = false;
        for &l in c {
            assert!(l.var() < num_vars, "literal out of range");
            let bit = 1u64 << l.var();
            let false_bit = if l.is_neg() { bit } else { 0 };
            if care & bit != 0 && falsify & bit != false_bit {
                tautology = true;
                break;
            }
            care |= bit;
            falsify = (falsify & !bit) | false_bit;
        }
        if !tautology {
            masks.push((care, falsify));
        }
    }
    'next: for bits in 0..(1u64 << num_vars) {
        for &(care, falsify) in &masks {
            if bits & care == falsify {
                continue 'next;
            }
        }
        return Some((0..num_vars).map(|v| bits >> v & 1 == 1).collect());
    }
    None
}

/// Solve only the clauses in `keep` (ids into `clauses`); the returned
/// core is mapped back to ids in the original space.
pub fn solve_subset(clauses: &[Vec<Lit>], keep: &[usize]) -> Outcome {
    let mut s = Solver::new();
    for &id in keep {
        s.add_clause(&clauses[id]);
    }
    match s.solve() {
        Outcome::Sat(m) => Outcome::Sat(m),
        Outcome::Unsat(core) => {
            let mut mapped: Vec<usize> = core.into_iter().map(|i| keep[i]).collect();
            mapped.sort_unstable();
            Outcome::Unsat(mapped)
        }
    }
}

/// Deletion-based unsat-core minimization: drop each clause of `core` in
/// turn (in ascending id order) and solve the remainder from scratch with
/// [`solve_subset`]. A satisfiable remainder means the dropped clause is
/// needed and the loop moves on; an unsatisfiable one replaces the working
/// core with the sub-solve's own core, which may shrink it by more than
/// the dropped clause. The result is a *minimal* core (no single clause
/// can be removed), though not necessarily a minimum one. `core` must be
/// an unsat core of `clauses`. This is [`minimize_core_with`] with no
/// model finder, and the oracle it is tested against.
pub fn minimize_core(clauses: &[Vec<Lit>], core: &[usize]) -> Vec<usize> {
    minimize_core_with(clauses, core, |_, _| None)
}

/// [`minimize_core`] with a cheap way to settle satisfiable trials. Before
/// each sub-solve, `find` is asked for a model of the trial (clause ids
/// into `clauses`, ascending) and told the id of the clause the trial
/// drops from the working core. The working core is always
/// unsatisfiable, so every model of the trial falsifies the dropped
/// clause: a finder may start its search from that. When `find` returns a
/// model that [`check_model`] accepts on every clause of the trial, the
/// trial is satisfiable and no solver runs. Otherwise, a rejected model or
/// `None`, the trial is solved from scratch exactly as in
/// [`minimize_core`]. A checked model proves the verdict the solver would
/// have reached, and every unsatisfiable trial still takes the solver's
/// core, so the result is `minimize_core`'s whatever `find` returns; only
/// the number of sub-solves changes.
pub fn minimize_core_with<F>(clauses: &[Vec<Lit>], core: &[usize], mut find: F) -> Vec<usize>
where
    F: FnMut(&[usize], usize) -> Option<Vec<bool>>,
{
    let mut cur: Vec<usize> = core.to_vec();
    cur.sort_unstable();
    let mut trial = Vec::with_capacity(cur.len());
    let mut i = 0;
    while i < cur.len() {
        trial.clear();
        trial.extend(cur[..i].iter().chain(&cur[i + 1..]));
        let settled = find(&trial, cur[i])
            .is_some_and(|m| trial.iter().all(|&id| satisfies(&m, &clauses[id])));
        if settled {
            i += 1;
            continue;
        }
        match solve_subset(clauses, &trial) {
            Outcome::Unsat(smaller) => {
                // the sub-solve may shrink the core further for free
                cur = smaller;
            }
            Outcome::Sat(_) => i += 1,
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[Lit::pos(0)]);
        assert_eq!(s.solve(), Outcome::Sat(vec![true]));

        let mut s = Solver::new();
        let a = s.add_clause(&[Lit::pos(0)]);
        let b = s.add_clause(&[Lit::neg(0)]);
        assert_eq!(s.solve(), Outcome::Unsat(vec![a, b]));
    }

    #[test]
    fn tautologies_never_constrain_or_appear_in_cores() {
        let mut s = Solver::new();
        s.add_clause(&[Lit::pos(0), Lit::neg(0)]);
        let a = s.add_clause(&[Lit::pos(1)]);
        let b = s.add_clause(&[Lit::neg(1)]);
        assert_eq!(s.solve(), Outcome::Unsat(vec![a, b]));
    }

    #[test]
    fn luby_prefix() {
        let want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }
}
