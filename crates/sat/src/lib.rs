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
//! solver *represents* its state may make it faster but may not alter any
//! of them; the repository's solver-trajectory golden
//! (`tests/sat_trajectory.rs` at the workspace root) compares them byte
//! for byte. The representation: every clause's literals in one flat
//! arena addressed by `u32` offsets, the learned clauses' origin sets
//! (bitsets over original clause ids) in one slab, one value per
//! literal, conflict-analysis buffers reused, and watch lists compacted
//! in place.
//!
//! A [`Solver`] memoizes only its own outcome, and nothing is shared
//! between solvers. One solver can be reused: [`Solver::reset`] clears
//! every field back to its [`Solver::new`] value and keeps only the
//! buffers' capacity, so the next instance's search is the one a fresh
//! solver makes. [`minimize_core_with`] runs all of its sub-solves on one
//! such workspace.
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

/// Value of a literal in [`Solver`]'s per-literal value array.
const TRUE: u8 = 1;
const FALSE: u8 = 0;
const UNDEF: u8 = 2;

/// `reason` of a decision or an unassigned variable.
const NO_REASON: u32 = u32::MAX;

/// Conflict-driven clause-learning solver. Build with [`Solver::new`],
/// add clauses, then call [`Solver::solve`] (idempotent — the outcome is
/// memoized). [`Solver::reset`] empties it for the next instance and keeps
/// its buffers.
pub struct Solver {
    /// the literals of every clause, original then learned, back to back
    lits: Vec<Lit>,
    /// per clause id: offset of its literals in `lits`, and their count
    spans: Vec<(u32, u32)>,
    /// ids of original clauses (prefix of `spans`)
    n_original: usize,
    /// `u64` words per origin set: one bit per original clause
    origin_words: usize,
    /// origin sets of the learned clauses, `origin_words` words each, in
    /// learning order: the set of original clause ids a learned clause was
    /// resolved from. An original clause's set is just its own id.
    origins: Vec<u64>,
    /// indices of active unit clauses, enqueued at level 0
    units: Vec<u32>,
    /// watch lists: literal index → clause indices watching it. Lists
    /// past `2 · num_vars` are empty and kept for reuse.
    watches: Vec<Vec<u32>>,
    num_vars: usize,
    /// value per literal index: `TRUE`, `FALSE` or `UNDEF`
    vals: Vec<u8>,
    /// saved phase per variable (last assigned polarity; initially false)
    phase: Vec<bool>,
    level: Vec<u32>,
    /// clause that forced each variable, or `NO_REASON`
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// id of the first empty original clause
    root_unsat: Option<usize>,
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
    /// the clause conflict analysis learns (asserting literal first)
    learnt: Vec<Lit>,
    /// the origin set conflict analysis or a final core accumulates
    acc: Vec<u64>,
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
            lits: Vec::new(),
            spans: Vec::new(),
            n_original: 0,
            origin_words: 0,
            origins: Vec::new(),
            units: Vec::new(),
            watches: Vec::new(),
            num_vars: 0,
            vals: Vec::new(),
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
            learnt: Vec::new(),
            acc: Vec::new(),
        }
    }

    /// Empty the solver for a new instance, keeping its allocations. Every
    /// field is back to its [`Solver::new`] value (the buffers are only
    /// cleared), so the next instance's search, outcome and [`Stats`] are
    /// those of a fresh solver.
    pub fn reset(&mut self) {
        // destructured, so a new field cannot be left out of the reset
        let Solver {
            lits,
            spans,
            n_original,
            origin_words,
            origins,
            units,
            watches,
            num_vars,
            vals,
            phase,
            level,
            reason,
            trail,
            trail_lim,
            qhead,
            activity,
            var_inc,
            root_unsat,
            memo,
            stats,
            seen,
            seen0,
            seen0_set,
            stack,
            learnt,
            acc,
        } = self;
        for w in &mut watches[..2 * *num_vars] {
            w.clear();
        }
        *num_vars = 0;
        *n_original = 0;
        *origin_words = 0;
        *qhead = 0;
        *var_inc = 1.0;
        *root_unsat = None;
        *memo = None;
        *stats = Stats::default();
        lits.clear();
        spans.clear();
        origins.clear();
        units.clear();
        vals.clear();
        phase.clear();
        level.clear();
        reason.clear();
        trail.clear();
        trail_lim.clear();
        activity.clear();
        seen.clear();
        seen0.clear();
        seen0_set.clear();
        stack.clear();
        learnt.clear();
        acc.clear();
    }

    /// Number of variables (highest mentioned + 1).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Search statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    fn grow_to(&mut self, v: Var) {
        if v < self.num_vars {
            return;
        }
        let n = v + 1;
        self.num_vars = n;
        self.vals.resize(2 * n, UNDEF);
        self.phase.resize(n, false);
        self.level.resize(n, 0);
        self.reason.resize(n, NO_REASON);
        self.activity.resize(n, 0.0);
        self.seen.resize(n, false);
        self.seen0.resize(n, false);
        if self.watches.len() < 2 * n {
            self.watches.resize_with(2 * n, Vec::new);
        }
    }

    /// The literals of clause `ci`.
    fn clause(&self, ci: usize) -> &[Lit] {
        let (start, len) = self.spans[ci];
        &self.lits[start as usize..][..len as usize]
    }

    /// Record `lits[start..]` as the next clause.
    fn push_clause(&mut self, start: usize) {
        let len = self.lits.len() - start;
        let start = u32::try_from(start).expect("clause arena exceeds u32 offsets");
        self.spans.push((start, len as u32));
    }

    /// Add a clause (a disjunction of literals) and return its id.
    /// Duplicate literals are removed; tautologies are accepted but never
    /// constrain the search. The empty clause makes the instance
    /// trivially unsatisfiable with core `[id]`.
    pub fn add_clause(&mut self, lits: &[Lit]) -> usize {
        assert!(self.memo.is_none(), "add_clause after solve");
        let id = self.spans.len();
        let start = self.lits.len();
        self.lits.extend_from_slice(lits);
        let ls = &mut self.lits[start..];
        ls.sort_unstable();
        let mut len = 0;
        for i in 0..ls.len() {
            if len == 0 || ls[i] != ls[len - 1] {
                ls[len] = ls[i];
                len += 1;
            }
        }
        self.lits.truncate(start + len);
        let ls = &self.lits[start..];
        let tautology = ls.windows(2).any(|w| w[0].var() == w[1].var());
        // sorted by literal, so by variable: the last literal's is the max
        if let Some(m) = ls.last().map(|l| l.var()) {
            self.grow_to(m);
        }
        if !tautology {
            match len {
                0 => {
                    if self.root_unsat.is_none() {
                        self.root_unsat = Some(id);
                    }
                }
                1 => self.units.push(id as u32),
                _ => {
                    self.watches[self.lits[start].idx()].push(id as u32);
                    self.watches[self.lits[start + 1].idx()].push(id as u32);
                }
            }
        }
        // tautologies are stored (for id stability) but never attached
        self.push_clause(start);
        self.n_original = self.spans.len();
        id
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Assign `p` true. Only call when `p` is unassigned.
    fn enqueue(&mut self, p: Lit, reason: u32) {
        debug_assert_eq!(self.vals[p.idx()], UNDEF);
        let v = p.var();
        self.vals[p.idx()] = TRUE;
        self.vals[p.negate().idx()] = FALSE;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(p);
        if reason != NO_REASON {
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
                let (start, len) = self.spans[ci as usize];
                let c = &mut self.lits[start as usize..][..len as usize];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                let first = c[0];
                if self.vals[first.idx()] == TRUE {
                    ws[kept] = ci;
                    kept += 1;
                    continue;
                }
                let mut moved = None;
                for k in 2..c.len() {
                    if self.vals[c[k].idx()] != FALSE {
                        c.swap(1, k);
                        moved = Some(c[1]);
                        break;
                    }
                }
                if let Some(w) = moved {
                    self.watches[w.idx()].push(ci);
                    continue;
                }
                ws[kept] = ci;
                kept += 1;
                if self.vals[first.idx()] == FALSE {
                    // the rest of this watch list is kept untouched
                    conflict = Some(ci as usize);
                } else {
                    self.enqueue(first, ci);
                }
            }
            ws.truncate(kept);
            self.watches[false_lit.idx()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
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

    /// Start `acc` as an empty origin set.
    fn clear_acc(&mut self) {
        self.acc.clear();
        self.acc.resize(self.origin_words, 0);
    }

    /// Union clause `ci`'s origin set into `acc`.
    fn add_origins(&mut self, ci: usize) {
        if ci < self.n_original {
            self.acc[ci / 64] |= 1 << (ci % 64);
        } else {
            let w = self.origin_words;
            let set = &self.origins[(ci - self.n_original) * w..][..w];
            for (o, s) in self.acc.iter_mut().zip(set) {
                *o |= s;
            }
        }
    }

    /// Union the origin closure of a level-0 assigned variable into `acc`
    /// (the reason chain that forced it). Variables already walked since
    /// the last [`Solver::clear_seen0`] are skipped: their origins are in
    /// `acc` already, and union is idempotent.
    fn level0_origins(&mut self, v0: Var) {
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(v0);
        while let Some(v) = stack.pop() {
            if self.seen0[v] {
                continue;
            }
            self.seen0[v] = true;
            self.seen0_set.push(v);
            let r = self.reason[v];
            if r != NO_REASON {
                self.add_origins(r as usize);
                for &q in self.clause(r as usize) {
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

    /// First-UIP conflict analysis. Leaves the learned clause in `learnt`
    /// (asserting literal first, second-highest-level literal second) and
    /// the origin set of the resolution in `acc`; returns the backjump
    /// level.
    fn analyze(&mut self, mut confl: usize) -> u32 {
        let cur = self.decision_level();
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        // slot 0 is the asserting literal, known once the walk ends
        learnt.push(Lit(0));
        self.clear_acc();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            self.add_origins(confl);
            let (start, len) = self.spans[confl];
            for k in start as usize..(start + len) as usize {
                let q = self.lits[k];
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
                    self.level0_origins(v);
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
                learnt[0] = pl.negate();
                break;
            }
            p = Some(pl);
            let r = self.reason[pl.var()];
            debug_assert_ne!(r, NO_REASON, "non-UIP literal has a reason");
            confl = r as usize;
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
        self.learnt = learnt;
        back
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level implies a limit");
            while self.trail.len() > lim {
                let p = self.trail.pop().expect("trail above limit");
                let v = p.var();
                self.phase[v] = !p.is_neg();
                self.vals[p.idx()] = UNDEF;
                self.vals[p.negate().idx()] = UNDEF;
                self.reason[v] = NO_REASON;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
    }

    /// Store the clause in `learnt` with the origin set in `acc`, attach
    /// watches, and assert its first literal.
    fn learn(&mut self) {
        self.stats.learned += 1;
        let ci = self.spans.len() as u32;
        let asserting = self.learnt[0];
        if self.learnt.len() > 1 {
            self.watches[self.learnt[0].idx()].push(ci);
            self.watches[self.learnt[1].idx()].push(ci);
        }
        let start = self.lits.len();
        self.lits.extend_from_slice(&self.learnt);
        self.push_clause(start);
        self.origins.extend_from_slice(&self.acc);
        self.enqueue(asserting, ci);
    }

    /// Unsat core of a conflict at decision level 0: resolve the conflict
    /// clause against the reason chain of every falsified literal.
    fn final_core(&mut self, confl: usize) -> Vec<usize> {
        self.clear_acc();
        self.add_origins(confl);
        let (start, len) = self.spans[confl];
        for k in start as usize..(start + len) as usize {
            self.level0_origins(self.lits[k].var());
        }
        self.clear_seen0();
        // set bits in ascending order: the sorted core
        let mut core = Vec::new();
        for (wi, &w) in self.acc.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                core.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        core
    }

    /// Pick the unassigned variable with the highest activity (ties →
    /// lowest index). Activities are never negative, so the first
    /// unassigned variable beats the `-∞` start.
    fn pick_branch(&self) -> Option<Var> {
        let mut best = None;
        let mut top = f64::NEG_INFINITY;
        for (v, (&a, val)) in self
            .activity
            .iter()
            .zip(self.vals.chunks_exact(2))
            .enumerate()
        {
            if val[0] == UNDEF && a > top {
                top = a;
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
        if let Some(id) = self.root_unsat {
            return Outcome::Unsat(vec![id]);
        }
        self.origin_words = self.n_original.div_ceil(64);
        // assert the original unit clauses at level 0
        for u in 0..self.units.len() {
            let ci = self.units[u];
            let l = self.clause(ci as usize)[0];
            match self.vals[l.idx()] {
                TRUE => {}
                FALSE => return Outcome::Unsat(self.final_core(ci as usize)),
                _ => self.enqueue(l, ci),
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
                let back = self.analyze(confl);
                self.cancel_until(back);
                self.learn();
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
                        let model = (0..self.num_vars)
                            .map(|v| self.vals[2 * v] == TRUE)
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
                        self.enqueue(lit, NO_REASON);
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
    solve_subset_on(&mut Solver::new(), clauses, keep)
}

/// [`solve_subset`] on the workspace `s`, which is reset first; the
/// outcome is the one a fresh solver gives.
fn solve_subset_on(s: &mut Solver, clauses: &[Vec<Lit>], keep: &[usize]) -> Outcome {
    s.reset();
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
/// turn (in ascending id order) and solve the remainder with
/// [`solve_subset`]'s fresh search. A satisfiable remainder means the
/// dropped clause is needed and the loop moves on; an unsatisfiable one
/// replaces the working core with the sub-solve's own core, which may
/// shrink it by more than the dropped clause. The result is a *minimal*
/// core (no single clause can be removed), though not necessarily a
/// minimum one. `core` must be an unsat core of `clauses`. This is
/// [`minimize_core_with`] with no model finder, and the oracle it is
/// tested against.
pub fn minimize_core(clauses: &[Vec<Lit>], core: &[usize]) -> Vec<usize> {
    minimize_core_with(clauses, core, |_, _, _| None)
}

/// [`minimize_core`] with a cheap way to settle satisfiable trials. Before
/// each sub-solve, `find(trial, dropped, new_core)` is asked for a model
/// of the trial (clause ids into `clauses`, ascending). `dropped` is the
/// id of the clause the trial leaves out of the working core, so the
/// working core is `trial` plus `dropped`. `new_core` is true when that
/// core differs from the previous call's: on the first trial, and on the
/// first after an unsatisfiable trial replaced the core. Between two such
/// calls a finder may keep tables built over the core and toggle only
/// `dropped`. The working core is always unsatisfiable, so every model of
/// the trial falsifies the dropped clause: a finder may start its search
/// from that. When `find` returns a model that [`check_model`] accepts on
/// every clause of the trial, the trial is satisfiable and no solver runs.
/// Otherwise, a rejected model or `None`, the trial is solved exactly as
/// in [`minimize_core`]. A checked model proves the verdict the solver
/// would have reached, and every unsatisfiable trial still takes the
/// solver's core, so the result is `minimize_core`'s whatever `find`
/// returns; only the number of sub-solves changes.
///
/// Every sub-solve runs on one [`Solver`] workspace, [`Solver::reset`]
/// before each trial. A reset solver is a fresh one with its buffers
/// kept, so each sub-solve makes the search a new solver would make.
/// What the loop did is added to this thread's [`minimize_counts`].
pub fn minimize_core_with<F>(clauses: &[Vec<Lit>], core: &[usize], mut find: F) -> Vec<usize>
where
    F: FnMut(&[usize], usize, bool) -> Option<Vec<bool>>,
{
    let mut cur: Vec<usize> = core.to_vec();
    cur.sort_unstable();
    let mut trial = Vec::with_capacity(cur.len());
    let mut workspace = Solver::new();
    let mut counts = MinimizeCounts::default();
    let mut new_core = true;
    let mut i = 0;
    while i < cur.len() {
        trial.clear();
        trial.extend(cur[..i].iter().chain(&cur[i + 1..]));
        counts.trials += 1;
        let settled = find(&trial, cur[i], new_core)
            .is_some_and(|m| trial.iter().all(|&id| satisfies(&m, &clauses[id])));
        new_core = false;
        if settled {
            counts.settled += 1;
            i += 1;
            continue;
        }
        counts.solves += 1;
        match solve_subset_on(&mut workspace, clauses, &trial) {
            Outcome::Unsat(smaller) => {
                // the sub-solve may shrink the core further for free
                counts.unsat += 1;
                cur = smaller;
                new_core = true;
            }
            Outcome::Sat(_) => i += 1,
        }
    }
    MINIMIZE_COUNTS.with(|c| c.set(c.get() + counts));
    cur
}

/// Work done by [`minimize_core_with`] (and so [`minimize_core`]): a
/// deterministic count, never a time. `trials = settled + solves`; a
/// finder that settles every satisfiable trial leaves `solves = unsat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimizeCounts {
    /// trials of the deletion loop: one per visit of a working-core clause
    pub trials: u64,
    /// trials settled by a finder's checked model, with no solve
    pub settled: u64,
    /// trials solved by a fresh sub-solve
    pub solves: u64,
    /// sub-solves that were unsatisfiable and replaced the working core
    pub unsat: u64,
}

impl std::ops::Add for MinimizeCounts {
    type Output = MinimizeCounts;

    fn add(self, o: MinimizeCounts) -> MinimizeCounts {
        MinimizeCounts {
            trials: self.trials + o.trials,
            settled: self.settled + o.settled,
            solves: self.solves + o.solves,
            unsat: self.unsat + o.unsat,
        }
    }
}

/// The counts between an earlier reading of the same thread and this one.
impl std::ops::Sub for MinimizeCounts {
    type Output = MinimizeCounts;

    fn sub(self, earlier: MinimizeCounts) -> MinimizeCounts {
        MinimizeCounts {
            trials: self.trials - earlier.trials,
            settled: self.settled - earlier.settled,
            solves: self.solves - earlier.solves,
            unsat: self.unsat - earlier.unsat,
        }
    }
}

thread_local! {
    static MINIMIZE_COUNTS: std::cell::Cell<MinimizeCounts> =
        const { std::cell::Cell::new(MinimizeCounts { trials: 0, settled: 0, solves: 0, unsat: 0 }) };
}

/// The [`MinimizeCounts`] of every minimization this thread has run. Take
/// a reading before and after a piece of work and subtract the two to
/// count that work alone.
pub fn minimize_counts() -> MinimizeCounts {
    MINIMIZE_COUNTS.with(std::cell::Cell::get)
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
