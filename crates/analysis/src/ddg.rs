//! The MI-level data dependence graph (DDG).
//!
//! Nodes are multi-instructions in source order; edges carry a dependence
//! kind and one or more iteration distances ("Edges connecting memory
//! reference nodes are propagated up to the parent MI" — §5). Delays are
//! *not* assigned here: the §3.5 source-level delay rules live in
//! `slc-core`, which consumes this graph.

#![allow(clippy::needless_range_loop)] // index loops mirror the papers' pseudo-code
use crate::access::{accesses_of_stmt, MiAccesses};
use crate::deps::{array_dep_distances, DepDist};
use crate::exactdep::{analyze_pair, DepPairSummary, DepStats, DepVerdict, LoopRange};
use crate::mi::Mi;

/// Kind of a data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepKind {
    /// write → read (true/flow dependence)
    Flow,
    /// read → write (anti dependence)
    Anti,
    /// write → write (output dependence)
    Output,
}

/// An iteration distance on a dependence edge. `Const(d)` with `d >= 0`
/// (the source MI executes in iteration `i`, the sink in `i + d`);
/// `Unknown` is the conservative "any distance" answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distance {
    /// Exact iteration distance (≥ 0).
    Const(i64),
    /// Unconstrained distance.
    Unknown,
}

/// One dependence edge between MIs. An edge aggregates every access pair
/// with the same (from, to, kind); `dists` then carries several distances,
/// matching the paper's "each dependency edge has several pairs of
/// *iteration-distance, delay*".
#[derive(Debug, Clone, PartialEq)]
pub struct DepEdge {
    /// Source MI index (executes first).
    pub from: usize,
    /// Sink MI index.
    pub to: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// All observed iteration distances.
    pub dists: Vec<Distance>,
    /// `Some(name)` when the edge is caused by a scalar variable — such
    /// edges (anti/output) are removable by renaming (MVE/scalar expansion);
    /// `None` for array-memory edges, which renaming cannot remove.
    pub scalar: Option<String>,
}

/// The data dependence graph of one loop body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ddg {
    /// Number of MIs.
    pub n: usize,
    /// Dependence edges (deduplicated by (from, to, kind)).
    pub edges: Vec<DepEdge>,
    /// Per-MI access summaries, kept for decomposition decisions.
    pub accesses: Vec<MiAccesses>,
}

impl Ddg {
    /// True if any edge carries an [`Distance::Unknown`] — SLMS cannot prove
    /// a valid II in that case and gives up on the loop.
    pub fn has_unknown(&self) -> bool {
        self.edges
            .iter()
            .any(|e| e.dists.contains(&Distance::Unknown))
    }

    /// Whether MI `k` has a loop-carried self dependence (distance ≥ 1).
    pub fn has_self_carried(&self, k: usize) -> bool {
        self.edges.iter().any(|e| {
            e.from == k && e.to == k && e.dists.iter().any(|d| !matches!(d, Distance::Const(0)))
        })
    }
}

fn push_edge_tagged(
    edges: &mut Vec<DepEdge>,
    from: usize,
    to: usize,
    kind: DepKind,
    dist: Distance,
    scalar: Option<&str>,
) {
    if let Some(e) = edges
        .iter_mut()
        .find(|e| e.from == from && e.to == to && e.kind == kind && e.scalar.as_deref() == scalar)
    {
        if !e.dists.contains(&dist) {
            e.dists.push(dist);
        }
    } else {
        edges.push(DepEdge {
            from,
            to,
            kind,
            dists: vec![dist],
            scalar: scalar.map(str::to_string),
        });
    }
}

fn push_edge(edges: &mut Vec<DepEdge>, from: usize, to: usize, kind: DepKind, dist: Distance) {
    push_edge_tagged(edges, from, to, kind, dist, None);
}

fn kind_of(src_write: bool, dst_write: bool) -> DepKind {
    match (src_write, dst_write) {
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (true, true) => DepKind::Output,
        (false, false) => unreachable!("read-read pairs are filtered out"),
    }
}

/// Record a dependence between access `x` in MI `p` and access `y` in MI `q`
/// given the raw distance `d` of the pair test (second access `y` at `i+d`).
fn orient(edges: &mut Vec<DepEdge>, p: usize, q: usize, xw: bool, yw: bool, d: DepDist) {
    match d {
        DepDist::None => {}
        DepDist::Dist(d) => {
            if d > 0 {
                push_edge(edges, p, q, kind_of(xw, yw), Distance::Const(d));
            } else if d < 0 {
                push_edge(edges, q, p, kind_of(yw, xw), Distance::Const(-d));
            } else {
                // same-iteration: source is the textually earlier MI
                match p.cmp(&q) {
                    std::cmp::Ordering::Less => {
                        push_edge(edges, p, q, kind_of(xw, yw), Distance::Const(0))
                    }
                    std::cmp::Ordering::Greater => {
                        push_edge(edges, q, p, kind_of(yw, xw), Distance::Const(0))
                    }
                    // Intra-MI same-iteration pairs are invisible to
                    // scheduling: an MI is atomic.
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        DepDist::Any => {
            // Conservative: dependence in both directions at unknown distance.
            push_edge(edges, p, q, kind_of(xw, yw), Distance::Unknown);
            if p != q {
                push_edge(edges, q, p, kind_of(yw, xw), Distance::Unknown);
            }
        }
    }
}

/// A DDG plus the per-pair verdicts (with certificates) that produced its
/// array edges.
#[derive(Debug, Clone, PartialEq)]
pub struct RangedDdg {
    /// The dependence graph.
    pub ddg: Ddg,
    /// One summary per analyzed same-array access pair, in enumeration
    /// order (MI-major, access-ordinal minor). Empty when the loop range
    /// was not a compile-time constant.
    pub pairs: Vec<DepPairSummary>,
}

/// Build the DDG of a loop body over induction variable `var` with additive
/// step `step` (±k per iteration).
///
/// Every same-array access pair with a write gets one of two pair tests:
///
/// * `range` is `Some` (the loop range is a compile-time constant, and its
///   step is `step`): the exact engine ([`crate::exactdep`]), layered GCD →
///   Banerjee → exact → SAT. Proven-independent pairs contribute no edge,
///   decided pairs one edge per proven iteration distance, widened and
///   undecidable pairs the conservative `Unknown` distance. Each verdict
///   and its certificate is recorded in [`RangedDdg::pairs`], and `stats`
///   accumulates the `deps.*` counter family.
/// * `range` is `None`: the classic coefficient test
///   ([`array_dep_distances`]). Its distances are in units of the induction
///   variable's *value* and are converted here into *iteration* distances
///   (`d_value / step`; non-divisible distances mean the two accesses never
///   execute in the same loop and are dropped). Nothing is recorded.
///
/// Scalar dependences use the classic positional rule (def before use in
/// the same iteration → distance 0, otherwise the value crosses to the next
/// iteration → distance 1). Calls are barriers: ordered distance-0 edges
/// against every other MI plus a distance-1 self edge, which prevents any
/// iteration overlap across the call.
pub fn build_ddg(
    mis: &[Mi],
    var: &str,
    step: i64,
    range: Option<&LoopRange>,
    stats: &mut DepStats,
) -> RangedDdg {
    assert!(step != 0, "loop step must be non-zero");
    let n = mis.len();
    let accesses: Vec<MiAccesses> = mis.iter().map(|m| accesses_of_stmt(&m.stmt)).collect();
    let mut edges = Vec::new();
    let mut pairs = Vec::new();

    for p in 0..n {
        for q in p..n {
            for (ix, x) in accesses[p].arrays.iter().enumerate() {
                for (iy, y) in accesses[q].arrays.iter().enumerate() {
                    // each unordered pair once within an MI, and only
                    // same-array pairs with a write
                    if (p == q && iy <= ix) || !(x.write || y.write) || x.array != y.array {
                        continue;
                    }
                    let Some(range) = range else {
                        let d = match array_dep_distances(x, y, var) {
                            // The aliasing var values are never both
                            // visited by this loop.
                            DepDist::Dist(dv) if dv % step != 0 => DepDist::None,
                            DepDist::Dist(dv) => DepDist::Dist(dv / step),
                            other => other,
                        };
                        orient(&mut edges, p, q, x.write, y.write, d);
                        continue;
                    };
                    let ana = analyze_pair(x, y, var, range, stats);
                    match &ana.verdict {
                        DepVerdict::Independent => {}
                        DepVerdict::Distances(ds) => {
                            for &d in ds {
                                orient(&mut edges, p, q, x.write, y.write, DepDist::Dist(d));
                            }
                        }
                        DepVerdict::AnyWithWitness | DepVerdict::Undecidable => {
                            orient(&mut edges, p, q, x.write, y.write, DepDist::Any);
                        }
                    }
                    pairs.push(DepPairSummary {
                        from_mi: p,
                        from_ord: ix,
                        to_mi: q,
                        to_ord: iy,
                        array: x.array.clone(),
                        verdict: ana.verdict,
                        layer: ana.layer,
                        certificate: ana.certificate,
                    });
                }
            }
        }
    }

    scalar_and_call_edges(&accesses, var, &mut edges);

    RangedDdg {
        ddg: Ddg { n, edges, accesses },
        pairs,
    }
}

/// [`build_ddg`] over a constant loop range, with the exact pair test.
pub fn build_ddg_ranged(
    mis: &[Mi],
    var: &str,
    range: &LoopRange,
    stats: &mut DepStats,
) -> RangedDdg {
    build_ddg(mis, var, range.step, Some(range), stats)
}

/// The non-array portion of DDG construction: positional scalar rules plus
/// call barriers.
fn scalar_and_call_edges(accesses: &[MiAccesses], var: &str, edges: &mut Vec<DepEdge>) {
    let n = accesses.len();

    // --- scalar dependences -------------------------------------------------
    // Positional rule over defs/uses of each scalar other than `var`.
    let mut scalar_names: Vec<String> = Vec::new();
    for a in accesses {
        for s in &a.scalars {
            if s.name != var && !scalar_names.contains(&s.name) {
                scalar_names.push(s.name.clone());
            }
        }
    }
    for name in &scalar_names {
        let reads: Vec<usize> = (0..n)
            .filter(|&k| accesses[k].scalar_reads(var).any(|s| s.name == *name))
            .collect();
        let writes: Vec<usize> = (0..n)
            .filter(|&k| accesses[k].scalar_writes(var).any(|s| s.name == *name))
            .collect();
        if writes.is_empty() {
            continue; // loop-invariant scalar
        }
        let tag = Some(name.as_str());
        for &w in &writes {
            // flow: def reaches textually later uses this iteration, earlier
            // uses next iteration.
            for &r in &reads {
                if w < r {
                    push_edge_tagged(edges, w, r, DepKind::Flow, Distance::Const(0), tag);
                } else if w > r {
                    push_edge_tagged(edges, w, r, DepKind::Flow, Distance::Const(1), tag);
                    // anti: the use must happen before the next def
                    push_edge_tagged(edges, r, w, DepKind::Anti, Distance::Const(0), tag);
                } else {
                    // same MI reads and writes (e.g. `s = s + t`):
                    // loop-carried flow onto itself.
                    push_edge_tagged(edges, w, w, DepKind::Flow, Distance::Const(1), tag);
                }
            }
            // anti for textually later reads: read then re-def next iteration
            for &r in &reads {
                if w < r {
                    push_edge_tagged(edges, r, w, DepKind::Anti, Distance::Const(1), tag);
                }
            }
            // output between distinct defs
            for &w2 in &writes {
                if w < w2 {
                    push_edge_tagged(edges, w, w2, DepKind::Output, Distance::Const(0), tag);
                    push_edge_tagged(edges, w2, w, DepKind::Output, Distance::Const(1), tag);
                } else if w == w2 {
                    push_edge_tagged(edges, w, w, DepKind::Output, Distance::Const(1), tag);
                }
            }
        }
    }

    // --- call barriers --------------------------------------------------
    for k in 0..n {
        if accesses[k].has_call {
            for j in 0..n {
                if j < k {
                    push_edge(edges, j, k, DepKind::Flow, Distance::Const(0));
                    push_edge(edges, k, j, DepKind::Flow, Distance::Const(1));
                } else if j > k {
                    push_edge(edges, k, j, DepKind::Flow, Distance::Const(0));
                    push_edge(edges, j, k, DepKind::Flow, Distance::Const(1));
                }
            }
            push_edge(edges, k, k, DepKind::Flow, Distance::Const(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mi::partition_mis;
    use slc_ast::parse_stmts;

    /// The DDG of `src` over `var` (step 1). Every loop of these tests is
    /// affine with equal coefficients or plainly non-affine, where both pair
    /// tests give the same graph: the helper checks that and returns it.
    fn ddg_over(src: &str, var: &str) -> Ddg {
        let body = parse_stmts(src).unwrap();
        let mis = partition_mis(&body).unwrap();
        let mut stats = DepStats::default();
        let classic = build_ddg(&mis, var, 1, None, &mut stats);
        assert!(classic.pairs.is_empty());
        assert_eq!(stats, DepStats::default());
        let range = LoopRange {
            init: 4,
            step: 1,
            trips: 20,
        };
        let exact = build_ddg(&mis, var, 1, Some(&range), &mut stats);
        assert_eq!(classic.ddg, exact.ddg, "pair tests disagree on {src}");
        classic.ddg
    }

    fn ddg(src: &str) -> Ddg {
        ddg_over(src, "i")
    }

    fn has_edge(d: &Ddg, from: usize, to: usize, kind: DepKind, dist: i64) -> bool {
        d.edges.iter().any(|e| {
            e.from == from
                && e.to == to
                && e.kind == kind
                && e.dists.contains(&Distance::Const(dist))
        })
    }

    #[test]
    fn intro_dot_product() {
        // t = A[i]*B[i]; s = s + t;
        let d = ddg("t = A[i] * B[i]; s = s + t;");
        // flow t: MI0 → MI1 distance 0
        assert!(has_edge(&d, 0, 1, DepKind::Flow, 0));
        // anti t: MI1 → MI0 distance 1 (next iteration's def)
        assert!(has_edge(&d, 1, 0, DepKind::Anti, 1));
        // self flow on s (accumulator)
        assert!(has_edge(&d, 1, 1, DepKind::Flow, 1));
        assert!(d.has_self_carried(1));
    }

    #[test]
    fn recurrence_self_dep() {
        let d = ddg("A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];");
        assert_eq!(d.n, 1);
        // flow at distances 1 and 2 (writes reaching later reads)
        assert!(has_edge(&d, 0, 0, DepKind::Flow, 1));
        assert!(has_edge(&d, 0, 0, DepKind::Flow, 2));
        // anti at distances 1 and 2 (reads of future cells)
        assert!(has_edge(&d, 0, 0, DepKind::Anti, 1));
        assert!(has_edge(&d, 0, 0, DepKind::Anti, 2));
        assert!(d.has_self_carried(0));
    }

    #[test]
    fn independent_mis_no_edges() {
        let d = ddg("A[i] = B[i] * 2.0; C[i] = D[i] + 1.0;");
        assert!(d.edges.is_empty());
    }

    #[test]
    fn multiple_distances_on_one_edge() {
        // §3.6 example: MI_i: A[i] = B[i-1] + y;  MI_j: B[i] = A[i-2] + A[i-3];
        let d = ddg("A[i] = B[i - 1] + y; B[i] = A[i - 2] + A[i - 3];");
        let e = d
            .edges
            .iter()
            .find(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Flow)
            .expect("flow edge A: MI0→MI1");
        assert!(e.dists.contains(&Distance::Const(2)));
        assert!(e.dists.contains(&Distance::Const(3)));
        // and flow B: MI1 → MI0 at distance 1
        assert!(has_edge(&d, 1, 0, DepKind::Flow, 1));
    }

    #[test]
    fn call_is_barrier() {
        let d = ddg("x = A[i]; f(x); A[i + 1] = x;");
        assert!(has_edge(&d, 0, 1, DepKind::Flow, 0));
        assert!(has_edge(&d, 1, 0, DepKind::Flow, 1));
        assert!(has_edge(&d, 1, 2, DepKind::Flow, 0));
        assert!(has_edge(&d, 1, 1, DepKind::Flow, 1));
    }

    #[test]
    fn unknown_distance_flagged() {
        let d = ddg("A[B[i]] = x; y = A[i];");
        assert!(d.has_unknown());
    }

    #[test]
    fn anti_distance_orientation() {
        // t = a[i][j+1]; a[i][j] = t;  (inner loop j — the §6 interchange
        // example): read of a[i][j+1] then write of a[i][j] next iteration.
        let d = ddg_over("t = a[i][j + 1]; a[i][j] = t;", "j");
        // write in iteration j+1 hits the cell read in iteration j: anti dep
        // read(MI0) → write(MI1) at distance 1.
        assert!(has_edge(&d, 0, 1, DepKind::Anti, 1));
    }

    #[test]
    fn output_self_edge() {
        let d = ddg("s = A[i]; x = s * 2.0;");
        assert!(has_edge(&d, 0, 0, DepKind::Output, 1));
        // flow s: MI0→MI1 dist 0, anti s: MI1→MI0 dist 1
        assert!(has_edge(&d, 0, 1, DepKind::Flow, 0));
        assert!(has_edge(&d, 1, 0, DepKind::Anti, 1));
    }

    #[test]
    fn pair_test_follows_the_range() {
        // A[2i] vs A[i]: the classic test cannot relate differing
        // coefficients and answers `Unknown`; the exact engine over
        // i ∈ [0, 8) proves the distances {0, 1, 2, 3} and records the
        // verdict with its certificate.
        let body = parse_stmts("A[2 * i] = 1.0; x = A[i];").unwrap();
        let mis = partition_mis(&body).unwrap();
        let mut stats = DepStats::default();
        let classic = build_ddg(&mis, "i", 1, None, &mut stats);
        assert!(classic.ddg.has_unknown());
        assert!(classic.pairs.is_empty());
        assert_eq!(stats, DepStats::default());
        let range = LoopRange {
            init: 0,
            step: 1,
            trips: 8,
        };
        let exact = build_ddg(&mis, "i", 1, Some(&range), &mut stats);
        assert!(!exact.ddg.has_unknown());
        for d in 0..=3 {
            assert!(has_edge(&exact.ddg, 0, 1, DepKind::Flow, d));
        }
        assert_eq!(exact.pairs.len(), 1);
        assert_eq!(stats.pairs_decided, 1);
        assert_eq!(build_ddg_ranged(&mis, "i", &range, &mut stats), exact);
    }
}
