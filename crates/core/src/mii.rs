//! Minimum initiation interval computation (§3.6, §5).
//!
//! Two computations live here:
//!
//! * [`cycles_mii`] — the algorithm the paper describes: the **Iterative
//!   Shortest Path** method of Zaky/Allan over a `difMin` matrix. For a
//!   candidate II every dependence edge gets weight `delay − II·distance`
//!   (taking the max over the edge's several `<distance, delay>` pairs); the
//!   II is feasible iff the graph has no positive cycle — i.e. no
//!   dependence cycle whose delays exceed `II ×` its distances. The first
//!   feasible `II < n` is the recurrence-constrained MII (SLMS uses no
//!   resource MII, §3.6). Feasibility is monotone in II, so the search is
//!   the exact scheduler's binary search ([`slc_exact::min_feasible_ii`])
//!   rather than the paper's scan of max-plus closures.
//!
//! * [`placement_mii`] — the tighter bound required by SLMS's *fixed* kernel
//!   placement. SLMS does not schedule freely: MI`k` of iteration `j` lands
//!   at global row `II·j + k + const` of the modulo-scheduling table, with
//!   members of one row emitted in descending-`k` order. A dependence edge
//!   `u → v` with distance `d` is honoured iff
//!   `II·d + (v − u) > 0`, or `= 0` with `u > v` (same row, source printed
//!   first). Only back edges (`u > v`, `d ≥ 1`) constrain the II:
//!   `II ≥ ⌈(u − v) / d⌉`. The two bounds are *incomparable*: the cycle
//!   formula can demand more (it forces every dependence one full row apart,
//!   while the placement lets a source share a row with its sink when the
//!   descending-`k` order already serializes them — how the paper pipelines
//!   `t = A[i]*B[i]; s = s + t` at II = 1), and for irregular back edges the
//!   placement can demand more (it cannot rearrange rows). The emitter uses
//!   the placement value — it is exact for the code actually generated; the
//!   cycle value is reported alongside for comparison with the paper.
//!
//! Edges caused by *expandable scalars* (anti/output dependences that modulo
//! variable expansion or scalar expansion will rename away, §3.3–3.4) can be
//! excluded from both computations via the filter argument — this is what
//! lets the paper pipeline `t = A[i]*B[i]; s = s + t;` at `II = 1`.

use crate::delay::edge_delay;
use slc_analysis::{Ddg, DepEdge, Distance};

/// One scheduling constraint extracted from the DDG: edge `u → v` at
/// iteration distance `d` (delay per §3.5 is implied by positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraint {
    /// Source MI position.
    pub u: usize,
    /// Sink MI position.
    pub v: usize,
    /// Iteration distance (`None` encodes an unknown distance).
    pub d: Option<i64>,
}

/// Extract constraints from the DDG, skipping edges for which `removable`
/// returns true (scalar dependences that expansion will rename away).
pub fn constraints_of(ddg: &Ddg, removable: &dyn Fn(&DepEdge) -> bool) -> Vec<Constraint> {
    let mut out = Vec::new();
    for e in &ddg.edges {
        if removable(e) {
            continue;
        }
        for d in &e.dists {
            out.push(Constraint {
                u: e.from,
                v: e.to,
                d: match d {
                    Distance::Const(k) => Some(*k),
                    Distance::Unknown => None,
                },
            });
        }
    }
    out
}

/// The MII imposed by SLMS's fixed kernel placement, or `None` when no
/// `II < n` satisfies every constraint (unknown distances always fail).
pub fn placement_mii(constraints: &[Constraint], n: usize) -> Option<i64> {
    if n < 2 {
        return None;
    }
    let mut ii: i64 = 1;
    for c in constraints {
        let d = c.d?;
        debug_assert!(d >= 0);
        if d == 0 {
            // construction guarantees u < v for distance-0 edges; the row
            // formula then always honours them.
            debug_assert!(c.u < c.v, "distance-0 edge must go forward");
            continue;
        }
        if c.u > c.v {
            let need = ((c.u - c.v) as i64 + d - 1) / d; // ceil((u-v)/d)
            ii = ii.max(need);
        }
        // forward and self edges with d >= 1 are satisfied by any II >= 1
    }
    if (ii as usize) < n {
        Some(ii)
    } else {
        None
    }
}

/// The paper's recurrence MII: smallest `II < n` with no dependence cycle
/// whose §3.5 delays exceed `II ×` its distances, found by
/// [`slc_exact::min_feasible_ii`]. Returns `None` when no such II exists
/// or when a distance is unknown.
pub fn cycles_mii(constraints: &[Constraint], n: usize) -> Option<i64> {
    if n < 2 {
        return None;
    }
    let edges = constraints
        .iter()
        .map(|c| Some((c.u, c.v, edge_delay(c.u, c.v), c.d?)))
        .collect::<Option<Vec<_>>>()?;
    slc_exact::min_feasible_ii(n, &edges, 1, n as i64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(u: usize, v: usize, d: i64) -> Constraint {
        Constraint { u, v, d: Some(d) }
    }

    #[test]
    fn figure8_mii_is_two() {
        // MIs a..f = 0..5; cycles C1 (c→d→e→f→c, distances 0,2,0,2) and
        // C2 (c→d→f→c, distances 0,0,2). Delays per §3.5 are positional.
        let cons = vec![c(2, 3, 0), c(3, 4, 2), c(4, 5, 0), c(5, 2, 2), c(3, 5, 0)];
        assert_eq!(cycles_mii(&cons, 6), Some(2));
        assert_eq!(placement_mii(&cons, 6), Some(2));
    }

    #[test]
    fn intro_example_ii_one_with_expansion() {
        // t = A[i]*B[i]; s = s + t;  after dropping the scalar anti edge on
        // t (removable by MVE): flow t 0→1 d0, self flow s 1→1 d1.
        let cons = vec![c(0, 1, 0), c(1, 1, 1)];
        assert_eq!(placement_mii(&cons, 2), Some(1));
        assert_eq!(cycles_mii(&cons, 2), Some(1));
    }

    #[test]
    fn intro_example_anti_edge_kept_still_ii_one_for_placement() {
        // Keeping the anti edge 1→0 d1: placement allows II=1 because the
        // same-row order (descending k) reads before the overwrite; the
        // cycle formula (delays 1+1 over distance 1) would demand II=2 —
        // exactly the gap the paper bridges by renaming.
        let cons = vec![c(0, 1, 0), c(1, 0, 1)];
        assert_eq!(placement_mii(&cons, 2), Some(1));
        assert_eq!(cycles_mii(&cons, 2), None); // no II < 2 clears the cycle
    }

    #[test]
    fn back_edge_bound() {
        // back edge 5→2 at distance 1 forces II >= 3
        let cons = vec![c(5, 2, 1)];
        assert_eq!(placement_mii(&cons, 7), Some(3));
        // distance 3 relaxes it to II >= 1
        let cons = vec![c(5, 2, 3)];
        assert_eq!(placement_mii(&cons, 7), Some(1));
    }

    #[test]
    fn invalid_when_ii_reaches_n() {
        // back edge 1→0 distance 1 in a 2-MI loop needs II >= 1 — fine; but
        // distance-1 back edge spanning 3 positions in a 3-MI loop needs
        // II >= 2 < 3 — still fine; make one that needs II >= n.
        let cons = vec![c(1, 0, 1), c(2, 0, 1)];
        assert_eq!(placement_mii(&cons, 3), Some(2));
        let cons = vec![c(2, 0, 1), c(2, 1, 1), c(1, 0, 1)];
        // max need: (2-0)/1 = 2 < 3 → still valid
        assert_eq!(placement_mii(&cons, 3), Some(2));
        let cons = vec![c(3, 0, 1)];
        assert_eq!(placement_mii(&cons, 4), Some(3));
        assert_eq!(placement_mii(&cons, 3), None); // n=3: ii=3 not < n
    }

    #[test]
    fn unknown_distance_fails() {
        let cons = vec![Constraint {
            u: 0,
            v: 1,
            d: None,
        }];
        assert_eq!(placement_mii(&cons, 3), None);
        assert_eq!(cycles_mii(&cons, 3), None);
    }

    #[test]
    fn single_mi_has_no_valid_ii() {
        assert_eq!(placement_mii(&[], 1), None);
        assert_eq!(cycles_mii(&[], 1), None);
    }

    #[test]
    fn no_deps_gives_ii_one() {
        assert_eq!(placement_mii(&[], 6), Some(1));
        assert_eq!(cycles_mii(&[], 6), Some(1));
    }

    #[test]
    fn placement_and_cycles_incomparable() {
        // Placement below cycles: the 3-MI chain with a distance-1 back
        // edge shares the last row (source printed first), II = 2; the
        // cycle formula demands 3.
        let cons = vec![c(0, 1, 0), c(1, 2, 0), c(2, 0, 1)];
        assert_eq!(placement_mii(&cons, 3), Some(2));
        assert_eq!(cycles_mii(&cons, 3), None); // needs 3, not < n

        // Same shape with more MIs: cycles finds 3, placement still 2.
        assert_eq!(placement_mii(&cons, 6), Some(2));
        assert_eq!(cycles_mii(&cons, 6), Some(3));
    }
}
