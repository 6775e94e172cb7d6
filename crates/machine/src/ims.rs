//! Iterative Modulo Scheduling (Rau, MICRO'94 / HPL-94-115) — the
//! machine-level baseline SLMS is compared against (figures 18–20, §7).
//!
//! The implementation follows Rau's algorithm: MII = max(ResMII, RecMII);
//! operations are placed highest-priority-first into a modulo reservation
//! table of II rows, retrying/evicting with a budget, and II grows until a
//! schedule exists. Cross-iteration register lifetimes are assumed to be
//! handled by rotating registers / modulo variable expansion; their cost is
//! charged through the register-pressure estimate, which the register
//! allocator turns into spill penalties (reproducing the §7 Fig. 11
//! register-pressure failure mode).

#![allow(clippy::needless_range_loop)] // index loops mirror the papers' pseudo-code
use crate::deps::{cross_deps, intra_deps, Adjacency, IrEdge};
use crate::ir::{Bundle, Op, OpClass, ALL_CLASSES};
use crate::listsched::heights;
use crate::mach::MachineDesc;

/// A complete modulo schedule of one innermost loop body.
#[derive(Debug, Clone)]
pub struct ModuloSchedule {
    /// achieved initiation interval
    pub ii: i64,
    /// number of pipeline stages (`⌊max σ / II⌋ + 1`)
    pub stages: i64,
    /// kernel: II bundles; each op's `iter_offset` tells the simulator how
    /// many iterations ahead of the kernel's nominal index it runs
    pub kernel: Vec<Bundle>,
    /// resource-constrained MII
    pub res_mii: i64,
    /// recurrence-constrained MII
    pub rec_mii: i64,
    /// estimated simultaneously-live register count (after MVE versioning)
    pub reg_pressure: usize,
}

fn class_idx(c: OpClass) -> usize {
    ALL_CLASSES.iter().position(|&x| x == c).unwrap()
}

/// Does the def at `u` reach the use at `v` within the same iteration
/// (i.e. `u` is the latest def of its register before `v`)?
fn reaches_same_iter(ops: &[Op], u: usize, v: usize) -> bool {
    let r = ops[u].dst().expect("def");
    v > u && !(u + 1..v).any(|w| ops[w].dst() == Some(r))
}

/// Is `u` the last def of register `r` in the block (the one whose value
/// crosses the back edge)?
fn is_last_def(ops: &[Op], u: usize, r: crate::ir::VReg) -> bool {
    !(u + 1..ops.len()).any(|w| ops[w].dst() == Some(r))
}

/// Resource-constrained MII.
pub fn res_mii(ops: &[Op], m: &MachineDesc) -> i64 {
    let mut counts = [0usize; 7];
    for o in ops {
        counts[class_idx(o.class())] += 1;
    }
    let mut mii = ops.len().div_ceil(m.issue_width).max(1);
    for (ci, &cnt) in counts.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        let units = m.units[ci].max(1);
        mii = mii.max(cnt.div_ceil(units));
    }
    mii as i64
}

/// Recurrence-constrained MII: smallest II with no positive cycle of
/// `lat − II·dist`. `None` when none exists up to `max_ii`.
///
/// Every edge has `dist ≥ 0`, so each cycle's weight is non-increasing in
/// II and feasibility is monotone: a binary search over `[1, max_ii]` with
/// an O(n·E) Bellman–Ford positive-cycle test finds the same II as a linear
/// scan.
pub fn rec_mii(n: usize, edges: &[IrEdge], max_ii: i64) -> Option<i64> {
    debug_assert!(edges.iter().all(|e| e.dist >= 0), "negative distance");
    if max_ii < 1 || has_positive_cycle(n, edges, max_ii) {
        return None;
    }
    // invariant: `hi` is feasible, everything below `lo` is infeasible
    let (mut lo, mut hi) = (1, max_ii);
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

/// Does the graph hold a cycle of positive `lat − ii·dist` weight? Longest
/// path relaxation from a virtual source reaching every node: without a
/// positive cycle it settles within `n − 1` rounds, so a change in round
/// `n + 1` proves one.
fn has_positive_cycle(n: usize, edges: &[IrEdge], ii: i64) -> bool {
    let mut d = vec![0i64; n];
    for _ in 0..=n {
        let mut changed = false;
        for e in edges {
            let w = d[e.from] + e.lat as i64 - ii * e.dist;
            if w > d[e.to] {
                d[e.to] = w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    true
}

/// Modulo-schedule a loop body. Returns `None` when the loop cannot be
/// software-pipelined (unknown cross-iteration memory dependences, or no
/// feasible II up to the sequential bound).
pub fn modulo_schedule(
    ops: &[Op],
    m: &MachineDesc,
    var: &str,
    step: i64,
) -> Option<ModuloSchedule> {
    let n = ops.len();
    if n == 0 {
        return None;
    }
    let mut edges = intra_deps(ops, m);
    edges.extend(cross_deps(ops, m, var, step)?);
    let total_lat: i64 = ops.iter().map(|o| m.latency_of(o.class()) as i64).sum();
    let max_ii = total_lat.max(n as i64) + 2;
    let rmii = res_mii(ops, m);
    let cmii = rec_mii(n, &edges, max_ii)?;
    let mii = rmii.max(cmii);
    let h = heights(n, &edges);
    let class: Vec<usize> = ops.iter().map(|o| class_idx(o.class())).collect();
    let preds = Adjacency::new(n, &edges, |e| e.to);
    let succs = Adjacency::new(n, &edges, |e| e.from);

    'try_ii: for ii in mii..=max_ii {
        let iiu = ii as usize;
        let mut sigma: Vec<Option<i64>> = vec![None; n];
        let mut prev_try: Vec<i64> = vec![-1; n];
        let mut budget = 8 * n as i64 + 32;
        // modulo reservation table: per row, per class usage + issue count
        let mut rt_class = vec![[0usize; 7]; iiu];
        let mut rt_issue = vec![0usize; iiu];

        while let Some(u) = (0..n)
            .filter(|&u| sigma[u].is_none())
            .max_by_key(|&u| (h[u], std::cmp::Reverse(u)))
        {
            if budget == 0 {
                continue 'try_ii;
            }
            budget -= 1;
            // earliest start from scheduled predecessors
            let mut estart = 0i64;
            for &k in preds.of(u) {
                let e = &edges[k];
                if let Some(sp) = sigma[e.from] {
                    estart = estart.max(sp + e.lat as i64 - ii * e.dist);
                }
            }
            // find a resource-feasible slot in [estart, estart+II)
            let ci = class[u];
            let slot = (estart..estart + ii).find(|t| {
                let row = t.rem_euclid(ii) as usize;
                rt_class[row][ci] < m.units[ci].max(1) && rt_issue[row] < m.issue_width
            });
            let t = slot.unwrap_or_else(|| {
                // forced placement with progress guarantee
                if estart > prev_try[u] {
                    estart
                } else {
                    prev_try[u] + 1
                }
            });
            prev_try[u] = t;
            // evict resource conflicts at the target row
            let row = (t.rem_euclid(ii)) as usize;
            loop {
                let class_over = rt_class[row][ci] >= m.units[ci].max(1);
                let issue_over = rt_issue[row] >= m.issue_width;
                if !class_over && !issue_over {
                    break;
                }
                // evict the lowest-priority op occupying this row (matching
                // class if the class is the bottleneck)
                let victim = (0..n)
                    .filter(|&v| {
                        sigma[v].is_some_and(|sv| (sv.rem_euclid(ii)) as usize == row)
                            && (!class_over || class[v] == ci)
                    })
                    .min_by_key(|&v| h[v]);
                let Some(v) = victim else { break };
                let sv = sigma[v].take().unwrap();
                let vrow = (sv.rem_euclid(ii)) as usize;
                rt_class[vrow][class[v]] -= 1;
                rt_issue[vrow] -= 1;
            }
            // evict dependence violations where u is the source
            for &k in succs.of(u) {
                let e = &edges[k];
                if let Some(sv) = sigma[e.to] {
                    if sv < t + e.lat as i64 - ii * e.dist {
                        let vrow = (sv.rem_euclid(ii)) as usize;
                        rt_class[vrow][class[e.to]] -= 1;
                        rt_issue[vrow] -= 1;
                        sigma[e.to] = None;
                    }
                }
            }
            sigma[u] = Some(t);
            rt_class[row][ci] += 1;
            rt_issue[row] += 1;
        }
        // verify every edge (paranoia: eviction should have handled all)
        let ok = edges.iter().all(|e| {
            let (su, sv) = (sigma[e.from].unwrap(), sigma[e.to].unwrap());
            sv >= su + e.lat as i64 - ii * e.dist
        });
        if !ok {
            continue 'try_ii;
        }
        let max_sigma = sigma.iter().map(|s| s.unwrap()).max().unwrap();
        let stages = max_sigma / ii + 1;
        // kernel bundles
        let mut kernel: Vec<Bundle> = vec![Vec::new(); iiu];
        for (u, s) in sigma.iter().enumerate() {
            let s = s.unwrap();
            let stage = s / ii;
            let mut op = ops[u].clone();
            op.iter_offset = (stages - 1) - stage;
            kernel[(s % ii) as usize].push(op);
        }
        // Register pressure after modulo variable expansion: lifetime of
        // each *register* value from its defining op to its consumers
        // (same-iteration consumers later in the block; earlier consumers
        // read the previous iteration's value → one extra II). Memory
        // dependence edges carry no register value and are excluded.
        let mut pressure = 0usize;
        for u in 0..n {
            let Some(r) = ops[u].dst() else { continue };
            let su = sigma[u].unwrap();
            let mut life: i64 = 1;
            for (v, op_v) in ops.iter().enumerate() {
                let mut reads_r = false;
                op_v.visit_srcs(|s| reads_r |= s == r);
                if !reads_r {
                    continue;
                }
                let dist = if reaches_same_iter(ops, u, v) { 0 } else { 1 };
                if dist == 1 && !is_last_def(ops, u, r) {
                    continue; // a later def feeds the next iteration instead
                }
                if let Some(sv) = sigma[v] {
                    life = life.max(sv + ii * dist - su);
                }
            }
            pressure += (((life + ii - 1) / ii).max(1)) as usize;
        }
        return Some(ModuloSchedule {
            ii,
            stages,
            kernel,
            res_mii: rmii,
            rec_mii: cmii,
            reg_pressure: pressure,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinKind, OpKind, Operand};
    use slc_analysis::LinForm;

    fn lin(c: i64, k: i64) -> LinForm {
        LinForm::var("i").scale(c).add(&LinForm::constant(k))
    }

    fn load(dst: u32, k: i64) -> Op {
        Op::new(OpKind::Load {
            dst,
            array: "A".into(),
            addr: Some(lin(1, k)),
        })
    }

    fn store(src: u32, arr: &str, k: i64) -> Op {
        Op::new(OpKind::Store {
            src: Operand::Reg(src),
            array: arr.into(),
            addr: Some(lin(1, k)),
        })
    }

    fn fadd(dst: u32, a: u32, b: u32) -> Op {
        Op::new(OpKind::Bin {
            op: BinKind::Add,
            fp: true,
            dst,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        })
    }

    /// The linear-scan Floyd–Warshall RecMII that [`rec_mii`] replaced,
    /// kept as its oracle.
    fn rec_mii_reference(n: usize, edges: &[IrEdge], max_ii: i64) -> Option<i64> {
        'next: for ii in 1..=max_ii {
            const NEG: i64 = i64::MIN / 4;
            let mut d = vec![vec![NEG; n]; n];
            for e in edges {
                let w = e.lat as i64 - ii * e.dist;
                if w > d[e.from][e.to] {
                    d[e.from][e.to] = w;
                }
            }
            for k in 0..n {
                for i in 0..n {
                    if d[i][k] == NEG {
                        continue;
                    }
                    for j in 0..n {
                        if d[k][j] != NEG && d[i][k] + d[k][j] > d[i][j] {
                            d[i][j] = d[i][k] + d[k][j];
                        }
                    }
                }
            }
            for i in 0..n {
                if d[i][i] > 0 {
                    continue 'next;
                }
            }
            return Some(ii);
        }
        None
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..Default::default() })]
        #[test]
        fn rec_mii_binary_search_matches_linear_scan(
            n in 0usize..9,
            raw in proptest::collection::vec((0usize..64, 0usize..64, 0u32..12, 0i64..6), 0..16),
            max_ii in 0i64..16,
        ) {
            let edges: Vec<IrEdge> = raw
                .iter()
                .filter(|_| n > 0)
                .map(|&(from, to, lat, dist)| IrEdge { from: from % n, to: to % n, lat, dist })
                .collect();
            proptest::prop_assert_eq!(
                rec_mii(n, &edges, max_ii),
                rec_mii_reference(n, &edges, max_ii),
                "edges {:?}",
                edges
            );
        }
    }

    #[test]
    fn res_mii_counts_units() {
        let m = MachineDesc::default(); // 2 mem units
        let ops = vec![load(0, 0), load(1, 1), load(2, 2), load(3, 3)];
        assert_eq!(res_mii(&ops, &m), 2);
    }

    #[test]
    fn independent_body_pipelines_to_ii_near_resources() {
        let m = MachineDesc::default();
        // B[i] = A[i] + A[i+1]: load, load, add, store → ResMII ≥ 2 (3 mem/2)
        let ops = vec![load(0, 0), load(1, 1), fadd(2, 0, 1), store(2, "B", 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        assert_eq!(ms.ii, 2, "{ms:?}");
        assert!(ms.stages >= 2);
        assert_eq!(ms.kernel.iter().map(|b| b.len()).sum::<usize>(), 4);
    }

    #[test]
    fn recurrence_limits_ii() {
        let m = MachineDesc::default(); // FpAdd lat 3
                                        // A[i] = A[i-1] + c: load A[i-1], add, store A[i] — cross flow via
                                        // memory at distance 1 with the store→load chain.
        let ops = vec![load(0, -1), fadd(1, 0, 0), store(1, "A", 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        // cycle: load(2) → add(3) → store(1 to next load) over distance 1
        assert!(ms.rec_mii >= 5, "{ms:?}");
        assert_eq!(ms.ii, ms.rec_mii.max(ms.res_mii));
    }

    #[test]
    fn accumulator_recurrence() {
        let m = MachineDesc::default();
        // s += A[i]: add dst=s uses s → self flow dist 1, lat 3 → RecMII 3
        let ops = vec![load(0, 0), fadd(9, 9, 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        assert_eq!(ms.rec_mii, 3);
    }

    #[test]
    fn unknown_memory_refuses() {
        let m = MachineDesc::default();
        let ops = vec![
            Op::new(OpKind::Store {
                src: Operand::Reg(0),
                array: "A".into(),
                addr: None,
            }),
            load(1, 0),
        ];
        assert!(modulo_schedule(&ops, &m, "i", 1).is_none());
    }

    #[test]
    fn kernel_offsets_within_stage_range() {
        let m = MachineDesc::default();
        let ops = vec![load(0, 1), fadd(1, 0, 0), store(1, "B", 0)];
        let ms = modulo_schedule(&ops, &m, "i", 1).unwrap();
        for b in &ms.kernel {
            for o in b {
                assert!(o.iter_offset >= 0 && o.iter_offset < ms.stages);
            }
        }
    }
}
