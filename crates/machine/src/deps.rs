//! Dependence analysis on IR blocks — used by both schedulers.
//!
//! Intra-iteration edges drive list scheduling; cross-iteration edges
//! (register flows into the next iteration, loop-carried memory
//! dependences via the address linear forms) drive the modulo scheduler's
//! RecMII. Register anti/output dependences across iterations are ignored
//! by the modulo scheduler — the machine model gives it rotating registers
//! (as on the paper's IA-64, Fig. 13), with the register cost accounted by
//! modulo variable expansion in the register-pressure estimate.

#![allow(clippy::needless_range_loop)] // index loops mirror the papers' pseudo-code
use crate::ir::{Op, OpClass};
use crate::mach::MachineDesc;
use slc_analysis::LinForm;

/// A dependence edge between ops of one loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrEdge {
    /// source op index
    pub from: usize,
    /// sink op index
    pub to: usize,
    /// minimum cycles between issue of source and sink
    pub lat: u32,
    /// iteration distance (0 = same iteration)
    pub dist: i64,
}

/// Edge indices grouped by one endpoint, each group in edge order
/// (compressed rows: group `u` is `idx[start[u]..start[u + 1]]`).
pub(crate) struct Adjacency {
    start: Vec<usize>,
    idx: Vec<usize>,
}

impl Adjacency {
    /// Group the edges of an `n`-node graph by `key` (`|e| e.from` for
    /// successor lists, `|e| e.to` for predecessor lists).
    pub(crate) fn new(n: usize, edges: &[IrEdge], key: impl Fn(&IrEdge) -> usize) -> Adjacency {
        let mut start = vec![0usize; n + 1];
        for e in edges {
            start[key(e) + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut fill = start.clone();
        let mut idx = vec![0usize; edges.len()];
        for (k, e) in edges.iter().enumerate() {
            idx[fill[key(e)]] = k;
            fill[key(e)] += 1;
        }
        Adjacency { start, idx }
    }

    /// Indices of the edges whose key is `u`, in edge order.
    pub(crate) fn of(&self, u: usize) -> &[usize] {
        &self.idx[self.start[u]..self.start[u + 1]]
    }
}

/// Memory disambiguation verdict for two address forms evaluated in the
/// *same* iteration.
fn same_iter_alias(a: Option<&LinForm>, b: Option<&LinForm>) -> bool {
    match (a, b) {
        // a symbolic difference is conservatively an alias
        (Some(x), Some(y)) => x.const_diff(y, None).is_none_or(|d| d == 0),
        _ => true, // unknown address: conservative
    }
}

/// Intra-iteration dependence edges of a block (distance 0 throughout).
pub fn intra_deps(ops: &[Op], m: &MachineDesc) -> Vec<IrEdge> {
    let mut edges = Vec::new();
    let n = ops.len();
    // register dependences
    for v in 0..n {
        ops[v].visit_srcs(|r| {
            // latest def before v → flow
            if let Some(u) = (0..v).rev().find(|&u| ops[u].dst() == Some(r)) {
                edges.push(IrEdge {
                    from: u,
                    to: v,
                    lat: m.latency_of(ops[u].class()),
                    dist: 0,
                });
            }
            // next def after v → anti (same cycle allowed: reads at issue)
            if let Some(u) = (v + 1..n).find(|&u| ops[u].dst() == Some(r)) {
                edges.push(IrEdge {
                    from: v,
                    to: u,
                    lat: 0,
                    dist: 0,
                });
            }
        });
        if let Some(r) = ops[v].dst() {
            // next def of same reg → output (must stay ordered)
            if let Some(u) = (v + 1..n).find(|&u| ops[u].dst() == Some(r)) {
                edges.push(IrEdge {
                    from: v,
                    to: u,
                    lat: 1,
                    dist: 0,
                });
            }
        }
    }
    // memory dependences
    for u in 0..n {
        let Some((arr_u, addr_u, w_u)) = ops[u].mem() else {
            continue;
        };
        for v in u + 1..n {
            let Some((arr_v, addr_v, w_v)) = ops[v].mem() else {
                continue;
            };
            if arr_u != arr_v || (!w_u && !w_v) {
                continue;
            }
            if !same_iter_alias(addr_u, addr_v) {
                continue;
            }
            let lat = match (w_u, w_v) {
                (true, false) => m.latency_of(OpClass::Mem), // store→load forward
                (false, true) => 0,                          // load before store, same cycle ok
                (true, true) => 1,                           // store order
                _ => unreachable!(),
            };
            edges.push(IrEdge {
                from: u,
                to: v,
                lat,
                dist: 0,
            });
        }
    }
    // branch goes last
    if let Some(b) = ops.iter().position(|o| o.class() == OpClass::Branch) {
        for u in 0..n {
            if u != b {
                edges.push(IrEdge {
                    from: u,
                    to: b,
                    lat: 0,
                    dist: 0,
                });
            }
        }
    }
    edges
}

/// Cross-iteration dependences for modulo scheduling: register flows whose
/// value crosses the back edge, and loop-carried memory dependences derived
/// from address linear forms over `var` (step-normalized). Returns `None`
/// when a memory pair cannot be disambiguated across iterations — the
/// modulo scheduler then refuses the loop (like production compilers).
pub fn cross_deps(ops: &[Op], m: &MachineDesc, var: &str, step: i64) -> Option<Vec<IrEdge>> {
    let mut edges = Vec::new();
    let n = ops.len();
    // register flow into the next iteration: use at v whose reaching def is
    // at u >= v (no def earlier in the block)
    for v in 0..n {
        ops[v].visit_srcs(|r| {
            if (0..v).any(|u| ops[u].dst() == Some(r)) {
                return; // same-iteration def reaches it
            }
            if let Some(u) = (v..n).rev().find(|&u| ops[u].dst() == Some(r)) {
                edges.push(IrEdge {
                    from: u,
                    to: v,
                    lat: m.latency_of(ops[u].class()),
                    dist: 1,
                });
            }
        });
    }
    // loop-carried memory dependences
    for u in 0..n {
        let Some((arr_u, addr_u, w_u)) = ops[u].mem() else {
            continue;
        };
        for v in 0..n {
            let Some((arr_v, addr_v, w_v)) = ops[v].mem() else {
                continue;
            };
            if arr_u != arr_v || (!w_u && !w_v) {
                continue;
            }
            let (Some(la), Some(lb)) = (addr_u, addr_v) else {
                return None; // unknown address: cannot modulo schedule
            };
            let (ca, cb) = (la.coeff(var), lb.coeff(var));
            if ca != cb {
                return None;
            }
            // the addresses' difference apart from `var`; a symbolic one
            // cannot be disambiguated
            let diff = la.const_diff(lb, Some(var))?;
            if ca == 0 {
                // same fixed address every iteration: serialize fully
                if diff == 0 && (v > u || (v == u && w_u)) {
                    edges.push(IrEdge {
                        from: u,
                        to: v,
                        lat: 1,
                        dist: 1,
                    });
                }
                continue; // (or distinct fixed addresses)
            }
            // u@i aliases v@(i+d): ca*i + ra == ca*(i+d)*…  → d = (ra-rb)/(ca*step)
            let denom = ca * step;
            if diff % denom != 0 {
                continue;
            }
            let d = diff / denom;
            // d == 0 is intra-iteration (handled by `intra_deps`); d < 0 is
            // covered when the loop visits the symmetric pair (v, u).
            if d > 0 {
                edges.push(IrEdge {
                    from: u,
                    to: v,
                    lat: 1,
                    dist: d,
                });
            }
        }
    }
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinKind, OpKind, Operand};

    fn load(dst: u32, arr: &str, lin: LinForm) -> Op {
        Op::new(OpKind::Load {
            dst,
            array: arr.into(),
            addr: Some(lin),
        })
    }

    fn store(src: u32, arr: &str, lin: LinForm) -> Op {
        Op::new(OpKind::Store {
            src: Operand::Reg(src),
            array: arr.into(),
            addr: Some(lin),
        })
    }

    fn lin(c: i64, k: i64) -> LinForm {
        LinForm::var("i").scale(c).add(&LinForm::constant(k))
    }

    #[test]
    fn flow_and_anti_regs() {
        let m = MachineDesc::default();
        let ops = vec![
            load(0, "A", lin(1, 0)),
            Op::new(OpKind::Bin {
                op: BinKind::Add,
                fp: true,
                dst: 1,
                a: Operand::Reg(0),
                b: Operand::ImmF(1.0),
            }),
            store(1, "B", lin(1, 0)),
        ];
        let e = intra_deps(&ops, &m);
        // flow 0→1 with Mem latency, flow 1→2 with FpAdd latency
        assert!(e.iter().any(|x| x.from == 0 && x.to == 1 && x.lat == 2));
        assert!(e.iter().any(|x| x.from == 1 && x.to == 2 && x.lat == 3));
    }

    #[test]
    fn mem_disambiguation_by_offset() {
        let m = MachineDesc::default();
        // store A[i], load A[i+1]: provably distinct this iteration
        let ops = vec![store(0, "A", lin(1, 0)), load(1, "A", lin(1, 1))];
        let e = intra_deps(&ops, &m);
        assert!(!e.iter().any(|x| x.from == 0 && x.to == 1 && x.lat > 0));
        // same offset: dependent
        let ops = vec![store(0, "A", lin(1, 0)), load(1, "A", lin(1, 0))];
        let e = intra_deps(&ops, &m);
        assert!(e.iter().any(|x| x.from == 0 && x.to == 1 && x.lat == 2));
    }

    #[test]
    fn cross_iteration_mem_distance() {
        let m = MachineDesc::default();
        // store A[i]; load A[i-1] → next iteration reads this store: dist 1
        let ops = vec![store(0, "A", lin(1, 0)), load(1, "A", lin(1, -1))];
        let e = cross_deps(&ops, &m, "i", 1).unwrap();
        assert!(
            e.iter().any(|x| x.from == 0 && x.to == 1 && x.dist == 1),
            "{e:?}"
        );
    }

    #[test]
    fn unknown_address_blocks_ims() {
        let m = MachineDesc::default();
        let ops = vec![
            Op::new(OpKind::Store {
                src: Operand::Reg(0),
                array: "A".into(),
                addr: None,
            }),
            load(1, "A", lin(1, 0)),
        ];
        assert!(cross_deps(&ops, &m, "i", 1).is_none());
    }

    #[test]
    fn accumulator_cross_flow() {
        let m = MachineDesc::default();
        // s(reg 5) += A[i]: load; add dst=5 a=5; — use of 5 before def → dist-1 flow
        let ops = vec![
            load(0, "A", lin(1, 0)),
            Op::new(OpKind::Bin {
                op: BinKind::Add,
                fp: true,
                dst: 5,
                a: Operand::Reg(5),
                b: Operand::Reg(0),
            }),
        ];
        let e = cross_deps(&ops, &m, "i", 1).unwrap();
        assert!(e.iter().any(|x| x.from == 1 && x.to == 1 && x.dist == 1));
    }
}
