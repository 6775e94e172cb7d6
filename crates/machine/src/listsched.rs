//! Greedy cycle-by-cycle list scheduling of basic blocks into VLIW bundles.
//!
//! This is the "final compiler" stage the paper assumes under SLMS
//! (Fig. 3): after the source-level transformation, plain list scheduling of
//! the loop body — no modulo scheduling — packs the exposed parallelism
//! into issue groups. Priority is critical-path height; resources are the
//! per-class unit counts and the global issue width of the machine model.

use crate::deps::{intra_deps, Adjacency, IrEdge};
use crate::ir::{Bundle, Op, ALL_CLASSES};
use crate::mach::MachineDesc;

/// Result of list scheduling: bundles (possibly empty = stall cycles) and
/// simple statistics.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// issue groups; index = cycle
    pub bundles: Vec<Bundle>,
    /// cycle assigned to each input op
    pub cycle_of: Vec<u32>,
}

impl Schedule {
    /// Schedule length in cycles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// True when no cycles are needed (empty block).
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }
}

/// Critical-path height of each op (longest latency path to any sink).
pub fn heights(n: usize, edges: &[IrEdge]) -> Vec<u32> {
    let mut h = vec![0u32; n];
    // reverse topological: process sinks first; edges go forward in index
    // order except anti edges — iterate to fixpoint (graphs are tiny)
    let mut changed = true;
    let mut guard = 0;
    while changed && guard < n + 8 {
        changed = false;
        guard += 1;
        for e in edges {
            let cand = h[e.to] + e.lat.max(1);
            if h[e.from] < cand {
                h[e.from] = cand;
                changed = true;
            }
        }
    }
    h
}

/// List-schedule one basic block.
pub fn list_schedule(ops: &[Op], m: &MachineDesc) -> Schedule {
    let n = ops.len();
    if n == 0 {
        return Schedule {
            bundles: vec![],
            cycle_of: vec![],
        };
    }
    let edges = intra_deps(ops, m);
    let h = heights(n, &edges);
    let succs = Adjacency::new(n, &edges, |e| e.from);
    // readiness: predecessor edges still unplaced, and the earliest cycle
    // the placed ones allow
    let mut waiting = vec![0usize; n];
    let mut earliest = vec![0u32; n];
    for e in &edges {
        waiting[e.to] += 1;
    }
    let class_of: Vec<usize> = ops
        .iter()
        .map(|o| ALL_CLASSES.iter().position(|&x| x == o.class()).unwrap())
        .collect();
    let mut cycle_of = vec![u32::MAX; n];
    let mut scheduled = vec![false; n];
    let mut bundles: Vec<Bundle> = Vec::new();
    let mut remaining = n;
    let mut cycle: u32 = 0;
    while remaining > 0 {
        let mut used = [0usize; 7];
        let mut issued = 0usize;
        let mut bundle: Bundle = Vec::new();
        // repeatedly pick the best ready op this cycle (0-lat preds may be
        // satisfied by ops placed earlier in this same bundle)
        loop {
            if issued >= m.issue_width {
                break;
            }
            let mut best: Option<usize> = None;
            for v in 0..n {
                // 0-latency predecessors may share this cycle: VLIW bundle
                // semantics read all operands before any write lands.
                if scheduled[v] || waiting[v] > 0 || earliest[v] > cycle {
                    continue;
                }
                if used[class_of[v]] >= m.units[class_of[v]] {
                    continue;
                }
                match best {
                    None => best = Some(v),
                    Some(b) if h[v] > h[b] => best = Some(v),
                    _ => {}
                }
            }
            let Some(v) = best else { break };
            used[class_of[v]] += 1;
            issued += 1;
            scheduled[v] = true;
            cycle_of[v] = cycle;
            for &k in succs.of(v) {
                let e = &edges[k];
                waiting[e.to] -= 1;
                earliest[e.to] = earliest[e.to].max(cycle + e.lat);
            }
            bundle.push(ops[v].clone());
            remaining -= 1;
        }
        bundles.push(bundle);
        cycle += 1;
        if cycle as usize > 64 * n + 64 {
            unreachable!("list scheduler failed to converge");
        }
    }
    Schedule { bundles, cycle_of }
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

    fn add(dst: u32, a: u32, b: u32) -> Op {
        Op::new(OpKind::Bin {
            op: BinKind::Add,
            fp: true,
            dst,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        })
    }

    #[test]
    fn independent_loads_pack() {
        let m = MachineDesc::default(); // 2 mem units
        let ops = vec![load(0, 0), load(1, 1), load(2, 2), load(3, 3)];
        let s = list_schedule(&ops, &m);
        // 4 loads over 2 mem units → 2 cycles
        assert_eq!(s.bundles.iter().filter(|b| !b.is_empty()).count(), 2);
        assert_eq!(s.bundles[0].len(), 2);
    }

    #[test]
    fn latency_respected() {
        let m = MachineDesc::default(); // Mem lat 2
        let ops = vec![load(0, 0), add(1, 0, 0)];
        let s = list_schedule(&ops, &m);
        assert_eq!(s.cycle_of[0], 0);
        assert_eq!(s.cycle_of[1], 2); // waits for the load
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn dependent_chain_serializes() {
        let m = MachineDesc::default(); // FpAdd lat 3
        let ops = vec![load(0, 0), add(1, 0, 0), add(2, 1, 1), add(3, 2, 2)];
        let s = list_schedule(&ops, &m);
        // 2 (load) + 3 + 3 + 1 = cycles 0,2,5,8
        assert_eq!(s.cycle_of[3], 8);
    }

    #[test]
    fn issue_width_limits() {
        let m = MachineDesc {
            issue_width: 1,
            ..MachineDesc::default()
        };
        let ops = vec![load(0, 0), load(1, 1)];
        let s = list_schedule(&ops, &m);
        assert_eq!(s.cycle_of[1], 1);
    }

    #[test]
    fn priority_prefers_critical_path() {
        // long chain rooted at load(0) vs a lone independent load: the
        // chain head should issue first even though both are ready.
        let m = MachineDesc {
            issue_width: 1,
            ..MachineDesc::default()
        };
        let ops = vec![
            load(9, 5), // independent, low height
            load(0, 0),
            add(1, 0, 0),
            add(2, 1, 1),
        ];
        let s = list_schedule(&ops, &m);
        assert!(s.cycle_of[1] < s.cycle_of[0], "{:?}", s.cycle_of);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::ir::Lir;
    use crate::ir::OpKind;
    use crate::lower::lower_program;
    use slc_ast::parse_program;

    #[test]
    fn branch_scheduled_last() {
        let lir = lower_program(
            &parse_program(
                "float A[16]; float B[16]; int i; for (i = 0; i < 16; i++) A[i] = B[i] + 1.0;",
            )
            .unwrap(),
        )
        .unwrap();
        let ops = lir
            .items
            .iter()
            .find_map(|it| match it {
                Lir::Loop(l) => l.body.iter().find_map(|b| match b {
                    Lir::Block(o) => Some(o.clone()),
                    _ => None,
                }),
                _ => None,
            })
            .unwrap();
        let m = MachineDesc::default();
        let s = list_schedule(&ops, &m);
        let br_idx = ops
            .iter()
            .position(|o| matches!(o.kind, OpKind::Branch))
            .unwrap();
        let br_cycle = s.cycle_of[br_idx];
        assert!(s.cycle_of.iter().all(|&c| c <= br_cycle));
    }

    #[test]
    fn empty_block_schedules_empty() {
        let m = MachineDesc::default();
        let s = list_schedule(&[], &m);
        assert!(s.is_empty());
    }
}
