//! Register-pressure estimation and spill accounting.
//!
//! The final-compiler substrate does not rewrite code for spills; it
//! *charges* them: the maximum number of simultaneously live virtual
//! registers in a scheduled block is compared against the architected
//! register count, and each excess register costs the simulator extra
//! memory traffic per iteration (one reload + one store). That is enough to
//! reproduce the paper's register-pressure phenomena: MVE-unrolled kernels
//! on the 8-register Pentium (kernel 10, Fig. 17) and the IMS failure of
//! Fig. 11.

use crate::ir::Bundle;
use std::collections::HashMap;

/// Maximum number of simultaneously live registers across a bundle
/// schedule. A register is live from its (first) defining cycle to its last
/// using cycle; registers read before any definition (live-in: loop
/// carried scalars) are live from cycle 0.
pub fn max_pressure(bundles: &[Bundle]) -> usize {
    let mut first_def: HashMap<u32, usize> = HashMap::new();
    let mut last_use: HashMap<u32, usize> = HashMap::new();
    for (c, b) in bundles.iter().enumerate() {
        for op in b {
            op.visit_srcs(|r| {
                last_use.insert(r, c);
                first_def.entry(r).or_insert(0); // live-in if undefined
            });
            if let Some(d) = op.dst() {
                first_def.entry(d).or_insert(c);
                last_use.entry(d).or_insert(c);
            }
        }
    }
    let n = bundles.len();
    let mut delta = vec![0i64; n + 1];
    for (r, &s) in &first_def {
        let e = last_use.get(r).copied().unwrap_or(s);
        delta[s] += 1;
        delta[e + 1] -= 1;
    }
    let mut live = 0i64;
    let mut peak = 0i64;
    for d in delta {
        live += d;
        peak = peak.max(live);
    }
    peak as usize
}

/// Spill accounting: excess registers beyond the architected count, and the
/// extra memory accesses charged per loop iteration (2 per excess register:
/// one spill store, one reload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillInfo {
    /// registers that do not fit
    pub excess: usize,
    /// extra memory accesses charged per iteration
    pub extra_mem_per_iter: usize,
}

/// Compute spill info for a measured pressure against an architected
/// register count.
pub fn spills(pressure: usize, arch_regs: usize) -> SpillInfo {
    let excess = pressure.saturating_sub(arch_regs);
    SpillInfo {
        excess,
        extra_mem_per_iter: 2 * excess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinKind, Op, OpKind, Operand};

    fn movi(dst: u32) -> Op {
        Op::new(OpKind::Mov {
            dst,
            src: Operand::ImmI(1),
        })
    }

    fn add(dst: u32, a: u32, b: u32) -> Op {
        Op::new(OpKind::Bin {
            op: BinKind::Add,
            fp: false,
            dst,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        })
    }

    #[test]
    fn disjoint_lifetimes_reuse() {
        // r0 defined and consumed, then r1: peak 2 (r0 still live at its use)
        let bundles = vec![
            vec![movi(0)],
            vec![add(1, 0, 0)],
            vec![movi(2)],
            vec![add(3, 2, 2)],
        ];
        assert_eq!(max_pressure(&bundles), 2);
    }

    #[test]
    fn overlapping_lifetimes_accumulate() {
        let bundles = vec![
            vec![movi(0)],
            vec![movi(1)],
            vec![movi(2)],
            vec![add(3, 0, 1), add(4, 2, 0)],
        ];
        // r0, r1, r2 all live at cycle 3
        assert!(max_pressure(&bundles) >= 3);
    }

    #[test]
    fn live_in_counts_from_start() {
        // use of r9 with no def: live-in
        let bundles = vec![vec![movi(0)], vec![add(1, 9, 0)]];
        assert!(max_pressure(&bundles) >= 2);
    }

    #[test]
    fn spill_math() {
        assert_eq!(spills(10, 8).excess, 2);
        assert_eq!(spills(10, 8).extra_mem_per_iter, 4);
        assert_eq!(spills(6, 8).excess, 0);
    }
}
