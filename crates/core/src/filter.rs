//! Bad-case filtering (§4).
//!
//! SLMS can *reduce* performance when the loop is dominated by memory
//! references: overlapping iterations then packs too many loads/stores into
//! one row and the machine stalls on memory pressure. The paper's filter
//! skips loops whose memory-ref ratio `LS / (LS + AO)` is at or above
//! [`MAX_MEMREF_RATIO`].

use slc_analysis::memref::op_counts;
use slc_ast::Stmt;

/// The paper's threshold: skip a loop whose `LS/(LS+AO)` is at or above
/// this value.
pub const MAX_MEMREF_RATIO: f64 = 0.85;

/// Why a loop was rejected by the filter.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterVerdict {
    /// The loop passes; SLMS may proceed.
    Pass,
    /// Memory-ref ratio at/above threshold.
    MemRefRatio {
        /// measured ratio
        ratio: f64,
        /// the threshold it met ([`MAX_MEMREF_RATIO`])
        threshold: f64,
    },
}

impl FilterVerdict {
    /// True when the loop passed.
    pub fn passed(&self) -> bool {
        matches!(self, FilterVerdict::Pass)
    }
}

impl std::fmt::Display for FilterVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterVerdict::Pass => write!(f, "passed the §4 filter"),
            FilterVerdict::MemRefRatio { ratio, threshold } => write!(
                f,
                "memory-ref ratio LS/(LS+AO) = {ratio:.3} ≥ threshold {threshold:.2}"
            ),
        }
    }
}

/// Apply the §4 filter to a loop body.
pub fn filter_loop(body: &[Stmt], var: &str) -> FilterVerdict {
    let ratio = op_counts(body, var).memref_ratio();
    if ratio >= MAX_MEMREF_RATIO {
        return FilterVerdict::MemRefRatio {
            ratio,
            threshold: MAX_MEMREF_RATIO,
        };
    }
    FilterVerdict::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_stmts;

    #[test]
    fn swap_loop_filtered() {
        let body = parse_stmts("CT = X[k][i]; X[k][i] = X[k][j] * 2.0; X[k][j] = CT;").unwrap();
        let v = filter_loop(&body, "k");
        assert!(matches!(v, FilterVerdict::MemRefRatio { .. }), "{v:?}");
    }

    #[test]
    fn dot_product_passes() {
        let body = parse_stmts("t = A[i] * B[i]; s = s + t;").unwrap();
        assert!(filter_loop(&body, "i").passed());
    }

    #[test]
    fn threshold_is_inclusive() {
        // 5 LS + 3 AO, then six copies of 2 LS each: 17 / 20 = 0.85
        let copies = "F[i] = G[i]; H[i] = J[i]; K[i] = L[i]; M[i] = N[i]; P[i] = Q[i];";
        let at = parse_stmts(&format!(
            "A[i] = B[i] + C[i] + D[i] + E[i]; {copies} R[i] = S[i];"
        ))
        .unwrap();
        let c = op_counts(&at, "i");
        assert_eq!((c.ls, c.ao), (17, 3));
        assert_eq!(c.memref_ratio(), 17.0 / 20.0);
        assert_eq!(
            filter_loop(&at, "i"),
            FilterVerdict::MemRefRatio {
                ratio: 0.85,
                threshold: MAX_MEMREF_RATIO
            }
        );
        // one memory reference lighter: 16 / 19 ≈ 0.842 passes
        let below = parse_stmts(&format!(
            "A[i] = B[i] + C[i] + D[i] + E[i]; {copies} R[i] = 1.0;"
        ))
        .unwrap();
        let c = op_counts(&below, "i");
        assert_eq!((c.ls, c.ao), (16, 3));
        assert!(c.memref_ratio() < MAX_MEMREF_RATIO);
        assert!(filter_loop(&below, "i").passed());
    }
}
