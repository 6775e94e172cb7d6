//! Source-level delay calculation (§3.5 of the paper).
//!
//! At machine level the delay of a dependence edge is the pipeline-stall
//! count; at source level "pipeline stalls have no meaning", so the paper
//! defines delays purely positionally, such that the sum of delays along
//! every dependence cycle is at least the number of edges in the cycle:
//!
//! 1. `delay(MI_i, MI_i) = 1` (loop-carried self dependence);
//! 2. `delay(MI_i, MI_{i+1}) = 1`;
//! 3. `delay(MI_i, MI_j) = k` for a forward edge, where `k` is the maximal
//!    delay along any path from `MI_i` to `MI_j`;
//! 4. `delay(MI_i, MI_j) = 1` for a back edge.
//!
//! Because consecutive MIs are implicitly chained with delay 1 (rule 2), the
//! maximal-path value of rule 3 evaluates to `j - i` for a forward edge —
//! the implicit chain `i → i+1 → … → j` always exists and dominates any
//! data-dependence path (each data edge from `a` to `b > a` contributes at
//! most `b - a`, by induction). [`forward_delay`] computes the closed form;
//! [`edge_delay`] dispatches on edge shape.

/// Delay of a forward dependence edge from MI `i` to MI `j > i`: the longest
/// path through the implicit delay-1 chain, i.e. `j - i`.
pub fn forward_delay(i: usize, j: usize) -> i64 {
    debug_assert!(j > i);
    (j - i) as i64
}

/// The §3.5 delay of a dependence edge from MI `from` to MI `to`.
pub fn edge_delay(from: usize, to: usize) -> i64 {
    if to > from {
        forward_delay(from, to) // rules 2–3
    } else {
        1 // rule 1 (self dependence) and rule 4 (back edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules() {
        assert_eq!(edge_delay(2, 2), 1); // self
        assert_eq!(edge_delay(2, 3), 1); // consecutive
        assert_eq!(edge_delay(3, 5), 2); // forward span 2 (fig 8 d→f)
        assert_eq!(edge_delay(5, 2), 1); // back edge (fig 8 f→c)
    }

    #[test]
    fn figure8_cycle_sums() {
        // C1 = c→d→e→f→c: delays 1+1+1+1 = 4; C2 = c→d→f→c: 1+2+1 = 4.
        let c1: i64 = [(2, 3), (3, 4), (4, 5), (5, 2)]
            .iter()
            .map(|&(u, v)| edge_delay(u, v))
            .sum();
        assert_eq!(c1, 4);
        let c2: i64 = [(2, 3), (3, 5), (5, 2)]
            .iter()
            .map(|&(u, v)| edge_delay(u, v))
            .sum();
        assert_eq!(c2, 4);
    }
}
