//! Differential testing of the cycle simulator's fast path.
//!
//! `SimFidelity::Fast` (compiled address streams + steady-state
//! fast-forward) must report **bit-identical** results to
//! `SimFidelity::Reference` (the original trip-by-trip walk) on every cell
//! of the full experiment matrix: every workload × machine × compiler ×
//! {original, SLMS} combination. The fast path is a pure wall-clock
//! optimisation; any divergence in cycles, cache stats, op counts or spill
//! traffic is a bug. A digest of every cell's full result and fast-path
//! counters is pinned, so a change that moves both fidelities alike is
//! caught too.

use slc_core::slms_program;
use slc_pipeline::{compile, BatchConfig};
use slc_sim::cycle::{simulate_with, FfStats, SimFidelity, SimResult};
use slc_workloads::Variant;

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fold(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Every field of a cell's result and fast-path counters, in declaration
/// order.
fn cell_words(r: &SimResult, ff: &FfStats) -> Vec<u64> {
    let mut w = vec![r.cycles];
    w.extend(r.class_counts);
    w.extend([r.cache.hits, r.cache.misses, r.spill_accesses]);
    w.extend([
        ff.fast_loops,
        ff.fallback_loops,
        ff.ff_hits,
        ff.ff_misses,
        ff.trips_total,
        ff.trips_skipped,
    ]);
    w
}

/// Digest of every compiled cell's [`SimResult`] and both fidelities'
/// [`FfStats`], in matrix order. Generated before the two timing walks
/// were folded into one issue kernel; any change to a reported number or
/// to when the fast path engages moves it.
const MATRIX_DIGEST: u64 = 0x8638_074e_280e_bf36;

/// Every cell of the full matrix: Fast == Reference, bit for bit.
#[test]
fn fast_equals_reference_on_full_matrix() {
    let cfg = BatchConfig::full_matrix();
    let programs: Vec<_> = cfg.workloads.iter().map(|w| w.program()).collect();
    let slmsed: Vec<_> = programs
        .iter()
        .map(|p| slms_program(p, &cfg.slms))
        .collect();

    let mut cells = 0usize;
    let mut ff = FfStats::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (wi, w) in cfg.workloads.iter().enumerate() {
        for m in &cfg.machines {
            for &kind in &cfg.compilers {
                for variant in [Variant::Original, Variant::Slms] {
                    let prog = match variant {
                        Variant::Original => &programs[wi],
                        Variant::Slms => &slmsed[wi].0,
                    };
                    let Ok(c) = compile(prog, m, kind) else {
                        continue;
                    };
                    let fast = simulate_with(&c.compiled, m, SimFidelity::Fast);
                    let reference = simulate_with(&c.compiled, m, SimFidelity::Reference);
                    let ctx = format!("{} / {} / {} / {variant}", w.name, m.name, kind.label());
                    assert_eq!(fast.result, reference.result, "{ctx}");
                    // the reference path must never fast-forward or take the
                    // compiled-stream loop body
                    assert_eq!(reference.ff.fast_loops, 0, "{ctx}");
                    assert_eq!(reference.ff.ff_hits, 0, "{ctx}");
                    assert_eq!(reference.ff.trips_skipped, 0, "{ctx}");
                    // both paths agree on how many trips the program has
                    assert_eq!(fast.ff.trips_total, reference.ff.trips_total, "{ctx}");
                    ff.merge(&fast.ff);
                    digest = fold(digest, &cell_words(&fast.result, &fast.ff));
                    digest = fold(digest, &cell_words(&reference.result, &reference.ff));
                    cells += 1;
                }
            }
        }
    }
    assert!(cells > 100, "matrix unexpectedly small: {cells} cells");
    // across the whole matrix the optimisation must actually engage
    assert!(
        ff.ff_hits > 0 && ff.trips_skipped > 0,
        "fast-forward never fired over {cells} cells: {ff:?}"
    );
    assert_eq!(
        digest, MATRIX_DIGEST,
        "digest {digest:#018x} over {cells} cells: {ff:?}"
    );
}

/// Steady-state fast-forward fires on the Livermore kernels — the
/// long-trip affine loops the optimisation exists for. Count-based (no
/// wall-clock): suitable for CI.
#[test]
fn fast_forward_fires_on_livermore() {
    let m = slc_sim::presets::itanium2();
    let mut ff = FfStats::default();
    for w in slc_workloads::livermore() {
        let prog = w.program();
        let Ok(c) = compile(&prog, &m, slc_pipeline::CompilerKind::Optimizing) else {
            continue;
        };
        let out = simulate_with(&c.compiled, &m, SimFidelity::Fast);
        ff.merge(&out.ff);
    }
    assert!(
        ff.fast_loops > 0,
        "no loop took the compiled fast path: {ff:?}"
    );
    assert!(ff.ff_hits > 0, "steady-state detection never hit: {ff:?}");
    assert!(
        ff.trips_skipped > 0,
        "fast-forward skipped no trips on Livermore: {ff:?}"
    );
    // the skipped trips must be accounted inside the total, never beyond
    assert!(ff.trips_skipped <= ff.trips_total, "{ff:?}");
}
