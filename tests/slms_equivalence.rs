//! End-to-end semantic equivalence of SLMS: every transformed loop must be
//! observationally identical to the original on randomized inputs.
//!
//! This is the load-bearing test of the whole reproduction — SLMS rewrites
//! prologue/kernel/epilogue with shifted indices, MVE renaming and scalar
//! expansion, and any off-by-one in the placement or the drain logic shows
//! up here as a bit difference.

use slc_ast::parse_program;
use slc_core::{slms_program, DiagEvent, Expansion, SlmsConfig};
use slc_sim::astinterp::equivalent;

const SEEDS: &[u64] = &[1, 7, 42, 1234, 99999];

fn cfg(expansion: Expansion) -> SlmsConfig {
    SlmsConfig {
        apply_filter: false,
        expansion,
        ..SlmsConfig::default()
    }
}

/// Transform with every expansion mode; require ≥1 loop transformed per
/// mode, and bit-exact equivalence on all seeds.
fn check_equiv(src: &str) {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    for expansion in [Expansion::Off, Expansion::Mve, Expansion::ScalarExpand] {
        let (out, outcomes) = slms_program(&prog, &cfg(expansion));
        let transformed = outcomes.iter().filter(|o| o.result.is_ok()).count();
        assert!(
            transformed >= 1,
            "no loop transformed under {expansion:?} for:\n{src}\noutcomes: {outcomes:#?}"
        );
        if let Err(m) = equivalent(&prog, &out, SEEDS) {
            panic!(
                "mismatch under {expansion:?}: {m:?}\noriginal:\n{src}\ntransformed:\n{}",
                slc_ast::to_source(&out)
            );
        }
    }
}

#[test]
fn intro_dot_product() {
    check_equiv(
        "float A[32]; float B[32]; float s; float t; int i;\n\
         for (i = 0; i < 32; i++) { t = A[i] * B[i]; s = s + t; }",
    );
}

#[test]
fn sec32_recurrence_with_decomposition() {
    check_equiv(
        "float A[80]; int i;\n\
         for (i = 2; i < 70; i++) A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];",
    );
}

#[test]
fn fig7_two_variant_loop() {
    check_equiv(
        "float A[64]; float B[64]; float C[64]; float reg; float scal; int i;\n\
         for (i = 1; i < 60; i++) { reg = A[i + 1]; A[i] = A[i - 1] + reg; \
          scal = B[i] / 2.0; C[i] = scal * 3.0; }",
    );
}

#[test]
fn sec5_max_loop_if_converted() {
    check_equiv(
        "float arr[64]; float max; int i;\n\
         max = arr[0];\n\
         for (i = 1; i < 64; i++) if (max < arr[i]) max = arr[i];",
    );
}

#[test]
fn sec5_du_loop_big_body() {
    check_equiv(
        "float DU1[128]; float DU2[128]; float DU3[128];\n\
         float U1[256]; float U2[256]; float U3[256]; int ky;\n\
         for (ky = 1; ky < 100; ky++) {\n\
           DU1[ky] = U1[ky + 1] - U1[ky - 1];\n\
           DU2[ky] = U2[ky + 1] - U2[ky - 1];\n\
           DU3[ky] = U3[ky + 1] - U3[ky - 1];\n\
           U1[ky + 101] = U1[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];\n\
           U2[ky + 101] = U2[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];\n\
           U3[ky + 101] = U3[ky] + 2.0 * DU1[ky] + 2.0 * DU2[ky] + 2.0 * DU3[ky];\n\
         }",
    );
}

#[test]
fn sec92_fp_intensive_loop() {
    check_equiv(
        "float X[80]; int k;\n\
         for (k = 1; k < 70; k++) {\n\
           X[k] = X[k - 1] * X[k - 1] * X[k - 1] * X[k - 1] * X[k - 1] \
                + X[k + 1] * X[k + 1] * X[k + 1] * X[k + 1] * X[k + 1];\n\
         }",
    );
}

#[test]
fn sec8_lw_style_second_induction() {
    // `lw` is a second induction-like variable updated in the body.
    check_equiv(
        "float x[128]; float y[128]; float temp; int lw; int j;\n\
         lw = 6;\n\
         for (j = 4; j < 64; j += 2) { temp -= x[lw] * y[j]; lw += 1; }",
    );
}

#[test]
fn sec4_bad_case_loop_still_correct() {
    // The §4 example (a[i]+=i; a[i]*=6; a[i]--) — a bad case for speed but
    // must still be semantically preserved when forced.
    check_equiv(
        "float a[64]; int i;\n\
         for (i = 0; i < 60; i++) { a[i] += i; a[i] *= 6.0; a[i] -= 1.0; }",
    );
}

#[test]
fn step_two_loop() {
    check_equiv(
        "float A[128]; float B[128]; float t; int i;\n\
         for (i = 0; i < 120; i += 2) { t = B[i]; A[i] = t * 2.0; }",
    );
}

#[test]
fn downward_loop() {
    check_equiv(
        "float A[64]; float B[64]; float t; int i;\n\
         for (i = 60; i > 2; i--) { t = B[i]; A[i] = t + B[i - 1]; }",
    );
}

#[test]
fn le_bound_loop() {
    check_equiv(
        "float A[64]; float B[64]; int i;\n\
         for (i = 1; i <= 60; i++) { A[i] = B[i] * 2.0; B[i] = B[i] + 1.0; }",
    );
}

#[test]
fn predicated_loop_with_else() {
    check_equiv(
        "float a[64]; float b[64]; int i; float x; float y;\n\
         for (i = 0; i < 60; i++) { if (a[i] < b[i]) { x = x + a[i]; } else { y = y + b[i]; } }",
    );
}

#[test]
fn multiple_distances_loop() {
    check_equiv(
        "float A[96]; float B[96]; float y; int i;\n\
         for (i = 4; i < 90; i++) { A[i] = B[i - 1] + y; B[i] = A[i - 2] + A[i - 3]; }",
    );
}

#[test]
fn accumulator_reduction() {
    check_equiv(
        "float A[64]; float q; int i;\n\
         for (i = 0; i < 64; i++) { q += A[i]; A[i] = q; }",
    );
}

#[test]
fn stencil_store_forward() {
    check_equiv(
        "float U[200]; int k;\n\
         for (k = 1; k < 90; k++) { U[k + 101] = U[k] * 0.5; U[k + 100] = U[k + 1] * 2.0; }",
    );
}

#[test]
fn three_mi_chain() {
    check_equiv(
        "float A[64]; float B[64]; float C[64]; float t; float u; int i;\n\
         for (i = 1; i < 60; i++) { t = A[i - 1]; u = t * 2.0; C[i] = u + B[i]; }",
    );
}

#[test]
fn odd_trip_counts_with_mve() {
    // Trip counts that are not multiples of the MVE unroll exercise the
    // residual-peel path.
    for n in [5, 6, 7, 8, 9, 13] {
        let src = format!(
            "float A[40]; int i;\n\
             for (i = 2; i < {}; i++) A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];",
            2 + n
        );
        let prog = parse_program(&src).unwrap();
        let (out, outcomes) = slms_program(&prog, &cfg(Expansion::Mve));
        if outcomes[0].result.is_ok() {
            if let Err(m) = equivalent(&prog, &out, SEEDS) {
                panic!("mismatch at trip {n}: {m:?}\n{}", slc_ast::to_source(&out));
            }
        }
    }
}

#[test]
fn interchangeable_2d_loop() {
    check_equiv(
        "float a[32][32]; float t; int i; int j;\n\
         for (j = 0; j < 30; j++) { for (i = 0; i < 30; i++) { t = a[i][j]; a[i][j + 1] = t; } }",
    );
}

// The symbolic-bound loops below: `n` is a random small integer per seed,
// folded into a range that includes values below the pipeline depth.
const SYMBOLIC_GUARDED: &str = "float A[32]; float B[32]; int i; int n;\n\
    n = (n % 16 + 16) % 16;\n\
    for (i = 0; i < n; i++) { A[i] = B[i] * 2.0; B[i] = B[i] + 1.0; }";
const SYMBOLIC_DOWNWARD: &str = "float A[32]; float B[32]; int i; int n;\n\
    n = (n % 12 + 12) % 12 + 2;\n\
    for (i = n; i > 0; i--) { A[i] = B[i] * 2.0; B[i] = B[i] + 1.0; }";
const SYMBOLIC_DECOMPOSED: &str = "float A[64]; int i; int n;\n\
    n = (n % 40 + 40) % 40 + 4;\n\
    for (i = 2; i < n; i++) A[i] = A[i - 1] + A[i + 2];";
const SYMBOLIC_LE: &str = "float A[40]; float B[40]; int i; int n;\n\
    n = (n % 30 + 30) % 30 + 2;\n\
    for (i = 1; i <= n; i++) { A[i] = B[i] + 1.0; B[i] = A[i] * 0.5; }";

#[test]
fn symbolic_bound_guarded() {
    // `n` is a random small integer per seed (including values below the
    // pipeline depth and negatives) — the runtime guard must route those to
    // the untransformed loop.
    let prog = parse_program(SYMBOLIC_GUARDED).unwrap();
    let (out, outcomes) = slms_program(&prog, &cfg(Expansion::Off));
    assert!(
        outcomes.iter().any(|o| o.result.is_ok()),
        "symbolic loop should transform: {outcomes:?}"
    );
    let printed = slc_ast::to_source(&out);
    assert!(printed.contains("if ("), "guard missing:\n{printed}");
    if let Err(m) = equivalent(&prog, &out, &[1, 2, 3, 4, 5, 6, 7, 8]) {
        panic!("symbolic mismatch: {m:?}\n{printed}");
    }
}

#[test]
fn symbolic_bound_downward() {
    let prog = parse_program(SYMBOLIC_DOWNWARD).unwrap();
    let (out, outcomes) = slms_program(&prog, &cfg(Expansion::Off));
    assert!(outcomes.iter().any(|o| o.result.is_ok()), "{outcomes:?}");
    if let Err(m) = equivalent(&prog, &out, &[11, 22, 33, 44]) {
        panic!(
            "symbolic downward mismatch: {m:?}\n{}",
            slc_ast::to_source(&out)
        );
    }
}

#[test]
fn symbolic_bound_with_decomposition() {
    // single-MI symbolic loop: decomposition still fires, guard still exact
    let prog = parse_program(SYMBOLIC_DECOMPOSED).unwrap();
    let (out, outcomes) = slms_program(&prog, &cfg(Expansion::Off));
    assert!(outcomes.iter().any(|o| o.result.is_ok()), "{outcomes:?}");
    if let Err(m) = equivalent(&prog, &out, &[9, 18, 27]) {
        panic!(
            "symbolic+decompose mismatch: {m:?}\n{}",
            slc_ast::to_source(&out)
        );
    }
}

#[test]
fn symbolic_le_bound() {
    let prog = parse_program(SYMBOLIC_LE).unwrap();
    let (out, outcomes) = slms_program(&prog, &cfg(Expansion::Off));
    assert!(outcomes.iter().any(|o| o.result.is_ok()), "{outcomes:?}");
    if let Err(m) = equivalent(&prog, &out, &[5, 55, 555]) {
        panic!("symbolic <= mismatch: {m:?}\n{}", slc_ast::to_source(&out));
    }
}

/// A loop whose range is not a compile-time constant gets the classic pair
/// test: its report carries no per-pair verdicts and its trace no
/// `DepsAnalyzed` event. The same body over a constant bound goes through
/// the exact engine and has both. The mismatched-coefficient pair
/// `A[2 * i]` / `A[i]` is where the two pair tests differ.
#[test]
fn symbolic_bounds_take_the_classic_pair_test() {
    const COEFF_SYMBOLIC: &str = "float A[64]; float B[64]; int i; int n;\n\
        n = (n % 16 + 16) % 16;\n\
        for (i = 0; i < n; i++) { A[2 * i] = B[i] + 1.0; B[i] = A[i] * 0.5; }";
    const COEFF_CONSTANT: &str = "float A[64]; float B[64]; int i;\n\
        for (i = 0; i < 16; i++) { A[2 * i] = B[i] + 1.0; B[i] = A[i] * 0.5; }";
    let cases: [(&str, bool, &str); 6] = [
        (SYMBOLIC_GUARDED, true, "ii=1 n_mis=2 decomposed=[]"),
        (SYMBOLIC_DOWNWARD, true, "ii=1 n_mis=2 decomposed=[]"),
        (SYMBOLIC_DECOMPOSED, true, "ii=1 n_mis=2 decomposed=[reg1]"),
        (SYMBOLIC_LE, true, "ii=1 n_mis=2 decomposed=[]"),
        (COEFF_SYMBOLIC, true, "no valid initiation interval"),
        (COEFF_CONSTANT, false, "ii=1 n_mis=2 decomposed=[]"),
    ];
    for (src, symbolic, want) in cases {
        let prog = parse_program(src).unwrap();
        let (out, outcomes) = slms_program(&prog, &cfg(Expansion::Off));
        if let Err(m) = equivalent(&prog, &out, SEEDS) {
            panic!("mismatch: {m:?}\n{}", slc_ast::to_source(&out));
        }
        let [o] = &outcomes[..] else {
            panic!("one loop expected: {outcomes:?}")
        };
        let analyzed = o
            .trace
            .iter()
            .any(|e| matches!(e, DiagEvent::DepsAnalyzed { .. }));
        assert_eq!(analyzed, !symbolic, "DepsAnalyzed event for:\n{src}");
        let got = match &o.result {
            Ok(r) => {
                assert_eq!(r.dep_pairs.is_empty(), symbolic, "dep_pairs for:\n{src}");
                let decomposed = r.decomposed.join(",");
                format!("ii={} n_mis={} decomposed=[{decomposed}]", r.ii, r.n_mis)
            }
            Err(e) => e.to_string(),
        };
        assert_eq!(got, want, "outcome for:\n{src}");
    }
}

#[test]
fn wide_body_eight_mis() {
    check_equiv(
        "float a[96]; float b[96]; float c[96]; float d[96]; int i;\n\
         for (i = 2; i < 90; i++) {\n\
           a[i] = a[i - 1] + 1.0;\n\
           b[i] = a[i] * 2.0;\n\
           c[i] = b[i] - a[i];\n\
           d[i] = c[i] + b[i - 2];\n\
           a[i + 2] = d[i] * 0.5;\n\
           b[i + 1] = d[i] + c[i - 1];\n\
           c[i + 2] = a[i + 1] + 0.25;\n\
           d[i + 1] = c[i] * c[i];\n\
         }",
    );
}

#[test]
fn step_minus_two() {
    check_equiv(
        "float A[128]; float B[128]; float t; int i;\n\
         for (i = 120; i > 6; i -= 2) { t = B[i]; A[i] = t + B[i - 2]; }",
    );
}

#[test]
fn predicated_mi_with_expansion() {
    // predicate temp from if-conversion gets MVE'd alongside a data temp
    check_equiv(
        "float a[64]; float b[64]; float t; int i;\n\
         for (i = 1; i < 60; i++) { t = a[i + 1]; if (b[i] < t) b[i] = t * 2.0; a[i] = t; }",
    );
}

#[test]
fn ii_two_five_mis() {
    // back edge forcing II = 2 on a 5-MI body: offsets 2,1,1,0,0
    check_equiv(
        "float a[96]; float b[96]; float c[96]; int i;\n\
         for (i = 3; i < 90; i++) {\n\
           a[i] = b[i - 1] * 2.0;\n\
           b[i] = a[i] + 1.0;\n\
           c[i] = b[i] * 0.5;\n\
           a[i + 1] = c[i - 2] + a[i - 3];\n\
           b[i + 2] = c[i] - 1.0;\n\
         }",
    );
}

#[test]
fn decomposition_cap_respected() {
    // the single-MI loop has no valid II until one decomposition round
    // splits it; the driver stops there, well under its fixed cap
    use slc_core::slms_loop;
    let mut prog = parse_program(
        "float A[64]; int i; for (i = 2; i < 60; i++) A[i] = A[i - 1] + A[i + 1] + A[i + 2];",
    )
    .unwrap();
    let loop_stmt = prog.stmts[0].clone();
    let out = slms_loop(&mut prog, &loop_stmt, &cfg(Expansion::Mve)).unwrap();
    assert_eq!(out.report.decomposed.len(), 1, "{:?}", out.report);
}
