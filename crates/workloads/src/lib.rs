//! # slc-workloads — the paper's benchmark loops in the mini language
//!
//! The evaluation uses Livermore loops, Linpack loops, the NAS kernel
//! benchmark and the STONE benchmark (§9). This crate re-writes the
//! relevant kernels in the mini language with constant problem sizes.
//!
//! Substitution notes (see DESIGN.md):
//!
//! * Livermore kernels follow the classic C translations of McMahon's
//!   FORTRAN kernels; kernels with multi-phase control (2, 4, 6) are
//!   represented by their dominant inner loop.
//! * The NAS kernel benchmark is represented by characteristic inner loops
//!   of MXM (matrix multiply), VPENTA (penta-diagonal) and EMIT-style
//!   streaming updates.
//! * The STONE benchmark is not publicly archived; it is modeled as
//!   STREAM-style memory kernels (copy/scale/sum/triad) plus a shifted
//!   copy — memory-ratio-dominated loops matching the paper's description
//!   of where SLMS must be applied selectively.
//! * `paper` collects every worked example from the paper itself.

use slc_ast::{parse_program, Program};

/// Benchmark suite tags (the grouping used by the figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Livermore FORTRAN kernels
    Livermore,
    /// Linpack BLAS-1 style loops
    Linpack,
    /// NAS kernel benchmark loops
    Nas,
    /// STONE / streaming loops
    Stone,
    /// worked examples from the paper text
    Paper,
}

impl Suite {
    /// Stable report and wire label.
    pub fn label(&self) -> &'static str {
        match self {
            Suite::Livermore => "livermore",
            Suite::Linpack => "linpack",
            Suite::Nas => "nas",
            Suite::Stone => "stone",
            Suite::Paper => "paper",
        }
    }

    /// Inverse of [`Suite::label`].
    pub fn from_label(s: &str) -> Option<Suite> {
        Some(match s {
            "livermore" => Suite::Livermore,
            "linpack" => Suite::Linpack,
            "nas" => Suite::Nas,
            "stone" => Suite::Stone,
            "paper" => Suite::Paper,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One benchmark loop: a complete parseable program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// short name used in figures (e.g. `kernel1`, `ddot`)
    pub name: &'static str,
    /// suite the loop belongs to
    pub suite: Suite,
    /// mini-language source
    pub source: &'static str,
}

impl Workload {
    /// Parse the program (sources are tested to parse).
    pub fn program(&self) -> Program {
        parse_program(self.source)
            .unwrap_or_else(|e| panic!("workload {} failed to parse: {e}", self.name))
    }
}

/// Livermore kernels (subset exercised by the paper's figures).
pub fn livermore() -> Vec<Workload> {
    vec![
        Workload {
            name: "kernel1_hydro",
            suite: Suite::Livermore,
            source: "float x[1012]; float y[1012]; float z[1012]; float q; float r; float t; int k;\n\
                 for (k = 0; k < 990; k++) {\n\
                   x[k] = q + y[k] * (r * z[k + 10] + t * z[k + 11]);\n\
                 }",
        },
        Workload {
            name: "kernel2_iccg",
            suite: Suite::Livermore,
            source: "float x[1012]; float v[1012]; int i;\n\
                 for (i = 4; i < 996; i++) {\n\
                   x[i] = x[i + 4] - v[i] * x[i + 1] - v[i + 1] * x[i + 2];\n\
                 }",
        },
        Workload {
            name: "kernel3_inner_product",
            suite: Suite::Livermore,
            source: "float x[1012]; float z[1012]; float q; float t; int k;\n\
                 for (k = 0; k < 1000; k++) {\n\
                   t = z[k] * x[k];\n\
                   q = q + t;\n\
                 }",
        },
        Workload {
            name: "kernel5_tridiag",
            suite: Suite::Livermore,
            source: "float x[1012]; float y[1012]; float z[1012]; int i;\n\
                 for (i = 1; i < 1000; i++) {\n\
                   x[i] = z[i] * (y[i] - x[i - 1]);\n\
                 }",
        },
        Workload {
            name: "kernel7_eos",
            suite: Suite::Livermore,
            source: "float x[1012]; float y[1012]; float z[1012]; float u[1012]; float q; float r; float t; int k;\n\
                 for (k = 0; k < 990; k++) {\n\
                   x[k] = u[k] + r * (z[k] + r * y[k]) \
                        + t * (u[k + 3] + r * (u[k + 2] + r * u[k + 1]) \
                        + t * (u[k + 6] + q * (u[k + 5] + q * u[k + 4])));\n\
                 }",
        },
        Workload {
            name: "kernel8_adi",
            suite: Suite::Livermore,
            source: "float du1[1012]; float du2[1012]; float du3[1012];\n\
                 float u1[2024]; float u2[2024]; float u3[2024]; int ky;\n\
                 for (ky = 1; ky < 900; ky++) {\n\
                   du1[ky] = u1[ky + 1] - u1[ky - 1];\n\
                   du2[ky] = u2[ky + 1] - u2[ky - 1];\n\
                   du3[ky] = u3[ky + 1] - u3[ky - 1];\n\
                   u1[ky + 101] = u1[ky] + 2.0 * du1[ky] + 2.0 * du2[ky] + 2.0 * du3[ky];\n\
                   u2[ky + 101] = u2[ky] + 2.0 * du1[ky] + 2.0 * du2[ky] + 2.0 * du3[ky];\n\
                   u3[ky + 101] = u3[ky] + 2.0 * du1[ky] + 2.0 * du2[ky] + 2.0 * du3[ky];\n\
                 }",
        },
        Workload {
            name: "kernel9_integrate",
            suite: Suite::Livermore,
            source: "float px[1030]; float cx[1030]; float dm; int i;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   px[i] = dm * px[i + 12] + 0.3 * px[i + 11] + 0.4 * px[i + 10] \
                         + 0.5 * px[i + 9] + cx[i + 4] + cx[i + 5];\n\
                 }",
        },
        Workload {
            name: "kernel10_diff_predict",
            suite: Suite::Livermore,
            source: "float px[1030]; float cx[1030]; int i;\n\
                 float ar; float br; float cr; float dr; float er; float fr;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   ar = cx[i + 4];\n\
                   br = ar - px[i + 4];\n\
                   px[i + 4] = ar;\n\
                   cr = br - px[i + 5];\n\
                   px[i + 5] = br;\n\
                   dr = cr - px[i + 6];\n\
                   px[i + 6] = cr;\n\
                   er = dr - px[i + 7];\n\
                   px[i + 7] = dr;\n\
                   fr = er - px[i + 8];\n\
                   px[i + 8] = er;\n\
                   px[i + 9] = fr;\n\
                 }",
        },
        Workload {
            name: "kernel11_first_sum",
            suite: Suite::Livermore,
            source: "float x[1012]; float y[1012]; int k;\n\
                 for (k = 1; k < 1000; k++) {\n\
                   x[k] = x[k - 1] + y[k];\n\
                 }",
        },
        Workload {
            name: "kernel12_first_diff",
            suite: Suite::Livermore,
            source: "float x[1012]; float y[1012]; int k;\n\
                 for (k = 0; k < 999; k++) {\n\
                   x[k] = y[k + 1] - y[k];\n\
                 }",
        },
        Workload {
            name: "kernel4_banded",
            suite: Suite::Livermore,
            source: "float x[2024]; float y[2024]; float xz; int k;\n\
                 for (k = 6; k < 1000; k += 5) {\n\
                   xz = xz + y[k] * x[k - 1] + y[k + 1] * x[k - 2];\n\
                 }",
        },
        Workload {
            name: "kernel6_linear_rec",
            suite: Suite::Livermore,
            source: "float w[1012]; float b[1012]; int i;\n\
                 for (i = 1; i < 1000; i++) {\n\
                   w[i] = w[i] + b[i] * w[i - 1];\n\
                 }",
        },
        Workload {
            name: "kernel18_hydro2d",
            suite: Suite::Livermore,
            source: "float za[64][64]; float zb[64][64]; float zp[64][64]; float zq[64][64]; int j; int k;\n\
                 for (j = 1; j < 62; j++) {\n\
                   for (k = 1; k < 62; k++) {\n\
                     za[j][k] = (zp[j - 1][k + 1] + zq[j - 1][k + 1]) * (zb[j][k] + zb[j - 1][k]);\n\
                   }\n\
                 }",
        },
        Workload {
            name: "kernel21_matmul_col",
            suite: Suite::Livermore,
            source: "float px[64][64]; float vy[64][64]; float cx[64][64]; int i; int j; int k;\n\
                 j = 5; i = 9;\n\
                 for (k = 0; k < 64; k++) {\n\
                   px[j][i] = px[j][i] + vy[k][i] * cx[j][k];\n\
                 }",
        },
        Workload {
            name: "kernel22_planck",
            suite: Suite::Livermore,
            source: "float y[1012]; float u[1012]; float v[1012]; float w[1012]; float expmax; int k;\n\
                 expmax = 20.0;\n\
                 for (k = 0; k < 1000; k++) {\n\
                   y[k] = u[k] / v[k];\n\
                   w[k] = y[k] / (exp(y[k]) - 1.0 + expmax * 0.0);\n\
                 }",
        },
        Workload {
            name: "kernel23_implicit",
            suite: Suite::Livermore,
            source: "float za[64][64]; float zz[64][64]; float zr[64][64]; float zu[64][64]; float zv[64][64]; float qa; int j; int k;\n\
                 j = 17;\n\
                 for (k = 1; k < 62; k++) {\n\
                   qa = za[k][j + 1] * zr[k][j] + za[k][j - 1] * zu[k][j] + zv[k][j];\n\
                   zz[k][j] = zz[k][j] + 0.175 * (qa - zz[k][j]);\n\
                 }",
        },
        Workload {
            name: "kernel24_min_index",
            suite: Suite::Livermore,
            source: "float x[1012]; float xm; int m; int k;\n\
                 xm = x[0];\n\
                 for (k = 1; k < 1000; k++) {\n\
                   if (x[k] < xm) { xm = x[k]; m = k; }\n\
                 }",
        },
    ]
}

/// Linpack loops.
pub fn linpack() -> Vec<Workload> {
    vec![
        Workload {
            name: "daxpy",
            suite: Suite::Linpack,
            source: "float dx[1012]; float dy[1012]; float da; int i;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   dy[i] = dy[i] + da * dx[i];\n\
                 }",
        },
        Workload {
            name: "ddot2",
            suite: Suite::Linpack,
            source: "float dx[1012]; float dy[1012]; float dtemp; float t; int i;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   t = dx[i] * dy[i];\n\
                   dtemp = dtemp + t;\n\
                 }",
        },
        Workload {
            name: "dscal",
            suite: Suite::Linpack,
            source: "float dx[1012]; float da; int i;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   dx[i] = da * dx[i];\n\
                 }",
        },
        Workload {
            name: "idamax2",
            suite: Suite::Linpack,
            source: "float dx[1012]; float dmax; int itemp; int i;\n\
                 dmax = abs(dx[0]);\n\
                 for (i = 1; i < 1000; i++) {\n\
                   if (abs(dx[i]) > dmax) { itemp = i; dmax = abs(dx[i]); }\n\
                 }",
        },
        Workload {
            name: "dmxpy_inner",
            suite: Suite::Linpack,
            source: "float y[404]; float x[404]; float m[404]; int i;\n\
                 for (i = 0; i < 400; i++) {\n\
                   y[i] = y[i] + x[i] * m[i] + x[i + 1] * m[i + 1] + x[i + 2] * m[i + 2];\n\
                 }",
        },
        Workload {
            name: "dgesl_solve",
            suite: Suite::Linpack,
            source: "float b[1012]; float a[1012]; float t; int i;\n\
                 for (i = 1; i < 1000; i++) {\n\
                   b[i] = b[i] - a[i] * t;\n\
                   t = b[i] * 0.5;\n\
                 }",
        },
        Workload {
            name: "dgefa_elim",
            suite: Suite::Linpack,
            source: "float a[1012]; float b[1012]; float t; int i;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   a[i] = a[i] + t * b[i];\n\
                 }",
        },
    ]
}

/// NAS kernel benchmark loops.
pub fn nas() -> Vec<Workload> {
    vec![
        Workload {
            name: "mxm_inner",
            suite: Suite::Nas,
            source: "float a[128][32]; float b[32][128]; float c[128][128]; float s; int i; int j; int k;\n\
                 i = 8; j = 17;\n\
                 for (k = 0; k < 32; k++) {\n\
                   s = s + a[i][k] * b[k][j];\n\
                   c[i][j] = s;\n\
                 }",
        },
        Workload {
            name: "vpenta_fragment",
            suite: Suite::Nas,
            source: "float f[1012]; float x[1012]; float y[1012]; float z[1012]; int j;\n\
                 for (j = 2; j < 1000; j++) {\n\
                   f[j] = f[j] - x[j] * f[j - 1] - y[j] * f[j - 2] + z[j];\n\
                 }",
        },
        Workload {
            name: "emit_stream",
            suite: Suite::Nas,
            source: "float ps1[1012]; float ps2[1012]; float w[1012]; float u; float v; int i;\n\
                 for (i = 1; i < 999; i++) {\n\
                   ps1[i] = u * ps1[i] + v * ps2[i + 1] + w[i];\n\
                   ps2[i] = v * ps1[i] + u * ps2[i - 1];\n\
                 }",
        },
        Workload {
            name: "cholsky_fragment",
            suite: Suite::Nas,
            source: "float a[1012]; float d[1012]; float e[1012]; int i;\n\
                 for (i = 2; i < 1000; i++) {\n\
                   a[i] = a[i] - d[i - 1] * d[i - 1] * e[i] - d[i - 2] * d[i - 2] * e[i - 1];\n\
                 }",
        },
        Workload {
            name: "gmtry_gauss",
            suite: Suite::Nas,
            source: "float rmatrx[1030]; float rhs[1030]; float pivot; int i;\n\
                 pivot = 2.5;\n\
                 for (i = 4; i < 1000; i++) {\n\
                   rmatrx[i] = rmatrx[i] / pivot;\n\
                   rhs[i] = rhs[i] - rmatrx[i] * rhs[i - 4];\n\
                 }",
        },
        Workload {
            name: "cfft2d_butterfly",
            suite: Suite::Nas,
            source: "float xr[2024]; float xi[2024]; float wr; float wi; float tr; float ti; int i;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   tr = wr * xr[i + 1000] - wi * xi[i + 1000];\n\
                   ti = wr * xi[i + 1000] + wi * xr[i + 1000];\n\
                   xr[i + 1000] = xr[i] - tr;\n\
                   xi[i + 1000] = xi[i] - ti;\n\
                   xr[i] = xr[i] + tr;\n\
                   xi[i] = xi[i] + ti;\n\
                 }",
        },
        Workload {
            name: "btrix_fragment",
            suite: Suite::Nas,
            source: "float q1[1012]; float q2[1012]; float q3[1012]; float r[1012]; int j;\n\
                 for (j = 1; j < 999; j++) {\n\
                   q1[j] = q1[j] - r[j] * q1[j + 1];\n\
                   q2[j] = q2[j] - r[j] * q2[j + 1];\n\
                   q3[j] = q3[j] - r[j] * q3[j + 1];\n\
                 }",
        },
    ]
}

/// STONE / streaming loops (see crate docs for the substitution note).
pub fn stone() -> Vec<Workload> {
    vec![
        Workload {
            name: "stone_copy",
            suite: Suite::Stone,
            source: "float a[1012]; float b[1012]; int i;\n\
                 for (i = 0; i < 1000; i++) { a[i] = b[i]; }",
        },
        Workload {
            name: "stone_scale",
            suite: Suite::Stone,
            source: "float a[1012]; float b[1012]; float q; int i;\n\
                 for (i = 0; i < 1000; i++) { a[i] = q * b[i]; }",
        },
        Workload {
            name: "stone_sum",
            suite: Suite::Stone,
            source: "float a[1012]; float b[1012]; float c[1012]; int i;\n\
                 for (i = 0; i < 1000; i++) { a[i] = b[i] + c[i]; }",
        },
        Workload {
            name: "stone_triad",
            suite: Suite::Stone,
            source: "float a[1012]; float b[1012]; float c[1012]; float q; int i;\n\
                 for (i = 0; i < 1000; i++) { a[i] = b[i] + q * c[i]; }",
        },
        Workload {
            name: "stone_shift_copy",
            suite: Suite::Stone,
            source: "float a[1012]; int i;\n\
                 for (i = 0; i < 1000; i++) { a[i] = a[i + 2]; }",
        },
        Workload {
            // gcd-disjoint strided references: a[4i] never meets a[2i+1]
            // (gcd(4,2) ∤ 1) — pipelinable only under a dependence test
            // that refutes coefficient-mismatched pairs instead of
            // widening them to "any distance".
            name: "stone_stride_disjoint",
            suite: Suite::Stone,
            source: "float a[4096]; float b[512]; int i;\n\
                 for (i = 0; i < 500; i++) {\n\
                   a[4 * i] = a[2 * i + 1] + 1.0;\n\
                   b[i] = a[2 * i + 1] * 2.0;\n\
                 }",
        },
        Workload {
            name: "stone_poly",
            suite: Suite::Stone,
            source: "float a[1012]; float b[1012]; float q; float r; int i;\n\
                 for (i = 0; i < 1000; i++) {\n\
                   a[i] = b[i] * (q + b[i] * (r + b[i] * (q + r * b[i])));\n\
                 }",
        },
    ]
}

/// Worked examples from the paper text.
pub fn paper_examples() -> Vec<Workload> {
    vec![
        Workload {
            name: "intro_dot",
            suite: Suite::Paper,
            source: "float A[1012]; float B[1012]; float s; float t; int i;\n\
                 for (i = 0; i < 1000; i++) { t = A[i] * B[i]; s = s + t; }",
        },
        Workload {
            name: "sec32_recurrence",
            suite: Suite::Paper,
            source: "float A[1012]; int i;\n\
                 for (i = 2; i < 1000; i++) {\n\
                   A[i] = A[i - 1] + A[i - 2] + A[i + 1] + A[i + 2];\n\
                 }",
        },
        Workload {
            name: "fig7_two_variants",
            suite: Suite::Paper,
            source: "float A[1012]; float B[1012]; float C[1012]; float reg; float scal; int i;\n\
                 for (i = 1; i < 1000; i++) {\n\
                   reg = A[i + 1];\n\
                   A[i] = A[i - 1] + reg;\n\
                   scal = B[i] / 2.0;\n\
                   C[i] = scal * 3.0;\n\
                 }",
        },
        Workload {
            name: "sec5_max",
            suite: Suite::Paper,
            source: "float arr[1012]; float max; int i;\n\
                 max = arr[0];\n\
                 for (i = 1; i < 1000; i++) { if (max < arr[i]) max = arr[i]; }",
        },
        Workload {
            name: "sec92_fp_power",
            suite: Suite::Paper,
            source: "float X[1012]; int k;\n\
                 for (k = 1; k < 1000; k++) {\n\
                   X[k] = X[k - 1] * X[k - 1] * X[k - 1] * X[k - 1] * X[k - 1] \
                        + X[k + 1] * X[k + 1] * X[k + 1] * X[k + 1] * X[k + 1];\n\
                 }",
        },
        Workload {
            name: "sec4_swap",
            suite: Suite::Paper,
            source: "float X[64][64]; float CT; int k; int i; int j;\n\
                 i = 3; j = 9;\n\
                 for (k = 0; k < 64; k++) {\n\
                   CT = X[k][i];\n\
                   X[k][i] = X[k][j] * 2.0;\n\
                   X[k][j] = CT;\n\
                 }",
        },
        Workload {
            name: "sec4_bad_mem",
            suite: Suite::Paper,
            source: "float a[1012]; int i;\n\
                 for (i = 0; i < 1000; i++) { a[i] += i; a[i] *= 6.0; a[i] -= 1.0; }",
        },
        Workload {
            name: "sec8_lw",
            suite: Suite::Paper,
            source: "float x[2024]; float y[2024]; float temp; int lw; int j;\n\
                 lw = 6;\n\
                 for (j = 4; j < 2000; j += 2) { temp -= x[lw] * y[j]; lw += 1; }",
        },
    ]
}

/// Which side of the paper's original-vs-SLMS comparison a matrix cell
/// measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// the loop as written
    Original,
    /// after Source Level Modulo Scheduling
    Slms,
}

impl Variant {
    /// Both variants, in canonical report order.
    pub const ALL: [Variant; 2] = [Variant::Original, Variant::Slms];

    /// Short label used in reports (`orig` / `slms`).
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Original => "orig",
            Variant::Slms => "slms",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One cell of the experiment matrix, as indices into the axis vectors
/// (workload × machine × compiler personality × variant). Index-based so
/// this crate does not need to know machine or compiler types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatrixCell {
    /// index into the workload axis
    pub workload: usize,
    /// index into the machine axis
    pub machine: usize,
    /// index into the compiler-personality axis
    pub compiler: usize,
    /// original or SLMS'd source
    pub variant: Variant,
}

/// Enumerate the full cross product in canonical (deterministic) order:
/// workload-major, then machine, then compiler, with the original/SLMS
/// pair adjacent. The order is part of the batch report contract — cells
/// appear in the JSON exactly in this order regardless of thread count.
pub fn enumerate_matrix(
    n_workloads: usize,
    n_machines: usize,
    n_compilers: usize,
) -> Vec<MatrixCell> {
    let mut cells = Vec::with_capacity(n_workloads * n_machines * n_compilers * 2);
    for w in 0..n_workloads {
        for m in 0..n_machines {
            for c in 0..n_compilers {
                for v in Variant::ALL {
                    cells.push(MatrixCell {
                        workload: w,
                        machine: m,
                        compiler: c,
                        variant: v,
                    });
                }
            }
        }
    }
    cells
}

/// Every workload.
pub fn all() -> Vec<Workload> {
    let mut v = livermore();
    v.extend(linpack());
    v.extend(nas());
    v.extend(stone());
    v.extend(paper_examples());
    v
}

/// Workloads of one suite.
pub fn by_suite(suite: Suite) -> Vec<Workload> {
    all().into_iter().filter(|w| w.suite == suite).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sources_parse() {
        let ws = all();
        assert!(
            ws.len() >= 30,
            "expected a substantial suite, got {}",
            ws.len()
        );
        for w in &ws {
            let p = w.program();
            assert!(!p.stmts.is_empty(), "{} has no statements", w.name);
        }
    }

    #[test]
    fn names_unique() {
        let ws = all();
        let mut names: Vec<_> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ws.len());
    }

    #[test]
    fn suites_populated() {
        for s in [
            Suite::Livermore,
            Suite::Linpack,
            Suite::Nas,
            Suite::Stone,
            Suite::Paper,
        ] {
            assert!(by_suite(s).len() >= 5, "suite {s} too small");
        }
    }

    #[test]
    fn matrix_order_is_canonical() {
        let cells = enumerate_matrix(2, 2, 1);
        assert_eq!(cells.len(), 8);
        // workload-major, orig/slms adjacent
        assert_eq!(
            (cells[0].workload, cells[0].machine, cells[0].variant),
            (0, 0, Variant::Original)
        );
        assert_eq!(
            (cells[1].workload, cells[1].machine, cells[1].variant),
            (0, 0, Variant::Slms)
        );
        assert_eq!((cells[2].workload, cells[2].machine), (0, 1));
        assert_eq!(cells[4].workload, 1);
        // enumeration is deterministic
        assert_eq!(cells, enumerate_matrix(2, 2, 1));
    }

    #[test]
    fn every_workload_has_a_loop() {
        for w in all() {
            let p = w.program();
            assert!(
                p.stmts.iter().any(|s| matches!(s, slc_ast::Stmt::For(_))),
                "{} has no for loop",
                w.name
            );
        }
    }
}
