//! Property-based testing of SLMS: random affine loops → the transformed
//! program must be bit-identical to the original, under every expansion
//! mode. Also: the dependence analysis must cover the brute-force oracle on
//! the same random loops, with either pair test (classic and exact).

use proptest::prelude::*;
use slc_analysis::brute::{brute_force_deps, ddg_covers};
use slc_analysis::{build_ddg, partition_mis, DepStats, LoopRange};
use slc_ast::{parse_program, to_source};
use slc_core::{slms_program, Expansion, SlmsConfig};
use slc_sim::astinterp::equivalent;

/// One random statement template.
#[derive(Debug, Clone)]
enum StmtT {
    /// `A<a>[i + c] = <rhs>;`
    Store { arr: usize, off: i64, rhs: RhsT },
    /// `t<k> = <rhs>;`
    Def { tmp: usize, rhs: RhsT },
    /// `s += <rhs>;` accumulator
    Accum { rhs: RhsT },
    /// `if (A<a>[i] < A<b>[i + c]) A<a>[i + d] = <rhs>;`
    Guarded {
        arr: usize,
        brr: usize,
        c: i64,
        d: i64,
        rhs: RhsT,
    },
}

#[derive(Debug, Clone)]
struct RhsT {
    terms: Vec<TermT>,
    mul: bool,
}

#[derive(Debug, Clone)]
enum TermT {
    Load { arr: usize, off: i64 },
    Tmp(usize),
    Const(i64),
    Scalar,
}

fn term_strategy() -> impl Strategy<Value = TermT> {
    prop_oneof![
        (0usize..3, -3i64..4).prop_map(|(arr, off)| TermT::Load { arr, off }),
        (0usize..2).prop_map(TermT::Tmp),
        (1i64..5).prop_map(TermT::Const),
        Just(TermT::Scalar),
    ]
}

fn rhs_strategy() -> impl Strategy<Value = RhsT> {
    (
        proptest::collection::vec(term_strategy(), 1..4),
        any::<bool>(),
    )
        .prop_map(|(terms, mul)| RhsT { terms, mul })
}

fn stmt_strategy() -> impl Strategy<Value = StmtT> {
    prop_oneof![
        (0usize..3, -2i64..3, rhs_strategy()).prop_map(|(arr, off, rhs)| StmtT::Store {
            arr,
            off,
            rhs
        }),
        (0usize..2, rhs_strategy()).prop_map(|(tmp, rhs)| StmtT::Def { tmp, rhs }),
        rhs_strategy().prop_map(|rhs| StmtT::Accum { rhs }),
        (0usize..3, 0usize..3, -2i64..3, -2i64..3, rhs_strategy()).prop_map(
            |(arr, brr, c, d, rhs)| StmtT::Guarded {
                arr,
                brr,
                c,
                d,
                rhs
            }
        ),
    ]
}

fn off_str(off: i64) -> String {
    match off {
        0 => "i".to_string(),
        o if o > 0 => format!("i + {o}"),
        o => format!("i - {}", -o),
    }
}

fn rhs_str(r: &RhsT) -> String {
    let op = if r.mul { " * " } else { " + " };
    r.terms
        .iter()
        .map(|t| match t {
            TermT::Load { arr, off } => format!("A{arr}[{}]", off_str(*off)),
            TermT::Tmp(k) => format!("t{k}"),
            TermT::Const(c) => format!("{c}.0"),
            TermT::Scalar => "s".to_string(),
        })
        .collect::<Vec<_>>()
        .join(op)
}

fn render(stmts: &[StmtT], init: i64, bound: i64, step: i64) -> String {
    let mut body = String::new();
    for s in stmts {
        let line = match s {
            StmtT::Store { arr, off, rhs } => {
                format!("A{arr}[{}] = {};", off_str(*off), rhs_str(rhs))
            }
            StmtT::Def { tmp, rhs } => format!("t{tmp} = {};", rhs_str(rhs)),
            StmtT::Accum { rhs } => format!("s += {};", rhs_str(rhs)),
            StmtT::Guarded {
                arr,
                brr,
                c,
                d,
                rhs,
            } => format!(
                "if (A{arr}[i] < A{brr}[{}]) A{arr}[{}] = {};",
                off_str(*c),
                off_str(*d),
                rhs_str(rhs)
            ),
        };
        body.push_str(&line);
        body.push('\n');
    }
    let stepstr = match step {
        1 => "i++".to_string(),
        -1 => "i--".to_string(),
        k if k > 0 => format!("i += {k}"),
        k => format!("i -= {}", -k),
    };
    let cmp = if step > 0 { "<" } else { ">" };
    format!(
        "float A0[96]; float A1[96]; float A2[96]; float t0; float t1; float s; int i;\n\
         for (i = {init}; i {cmp} {bound}; {stepstr}) {{\n{body}}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn random_loops_equivalent(
        stmts in proptest::collection::vec(stmt_strategy(), 1..5),
        init in 4i64..8,
        span in 6i64..40,
        step in prop_oneof![Just(1i64), Just(2), Just(-1)],
    ) {
        let (init, bound) = if step > 0 { (init, init + span) } else { (init + span, init) };
        let src = render(&stmts, init, bound, step);
        let prog = parse_program(&src).unwrap();
        for expansion in [Expansion::Off, Expansion::Mve, Expansion::ScalarExpand] {
            let cfg = SlmsConfig { apply_filter: false, expansion, ..SlmsConfig::default() };
            let (out, _outcomes) = slms_program(&prog, &cfg);
            // whether or not SLMS fired, semantics must hold
            if let Err(m) = equivalent(&prog, &out, &[3, 17, 2024]) {
                panic!("mismatch under {expansion:?}: {m:?}\nsrc:\n{src}\nout:\n{}",
                       to_source(&out));
            }
        }
    }

    #[test]
    fn analysis_covers_brute_force(
        stmts in proptest::collection::vec(stmt_strategy(), 1..5),
    ) {
        let src = render(&stmts, 4, 24, 1);
        let prog = parse_program(&src).unwrap();
        let slc_ast::Stmt::For(f) = &prog.stmts[0] else { unreachable!() };
        // if-conversion-free subset only: guarded stmts are fine (If MIs)
        let Ok(mis) = partition_mis(&f.body) else { return Ok(()); };
        let Some(ground) = brute_force_deps(&mis, "i", 4, 24, 10) else { return Ok(()); };
        // both pair tests of the one builder: classic and exact
        let range = LoopRange::of_loop(f).expect("constant range");
        for range in [None, Some(&range)] {
            let ddg = build_ddg(&mis, "i", 1, range, &mut DepStats::default()).ddg;
            for dep in &ground {
                prop_assert!(
                    ddg_covers(&ddg, dep),
                    "missed {dep:?} with range {range:?} in:\n{src}"
                );
            }
        }
    }
}
