//! The three final-compiler personalities and the bridge to the simulator.
//!
//! * [`CompilerKind::Weak`] — GCC −O0 analogue: ops are emitted in program
//!   order, one per issue slot, no scheduling.
//! * [`CompilerKind::Optimizing`] — GCC −O3 analogue (without its weak
//!   software pipelining): list scheduling of every block.
//! * [`CompilerKind::OptimizingMs`] — ICC/XLC analogue: list scheduling
//!   plus Rau's iterative modulo scheduling of innermost loops (applied when
//!   profitable against the list schedule, like a production heuristic).
//!
//! Register pressure of each innermost loop is measured on the final
//! schedule and converted to per-iteration spill traffic against the
//! machine's architected register count.

use slc_ast::Program;
use slc_machine::ir::{Bundle, Lir, LirLoop, LirProgram, Op};
use slc_machine::lower::{lower_program, LowerError};
use slc_machine::mach::MachineDesc;
use slc_machine::{list_schedule, max_pressure, modulo_schedule, spills};
use slc_sim::cycle::{CompiledProgram, Seg, SimLoop};
use slc_trace::{FromJson, Json};
use std::borrow::Cow;

/// Final-compiler personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilerKind {
    /// program-order code generation (−O0)
    Weak,
    /// list scheduling (−O3, no machine-level MS)
    Optimizing,
    /// list scheduling + iterative modulo scheduling (ICC/XLC class)
    OptimizingMs,
}

/// Per-innermost-loop compile facts, for the paper's bundle/II reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// loop variable
    pub var: String,
    /// iteration count
    pub trips: i64,
    /// bundles (cycles) per iteration in the emitted schedule
    pub bundles_per_iter: usize,
    /// machine-level modulo scheduling applied?
    pub ms_applied: bool,
    /// initiation interval when MS applied
    pub ii: Option<i64>,
    /// pipeline stages when MS applied
    pub stages: Option<i64>,
    /// measured register pressure
    pub reg_pressure: usize,
    /// registers spilled (excess over the architected file)
    pub spilled: usize,
}

impl From<&LoopInfo> for Json {
    fn from(l: &LoopInfo) -> Json {
        Json::obj()
            .field("var", l.var.as_str())
            .field("trips", l.trips)
            .field("bundles_per_iter", l.bundles_per_iter)
            .field("ms_applied", l.ms_applied)
            .field("ii", l.ii)
            .field("stages", l.stages)
            .field("reg_pressure", l.reg_pressure)
            .field("spilled", l.spilled)
    }
}

impl FromJson for LoopInfo {
    fn from_json(j: &Json) -> Result<LoopInfo, String> {
        Ok(LoopInfo {
            var: j.req("var")?,
            trips: j.req("trips")?,
            bundles_per_iter: j.req("bundles_per_iter")?,
            ms_applied: j.req("ms_applied")?,
            ii: j.req("ii")?,
            stages: j.req("stages")?,
            reg_pressure: j.req("reg_pressure")?,
            spilled: j.req("spilled")?,
        })
    }
}

/// Result of compilation: a simulatable program plus statistics.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// program for `slc_sim::simulate`
    pub compiled: CompiledProgram,
    /// per-innermost-loop facts
    pub loops: Vec<LoopInfo>,
}

fn naive_bundles(ops: &[Op]) -> Vec<Bundle> {
    ops.iter().map(|o| vec![o.clone()]).collect()
}

fn schedule_block(ops: &[Op], m: &MachineDesc, kind: CompilerKind) -> Vec<Bundle> {
    match kind {
        CompilerKind::Weak => naive_bundles(ops),
        _ => list_schedule(ops, m).bundles,
    }
}

fn is_innermost(l: &LirLoop) -> bool {
    l.body.iter().all(|it| matches!(it, Lir::Block(_)))
}

fn build_loop(l: &LirLoop, m: &MachineDesc, kind: CompilerKind, infos: &mut Vec<LoopInfo>) -> Seg {
    let arch_regs = m.int_regs + m.fp_regs;
    if is_innermost(l) {
        // innermost: single block body (lowering guarantees one block)
        let ops: Cow<[Op]> = match l.body.as_slice() {
            [Lir::Block(b)] => Cow::Borrowed(b),
            body => Cow::Owned(
                body.iter()
                    .flat_map(|it| match it {
                        Lir::Block(b) => b.clone(),
                        Lir::Loop(_) => unreachable!(),
                    })
                    .collect(),
            ),
        };
        let bundles = schedule_block(&ops, m, kind);
        // try machine-level modulo scheduling against the list schedule
        if kind == CompilerKind::OptimizingMs {
            if let Some(ms) = modulo_schedule(&ops, m, &l.var, l.step) {
                let profitable = ms.ii < bundles.len() as i64 && l.trips > ms.stages;
                if profitable {
                    let sp = spills(ms.reg_pressure, arch_regs);
                    infos.push(LoopInfo {
                        var: l.var.clone(),
                        trips: l.trips,
                        bundles_per_iter: ms.kernel.len(),
                        ms_applied: true,
                        ii: Some(ms.ii),
                        stages: Some(ms.stages),
                        reg_pressure: ms.reg_pressure,
                        spilled: sp.excess,
                    });
                    // ramp: prologue+epilogue modelled as (stages−1) extra
                    // kernel iterations each; steady state runs
                    // trips − (stages−1) → total trips + stages − 1
                    return Seg::Loop(SimLoop {
                        var: l.var.clone(),
                        init: l.init,
                        step: l.step,
                        trips: l.trips + ms.stages - 1,
                        body: vec![Seg::Straight(ms.kernel)],
                        extra_mem_per_iter: sp.extra_mem_per_iter,
                    });
                }
            }
        }
        let pressure = max_pressure(&bundles);
        let sp = spills(pressure, arch_regs);
        infos.push(LoopInfo {
            var: l.var.clone(),
            trips: l.trips,
            bundles_per_iter: bundles.len(),
            ms_applied: false,
            ii: None,
            stages: None,
            reg_pressure: pressure,
            spilled: sp.excess,
        });
        Seg::Loop(SimLoop {
            var: l.var.clone(),
            init: l.init,
            step: l.step,
            trips: l.trips,
            body: vec![Seg::Straight(bundles)],
            extra_mem_per_iter: sp.extra_mem_per_iter,
        })
    } else {
        let body = l
            .body
            .iter()
            .map(|it| match it {
                Lir::Block(b) => Seg::Straight(schedule_block(b, m, kind)),
                Lir::Loop(inner) => build_loop(inner, m, kind, infos),
            })
            .collect();
        Seg::Loop(SimLoop {
            var: l.var.clone(),
            init: l.init,
            step: l.step,
            trips: l.trips,
            body,
            extra_mem_per_iter: 0,
        })
    }
}

/// Compile a program for a machine with one of the personalities.
pub fn compile(
    prog: &Program,
    m: &MachineDesc,
    kind: CompilerKind,
) -> Result<CompileResult, LowerError> {
    let lir = lower_program(prog)?;
    Ok(compile_lir(&lir, m, kind))
}

/// Schedule an already-lowered program for a machine with one of the
/// personalities. Lowering is machine-independent, so the batch engine
/// caches the [`LirProgram`] once per source program and calls this for
/// every (machine, personality) cell; `compile` is the lower-then-schedule
/// composition.
pub fn compile_lir(lir: &LirProgram, m: &MachineDesc, kind: CompilerKind) -> CompileResult {
    let mut infos = Vec::new();
    let segs = lir
        .items
        .iter()
        .map(|it| match it {
            Lir::Block(b) => Seg::Straight(schedule_block(b, m, kind)),
            Lir::Loop(l) => build_loop(l, m, kind, &mut infos),
        })
        .collect();
    CompileResult {
        compiled: CompiledProgram {
            segs,
            arrays: lir.arrays.clone(),
        },
        loops: infos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_program;
    use slc_sim::presets::itanium2;

    fn prog(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    #[test]
    fn weak_emits_one_op_per_bundle() {
        let p =
            prog("float A[16]; float B[16]; int i; for (i = 0; i < 16; i++) A[i] = B[i] * 2.0;");
        let m = itanium2();
        let r = compile(&p, &m, CompilerKind::Weak).unwrap();
        assert_eq!(r.loops.len(), 1);
        // load, mul, store, add, cmp, branch = 6 bundles
        assert_eq!(r.loops[0].bundles_per_iter, 6);
    }

    #[test]
    fn optimizing_packs_tighter() {
        let p = prog(
            "float A[16]; float B[16]; float C[16]; float D[16]; int i;\n\
             for (i = 0; i < 16; i++) { A[i] = B[i] + 1.0; C[i] = D[i] + 2.0; }",
        );
        let m = itanium2();
        let weak = compile(&p, &m, CompilerKind::Weak).unwrap();
        let opt = compile(&p, &m, CompilerKind::Optimizing).unwrap();
        assert!(opt.loops[0].bundles_per_iter < weak.loops[0].bundles_per_iter);
    }

    #[test]
    fn ms_applies_to_pipelineable_loop() {
        let p = prog(
            "float A[64]; float B[64]; int i;\n\
             for (i = 0; i < 64; i++) A[i] = B[i] * 2.0 + B[i + 1];",
        );
        let m = itanium2();
        let r = compile(&p, &m, CompilerKind::OptimizingMs).unwrap();
        assert!(r.loops[0].ms_applied, "{:?}", r.loops[0]);
        assert!(r.loops[0].ii.unwrap() <= 3);
    }

    #[test]
    fn loop_info_counts_nested() {
        let p = prog(
            "float A[8][8]; int i; int j;\n\
             for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) A[i][j] = 1.0;",
        );
        let m = itanium2();
        let r = compile(&p, &m, CompilerKind::Optimizing).unwrap();
        assert_eq!(r.loops.len(), 1); // only the innermost is reported
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use slc_ast::parse_program;
    use slc_sim::cycle::simulate;
    use slc_sim::presets::{arm7tdmi, itanium2};

    #[test]
    fn ims_falls_back_on_tight_recurrence() {
        // first-order recurrence with FP latency: IMS's II ≥ latency chain
        // exceeds the list schedule → profitability gate keeps list code
        let p =
            parse_program("float A[64]; int i; for (i = 1; i < 60; i++) A[i] = A[i - 1] * 0.5;")
                .unwrap();
        let m = itanium2();
        let r = compile(&p, &m, CompilerKind::OptimizingMs).unwrap();
        assert!(!r.loops[0].ms_applied, "{:?}", r.loops[0]);
    }

    #[test]
    fn order_matters_on_inorder_core() {
        // Weak (program order) vs Optimizing (list order) must differ on an
        // in-order scalar machine when the source order is latency-hostile.
        let p = parse_program(
            "float A[256]; float B[256]; float C[256]; int i;\n\
             for (i = 0; i < 250; i++) { B[i] = A[i] * 2.0; C[i] = A[i + 1] + 1.0; }",
        )
        .unwrap();
        let m = arm7tdmi();
        let weak = compile(&p, &m, CompilerKind::Weak).unwrap();
        let opt = compile(&p, &m, CompilerKind::Optimizing).unwrap();
        let cw = simulate(&weak.compiled, &m).cycles;
        let co = simulate(&opt.compiled, &m).cycles;
        assert!(co <= cw, "list order should not lose: {co} vs {cw}");
    }

    #[test]
    fn spills_reported_on_tiny_register_file() {
        let p = parse_program(
            "float A[64]; float B[64]; float C[64]; float D[64]; float E[64]; float F[64];\n\
             float a; float b; float c; float d; float e; float f; int i;\n\
             for (i = 0; i < 60; i++) {\n\
               a = A[i]; b = B[i]; c = C[i]; d = D[i]; e = E[i]; f = F[i];\n\
               A[i] = a + b + c + d + e + f;\n\
             }",
        )
        .unwrap();
        let mut m = itanium2();
        m.int_regs = 2;
        m.fp_regs = 2;
        let r = compile(&p, &m, CompilerKind::Optimizing).unwrap();
        assert!(r.loops[0].spilled > 0, "{:?}", r.loops[0]);
        // and the spill traffic shows up in the simulation
        let sim = simulate(&r.compiled, &m);
        assert!(sim.spill_accesses > 0);
    }
}
