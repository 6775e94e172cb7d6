//! Compile and simulate one program on one machine under one personality,
//! outside the batch engine: the §6/§7 case studies and the interactive
//! example measure their own programs this way. The §9 figures read batch
//! engine cells instead (`slc_bench::harness`).

use crate::compile::{compile, CompileResult, CompilerKind};
use slc_ast::Program;
use slc_machine::lower::LowerError;
use slc_machine::mach::MachineDesc;
use slc_sim::cycle::{simulate, SimResult};
use slc_sim::power::{EnergyModel, PowerReport};

/// Everything measured for one (program, machine, compiler) combination.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// raw simulation result
    pub sim: SimResult,
    /// energy model evaluation
    pub power: PowerReport,
    /// compile-time facts per innermost loop
    pub compile: CompileResult,
}

impl Metrics {
    /// cycles, shorthand
    pub fn cycles(&self) -> u64 {
        self.sim.cycles
    }
}

/// Compile and simulate one program.
pub fn run(prog: &Program, m: &MachineDesc, kind: CompilerKind) -> Result<Metrics, LowerError> {
    let c = compile(prog, m, kind)?;
    let sim = simulate(&c.compiled, m);
    let power = EnergyModel::default().report(&sim);
    Ok(Metrics {
        sim,
        power,
        compile: c,
    })
}
