//! The embedded-systems experiment (§9.3): power dissipation and cycle
//! counts of SLMS'd loops on the ARM7TDMI-like scalar core, with the energy
//! model standing in for sim-panalyzer. The rows are those of Figs 21/22
//! (`slc_bench::harness::fig21_22`).
//!
//! ```bash
//! cargo run --release --example arm_power
//! ```

use slc_bench::harness;

fn main() {
    println!("ARM7TDMI-like core — SLMS effect on cycles and energy");
    println!(
        "{:<24} {:>12} {:>12} {:>9} {:>9} {:>10}",
        "loop", "base(cyc)", "slms(cyc)", "cycles×", "power×", "verdict"
    );
    let mut better_power = 0;
    let mut worse_power = 0;
    for r in harness::fig21_22().rows {
        let verdict = if !r.transformed {
            "skipped"
        } else if r.power_ratio > 1.01 {
            better_power += 1;
            "saves"
        } else if r.power_ratio < 0.99 {
            worse_power += 1;
            "costs"
        } else {
            "neutral"
        };
        println!(
            "{:<24} {:>12} {:>12} {:>9.3} {:>9.3} {:>10}",
            r.name, r.base_cycles, r.slms_cycles, r.speedup, r.power_ratio, verdict
        );
    }
    println!(
        "\n{better_power} loops save energy, {worse_power} cost energy — \
         SLMS must be applied selectively on the scalar core (§9.3)."
    );
    println!(
        "The single-issue pipeline can only use the exposed parallelism to hide\n\
         memory latency; FP emulation blocks, so FP-heavy loops gain little."
    );
}
