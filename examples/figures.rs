//! Regenerate every figure/table of the paper and print the full report.
//!
//! ```bash
//! cargo run --release --example figures                          # print
//! cargo run --release -q --example figures > BENCH_figures.txt   # re-pin
//! ```

fn main() {
    println!("{}", slc_bench::harness::full_report());
}
