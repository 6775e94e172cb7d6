//! # slc-bench — the harness regenerating every figure of the paper
//!
//! See [`harness`] for one function per figure. `cargo run --release
//! --example figures` prints them all; the output is pinned as
//! `BENCH_figures.txt`. Timing questions belong to `perfbench/`.

pub mod harness;
