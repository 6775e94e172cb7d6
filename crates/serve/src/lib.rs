//! SLMS as a service: the persistent `slc serve` daemon.
//!
//! The compilation engine itself lives in `slc_pipeline::CompileService` —
//! the same stores, keys and counters that back one-shot `slc batch`. This
//! crate adds the long-running process around it:
//!
//! - [`proto`] — the newline-delimited JSON wire protocol
//!   (`compile` / `explain` / `verify` / `stats` / `ping` / `shutdown`
//!   requests, typed error responses that preserve the CLI exit-code
//!   contract).
//! - [`daemon`] — the server: TCP or Unix-socket listener, admission
//!   control with backpressure `busy` responses, per-request deadlines,
//!   graceful drain on `shutdown` / SIGTERM, one trace track per
//!   connection worker.
//! - [`client`] — a minimal blocking client for the protocol.
//! - [`metrics`] — Prometheus text exposition of the deterministic
//!   counters and histograms, behind the daemon's `metrics` verb.
//! - [`mod@bench`] — the `slc bench-serve` load generator and its
//!   `BENCH_serve.json` report (deterministic counts separated from
//!   wall-clock latency histograms).
//!
//! Responses are byte-identical to one-shot `slc` output for the same
//! source and knobs — pinned by `tests/serve_differential.rs`.

pub mod bench;
pub mod client;
pub mod daemon;
pub mod metrics;
pub mod proto;

pub use bench::{run_bench, BenchConfig, BenchCounts, BenchReport, BENCH_SCHEMA};
pub use client::Client;
pub use daemon::{DrainStats, Endpoint, ServeConfig, Server, ServerHandle, MAX_CONNECTIONS};
pub use metrics::{prometheus_name, render_prometheus};
pub use proto::{ErrorKind, Request, RequestOpts, Response, MAX_LINE, PROTO_SCHEMA};
