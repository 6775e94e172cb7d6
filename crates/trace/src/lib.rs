//! slc-trace: spans, deterministic counters, and JSON plumbing.
//!
//! The observability layer for the SLMS workspace, sitting at the bottom of
//! the crate graph (no dependencies) so every layer — batch engine, pass
//! manager, SLMS core, verifier, simulators — can emit into it:
//!
//! * [`span`] — hierarchical wall-clock spans behind a clone-able
//!   [`Tracer`] handle that is a guaranteed no-op (no clock reads, no
//!   allocation) when disabled, with Chrome trace-event and JSONL exporters
//!   plus a schema validator for the emitted documents.
//! * [`counters`] — the [`CounterRegistry`] of *deterministic* counters
//!   (thread-count- and wall-clock-invariant work measures) and the
//!   count-based CI gate ([`check_counters`]) against a checked-in
//!   baseline.
//! * [`hist`] — deterministic log2-bucketed [`Histogram`]s that keep the
//!   *distribution* of work (SAT conflicts per solve, MIs per loop) under
//!   the same determinism contract as the counters, plus the histogram CI
//!   gate ([`check_histograms`]).
//! * [`recorder`] — the always-on [`FlightRecorder`]: a fixed-capacity,
//!   allocation-free ring of recent events, dumped as JSONL on panic, on
//!   shard death, or on demand for post-mortem debugging.
//! * [`json`] — the deterministic JSON value/writer the whole workspace
//!   uses for reports (moved here from slc-pipeline), now with a reader
//!   ([`Json::parse`]) for baselines and trace validation.
//!
//! The cardinal rule, enforced by differential tests at the pipeline layer:
//! wall-clock readings flow only into spans and timing sidecars, never into
//! counters, cache keys, or the canonical batch report.

#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod span;

pub use counters::{
    check_counters, CounterBaseline, CounterRegistry, GateFailure, COUNTERS_SCHEMA,
};
pub use hist::{
    bucket_of, bucket_upper, check_histograms, Histogram, HistogramBaseline, HistogramRegistry,
    HISTOGRAMS_SCHEMA,
};
pub use json::{FromJson, Hex, Json};
pub use recorder::{
    install_panic_hook, validate_flight_dump, FlightRecorder, FlightSummary, RecEvent, RecKind,
    FLIGHT_SCHEMA,
};
pub use span::{
    clock_reads, validate_chrome_trace, validate_event_log, ArgValue, EventLogSummary, Span,
    TraceCtx, TraceEvent, TraceSummary, Tracer, SPAN_DUMP_SCHEMA,
};
