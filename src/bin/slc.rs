//! `slc` — the source-level compiler as a command-line tool.
//!
//! Reads a mini-language program, applies a pass plan (by default: Source
//! Level Modulo Scheduling of every eligible innermost loop), prints the
//! optimized source, and (optionally) verifies equivalence and simulates
//! both versions on one of the built-in machine models.
//!
//! Wall-clock benchmarking is not a mode of this tool: `python3
//! perfbench/run.py` measures the end-to-end and per-layer costs, and the
//! paper's figures are pinned in `BENCH_figures.txt`.
//!
//! ```text
//! USAGE: slc [OPTIONS] [FILE]          (FILE defaults to stdin)
//!        slc explain [OPTIONS] [FILE]  (print the per-loop decision trace)
//!        slc verify [OPTIONS] [FILE]   (statically verify SLMS schedules)
//!        slc lint [OPTIONS] [FILE]     (run the SLMS-Lxxx lint suite alone)
//!        slc deps [OPTIONS] [FILE]     (dump + re-check dependence verdicts)
//!        slc batch [BATCH OPTIONS]     (run the full experiment matrix)
//!        slc stats [STATS OPTIONS]     (deterministic counter registry + gate)
//!        slc trace-check FILE          (validate a Chrome trace, span log, or
//!                                       flight-recorder dump — autodetected)
//!        slc serve [SERVE OPTIONS]     (persistent compile daemon, NDJSON/TCP)
//!
//!   --passes <PLAN>                comma-separated pass plan (default: slms)
//!                                  e.g. `normalize,fuse:0+1,slms`
//!   --scheduler <heuristic|exact>  MI placement scheduler (heuristic). The
//!                                  exact scheduler proves every small
//!                                  loop's II optimal (SAT-backed) and
//!                                  attaches the certificate to the report;
//!                                  with the default plan it swaps in the
//!                                  `exact` pass
//!   --expansion <mve|scalar|off>   how false dependences are removed (mve)
//!   --no-filter                    disable the §4 memory-ref-ratio filter
//!   --paper-style                  print `stmt; || stmt;` kernels
//!   --report                       per-loop transformation report (stderr)
//!   --verify                       check bit-exact equivalence (interpreter)
//!   --simulate <machine>           simulate before/after and print speedup;
//!                                  machine: itanium2|pentium|power4|arm7
//!   --compiler <weak|opt|ms>       final-compiler personality (opt)
//!   --emit-asm                     dump the scheduled innermost-loop bundles
//!                                  of the optimized program (stderr)
//!
//! EXPLAIN OPTIONS: --passes/--expansion/--no-filter as above, plus
//!   --all                          explain every built-in workload suite
//!   --json                         machine-readable output: one compact JSON
//!                                  object per loop (JSONL) with stable field
//!                                  names (workload/plan/pass + the
//!                                  loop-outcome schema); hard failures
//!                                  become a single line with an `error`
//!                                  field
//!
//! VERIFY OPTIONS: --expansion/--no-filter/--scheduler as above (with
//! `--scheduler exact` the translation validator additionally re-checks
//! each loop's II-optimality certificate), plus
//!   --all                          verify every built-in workload
//!   (exit 0 = everything proven/skipped clean; 1 = violations or lint
//!   errors; 2 = bad usage. Runs the translation validator on every
//!   innermost loop SLMS transforms, plus the SLMS-Lxxx lint suite.)
//!
//! LINT OPTIONS:
//!   --all                          lint every built-in workload
//!   --json                         one compact JSON object per lint (JSONL)
//!   (exit 0 = no error-severity lints; 1 = error lints or parse failure;
//!   2 = bad usage)
//!
//! DEPS OPTIONS:
//!   --all                          analyze every built-in workload
//!   --json                         one compact JSON object per dependence
//!                                  pair plus a per-loop stats line (JSONL)
//!   (Per innermost constant-range loop: every same-array access pair's
//!   verdict, deciding layer, distance set and certificate, with each
//!   certificate re-checked on the spot. Exit 0 = all certificates
//!   re-check clean; 1 = any re-check failure or parse failure; 2 = bad
//!   usage.)
//!
//! BATCH OPTIONS (see README.md for the report schema):
//!   --passes <PLAN>                pass plan for the transformed variant
//!   --scheduler <heuristic|exact>  with `exact`, the slms variant runs the
//!                                  exact scheduler, the report gains
//!                                  per-loop optimality gaps, the default
//!                                  --out becomes BENCH_batch_exact.json,
//!                                  and a positive gap fails the run (the
//!                                  CI exact gate)
//!   --threads <N>                  worker threads (default: all cores);
//!                                  with --shards this is *per shard*
//!   --shards <N>                   evaluate the matrix across N worker
//!                                  *processes* (fork/exec of this binary in
//!                                  a hidden `batch-shard` mode, NDJSON
//!                                  pipes, schema `slc-shard-proto-v3`).
//!                                  The canonical report, counters and
//!                                  report file are byte-identical to the
//!                                  in-process engine for every N; the
//!                                  timing sidecar gains a per-shard
//!                                  `shards` section
//!   --out <PATH>                   canonical JSON report (BENCH_batch.json;
//!                                  deterministic — byte-identical across
//!                                  runs and thread counts)
//!   --timing <PATH>                wall-clock sidecar JSON (not written
//!                                  unless requested; not deterministic;
//!                                  includes the per-pass breakdown)
//!   --verify                       statically verify every slms pass; the
//!                                  per-workload verdicts land in the
//!                                  timing sidecar and a violation fails
//!                                  the batch (the canonical report is
//!                                  byte-identical either way)
//!   --trace <PATH>                 record spans and write a Chrome
//!                                  trace-event JSON (open in Perfetto /
//!                                  chrome://tracing; one timeline row per
//!                                  worker thread). The canonical report is
//!                                  byte-identical with or without tracing.
//!   --events <PATH>                structured span log, one compact JSON
//!                                  object per line (JSONL)
//!
//! STATS OPTIONS — run the full matrix twice on one engine (heuristic then
//! exact plan, static verification on) and print the deterministic counter
//! registry (so both the `slms.*` and `exact.*` families populate):
//!   --threads <N>                  worker threads (counters are invariant)
//!   --json                         print the slc-counters-v1 document
//!                                  instead of the aligned text table
//!   --out <PATH>                   also write the slc-counters-v1 document
//!                                  (regenerates BENCH_counters.json)
//!   --check <PATH>                 gate against a counter baseline: every
//!                                  baseline counter must match within its
//!                                  named tolerance (exit 1 on any failure)
//!   --histograms                   print the deterministic work histograms
//!                                  (log2 buckets: MIs per loop, SAT
//!                                  conflicts/decisions per solve, dep pairs
//!                                  per loop) instead of the counters
//!   --hist-out <PATH>              write the slc-histograms-v1 document
//!                                  (regenerates BENCH_histograms.json)
//!   --hist-check <PATH>            gate against a histogram baseline: every
//!                                  named histogram must match exactly —
//!                                  count, sum and every bucket (exit 1 on
//!                                  any drift)
//!
//! SERVE OPTIONS — run the compiler as a long-lived daemon speaking
//! newline-delimited JSON (schema `slc-serve-proto-v1`; see README.md
//! for the wire protocol). All connections share one `CompileService`
//! artifact cache; responses are byte-identical to one-shot `slc` output.
//! Beyond compile/explain/verify the daemon answers `stats` (counters),
//! `metrics` (Prometheus text exposition of counters + histograms) and
//! `dump` (span-dump + flight-recorder ring) inline; compile-class
//! requests may carry `trace_id`/`parent_span` to stitch daemon spans
//! into the caller's distributed trace:
//!   --addr <HOST:PORT>             TCP listen address (default
//!                                  127.0.0.1:7878; port 0 picks a free one)
//!   --unix <PATH>                  listen on a Unix-domain socket instead
//!   --queue <N>                    admission bound: max in-flight requests
//!                                  before `busy` backpressure (default 64)
//!   --timeout-ms <N>               per-request deadline; a slower request
//!                                  answers `timeout` (default 30000)
//!   --cache-capacity <N>           bound each artifact store to N entries
//!                                  with deterministic LRU eviction
//!                                  (default: unbounded)
//!   --trace <PATH>                 write a Chrome trace-event JSON on
//!                                  shutdown (one track per connection)
//!   (drains gracefully on SIGTERM/SIGINT or a `shutdown` request;
//!   exit 0 = drained clean, 3 = requests abandoned at the deadline)
//! ```

use slc::ast::{parse_program, to_paper_style, to_source};
use slc::pipeline::{
    explain_all, explain_all_json, explain_source, explain_source_json, run, CompilerKind, Json,
    PassManager, PassPlan,
};
use slc::sim::astinterp::equivalent;
use slc::sim::presets;
use slc::slms::{render_loop_trace, Expansion, SchedulerKind, SlmsConfig};
use slc::trace::Tracer;
use std::io::Read;
use std::process::exit;

// One synopsis per mode. A bad invocation prints its mode's synopsis (the
// default mode prints all of them) and exits 2.
const SLC: &str =
    "slc [--passes PLAN] [--scheduler heuristic|exact] [--expansion mve|scalar|off]\n\
    \x20          [--no-filter] [--paper-style] [--report] [--verify] [--simulate MACHINE]\n\
    \x20          [--compiler weak|opt|ms] [--emit-asm] [FILE]";
const EXPLAIN: &str =
    "slc explain [--passes PLAN] [--expansion ...] [--no-filter] [--all] [--json] [FILE]";
const VERIFY: &str = "slc verify [--expansion ...] [--no-filter] [--scheduler ...] [--all] [FILE]";
const LINT: &str = "slc lint [--all] [--json] [FILE]";
const DEPS: &str = "slc deps [--all] [--json] [FILE]";
const BATCH: &str = "slc batch [--passes PLAN] [--scheduler ...] [--threads N] [--shards N]\n\
    \x20                [--out PATH] [--timing PATH] [--verify]\n\
    \x20                [--trace PATH] [--events PATH]";
const STATS: &str = "slc stats [--threads N] [--json] [--out PATH] [--check PATH]\n\
    \x20                [--histograms] [--hist-out PATH] [--hist-check PATH]";
const TRACE_CHECK: &str = "slc trace-check FILE...";
const SERVE: &str = "slc serve [--addr HOST:PORT] [--unix PATH] [--queue N] [--timeout-ms N]\n\
    \x20                [--cache-capacity N] [--trace PATH]";
const ALL: [&str; 9] = [
    SLC,
    EXPLAIN,
    VERIFY,
    LINT,
    DEPS,
    BATCH,
    STATS,
    TRACE_CHECK,
    SERVE,
];

const MACHINES: &str = "itanium2, pentium, power4, arm7";
const COMPILERS: &str = "weak, opt, ms";
const EXPANSIONS: &str = "mve, scalar, off";
const SCHEDULERS: &str = "heuristic, exact";

/// The option cursor of one mode: its remaining arguments, the flag last
/// taken, and the synopsis a bad invocation prints. Every value accessor
/// consumes the current flag's value and exits 2 when it is missing or
/// invalid.
struct Args {
    rest: std::vec::IntoIter<String>,
    flag: String,
    usage: &'static [&'static str],
}

impl Args {
    fn new(rest: impl Iterator<Item = String>, usage: &'static [&'static str]) -> Args {
        let rest = rest.collect::<Vec<_>>().into_iter();
        Args {
            rest,
            flag: String::new(),
            usage,
        }
    }

    /// The next argument, which becomes the current flag.
    fn next(&mut self) -> Option<String> {
        self.flag = self.rest.next()?;
        Some(self.flag.clone())
    }

    fn usage(&self) -> ! {
        for (i, synopsis) in self.usage.iter().enumerate() {
            eprintln!("{} {synopsis}", if i == 0 { "usage:" } else { "      " });
        }
        exit(2)
    }

    /// A path or address.
    fn value(&mut self) -> String {
        self.rest.next().unwrap_or_else(|| self.usage())
    }

    /// A positive count.
    fn count(&mut self) -> usize {
        self.rest
            .next()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| self.usage())
    }

    /// One of a fixed set of labels; a bad one exits naming the `valid` list.
    fn choice<T>(&mut self, valid: &str, parse: impl FnOnce(&str) -> Option<T>) -> T {
        let got = self.rest.next();
        if let Some(v) = got.as_deref().and_then(parse) {
            return v;
        }
        match got {
            Some(v) => eprintln!(
                "slc: invalid value `{v}` for {} (valid: {valid})",
                self.flag
            ),
            None => eprintln!("slc: {} requires a value (valid: {valid})", self.flag),
        }
        exit(2)
    }

    /// A pass plan.
    fn plan(&mut self) -> PassPlan {
        let text = self.choice(
            "a comma-separated pass plan, e.g. normalize,fuse:0+1,slms",
            |s| Some(s.to_string()),
        );
        PassPlan::parse(&text).unwrap_or_else(|e| {
            eprintln!("slc: invalid value `{text}` for {}: {e}", self.flag);
            exit(2)
        })
    }

    /// Take the current argument as the FILE operand: there is at most one,
    /// and it is not a flag.
    fn file(&self, file: &mut Option<String>) {
        if file.is_some() || self.flag.starts_with('-') {
            self.usage()
        }
        *file = Some(self.flag.clone());
    }
}

fn machine(label: &str) -> Option<slc::machine::mach::MachineDesc> {
    match label {
        "itanium2" => Some(presets::itanium2()),
        "pentium" => Some(presets::pentium()),
        "power4" => Some(presets::power4()),
        "arm7" => Some(presets::arm7tdmi()),
        _ => None,
    }
}

fn read_input(file: &Option<String>) -> String {
    match file {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("slc: cannot read {path}: {e}");
            exit(1)
        }),
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("slc: cannot read stdin: {e}");
                exit(1)
            }
            buf
        }
    }
}

fn batch_main(mut args: Args) -> ! {
    use slc::pipeline::{run_sharded, BatchConfig, BatchEngine, ShardOptions};

    let mut cfg = BatchConfig::full_matrix();
    let mut shards: Option<usize> = None;
    let mut out_path: Option<String> = None;
    let mut timing_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut events_path: Option<String> = None;
    let mut scheduler = SchedulerKind::Heuristic;
    let mut passes_given = false;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => cfg.threads = Some(args.count()),
            "--passes" => {
                cfg.plan = args.plan();
                passes_given = true;
            }
            "--scheduler" => scheduler = args.choice(SCHEDULERS, SchedulerKind::from_label),
            "--shards" => shards = Some(args.count()),
            "--out" => out_path = Some(args.value()),
            "--timing" => timing_path = Some(args.value()),
            "--trace" => trace_path = Some(args.value()),
            "--events" => events_path = Some(args.value()),
            "--verify" => cfg.verify = true,
            _ => args.usage(),
        }
    }

    let exact = scheduler == SchedulerKind::Exact;
    if exact {
        // the slms variant of every cell runs the exact scheduler; a
        // custom plan keeps its shape but schedules exactly
        cfg.slms.scheduler = SchedulerKind::Exact;
        if !passes_given {
            cfg.plan = PassPlan::exact_only();
        }
    }
    // the exact report lives beside the heuristic baseline by default so
    // BENCH_batch.json stays byte-identical to the checked-in document
    let out_path = out_path.unwrap_or_else(|| {
        String::from(if exact {
            "BENCH_batch_exact.json"
        } else {
            "BENCH_batch.json"
        })
    });

    let tracer = if trace_path.is_some() || events_path.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    // with --shards the matrix fans out over worker processes, and
    // --threads becomes the per-shard in-process map width
    let report = match shards {
        None => BatchEngine::new().run_traced(&cfg, &tracer),
        Some(s) => {
            let opts = ShardOptions {
                shards: s,
                threads_per_shard: cfg.threads,
                ..ShardOptions::default()
            };
            run_sharded(&cfg, &opts, &tracer).unwrap_or_else(|e| {
                eprintln!("slc batch: sharded run failed: {e}");
                exit(1)
            })
        }
    };
    eprintln!("slc batch: {}", report.summary());

    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("slc batch: cannot write {out_path}: {e}");
        exit(1)
    }
    eprintln!("slc batch: wrote {out_path}");
    if let Some(tp) = timing_path {
        if let Err(e) = std::fs::write(&tp, report.timing_json()) {
            eprintln!("slc batch: cannot write {tp}: {e}");
            exit(1)
        }
        eprintln!("slc batch: wrote {tp}");
    }
    if let Some(tp) = trace_path {
        let doc = tracer.to_chrome_json().expect("tracer enabled for --trace");
        if let Err(e) = std::fs::write(&tp, doc) {
            eprintln!("slc batch: cannot write {tp}: {e}");
            exit(1)
        }
        eprintln!(
            "slc batch: wrote {tp} ({} spans on {} track(s))",
            tracer.event_count(),
            tracer.tracks().len()
        );
    }
    if let Some(ep) = events_path {
        let doc = tracer.to_jsonl().expect("tracer enabled for --events");
        if let Err(e) = std::fs::write(&ep, doc) {
            eprintln!("slc batch: cannot write {ep}: {e}");
            exit(1)
        }
        eprintln!("slc batch: wrote {ep}");
    }
    if cfg.verify {
        let violations = report.verify_violations();
        let (verified, obligations): (usize, usize) = report
            .timing
            .verify
            .iter()
            .map(|v| (v.verified, v.obligations))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
        if violations == 0 {
            eprintln!(
                "slc batch: verify gate: {verified} loops proven \
                 ({obligations} obligations), 0 violations"
            );
        } else {
            eprintln!("slc batch: verify gate: {violations} VIOLATION(S) — see timing sidecar");
            exit(1)
        }
    }
    let gaps = report.optimality_gaps();
    if !gaps.is_empty() {
        let mut positive = 0usize;
        let mut certified = 0usize;
        for (w, gs) in &gaps {
            eprintln!("slc batch: optimality gaps: {w}: {gs:?}");
            certified += gs.len();
            for (i, g) in gs.iter().enumerate() {
                if *g > 0 {
                    positive += 1;
                    eprintln!(
                        "slc batch: POSITIVE GAP: {w} loop {i}: \
                         heuristic II exceeds the proven optimum by {g}"
                    );
                }
            }
        }
        if positive == 0 {
            eprintln!("slc batch: exact gate: {certified} loop(s) certified, 0 positive gaps");
        } else {
            eprintln!("slc batch: exact gate: {positive} loop(s) with a positive optimality gap");
            exit(1)
        }
    } else if exact {
        eprintln!("slc batch: exact gate: no loop produced a certificate");
        exit(1)
    }
    exit(if report.failed() == 0 { 0 } else { 1 })
}

/// `slc stats`: run the full matrix twice on one engine — the heuristic
/// plan and then the exact plan, static verification on both times — and
/// render the cumulative deterministic counter registry (the `slms.*`,
/// `verify.*` and `exact.*` families all populate). `--check` turns it
/// into the CI counter gate; `--histograms`/`--hist-out`/`--hist-check`
/// do the same for the deterministic work histograms.
fn stats_main(mut args: Args) -> ! {
    use slc::pipeline::{BatchConfig, BatchEngine};
    use slc::trace::{check_counters, check_histograms, CounterBaseline, HistogramBaseline};

    let mut threads: Option<usize> = None;
    let mut json = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut histograms = false;
    let mut hist_out_path: Option<String> = None;
    let mut hist_check_path: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => threads = Some(args.count()),
            "--json" => json = true,
            "--out" => out_path = Some(args.value()),
            "--check" => check_path = Some(args.value()),
            "--histograms" => histograms = true,
            "--hist-out" => hist_out_path = Some(args.value()),
            "--hist-check" => hist_check_path = Some(args.value()),
            _ => args.usage(),
        }
    }

    let mut cfg = BatchConfig::full_matrix();
    cfg.threads = threads;
    cfg.verify = true;
    let engine = BatchEngine::new();
    let heuristic = engine.run(&cfg);
    let mut exact_cfg = cfg.clone();
    exact_cfg.plan = PassPlan::exact_only();
    exact_cfg.slms.scheduler = SchedulerKind::Exact;
    let report = engine.run(&exact_cfg);
    if heuristic.failed() > 0 || report.failed() > 0 {
        eprintln!(
            "slc stats: {} cell(s) failed — counters are not comparable",
            heuristic.failed() + report.failed()
        );
        exit(1)
    }
    if histograms {
        if json {
            print!("{}", report.histograms_json());
        } else {
            print!("{}", report.histograms.render_text());
        }
    } else if json {
        print!("{}", report.counters_json());
    } else {
        print!("{}", report.counters.render_text());
    }
    if let Some(p) = &out_path {
        if let Err(e) = std::fs::write(p, report.counters_json()) {
            eprintln!("slc stats: cannot write {p}: {e}");
            exit(1)
        }
        eprintln!("slc stats: wrote {p}");
    }
    if let Some(p) = &check_path {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("slc stats: cannot read {p}: {e}");
            exit(1)
        });
        let base = CounterBaseline::parse(&text).unwrap_or_else(|e| {
            eprintln!("slc stats: {p} is not a counter baseline: {e}");
            exit(1)
        });
        let failures = check_counters(&report.counters, &base);
        if failures.is_empty() {
            eprintln!(
                "slc stats: counter gate OK ({} baseline counter(s) within tolerance)",
                base.counters.len()
            );
        } else {
            for f in &failures {
                eprintln!("slc stats: GATE FAILURE: {f}");
            }
            eprintln!(
                "slc stats: {} of {} baseline counter(s) out of tolerance \
                 (regenerate with `slc stats --out {p}` if the drift is intended)",
                failures.len(),
                base.counters.len()
            );
            exit(1)
        }
    }
    if let Some(p) = &hist_out_path {
        if let Err(e) = std::fs::write(p, report.histograms_json()) {
            eprintln!("slc stats: cannot write {p}: {e}");
            exit(1)
        }
        eprintln!("slc stats: wrote {p}");
    }
    if let Some(p) = &hist_check_path {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("slc stats: cannot read {p}: {e}");
            exit(1)
        });
        let base = HistogramBaseline::parse(&text).unwrap_or_else(|e| {
            eprintln!("slc stats: {p} is not a histogram baseline: {e}");
            exit(1)
        });
        let failures = check_histograms(&report.histograms, &base);
        if failures.is_empty() {
            eprintln!(
                "slc stats: histogram gate OK ({} baseline histogram(s) exact)",
                base.histograms.len()
            );
        } else {
            for f in &failures {
                eprintln!("slc stats: GATE FAILURE: {f}");
            }
            eprintln!(
                "slc stats: {} of {} baseline histogram(s) drifted \
                 (regenerate with `slc stats --hist-out {p}` if the drift is intended)",
                failures.len(),
                base.histograms.len()
            );
            exit(1)
        }
    }
    exit(0)
}

/// `slc trace-check FILE`: schema-validate an observability document. The
/// format is autodetected per file: a flight-recorder dump (header line
/// carries `slc-flight-v1`), a structured span log (`--events` JSONL), or
/// a Chrome trace-event JSON (the Perfetto smoke check CI runs against
/// `slc batch --trace` output). Exit 0 = every file valid, 1 = any
/// invalid, 2 = bad usage — the same contract for all three formats.
fn trace_check_main(mut args: Args) -> ! {
    use slc::trace::{validate_chrome_trace, validate_event_log, validate_flight_dump};
    let paths: Vec<String> = std::iter::from_fn(|| args.next()).collect();
    if paths.is_empty() || paths.iter().any(|p| p.starts_with('-')) {
        args.usage()
    }
    let mut bad = false;
    for p in &paths {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("slc trace-check: cannot read {p}: {e}");
            exit(1)
        });
        let first = text.lines().next().unwrap_or("");
        let verdict = if first.contains("slc-flight-v1") {
            validate_flight_dump(&text).map(|s| {
                format!(
                    "flight dump — {} event(s) of {} recorded, kinds: {}",
                    s.events,
                    s.recorded,
                    s.kinds.join(",")
                )
            })
        } else if Json::parse(text.trim()).is_ok_and(|d| d.get("traceEvents").is_some()) {
            validate_chrome_trace(&text).map(|s| {
                format!(
                    "Chrome trace — {} span(s) on {} named track(s), {} distinct span name(s)",
                    s.spans,
                    s.tracks.len(),
                    s.span_names.len()
                )
            })
        } else {
            validate_event_log(&text).map(|s| {
                format!(
                    "event log — {} event(s) on {} track(s), {} distinct span name(s)",
                    s.events,
                    s.tracks,
                    s.span_names.len()
                )
            })
        };
        match verdict {
            Ok(msg) => eprintln!("slc trace-check: {p}: OK — {msg}"),
            Err(e) => {
                eprintln!("slc trace-check: {p}: INVALID — {e}");
                bad = true;
            }
        }
    }
    exit(if bad { 1 } else { 0 })
}

/// Lint + statically verify one program; returns true when anything failed.
/// The rendering is shared with the `slc serve` daemon's `verify` request
/// (`slc::pipeline::verify_report`), so both stay byte-identical.
fn verify_one(prog: &slc::ast::Program, cfg: &SlmsConfig) -> bool {
    let (clean, text) = slc::pipeline::verify_report(prog, cfg);
    print!("{text}");
    !clean
}

fn verify_main(mut args: Args) -> ! {
    let mut cfg = SlmsConfig::default();
    let mut all = false;
    let mut file: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--no-filter" => cfg.apply_filter = false,
            "--expansion" => cfg.expansion = args.choice(EXPANSIONS, Expansion::from_label),
            "--scheduler" => cfg.scheduler = args.choice(SCHEDULERS, SchedulerKind::from_label),
            "--all" => all = true,
            _ => args.file(&mut file),
        }
    }

    let mut bad = false;
    if all {
        for w in slc::workloads::all() {
            println!("═══ {} [{}] ═══", w.name, w.suite);
            bad |= verify_one(&w.program(), &cfg);
        }
    } else {
        let src = read_input(&file);
        let prog = match parse_program(&src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("slc verify: {e}");
                exit(1)
            }
        };
        bad = verify_one(&prog, &cfg);
    }
    exit(if bad { 1 } else { 0 })
}

/// `slc lint`: run the SLMS-Lxxx source lint suite standalone, without the
/// translation validator. Exit 0 = no error-severity findings, 1 = at least
/// one error (or parse failure), 2 = bad usage — the same contract as
/// `slc verify`.
fn lint_main(mut args: Args) -> ! {
    use slc::verify::{lint_program, LintSeverity};

    let mut all = false;
    let mut json = false;
    let mut file: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => all = true,
            "--json" => json = true,
            _ => args.file(&mut file),
        }
    }

    let mut bad = false;
    let mut lint_one = |name: Option<&str>, prog: &slc::ast::Program| {
        let lints = lint_program(prog);
        bad |= lints.iter().any(|l| l.severity == LintSeverity::Error);
        if json {
            for l in &lints {
                let o = Json::obj().field_opt("workload", name);
                println!(
                    "{}",
                    o.field("code", l.code)
                        .field("severity", l.severity.to_string())
                        .field("message", l.message.as_str())
                        .field("excerpt", l.excerpt.as_str())
                );
            }
        } else {
            if let Some(n) = name {
                println!("═══ {n} ═══");
            }
            if lints.is_empty() {
                println!("  clean");
            }
            for l in &lints {
                println!("  {l}");
            }
        }
    };

    if all {
        for w in slc::workloads::all() {
            lint_one(Some(w.name), &w.program());
        }
    } else {
        let src = read_input(&file);
        match parse_program(&src) {
            Ok(p) => lint_one(None, &p),
            Err(e) => {
                eprintln!("slc lint: {e}");
                exit(1)
            }
        }
    }
    exit(if bad { 1 } else { 0 })
}

/// Render one dependence certificate as JSON.
fn dep_cert_json(cert: &slc::analysis::DepCertificate) -> Json {
    use slc::analysis::DepCertificate;
    match cert {
        DepCertificate::Dependent { t1, t2 } => Json::obj()
            .field("kind", "dependent")
            .field("t1", *t1)
            .field("t2", *t2),
        DepCertificate::Independent { system } => Json::obj()
            .field("kind", "independent")
            .field("bound", system.bound)
            .field(
                "dims",
                Json::Arr(
                    system
                        .dims
                        .iter()
                        .map(|d| {
                            Json::obj()
                                .field("dim", d.dim as u64)
                                .field("a", d.a)
                                .field("b", d.b)
                                .field("c", d.c)
                        })
                        .collect(),
                ),
            ),
    }
}

/// `slc deps`: dump the exact dependence engine's per-pair verdicts (with
/// their certificates) for every innermost constant-range loop, re-checking
/// each certificate on the spot. Exit 0 = every certificate re-checks
/// clean, 1 = a certificate failed to re-check (or the input failed to
/// parse), 2 = bad usage.
fn deps_main(mut args: Args) -> ! {
    use slc::analysis::{
        build_ddg_ranged, check_dep_certificate, partition_mis, DepStats, DepVerdict, LoopRange,
    };
    use slc::ast::{innermost_loops, LoopId};

    let mut all = false;
    let mut json = false;
    let mut file: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => all = true,
            "--json" => json = true,
            _ => args.file(&mut file),
        }
    }

    let mut bad = false;
    let mut deps_one = |name: Option<&str>, prog: &slc::ast::Program| {
        for (idx, f) in innermost_loops(&prog.stmts).into_iter().enumerate() {
            let id = LoopId::of(f, idx);
            let skip = |why: &str, json: bool| {
                if json {
                    let o = Json::obj().field_opt("workload", name);
                    println!("{}", o.field("loop", id.to_string()).field("skipped", why));
                } else {
                    println!("{id}: skipped — {why}");
                }
            };
            let Some(range) = LoopRange::of_loop(f) else {
                skip("loop range is not a compile-time constant", json);
                continue;
            };
            let mis = match partition_mis(&f.body) {
                Ok(m) => m,
                Err(e) => {
                    skip(&format!("body is not MI-partitionable: {e}"), json);
                    continue;
                }
            };
            let mut stats = DepStats::default();
            let rd = build_ddg_ranged(&mis, &f.var, &range, &mut stats);
            if !json {
                println!(
                    "{id}: {} same-array pair(s), range init {} step {} trips {}",
                    rd.pairs.len(),
                    range.init,
                    range.step,
                    range.trips
                );
            }
            for p in &rd.pairs {
                let a = &rd.ddg.accesses[p.from_mi].arrays[p.from_ord];
                let b = &rd.ddg.accesses[p.to_mi].arrays[p.to_ord];
                let recheck = p
                    .certificate
                    .as_ref()
                    .map(|cert| check_dep_certificate(a, b, &f.var, &range, cert));
                bad |= matches!(recheck, Some(Err(_)));
                if json {
                    let distances = match &p.verdict {
                        DepVerdict::Distances(ds) => Some(ds.clone()),
                        _ => None,
                    };
                    let o = Json::obj()
                        .field_opt("workload", name)
                        .field("loop", id.to_string())
                        .field("array", p.array.as_str())
                        .field("from_mi", p.from_mi as u64)
                        .field("from_ord", p.from_ord as u64)
                        .field("to_mi", p.to_mi as u64)
                        .field("to_ord", p.to_ord as u64)
                        .field("verdict", p.verdict.name())
                        .field_opt("layer", p.layer.map(|l| l.name()))
                        .field_opt("distances", distances)
                        .field_opt("certificate", p.certificate.as_ref().map(dep_cert_json));
                    let o = match &recheck {
                        None => o.field("recheck", "none"),
                        Some(Ok(())) => o.field("recheck", "ok"),
                        Some(Err(e)) => o.field("recheck", format!("failed: {e}")),
                    };
                    println!("{o}");
                } else {
                    let detail = match &p.verdict {
                        DepVerdict::Distances(ds) => format!("distances {ds:?}"),
                        other => other.name().to_string(),
                    };
                    let layer = p.layer.map(|l| l.name()).unwrap_or("-");
                    let status = match &recheck {
                        None => "no certificate".to_string(),
                        Some(Ok(())) => "certificate re-checked OK".to_string(),
                        Some(Err(e)) => format!("CERTIFICATE FAILED: {e}"),
                    };
                    println!(
                        "  `{}` MI{}#{} vs MI{}#{}: {detail} [layer {layer}] — {status}",
                        p.array, p.from_mi, p.from_ord, p.to_mi, p.to_ord
                    );
                }
            }
            if json {
                let o = Json::obj().field_opt("workload", name);
                println!(
                    "{}",
                    o.field("loop", id.to_string())
                        .field("pairs_decided", stats.pairs_decided)
                        .field("gcd_hits", stats.gcd_hits)
                        .field("banerjee_hits", stats.banerjee_hits)
                        .field("sat_decided", stats.sat_decided)
                        .field("widened_to_any", stats.widened_to_any)
                        .field("certs_checked", stats.certs_checked)
                );
            } else {
                println!(
                    "  deps: {} decided (gcd {}, banerjee {}, sat {}), {} widened, \
                     {} certs self-checked",
                    stats.pairs_decided,
                    stats.gcd_hits,
                    stats.banerjee_hits,
                    stats.sat_decided,
                    stats.widened_to_any,
                    stats.certs_checked
                );
            }
        }
    };

    if all {
        for w in slc::workloads::all() {
            if !json {
                println!("═══ {} [{}] ═══", w.name, w.suite);
            }
            deps_one(Some(w.name), &w.program());
        }
    } else {
        let src = read_input(&file);
        match parse_program(&src) {
            Ok(p) => deps_one(None, &p),
            Err(e) => {
                eprintln!("slc deps: {e}");
                exit(1)
            }
        }
    }
    exit(if bad { 1 } else { 0 })
}

fn explain_main(mut args: Args) -> ! {
    let mut cfg = SlmsConfig::default();
    let mut plan = PassPlan::slms_only();
    let mut all = false;
    let mut json = false;
    let mut file: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--passes" => plan = args.plan(),
            "--no-filter" => cfg.apply_filter = false,
            "--expansion" => cfg.expansion = args.choice(EXPANSIONS, Expansion::from_label),
            "--all" => all = true,
            "--json" => json = true,
            _ => args.file(&mut file),
        }
    }

    if all {
        if json {
            print!("{}", explain_all_json(&plan, &cfg));
        } else {
            print!("{}", explain_all(&plan, &cfg));
        }
        exit(0)
    }
    let src = read_input(&file);
    if json {
        let text = explain_source_json(&src, &plan, &cfg);
        print!("{text}");
        // hard failures render as a single loop-less line whose top-level
        // `error` field is set (per-loop `error` fields always ride along
        // with a `pass` field and are not CLI failures)
        let hard_failure = text
            .lines()
            .next()
            .and_then(|l| Json::parse(l).ok())
            .is_some_and(|o| o.get("pass").is_none() && o.get("error").is_some());
        exit(if hard_failure { 1 } else { 0 })
    }
    let text = explain_source(&src, &plan, &cfg);
    print!("{text}");
    exit(
        if text.contains("parse error:") || text.contains("plan failed:") {
            1
        } else {
            0
        },
    )
}

/// `slc serve`: the persistent compile daemon. Blocks until a `shutdown`
/// request or SIGTERM/SIGINT, then drains in-flight work and exits 0 on a
/// clean drain (3 when requests had to be abandoned at the deadline).
fn serve_main(mut args: Args) -> ! {
    use slc::serve::{Endpoint, ServeConfig, Server};
    use std::time::Duration;

    let mut addr = String::from("127.0.0.1:7878");
    let mut unix_path: Option<String> = None;
    let mut cfg = ServeConfig::default();
    let mut trace_path: Option<String> = None;

    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.value(),
            "--unix" => unix_path = Some(args.value()),
            "--queue" => cfg.queue = args.count(),
            "--timeout-ms" => cfg.timeout = Duration::from_millis(args.count() as u64),
            "--cache-capacity" => cfg.capacity = Some(args.count()),
            "--trace" => trace_path = Some(args.value()),
            _ => args.usage(),
        }
    }

    let endpoint = match unix_path {
        #[cfg(unix)]
        Some(p) => Endpoint::Unix(std::path::PathBuf::from(p)),
        #[cfg(not(unix))]
        Some(_) => {
            eprintln!("slc serve: --unix is only available on Unix platforms");
            exit(2)
        }
        None => Endpoint::Tcp(addr.clone()),
    };
    let tracer = if trace_path.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let handle = Server::spawn(&endpoint, cfg, tracer.clone()).unwrap_or_else(|e| {
        eprintln!("slc serve: cannot listen on {endpoint:?}: {e}");
        exit(1)
    });
    match handle.local_addr() {
        Some(a) => eprintln!("slc serve: listening on {a}"),
        None => eprintln!("slc serve: listening on {endpoint:?}"),
    }
    let drain = handle.wait();
    if let Some(tp) = trace_path {
        let doc = tracer.to_chrome_json().expect("tracer enabled for --trace");
        if let Err(e) = std::fs::write(&tp, doc) {
            eprintln!("slc serve: cannot write {tp}: {e}");
            exit(1)
        }
        eprintln!(
            "slc serve: wrote {tp} ({} spans on {} track(s))",
            tracer.event_count(),
            tracer.tracks().len()
        );
    }
    if drain.drained_clean {
        eprintln!(
            "slc serve: drained clean after {} connection(s)",
            drain.connections
        );
        exit(0)
    }
    eprintln!(
        "slc serve: drain deadline expired with {} request(s) still running",
        drain.abandoned
    );
    exit(3)
}

/// Hidden worker mode spawned by `slc batch --shards N` (and the
/// fault-injection tests); speaks slc-shard-proto-v3 on stdio. Its parsing
/// is lenient: unknown arguments and unparsable values are ignored.
fn batch_shard_main(mut args: Args) -> ! {
    let mut fail_after = None;
    let mut garbage_after = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fail-after" => fail_after = args.next().and_then(|s| s.parse().ok()),
            "--garbage-after" => garbage_after = args.next().and_then(|s| s.parse().ok()),
            _ => {}
        }
    }
    exit(slc::pipeline::shard_worker(fail_after, garbage_after))
}

fn main() {
    type Mode = (fn(Args) -> !, &'static [&'static str]);
    let mut argv = std::env::args().skip(1).peekable();
    let mode: Option<Mode> = match argv.peek().map(String::as_str) {
        Some("explain") => Some((explain_main, &[EXPLAIN])),
        Some("verify") => Some((verify_main, &[VERIFY])),
        Some("lint") => Some((lint_main, &[LINT])),
        Some("deps") => Some((deps_main, &[DEPS])),
        Some("batch") => Some((batch_main, &[BATCH])),
        Some("batch-shard") => Some((batch_shard_main, &[])),
        Some("stats") => Some((stats_main, &[STATS])),
        Some("trace-check") => Some((trace_check_main, &[TRACE_CHECK])),
        Some("serve") => Some((serve_main, &[SERVE])),
        _ => None,
    };
    if let Some((run_mode, usage)) = mode {
        argv.next();
        run_mode(Args::new(argv, usage));
    }
    let mut args = Args::new(argv, &ALL);

    let mut cfg = SlmsConfig::default();
    let mut plan = PassPlan::slms_only();
    let mut paper_style = false;
    let mut report = false;
    let mut verify = false;
    let mut simulate = None;
    let mut emit_asm = false;
    let mut compiler = CompilerKind::Optimizing;
    let mut file: Option<String> = None;
    let mut passes_given = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--passes" => {
                plan = args.plan();
                passes_given = true;
            }
            "--scheduler" => cfg.scheduler = args.choice(SCHEDULERS, SchedulerKind::from_label),
            "--expansion" => cfg.expansion = args.choice(EXPANSIONS, Expansion::from_label),
            "--no-filter" => cfg.apply_filter = false,
            "--paper-style" => paper_style = true,
            "--report" => report = true,
            "--verify" => verify = true,
            "--emit-asm" => emit_asm = true,
            "--simulate" => simulate = Some(args.choice(MACHINES, machine)),
            "--compiler" => compiler = args.choice(COMPILERS, CompilerKind::from_label),
            _ => args.file(&mut file),
        }
    }

    if cfg.scheduler == SchedulerKind::Exact && !passes_given {
        plan = PassPlan::exact_only();
    }

    let src = read_input(&file);
    let prog = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("slc: {e}");
            exit(1)
        }
    };

    let pm = PassManager::new(cfg);
    let (out, sink) = match pm.run(&prog, &plan) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("slc: {e}");
            exit(1)
        }
    };
    if report {
        for o in sink.all_outcomes() {
            match &o.result {
                Ok(r) => eprintln!(
                    "slc: {} → II = {} ({} MIs, depth {}, unroll ×{}{}{})",
                    o.id,
                    r.ii,
                    r.n_mis,
                    r.max_offset,
                    r.unroll,
                    if r.if_converted { ", if-converted" } else { "" },
                    if r.decomposed.is_empty() {
                        String::new()
                    } else {
                        format!(", decomposed {:?}", r.decomposed)
                    },
                ),
                Err(e) => eprintln!("slc: {} left unchanged: {e}", o.id),
            }
            for line in render_loop_trace(o).lines().skip(1) {
                eprintln!("slc:   {}", line.trim_start());
            }
        }
    }

    if verify {
        match equivalent(&prog, &out, &[1, 2, 3, 5, 8]) {
            Ok(()) => eprintln!("slc: verified bit-identical on 5 random inputs"),
            Err(m) => {
                eprintln!("slc: VERIFICATION FAILED: {m:?}");
                exit(1)
            }
        }
    }

    if emit_asm {
        use slc::machine::ir::Lir;
        use slc::machine::{list_schedule, lower_program};
        match lower_program(&out) {
            Ok(lir) => {
                let m = slc::sim::presets::itanium2();
                for it in &lir.items {
                    if let Lir::Loop(l) = it {
                        for b in &l.body {
                            if let Lir::Block(ops) = b {
                                let s = list_schedule(ops, &m);
                                eprintln!(
                                    "slc: innermost loop over `{}` ({} trips), schedule:",
                                    l.var, l.trips
                                );
                                eprint!("{}", slc::machine::bundles_to_string(&s.bundles));
                            }
                        }
                    }
                }
            }
            Err(e) => eprintln!("slc: cannot lower for --emit-asm: {e}"),
        }
    }

    if let Some(m) = simulate {
        match (run(&prog, &m, compiler), run(&out, &m, compiler)) {
            (Ok(base), Ok(after)) => eprintln!(
                "slc: {} cycles → {} cycles on {} ({:.3}× speedup, energy ×{:.3})",
                base.cycles(),
                after.cycles(),
                m.name,
                base.cycles() as f64 / after.cycles().max(1) as f64,
                base.power.energy / after.power.energy.max(1e-12),
            ),
            (Err(e), _) | (_, Err(e)) => eprintln!("slc: simulation unavailable: {e}"),
        }
    }

    print!(
        "{}",
        if paper_style {
            to_paper_style(&out)
        } else {
            to_source(&out)
        }
    );
}
