//! `perfbench` — the repository benchmark.
//!
//! Drives the slc system only through public entry points and prints, as
//! the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (timed with no spans open); with
//! `--trace 1` a separate traced run reports the per-layer ledger, built
//! from the benchmark's own spans around the public calls into each layer.
//! See `perfbench/README.md` for the workloads and the metric definitions.
//!
//! ```text
//! perfbench --workload matrix|certify|serve|sharded --seed N --seconds S
//!           --trace 0|1 [--slc PATH] [--trace-out PATH] [--corrupt]
//! perfbench pin DIR   # write DIR/report.json and the golden tables
//! ```

mod certify;
mod ledger;
mod matrix;
mod serve;
mod stats;

use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// the built `slc` binary (the `sharded` workload's worker command)
    pub slc: Option<String>,
    /// where the traced run writes its Chrome trace
    pub trace_out: Option<String>,
    /// self-test hook: corrupt one output per check, which must then be
    /// counted as failed
    pub corrupt: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// human note printed before the JSON line (sample counts)
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload matrix|certify|serve|sharded --seed N --seconds S \
         --trace 0|1 [--slc PATH] [--trace-out PATH] [--corrupt]\n\
         \x20      perfbench pin DIR"
    );
    std::process::exit(2)
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        slc: None,
        trace_out: None,
        corrupt: false,
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = val().parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage()
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--slc" => args.slc = Some(val()),
            "--trace-out" => args.trace_out = Some(val()),
            "--corrupt" => args.corrupt = true,
            _ => usage(),
        }
    }
    args
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("pin") {
        argv.next();
        let Some(dir) = argv.next() else { usage() };
        if let Err(e) = pin(std::path::Path::new(&dir)) {
            eprintln!("perfbench pin: {e}");
            std::process::exit(1)
        }
        return;
    }
    let args = parse_args(argv);
    let run = match args.workload.as_str() {
        "matrix" => matrix::run(&args, false),
        "sharded" => matrix::run(&args, true),
        "certify" => certify::run(&args),
        "serve" => serve::run(&args),
        _ => usage(),
    };
    match run {
        Ok(out) => print_outcome(&out),
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(1)
        }
    }
}

/// Write the golden tables the correctness checks compare against
/// (`matrix.tsv`, `certify.tsv`) and the canonical matrix report they were
/// derived from (`report.json`) into `dir`.
fn pin(dir: &std::path::Path) -> Result<(), String> {
    let report = matrix::canonical_report();
    for (name, text) in [
        ("matrix.tsv", matrix::golden_table(&report)?),
        ("certify.tsv", certify::golden_table()?),
        ("report.json", report),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn print_outcome(out: &Outcome) {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{:<32} {:>14.6} {}{}", m.name, m.value, m.unit, note);
        // JSON has no NaN/inf; a metric that could not be formed reads 0
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, v, m.unit
        ));
    }
    json.push_str("}}");
    println!(
        "attempted {} operations, {} failed",
        out.attempted, out.failed
    );
    println!("{json}");
}
