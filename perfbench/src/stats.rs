//! Sample statistics, the seeded generator and resource readings shared by
//! every workload.

use crate::Metric;
use std::time::{Duration, Instant};

/// Set-ups in one measured run; `setup_s` is their median, so one slow
/// set-up does not move it. The run is cut into this many equal segments
/// and each begins with a fresh set-up, so the set-ups sample the host over
/// the whole run, as the timed work does, and not only over its first
/// second.
pub const SETUP_REPS: u32 = 10;

/// End of segment `k` (from 0) of a measured run that began at `start`.
pub fn segment_end(start: Instant, seconds: Duration, k: u32) -> Instant {
    start + seconds * (k + 1) / SETUP_REPS
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of `samples` (any order) with the number of
/// samples strictly beyond it. `p` in (0, 1].
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (f64::NAN, 0);
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
    (s[idx], s.len() - 1 - idx)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).0
}

/// A latency percentile in ms, noting its sample count and how many
/// samples lie beyond it.
pub fn latency_metric(name: &'static str, samples_s: &[f64], p: f64) -> Metric {
    let (v, beyond) = percentile(samples_s, p);
    Metric::new(name, v * 1e3, "ms").with_note(format!(
        "p{} of {} samples, {} beyond",
        (p * 100.0).round(),
        samples_s.len(),
        beyond
    ))
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. `p50` and `tail` are per-operation latencies; the tail is the
/// highest percentile with at least ten samples beyond it at the
/// configured run length.
pub fn end_to_end(
    setups_s: &[f64],
    ops_per_s: f64,
    ops_note: &str,
    p50: Metric,
    tail: Metric,
    include_children: bool,
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setups_s), "s")
            .with_note(format!("median of {} set-ups", setups_s.len())),
        Metric::new("ops_per_s", ops_per_s, "1/s").with_note(ops_note.to_string()),
        p50,
        tail,
        Metric::new("peak_rss_mb", peak_rss_mib(include_children), "MiB"),
    ]
}

/// Operation latencies (s) of one block of a closed-loop run.
pub type Block = Vec<f64>;

/// The end-to-end metrics of a closed-loop run measured in `blocks`: the
/// p50 and the `tail_p` latency percentile are each the median over the
/// blocks, so one slow block does not move them.
pub fn blocked_end_to_end(
    setups_s: &[f64],
    blocks: &[Block],
    ops_per_s: f64,
    ops_note: &str,
    tail_p: f64,
) -> Vec<Metric> {
    let samples: usize = blocks.iter().map(Vec::len).sum();
    let latency = |name, p: f64| {
        let per_block: Vec<(f64, usize)> = blocks.iter().map(|b| percentile(b, p)).collect();
        let values: Vec<f64> = per_block.iter().map(|x| x.0).collect();
        let beyond = per_block.iter().map(|x| x.1).min().unwrap_or(0);
        Metric::new(name, median(&values) * 1e3, "ms").with_note(format!(
            "median over {} blocks of the p{} of {samples} samples; >= {beyond} beyond it per block",
            blocks.len(),
            (p * 100.0).round(),
        ))
    };
    end_to_end(
        setups_s,
        ops_per_s,
        ops_note,
        latency("op_p50_ms", 0.5),
        latency("op_tail_ms", tail_p),
        false,
    )
}

/// Peak resident set of this process (and, for workloads that spawn
/// worker processes, plus the largest child's), in MiB.
pub fn peak_rss_mib(include_children: bool) -> f64 {
    let own_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN);
    let children_kib = if include_children {
        children_max_rss_kib()
    } else {
        0.0
    };
    (own_kib + children_kib) / 1024.0
}

#[cfg(target_os = "linux")]
fn children_max_rss_kib() -> f64 {
    // `struct rusage` on Linux: two `timeval`s then fourteen `long`s, the
    // first of which is `ru_maxrss` (KiB)
    #[repr(C)]
    struct RUsage {
        words: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage { words: [0; 18] };
    // SAFETY: `u` is a writable, properly sized and aligned `struct
    // rusage` for the duration of the call, which only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.words[4] as f64
    } else {
        f64::NAN
    }
}

#[cfg(not(target_os = "linux"))]
fn children_max_rss_kib() -> f64 {
    f64::NAN
}
