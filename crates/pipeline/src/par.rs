//! Minimal data-parallel executor for the batch engine.
//!
//! The environment this workspace builds in has no registry access, so
//! `rayon` is unavailable; this module provides the one primitive the
//! engine needs — an ordered parallel map over an index range — on plain
//! `std::thread::scope` with an atomic work queue. Results are returned in
//! index order, so the output is independent of how work interleaves
//! across threads.

use slc_trace::{FromJson, Json};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Resolve a requested thread count: `None` means "all available cores",
/// and the result is always clamped to `[1, n_items]`.
pub fn effective_threads(requested: Option<usize>, n_items: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    requested.unwrap_or(hw).clamp(1, n_items.max(1))
}

/// Per-worker accounting from one [`par_map_indexed_stats`] run. The values
/// depend on OS scheduling, so they belong in the wall-clock timing sidecar
/// only — never in counters, fingerprints, or the canonical report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// worker index, `0..threads`
    pub worker: usize,
    /// items this worker claimed from the shared queue
    pub claimed: u64,
    /// claim attempts that found the queue drained (the worker's exit
    /// probe)
    pub empty_polls: u64,
    /// wall-clock nanoseconds this worker spent inside the mapped closure
    /// (busy time, excluding queue claims and result sends)
    pub busy_ns: u64,
}

impl From<&WorkerStats> for Json {
    fn from(w: &WorkerStats) -> Json {
        Json::obj()
            .field("worker", w.worker)
            .field("claimed", w.claimed)
            .field("empty_polls", w.empty_polls)
            .field("busy_ns", w.busy_ns)
    }
}

impl FromJson for WorkerStats {
    fn from_json(j: &Json) -> Result<WorkerStats, String> {
        Ok(WorkerStats {
            worker: j.req("worker")?,
            claimed: j.req("claimed")?,
            empty_polls: j.req("empty_polls")?,
            busy_ns: j.req("busy_ns")?,
        })
    }
}

/// Apply `f` to every index in `0..n` using up to `threads` worker
/// threads, returning results in index order. With `threads == 1` the map
/// runs on the caller's thread; the output is identical either way as long
/// as `f` is a pure function of its index.
pub fn par_map_indexed<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_indexed_stats(n, threads, |_, i| f(i)).0
}

/// [`par_map_indexed`] with worker identity: `f(worker, index)` learns
/// which worker runs it (workers are numbered `0..threads`), and the
/// returned [`WorkerStats`] record how many queue items each worker
/// claimed. Results stay in index order regardless of interleaving.
pub fn par_map_indexed_stats<U, F>(n: usize, threads: usize, f: F) -> (Vec<U>, Vec<WorkerStats>)
where
    U: Send,
    F: Fn(usize, usize) -> U + Sync,
{
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let t0 = Instant::now();
        let out = (0..n).map(|i| f(0, i)).collect();
        let stats = vec![WorkerStats {
            worker: 0,
            claimed: n as u64,
            empty_polls: 1,
            busy_ns: u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }];
        return (out, stats);
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                s.spawn(move || {
                    let mut stats = WorkerStats {
                        worker: w,
                        claimed: 0,
                        empty_polls: 0,
                        busy_ns: 0,
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            stats.empty_polls += 1;
                            break;
                        }
                        stats.claimed += 1;
                        let t0 = Instant::now();
                        let u = f(w, i);
                        stats.busy_ns = stats.busy_ns.saturating_add(
                            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                        // receiver outlives all senders inside the scope
                        let _ = tx.send((i, u));
                    }
                    stats
                })
            })
            .collect();
        drop(tx);
        let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for (i, u) in rx {
            out[i] = Some(u);
        }
        let stats = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        let out = out
            .into_iter()
            .map(|o| o.expect("worker delivered every index"))
            .collect();
        (out, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_and_complete() {
        let out = par_map_indexed(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_equals_parallel() {
        let serial = par_map_indexed(57, 1, |i| i as u64 * 3 + 1);
        let parallel = par_map_indexed(57, 7, |i| i as u64 * 3 + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_stats_cover_every_item() {
        for threads in [1, 4] {
            let (out, stats) = par_map_indexed_stats(40, threads, |w, i| {
                assert!(w < threads);
                i * 2
            });
            assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(stats.len(), threads);
            assert_eq!(stats.iter().map(|s| s.claimed).sum::<u64>(), 40);
            for (w, s) in stats.iter().enumerate() {
                assert_eq!(s.worker, w);
                assert!(s.empty_polls >= 1);
            }
        }
    }

    #[test]
    fn empty_and_oversubscribed() {
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
        assert_eq!(par_map_indexed(2, 64, |i| i), vec![0, 1]);
        assert_eq!(effective_threads(Some(0), 10), 1);
        assert_eq!(effective_threads(Some(99), 3), 3);
    }
}
