//! Content-hash-keyed memoization of expensive compilation artifacts.
//!
//! The batch engine and the `slc serve` daemon both evaluate requests in
//! which much work is shared: the SLMS transformation of a workload is
//! identical for every machine and personality, and the lowered LIR is
//! identical for every machine. A (program, machine, personality) cell is
//! scheduled and simulated once; its loop facts and simulation result are
//! kept, its machine code is not. Each such artifact is cached once under
//! a stable content fingerprint (see `slc_analysis::fingerprint`).
//!
//! **Determinism invariant.** Each key is computed *exactly once while it
//! is resident*: the first thread to claim a key holds a per-slot lock
//! while computing, and every other thread blocks on that slot and then
//! records a hit. With an unbounded store (the batch engine's default)
//! total misses therefore equal the number of distinct keys ever requested
//! and total lookups equal hits + misses — both independent of thread
//! count and scheduling, which is what lets cache statistics appear in the
//! byte-identical batch report.
//!
//! **Bounded (LRU) mode.** A store built with [`KeyedStore::bounded`]
//! additionally carries a capacity: when an insert pushes the store past
//! it, the least-recently-used *completed* entries are evicted (entries
//! still being computed are never touched). Under a fixed request order
//! the recency sequence — and therefore the eviction sequence — is
//! deterministic. Evictions are counted, and when an artifact
//! fingerprinting function is supplied, a re-computed artifact for a
//! previously-evicted key is checked against the fingerprint recorded at
//! eviction time: a mismatch means recompilation was not reproducible and
//! is surfaced through [`StoreStats::refp_mismatches`] (and trips a debug
//! assertion).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss/eviction counters of one store, snapshot for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// lookups answered from the map
    pub hits: u64,
    /// lookups that had to compute (== distinct keys for unbounded stores;
    /// bounded stores also re-miss evicted keys)
    pub misses: u64,
    /// completed entries dropped by the LRU bound (0 for unbounded stores)
    pub evictions: u64,
    /// evicted-then-recomputed artifacts whose fingerprint changed
    /// (should always be 0: recompilation must be reproducible)
    pub refp_mismatches: u64,
}

impl StoreStats {
    /// Fraction of lookups answered from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// Recency + eviction bookkeeping behind the store's map lock.
struct LruState<V> {
    map: HashMap<u64, Slot<V>>,
    /// logical access clock; bumped on every lookup
    tick: u64,
    /// key → last-access tick (present iff the key is in `map`)
    last_use: HashMap<u64, u64>,
    /// key → artifact fingerprint recorded when the key was evicted
    evicted_fp: HashMap<u64, u64>,
}

impl<V> Default for LruState<V> {
    fn default() -> Self {
        LruState {
            map: HashMap::new(),
            tick: 0,
            last_use: HashMap::new(),
            evicted_fp: HashMap::new(),
        }
    }
}

/// One memoization map: `u64` fingerprint → shared artifact, optionally
/// bounded by an LRU capacity.
pub struct KeyedStore<V> {
    state: Mutex<LruState<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    refp_mismatches: AtomicU64,
    /// max resident entries; `None` = unbounded (the batch default)
    capacity: Option<usize>,
    /// artifact fingerprint, for the evict-then-recompute identity check
    fp: Option<fn(&V) -> u64>,
}

impl<V> Default for KeyedStore<V> {
    fn default() -> Self {
        KeyedStore {
            state: Mutex::new(LruState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            refp_mismatches: AtomicU64::new(0),
            capacity: None,
            fp: None,
        }
    }
}

impl<V> KeyedStore<V> {
    /// A store that keeps at most `capacity` completed entries, evicting
    /// least-recently-used ones past that. `fp` (optional) fingerprints an
    /// artifact so that an evicted-then-recomputed key can be checked for
    /// byte-identity against what was evicted.
    pub fn bounded(capacity: usize, fp: Option<fn(&V) -> u64>) -> Self {
        KeyedStore {
            capacity: Some(capacity.max(1)),
            fp,
            ..KeyedStore::default()
        }
    }

    /// Return the artifact for `key`, computing it with `compute` on the
    /// first request. Concurrent requests for the same key block until the
    /// first computation finishes and then share its result; `compute`
    /// runs exactly once per key while the key stays resident.
    pub fn get_or_compute<F: FnOnce() -> V>(&self, key: u64, compute: F) -> Arc<V> {
        self.get_or_compute_hit(key, compute).0
    }

    /// [`KeyedStore::get_or_compute`] that also reports whether the lookup
    /// was answered from the cache (`true` = hit). The daemon uses this to
    /// stamp responses with their cache provenance.
    pub fn get_or_compute_hit<F: FnOnce() -> V>(&self, key: u64, compute: F) -> (Arc<V>, bool) {
        let slot = {
            let mut st = self.state.lock().expect("cache map poisoned");
            st.tick += 1;
            let tick = st.tick;
            st.last_use.insert(key, tick);
            let fresh = !st.map.contains_key(&key);
            let slot = st.map.entry(key).or_default().clone();
            if fresh {
                if let Some(cap) = self.capacity {
                    self.evict_over(&mut st, cap, key);
                }
            }
            slot
        };
        // the global map lock is released; only this key's slot is held
        let mut guard = slot.lock().expect("cache slot poisoned");
        if let Some(v) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (v.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(compute());
        if let Some(fp_fn) = self.fp {
            let got = fp_fn(&v);
            let st = self.state.lock().expect("cache map poisoned");
            if let Some(&recorded) = st.evicted_fp.get(&key) {
                if recorded != got {
                    self.refp_mismatches.fetch_add(1, Ordering::Relaxed);
                    debug_assert_eq!(
                        recorded, got,
                        "recomputed artifact for key {key:#x} differs from the evicted one"
                    );
                }
            }
        }
        *guard = Some(v.clone());
        (v, false)
    }

    /// Evict least-recently-used completed entries until at most `cap`
    /// remain. `protect` (the key being inserted) and entries still being
    /// computed are never evicted; if nothing is evictable the store is
    /// allowed to exceed its bound transiently.
    fn evict_over(&self, st: &mut LruState<V>, cap: usize, protect: u64) {
        while st.map.len() > cap {
            let mut victim: Option<(u64, u64)> = None; // (key, tick)
            for (&k, slot) in st.map.iter() {
                if k == protect {
                    continue;
                }
                // completed entries only: an uncontended slot holding Some
                let done = slot.try_lock().map(|g| g.is_some()).unwrap_or(false);
                if !done {
                    continue;
                }
                let tick = st.last_use.get(&k).copied().unwrap_or(0);
                if victim.is_none_or(|(_, best)| tick < best) {
                    victim = Some((k, tick));
                }
            }
            let Some((k, _)) = victim else { break };
            if let Some(slot) = st.map.remove(&k) {
                if let (Some(fp_fn), Ok(guard)) = (self.fp, slot.try_lock()) {
                    if let Some(v) = guard.as_ref() {
                        st.evicted_fp.insert(k, fp_fn(v));
                    }
                }
            }
            st.last_use.remove(&k);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of resident entries (completed or in flight).
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache map poisoned").map.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            refp_mismatches: self.refp_mismatches.load(Ordering::Relaxed),
        }
    }
}

/// Cache statistics of every artifact kind, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheReport {
    /// source text → parsed program
    pub parse: StoreStats,
    /// (program, SLMS config) → transformed program + outcomes
    pub slms: StoreStats,
    /// program → lowered LIR (machine-independent)
    pub lir: StoreStats,
    /// (program, machine, personality) → loop facts + simulation result:
    /// every lookup of the one cell store
    pub compile: StoreStats,
    /// the cell-store lookups whose artifact was simulated (all but those
    /// of cells that failed lowering); the store's evictions and
    /// re-fingerprint mismatches count once, under `compile`
    pub sim: StoreStats,
}

impl CacheReport {
    /// Aggregate hit rate across all stores.
    pub fn overall_hit_rate(&self) -> f64 {
        let (mut h, mut m) = (0u64, 0u64);
        for s in [self.parse, self.slms, self.lir, self.compile, self.sim] {
            h += s.hits;
            m += s.misses;
        }
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Total completed entries dropped by LRU bounds, across stores.
    pub fn total_evictions(&self) -> u64 {
        [self.parse, self.slms, self.lir, self.compile, self.sim]
            .iter()
            .map(|s| s.evictions)
            .sum()
    }

    /// Total cache hits across stores.
    pub fn total_hits(&self) -> u64 {
        [self.parse, self.slms, self.lir, self.compile, self.sim]
            .iter()
            .map(|s| s.hits)
            .sum()
    }

    /// Total evict-then-recompute fingerprint mismatches (must stay 0).
    pub fn total_refp_mismatches(&self) -> u64 {
        [self.parse, self.slms, self.lir, self.compile, self.sim]
            .iter()
            .map(|s| s.refp_mismatches)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn computes_once_per_key() {
        let store: KeyedStore<u64> = KeyedStore::default();
        let calls = AtomicUsize::new(0);
        for _ in 0..10 {
            let v = store.get_or_compute(42, || {
                calls.fetch_add(1, Ordering::SeqCst);
                7
            });
            assert_eq!(*v, 7);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (9, 1, 0));
        assert!(s.hit_rate() > 0.89 && s.hit_rate() < 0.91);
    }

    #[test]
    fn concurrent_misses_are_deterministic() {
        let store: Arc<KeyedStore<usize>> = Arc::new(KeyedStore::default());
        let calls = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = store.clone();
                let calls = calls.clone();
                s.spawn(move || {
                    for k in 0..50u64 {
                        let v = store.get_or_compute(k % 5, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            (k % 5) as usize
                        });
                        assert_eq!(*v, (k % 5) as usize);
                    }
                });
            }
        });
        // 5 distinct keys → exactly 5 computations and 5 misses,
        // regardless of interleaving
        assert_eq!(calls.load(Ordering::SeqCst), 5);
        let s = store.stats();
        assert_eq!(s.misses, 5);
        assert_eq!(s.hits, 8 * 50 - 5);
    }

    #[test]
    fn hit_flag_reports_cache_provenance() {
        let store: KeyedStore<u64> = KeyedStore::default();
        let (_, hit) = store.get_or_compute_hit(1, || 10);
        assert!(!hit);
        let (_, hit) = store.get_or_compute_hit(1, || unreachable!());
        assert!(hit);
    }

    #[test]
    fn lru_evicts_least_recently_used_deterministically() {
        let store: KeyedStore<u64> = KeyedStore::bounded(2, Some(|v| *v));
        store.get_or_compute(1, || 100); // resident: {1}
        store.get_or_compute(2, || 200); // resident: {1, 2}
        store.get_or_compute(1, || unreachable!()); // touch 1 → 2 is LRU
        store.get_or_compute(3, || 300); // evicts 2
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.len(), 2);
        // 1 and 3 still resident …
        store.get_or_compute(1, || unreachable!());
        store.get_or_compute(3, || unreachable!());
        // … and 2 recomputes (re-miss), identical artifact → no mismatch
        let (v, hit) = store.get_or_compute_hit(2, || 200);
        assert_eq!((*v, hit), (200, false));
        assert_eq!(store.stats().refp_mismatches, 0);
        assert_eq!(store.stats().misses, 4);
    }

    #[test]
    fn eviction_order_is_a_pure_function_of_request_order() {
        // same request sequence twice → identical eviction count and
        // identical resident set
        let run = || {
            let store: KeyedStore<u64> = KeyedStore::bounded(3, Some(|v| *v));
            for &k in &[1u64, 2, 3, 4, 2, 5, 1, 6, 3] {
                store.get_or_compute(k, || k * 10);
            }
            let mut resident: Vec<u64> = Vec::new();
            for k in 1..=6u64 {
                let (_, hit) = store.get_or_compute_hit(k, || k * 10);
                if hit {
                    resident.push(k);
                }
            }
            (store.stats().evictions, resident)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn refp_mismatch_detected_on_nondeterministic_recompute() {
        let store: KeyedStore<u64> = KeyedStore::bounded(1, Some(|v| *v));
        let calls = AtomicUsize::new(0);
        let unstable = || (calls.fetch_add(1, Ordering::SeqCst) as u64) + 7;
        store.get_or_compute(1, unstable); // 7
        store.get_or_compute(2, || 99); // evicts 1 (fp 7 recorded)
                                        // recompute of key 1 yields a different artifact → flagged
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_compute(1, unstable); // 8 ≠ 7
        }));
        if cfg!(debug_assertions) {
            assert!(caught.is_err(), "debug_assert should have tripped");
        } else {
            assert!(caught.is_ok());
        }
        assert_eq!(store.stats().refp_mismatches, 1);
    }

    #[test]
    fn in_flight_entries_are_never_evicted() {
        // capacity 1; a slot being computed must survive an insert storm
        let store: Arc<KeyedStore<u64>> = Arc::new(KeyedStore::bounded(1, None));
        std::thread::scope(|s| {
            let st = store.clone();
            let slow = s.spawn(move || {
                st.get_or_compute(1, || {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    11
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            // while key 1 is computing, churn other keys through the store
            for k in 2..6u64 {
                store.get_or_compute(k, || k);
            }
            assert_eq!(*slow.join().unwrap(), 11);
        });
        // key 1 completed and was either resident or evicted afterwards —
        // but its computation ran exactly once
        assert_eq!(store.stats().refp_mismatches, 0);
    }
}
