//! Deterministic log2-bucketed histograms and the histogram CI gate.
//!
//! Totals flatten distributions: `exact.sat_conflicts = 132` cannot
//! distinguish "all 42 solves cheap" from "41 free, one pathological
//! loop". Histograms keep the shape, under the same determinism split the
//! counters obey ([`crate::counters`]):
//!
//! * **work histograms** record counts of work units (MIs placed per
//!   loop, SAT conflicts per solve, dep pairs per loop) — pure functions
//!   of the experiment matrix, identical across machines and thread
//!   counts, recorded only inside cache-miss closures, and gateable in CI
//!   against a checked-in baseline ([`check_histograms`]);
//! * **wall-clock histograms** (stage latencies, serve latencies) use the
//!   same type but are quarantined in timing sidecars and bench reports,
//!   never gated on exact values.
//!
//! The bucketing rule is fixed so merged histograms from different
//! processes are well defined: bucket 0 holds exactly the value 0, and
//! bucket `k` (1..=64) holds the half-open range `[2^(k-1), 2^k)` — i.e.
//! a value lands in the bucket indexed by its bit length. Percentiles
//! report the *upper bound* of the bucket containing the requested rank
//! (deterministic, never interpolated), except the exact tracked maximum
//! for the top rank.

use std::collections::BTreeMap;

use crate::json::{FromJson, Json};

/// Schema tag written into the histogram baseline document.
pub const HISTOGRAMS_SCHEMA: &str = "slc-histograms-v1";

/// Number of buckets: one for zero plus one per bit length of a `u64`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else the value's bit length
/// (so bucket `k` covers `[2^(k-1), 2^k)`).
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (`2^k − 1`; bucket 0 → 0).
pub fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// A log2-bucketed distribution of `u64` observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket counts, index = [`bucket_of`] of the values it holds.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Deterministic percentile: the upper bound of the bucket containing
    /// rank `ceil(q · count)` (1-based), except the exact tracked maximum
    /// once the rank reaches the final observation. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// A JSON object: `count`/`sum`/`min`/`max` plus a sparse `buckets`
/// object mapping bucket index → count (empty buckets omitted so documents
/// stay readable).
impl From<&Histogram> for Json {
    fn from(h: &Histogram) -> Json {
        let mut buckets = Json::obj();
        for (idx, &n) in h.buckets.iter().enumerate() {
            if n > 0 {
                buckets = buckets.field(&idx.to_string(), n);
            }
        }
        Json::obj()
            .field("count", h.count)
            .field("sum", h.sum)
            .field("min", h.min())
            .field("max", h.max)
            .field("buckets", buckets)
    }
}

impl FromJson for Histogram {
    fn from_json(doc: &Json) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        h.count = doc.req("count")?;
        h.sum = doc.req("sum")?;
        h.max = doc.req("max")?;
        h.min = if h.count == 0 {
            u64::MAX
        } else {
            doc.req("min")?
        };
        for (k, v) in doc
            .get("buckets")
            .and_then(Json::as_obj)
            .ok_or("histogram missing buckets object")?
        {
            let idx: usize = k
                .parse()
                .ok()
                .filter(|&i| i < BUCKETS)
                .ok_or_else(|| format!("bad bucket index {k:?}"))?;
            h.buckets[idx] = u64::from_json(v).map_err(|e| format!("bucket {k:?}: {e}"))?;
        }
        if h.buckets.iter().sum::<u64>() != h.count {
            return Err("histogram bucket counts do not sum to count".to_string());
        }
        Ok(h)
    }
}

/// An ordered map of named histograms, mirroring
/// [`crate::CounterRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramRegistry {
    map: BTreeMap<String, Histogram>,
}

impl HistogramRegistry {
    /// An empty registry.
    pub fn new() -> HistogramRegistry {
        HistogramRegistry::default()
    }

    /// Record one observation into histogram `name` (created if absent).
    pub fn record(&mut self, name: &str, v: u64) {
        self.map.entry(name.to_string()).or_default().record(v);
    }

    /// The histogram named `name`, if any observations exist.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.map.get(name)
    }

    /// Number of histograms.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Name-ordered iteration.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Fold another registry into this one (merge per name).
    pub fn merge(&mut self, other: &HistogramRegistry) {
        for (k, v) in &other.map {
            self.map.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Human rendering: one row per histogram with count, sum, min,
    /// p50/p90/p99, and max.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let width = self.map.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, h) in &self.map {
            let _ = writeln!(
                out,
                "{k:<width$}  count={} sum={} min={} p50={} p90={} p99={} max={}",
                h.count(),
                h.sum(),
                h.min(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max()
            );
        }
        out
    }

    /// Serialize as the histogram-baseline document (`schema` +
    /// `histograms`), pretty-printed for checking in.
    pub fn to_baseline_json(&self) -> String {
        Json::obj()
            .field("schema", HISTOGRAMS_SCHEMA)
            .field("histograms", self)
            .to_pretty()
    }
}

/// The registry body: name → histogram object.
impl From<&HistogramRegistry> for Json {
    fn from(reg: &HistogramRegistry) -> Json {
        let mut obj = Json::obj();
        for (k, h) in &reg.map {
            obj = obj.field(k, h);
        }
        obj
    }
}

impl FromJson for HistogramRegistry {
    fn from_json(doc: &Json) -> Result<HistogramRegistry, String> {
        let mut map = BTreeMap::new();
        for (k, v) in doc.as_obj().ok_or("expected a histogram object")? {
            map.insert(
                k.clone(),
                Histogram::from_json(v).map_err(|e| format!("{k}: {e}"))?,
            );
        }
        Ok(HistogramRegistry { map })
    }
}

/// A parsed histogram-baseline document (`BENCH_histograms.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramBaseline {
    /// expected distributions by name
    pub histograms: HistogramRegistry,
}

impl HistogramBaseline {
    /// Parse a baseline produced by
    /// [`HistogramRegistry::to_baseline_json`].
    pub fn parse(text: &str) -> Result<HistogramBaseline, String> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != HISTOGRAMS_SCHEMA {
            return Err(format!(
                "expected schema {HISTOGRAMS_SCHEMA:?}, found {schema:?}"
            ));
        }
        Ok(HistogramBaseline {
            histograms: doc.req("histograms")?,
        })
    }
}

/// Compare a run's work histograms against a baseline: every baseline
/// histogram must be present with exactly matching count, sum, and bucket
/// vector (work histograms are deterministic, so exactness is the point).
/// Extra histograms the baseline does not know about are not failures —
/// same additive-drift policy as [`crate::check_counters`].
pub fn check_histograms(actual: &HistogramRegistry, baseline: &HistogramBaseline) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, expected) in baseline.histograms.iter() {
        match actual.get(name) {
            None => failures.push(format!("{name}: histogram missing from run")),
            Some(got) if got != expected => failures.push(format!(
                "{name}: expected count={} sum={} max={}, got count={} sum={} max={}",
                expected.count(),
                expected.sum(),
                expected.max(),
                got.count(),
                got.sum(),
                got.max()
            )),
            Some(_) => {}
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_rule_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // every value's bucket upper bound contains it
        for v in [0u64, 1, 5, 100, 1 << 40] {
            assert!(v <= bucket_upper(bucket_of(v)));
        }
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds_with_exact_max() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 5, 9, 17, 33, 70, 130, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 300);
        // rank 5 = value 9 → bucket 4 ([8,16)) → upper 15
        assert_eq!(h.percentile(0.50), 15);
        // top rank returns the exact maximum, not the bucket bound
        assert_eq!(h.percentile(1.0), 300);
        assert_eq!(h.percentile(0.999), 300);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let vals = [0u64, 1, 7, 7, 64, 9000];
        let mut whole = Histogram::new();
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            };
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn json_round_trip_and_baseline_gate() {
        let mut reg = HistogramRegistry::new();
        for v in [3u64, 3, 12, 900] {
            reg.record("slms.mis_per_loop", v);
        }
        reg.record("deps.pairs_per_loop", 0);
        let doc = reg.to_baseline_json();
        let base = HistogramBaseline::parse(&doc).unwrap();
        assert!(check_histograms(&reg, &base).is_empty());

        // extra histogram in the run is tolerated (additive drift)
        let mut drifted = reg.clone();
        drifted.record("new.family", 1);
        assert!(check_histograms(&drifted, &base).is_empty());

        // changed distribution and missing histogram both fail
        let mut changed = reg.clone();
        changed.record("slms.mis_per_loop", 5);
        let failures = check_histograms(&changed, &base);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("slms.mis_per_loop"));
        let empty = HistogramRegistry::new();
        assert_eq!(check_histograms(&empty, &base).len(), 2);
    }

    #[test]
    fn bad_baselines_rejected() {
        assert!(HistogramBaseline::parse("{}").is_err());
        let lying = r#"{"schema":"slc-histograms-v1","histograms":{"h":{"count":2,"sum":1,"min":0,"max":1,"buckets":{"1":1}}}}"#;
        assert!(HistogramBaseline::parse(lying)
            .unwrap_err()
            .contains("sum to count"));
        let bad_idx = r#"{"schema":"slc-histograms-v1","histograms":{"h":{"count":1,"sum":1,"min":1,"max":1,"buckets":{"99":1}}}}"#;
        assert!(HistogramBaseline::parse(bad_idx).is_err());
    }

    #[test]
    fn registry_render_and_merge() {
        let mut a = HistogramRegistry::new();
        a.record("x.y", 4);
        let mut b = HistogramRegistry::new();
        b.record("x.y", 9);
        b.record("z.w", 1);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get("x.y").unwrap().count(), 2);
        let text = a.render_text();
        assert!(text.contains("x.y"));
        assert!(text.contains("count=2"));
    }
}
