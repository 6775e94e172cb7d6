//! Deterministic counter registry and the count-based perf gate.
//!
//! Counters are the *deterministic* half of the metrics split: values that
//! are a pure function of the experiment matrix (cache hits/misses, MII
//! rounds, decompose retries, fast-forward lanes, statements simulated,
//! verify obligations) and therefore identical across runs, machines and
//! thread counts. Wall-clock measurements never enter this registry — they
//! live in the timing sidecar. That split is what lets CI gate on "did this
//! PR change how much work the pipeline does" (`slc stats --check`) without
//! ever comparing wall-clock on shared runners, and keeps BENCH_batch.json
//! byte-identical whether instrumentation is on or off.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{FromJson, Json};

/// Schema tag written into the counter baseline document.
pub const COUNTERS_SCHEMA: &str = "slc-counters-v1";

/// An ordered map of named `u64` counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterRegistry {
    map: BTreeMap<String, u64>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> CounterRegistry {
        CounterRegistry::default()
    }

    /// Add `delta` to counter `name` (created at zero if absent).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.map.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set counter `name` to `value`.
    pub fn set(&mut self, name: &str, value: u64) {
        self.map.insert(name.to_string(), value);
    }

    /// Current value of `name` (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Name-ordered iteration.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Fold another registry into this one (sum per name).
    pub fn merge(&mut self, other: &CounterRegistry) {
        for (k, v) in &other.map {
            *self.map.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Human rendering: one aligned `name  value` row per counter, grouped
    /// by dotted prefix with a blank line between groups.
    pub fn render_text(&self) -> String {
        let width = self.map.keys().map(|k| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        let mut last_group: Option<&str> = None;
        for (k, v) in &self.map {
            let group = k.split('.').next().unwrap_or(k);
            if let Some(prev) = last_group {
                if prev != group {
                    out.push('\n');
                }
            }
            last_group = Some(group);
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        out
    }

    /// Serialize as the counter-baseline document: schema tag, the counter
    /// map, and the named tolerance table (only entries matching a present
    /// counter are written; everything else is implicitly exact).
    pub fn to_json(&self, tolerances: &[(&str, f64)]) -> String {
        let mut tols = Json::obj();
        for (name, tol) in tolerances {
            if self.map.contains_key(*name) {
                tols = tols.field(name, *tol);
            }
        }
        Json::obj()
            .field("schema", COUNTERS_SCHEMA)
            .field("counters", self)
            .field("tolerances", tols)
            .to_pretty()
    }
}

/// The registry body: name → value.
impl From<&CounterRegistry> for Json {
    fn from(reg: &CounterRegistry) -> Json {
        let mut obj = Json::obj();
        for (k, v) in &reg.map {
            obj = obj.field(k, *v);
        }
        obj
    }
}

impl FromJson for CounterRegistry {
    fn from_json(doc: &Json) -> Result<CounterRegistry, String> {
        let mut map = BTreeMap::new();
        for (k, v) in doc.as_obj().ok_or("expected a counter object")? {
            map.insert(
                k.clone(),
                u64::from_json(v).map_err(|e| format!("counter {k:?}: {e}"))?,
            );
        }
        Ok(CounterRegistry { map })
    }
}

/// A parsed counter-baseline document (`BENCH_counters.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterBaseline {
    /// expected counter values
    pub counters: BTreeMap<String, u64>,
    /// relative tolerance per counter name; absent means exact (0.0)
    pub tolerances: BTreeMap<String, f64>,
}

impl CounterBaseline {
    /// Parse a baseline document produced by [`CounterRegistry::to_json`].
    pub fn parse(text: &str) -> Result<CounterBaseline, String> {
        let doc = Json::parse(text)?;
        let schema = doc.opt::<String>("schema")?.unwrap_or_default();
        if schema != COUNTERS_SCHEMA {
            return Err(format!(
                "expected schema {COUNTERS_SCHEMA:?}, found {schema:?}"
            ));
        }
        let counters = doc.req::<CounterRegistry>("counters")?.map;
        let mut tolerances = BTreeMap::new();
        for (k, v) in doc
            .get("tolerances")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let t = f64::from_json(v)
                .ok()
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| format!("tolerance {k:?} is not a non-negative number"))?;
            tolerances.insert(k.clone(), t);
        }
        Ok(CounterBaseline {
            counters,
            tolerances,
        })
    }
}

/// One counter-gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateFailure {
    /// counter name
    pub name: String,
    /// baseline value
    pub expected: u64,
    /// observed value; `None` when the counter vanished
    pub actual: Option<u64>,
    /// relative tolerance applied
    pub tolerance: f64,
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.actual {
            None => write!(
                f,
                "{}: expected {}, counter missing from run",
                self.name, self.expected
            ),
            Some(a) => write!(
                f,
                "{}: expected {} ±{:.0}%, got {}",
                self.name,
                self.expected,
                self.tolerance * 100.0,
                a
            ),
        }
    }
}

/// Compare a run's counters against a baseline. Every baseline counter must
/// be present and within its named relative tolerance (`|a − e| ≤ tol ·
/// max(e, 1)`; tolerance defaults to exact). Counters the run emits that the
/// baseline does not know about are *not* failures — the gate stays quiet
/// while new instrumentation lands, and tightens once the baseline is
/// regenerated.
pub fn check_counters(actual: &CounterRegistry, baseline: &CounterBaseline) -> Vec<GateFailure> {
    let mut failures = Vec::new();
    for (name, &expected) in &baseline.counters {
        let tolerance = baseline.tolerances.get(name).copied().unwrap_or(0.0);
        match actual.map.get(name) {
            None => failures.push(GateFailure {
                name: name.clone(),
                expected,
                actual: None,
                tolerance,
            }),
            Some(&a) => {
                let slack = tolerance * (expected.max(1) as f64);
                if (a as f64 - expected as f64).abs() > slack {
                    failures.push(GateFailure {
                        name: name.clone(),
                        expected,
                        actual: Some(a),
                        tolerance,
                    });
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg(pairs: &[(&str, u64)]) -> CounterRegistry {
        let mut r = CounterRegistry::new();
        for (k, v) in pairs {
            r.set(k, *v);
        }
        r
    }

    #[test]
    fn add_merge_and_render() {
        let mut r = reg(&[("cache.parse.hits", 3), ("sim.cycles_total", 100)]);
        r.add("cache.parse.hits", 2);
        let mut other = CounterRegistry::new();
        other.add("sim.cycles_total", 11);
        other.add("slms.mii_rounds", 4);
        r.merge(&other);
        assert_eq!(r.get("cache.parse.hits"), 5);
        assert_eq!(r.get("sim.cycles_total"), 111);
        let text = r.render_text();
        assert!(text.contains("cache.parse.hits"));
        // groups separated by a blank line
        assert_eq!(text.matches("\n\n").count(), 2);
    }

    #[test]
    fn baseline_round_trip() {
        let r = reg(&[("a.x", 7), ("b.y", 0)]);
        let doc = r.to_json(&[("a.x", 0.05), ("not.present", 0.5)]);
        let base = CounterBaseline::parse(&doc).unwrap();
        assert_eq!(base.counters.get("a.x"), Some(&7));
        assert_eq!(base.counters.get("b.y"), Some(&0));
        assert_eq!(base.tolerances.get("a.x"), Some(&0.05));
        assert!(!base.tolerances.contains_key("not.present"));
        assert!(check_counters(&r, &base).is_empty());
    }

    #[test]
    fn gate_tolerances_and_missing_counters() {
        let base = CounterBaseline::parse(
            &reg(&[("exact", 100), ("loose", 100), ("gone", 5)]).to_json(&[("loose", 0.1)]),
        )
        .unwrap();
        // within tolerance / exact match / extra counter → clean
        let ok = reg(&[("exact", 100), ("loose", 109), ("gone", 5), ("new", 1)]);
        assert!(check_counters(&ok, &base).is_empty());
        // drifted exact counter, over-tolerance counter, missing counter
        let bad = reg(&[("exact", 101), ("loose", 111)]);
        let failures = check_counters(&bad, &base);
        assert_eq!(failures.len(), 3);
        let names: Vec<&str> = failures.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["exact", "gone", "loose"]);
        assert!(failures[1].actual.is_none());
        assert!(failures[2].to_string().contains("±10%"));
    }

    #[test]
    fn bad_baselines_rejected() {
        assert!(CounterBaseline::parse("{}").is_err());
        assert!(CounterBaseline::parse(
            r#"{"schema":"slc-counters-v1","counters":{"a":-1},"tolerances":{}}"#
        )
        .is_err());
        assert!(CounterBaseline::parse(
            r#"{"schema":"slc-counters-v1","counters":{},"tolerances":{"a":-0.5}}"#
        )
        .is_err());
    }
}
