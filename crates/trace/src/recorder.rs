//! Always-on flight recorder: a fixed-capacity ring of recent events.
//!
//! Post-mortem observability for the process tiers the tracer cannot
//! reach: a shard worker that aborts mid-chunk, a daemon thread that
//! panics, a hung process someone wants to inspect via the `dump` serve
//! verb. Unlike the [`crate::Tracer`] — opt-in, unbounded, span-shaped —
//! the recorder is *always on*: a single process-global ring of the last
//! [`FlightRecorder::capacity`] events, pre-allocated once, overwritten
//! oldest-first, recording with **no allocation in steady state** (event
//! names are `&'static str`, slots are fixed-size, the ring never grows;
//! `crates/trace/tests/zero_cost.rs` proves it with a counting global
//! allocator).
//!
//! Three paths read the ring back out as JSONL
//! ([`FlightRecorder::dump_jsonl`], schema [`FLIGHT_SCHEMA`]):
//!
//! - the panic hook installed by [`install_panic_hook`] dumps it to
//!   stderr after the default hook, so a crashed process leaves its last
//!   moments behind;
//! - the shard worker ships a tail of its ring with every `cells`
//!   message, and the dispatcher's quarantine path attaches the dead
//!   worker's last snapshot to the `slc-batch-timing-v4` sidecar;
//! - the daemon answers the `dump` verb with the full ring on demand.
//!
//! [`validate_flight_dump`] re-checks a dump (header schema line, known
//! event kinds, monotone timestamps) and backs `slc trace-check`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Schema identifier on the first (header) line of a flight-recorder dump.
pub const FLIGHT_SCHEMA: &str = "slc-flight-v1";

/// Default capacity of the process-global ring (events, not bytes).
pub const DEFAULT_CAPACITY: usize = 4096;

/// What a recorded event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecKind {
    /// a unit of work began (miss closure, request, chunk)
    Enter,
    /// a unit of work completed
    Exit,
    /// a counter-style observation (value in `a`)
    Counter,
    /// a point-in-time marker
    Mark,
}

impl RecKind {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            RecKind::Enter => "enter",
            RecKind::Exit => "exit",
            RecKind::Counter => "counter",
            RecKind::Mark => "mark",
        }
    }

    /// Inverse of [`RecKind::label`].
    pub fn from_label(s: &str) -> Option<RecKind> {
        Some(match s {
            "enter" => RecKind::Enter,
            "exit" => RecKind::Exit,
            "counter" => RecKind::Counter,
            "mark" => RecKind::Mark,
            _ => return None,
        })
    }
}

/// One fixed-size ring slot.
#[derive(Debug, Clone, Copy)]
pub struct RecEvent {
    /// nanoseconds since the recorder's origin
    pub ts_ns: u64,
    /// event kind
    pub kind: RecKind,
    /// static event name (no allocation on record)
    pub name: &'static str,
    /// first payload word (kind-specific: a count, a key, a shard index)
    pub a: u64,
    /// second payload word
    pub b: u64,
}

struct Ring {
    buf: Vec<RecEvent>,
    /// next slot to write (wraps at capacity once full)
    next: usize,
}

/// The fixed-capacity event ring. Usually used through
/// [`FlightRecorder::global`]; tests construct private instances.
pub struct FlightRecorder {
    t0: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
    /// total events ever recorded (recorded - min(recorded, capacity) =
    /// dropped)
    recorded: AtomicU64,
}

impl FlightRecorder {
    /// A fresh recorder; the ring is fully pre-allocated here so steady
    /// state never touches the allocator.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            t0: Instant::now(),
            capacity,
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                next: 0,
            }),
            recorded: AtomicU64::new(0),
        }
    }

    /// The process-global recorder (capacity [`DEFAULT_CAPACITY`]),
    /// created on first use.
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(|| FlightRecorder::new(DEFAULT_CAPACITY))
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event. Steady state (ring full) overwrites the oldest
    /// slot in place: one clock read, one mutex lock, zero allocations.
    pub fn record(&self, kind: RecKind, name: &'static str, a: u64, b: u64) {
        let mut ring = self.ring.lock().unwrap();
        // the clock is read under the lock so that ring order is timestamp
        // order even when several threads record at once
        let ts_ns = u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ev = RecEvent {
            ts_ns,
            kind,
            name,
            a,
            b,
        };
        if ring.buf.len() < self.capacity {
            ring.buf.push(ev);
        } else {
            let slot = ring.next;
            ring.buf[slot] = ev;
        }
        ring.next = (ring.next + 1) % self.capacity;
        drop(ring);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the ring contents out, oldest first.
    pub fn snapshot(&self) -> Vec<RecEvent> {
        let ring = self.ring.lock().unwrap();
        let n = ring.buf.len();
        let mut out = Vec::with_capacity(n);
        let start = if n < self.capacity { 0 } else { ring.next };
        for i in 0..n {
            out.push(ring.buf[(start + i) % n.max(1)]);
        }
        out
    }

    /// Render the full ring as a JSONL dump: one header object
    /// (`schema`/`pid`/`capacity`/`recorded`/`dropped`) followed by one
    /// object per event, oldest first.
    pub fn dump_jsonl(&self) -> String {
        self.dump_jsonl_tail(usize::MAX)
    }

    /// Like [`FlightRecorder::dump_jsonl`] but keeping only the newest
    /// `max` events — what the shard worker ships with each `deltas`
    /// message to bound the wire cost.
    pub fn dump_jsonl_tail(&self, max: usize) -> String {
        let snap = self.snapshot();
        let skip = snap.len().saturating_sub(max);
        let recorded = self.recorded();
        let mut out = String::new();
        let header = Json::obj()
            .field("schema", FLIGHT_SCHEMA)
            .field("pid", std::process::id() as u64)
            .field("capacity", self.capacity)
            .field("recorded", recorded)
            .field(
                "dropped",
                recorded.saturating_sub((snap.len() - skip) as u64),
            );
        out.push_str(&header.to_string());
        out.push('\n');
        for ev in &snap[skip..] {
            // a/b are hex strings: payload words are often full-width
            // content-hash keys, which the i64-ranged Json integer cannot
            // carry
            let line = Json::obj()
                .field("ts_ns", ev.ts_ns)
                .field("kind", ev.kind.label())
                .field("name", ev.name)
                .field("a", format!("{:x}", ev.a))
                .field("b", format!("{:x}", ev.b));
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }

    /// Drop all held events (test isolation).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap();
        ring.buf.clear();
        ring.next = 0;
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .finish_non_exhaustive()
    }
}

/// Install a panic hook (once) that dumps the global ring to stderr after
/// the default hook, so a crashing daemon or shard worker leaves its last
/// recorded moments behind as JSONL.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            // a panic inside a panic hook aborts the process with no
            // output at all — never let the dump path take that risk
            let dump = std::panic::catch_unwind(|| FlightRecorder::global().dump_jsonl());
            if let Ok(dump) = dump {
                eprintln!("--- slc flight recorder ({FLIGHT_SCHEMA}) ---");
                eprint!("{dump}");
                eprintln!("--- end flight recorder ---");
            }
        }));
    });
}

/// Summary returned by [`validate_flight_dump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSummary {
    /// event lines (excluding the header)
    pub events: usize,
    /// distinct event kinds present, sorted
    pub kinds: Vec<String>,
    /// total recorded per the header (≥ events)
    pub recorded: u64,
}

/// Validate a flight-recorder JSONL dump: a [`FLIGHT_SCHEMA`] header line,
/// then one event object per line with a known `kind`, a string `name`,
/// and monotone non-decreasing `ts_ns` (one process = one clock).
pub fn validate_flight_dump(text: &str) -> Result<FlightSummary, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty flight dump")?;
    let header = Json::parse(header).map_err(|e| format!("header: not valid JSON: {e}"))?;
    match header.opt::<String>("schema")?.as_deref() {
        Some(FLIGHT_SCHEMA) => {}
        other => return Err(format!("unknown flight dump schema {other:?}")),
    }
    header
        .req::<i64>("pid")
        .map_err(|e| format!("header: {e}"))?;
    let recorded: u64 = header.req("recorded").map_err(|e| format!("header: {e}"))?;
    let mut events = 0usize;
    let mut kinds = std::collections::BTreeSet::new();
    let mut last_ts = 0u64;
    for (i, line) in lines {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let obj = Json::parse(line).map_err(|e| at(format!("not valid JSON: {e}")))?;
        let ts: u64 = obj.req("ts_ns").map_err(at)?;
        let kind: String = obj.req("kind").map_err(at)?;
        if RecKind::from_label(&kind).is_none() {
            return Err(format!("line {}: unknown event kind `{kind}`", i + 1));
        }
        obj.req::<String>("name").map_err(at)?;
        if ts < last_ts {
            return Err(format!(
                "line {}: ts_ns {ts} regresses below {last_ts}",
                i + 1
            ));
        }
        last_ts = ts;
        kinds.insert(kind);
        events += 1;
    }
    if recorded < events as u64 {
        return Err(format!(
            "header claims {recorded} recorded but the dump carries {events} events"
        ));
    }
    Ok(FlightSummary {
        events,
        kinds: kinds.into_iter().collect(),
        recorded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(RecKind::Mark, "tick", i, 0);
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.len(), 4);
        let snap = r.snapshot();
        let seq: Vec<u64> = snap.iter().map(|e| e.a).collect();
        assert_eq!(seq, vec![6, 7, 8, 9], "oldest-first tail survives");
        // timestamps monotone oldest→newest
        assert!(snap.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn concurrent_recording_keeps_timestamps_in_ring_order() {
        let r = FlightRecorder::new(1 << 16);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..5000 {
                        r.record(RecKind::Mark, "tick", t, i);
                    }
                });
            }
        });
        validate_flight_dump(&r.dump_jsonl()).expect("ring order must be timestamp order");
    }

    #[test]
    fn dump_round_trips_through_the_validator() {
        let r = FlightRecorder::new(8);
        r.record(RecKind::Enter, "plan.miss", 1, 0);
        r.record(RecKind::Counter, "mis_placed", 7, 0);
        r.record(RecKind::Exit, "plan.miss", 1, 0);
        let dump = r.dump_jsonl();
        let sum = validate_flight_dump(&dump).unwrap();
        assert_eq!(sum.events, 3);
        assert_eq!(sum.kinds, vec!["counter", "enter", "exit"]);
        assert_eq!(sum.recorded, 3);

        let tail = r.dump_jsonl_tail(1);
        let sum = validate_flight_dump(&tail).unwrap();
        assert_eq!(sum.events, 1);
        assert_eq!(sum.recorded, 3);
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        assert!(validate_flight_dump("").is_err());
        assert!(validate_flight_dump("{\"schema\":\"nope\"}\n").is_err());
        let hdr =
            "{\"schema\":\"slc-flight-v1\",\"pid\":1,\"capacity\":4,\"recorded\":2,\"dropped\":0}";
        let bad_kind =
            format!("{hdr}\n{{\"ts_ns\":1,\"kind\":\"whee\",\"name\":\"x\",\"a\":0,\"b\":0}}\n");
        assert!(validate_flight_dump(&bad_kind)
            .unwrap_err()
            .contains("kind"));
        let regress = format!(
            "{hdr}\n{{\"ts_ns\":5,\"kind\":\"mark\",\"name\":\"x\",\"a\":0,\"b\":0}}\n\
             {{\"ts_ns\":4,\"kind\":\"mark\",\"name\":\"y\",\"a\":0,\"b\":0}}\n"
        );
        assert!(validate_flight_dump(&regress)
            .unwrap_err()
            .contains("regress"));
        let lying_hdr =
            "{\"schema\":\"slc-flight-v1\",\"pid\":1,\"capacity\":4,\"recorded\":0,\"dropped\":0}";
        let lying = format!(
            "{lying_hdr}\n{{\"ts_ns\":1,\"kind\":\"mark\",\"name\":\"x\",\"a\":0,\"b\":0}}\n"
        );
        assert!(validate_flight_dump(&lying).is_err());
    }

    #[test]
    fn global_recorder_is_always_on() {
        let g = FlightRecorder::global();
        let before = g.recorded();
        g.record(RecKind::Mark, "test.global", 0, 0);
        assert!(g.recorded() > before);
        assert!(validate_flight_dump(&g.dump_jsonl()).is_ok());
    }
}
