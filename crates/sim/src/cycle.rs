//! Trace-based cycle-level simulator.
//!
//! Executes *scheduled* IR (bundles from the list or modulo scheduler)
//! against a machine description, producing cycle counts, functional-unit
//! usage and L1 cache statistics. Values are never computed — the semantic
//! oracle is the AST interpreter — but **addresses are exact**: every memory
//! op carries a symbolic linear form over the enclosing loop variables,
//! evaluated against the live loop indices (plus the op's pipeline
//! iteration offset), which drives a set-associative LRU L1 model.
//!
//! Timing model. Each scheduled block is lowered once per simulation into
//! flat ops (class, latency, source and destination registers, memory-op
//! index); one issue kernel then holds every timing rule, and every walk
//! issues through it:
//!
//! * **StaticVliw** (`issue_bundle`) — bundles issue as scheduled; a bundle
//!   stalls until all its source registers are ready (covers loop-carried
//!   latencies the per-block scheduler cannot see). A load miss extends its
//!   destination's ready time by the miss penalty (non-blocking loads);
//!   store misses are absorbed by the store buffer on multi-issue machines
//!   and stall the pipeline on single-issue machines.
//! * **DynamicInOrder** (`issue_op`) — the op stream issues in order, up to
//!   `issue_width` per cycle, constrained by per-class units and operand
//!   readiness (scoreboard). This models the paper's superscalar targets,
//!   where the hardware — not the compiler — finds the parallelism, and
//!   source order (hence SLMS) determines how much it can find. Miss
//!   latency and store stalls are as above; single-issue cores also block
//!   on floating point, which they emulate in software.
//! * Spill traffic charged by the register allocator adds
//!   `⌈extra/mem_units⌉` cycles per loop iteration.
//!
//! The kernel is generic over where a memory op's hit or miss comes from:
//! the trip-by-trip walk ([`SimFidelity::Reference`], and the fallback for
//! loops the fast path does not compile) probes the cache live at the op's
//! address, while the fast path's phase B reads the flag phase A recorded.
//! An op on an unmapped array probes nothing on either side.
//!
//! # Fast path ([`SimFidelity::Fast`], the default)
//!
//! The hot shape — an innermost counted loop whose body is a single
//! scheduled block — is executed through a compiled fast path that is
//! **exact by construction** (no approximation; [`SimFidelity::Reference`]
//! keeps the naive trip-by-trip walk as the differential oracle):
//!
//! 1. **Compiled address streams.** Each memory op's linear form is lowered
//!    once per loop entry into `addr(t) = A + B·t` (element units); trips
//!    advance a cursor by `B` instead of re-walking the `LinForm` term map
//!    and hashing loop-variable names per access.
//! 2. **Decoupled cache pass.** The cache model's behaviour depends only on
//!    the address sequence — never on stall timing — so phase A runs the
//!    cache alone over *all* trips (streams + spill probes, in static op
//!    order, exactly the order the naive walk issues probes) and records a
//!    per-access miss flag. Two shortcuts keep it cheap without changing a
//!    single flag or statistic:
//!    * **Settled-trip rule.** Trip *t* skips its probes when (1) every
//!      probe targets the same line as the same probe of trip *t − 1* (the
//!      spill probes always do), and (2) trip *t − 1* was itself skipped,
//!      or evicted no line it had touched itself (no victim stamp newer
//!      than the trip's first tick). Then every line trip *t* touches is
//!      resident and its set holds those lines as most recently used, in
//!      the order of their last touch in trip *t − 1*. Replaying the same
//!      line sequence on that state hits on every probe and leaves the
//!      same per-set order, because LRU applied twice to one sequence is
//!      idempotent. So the trip adds only hits and zero flags, and tags and
//!      stamps stay as they are: only the relative order of stamps within
//!      a set is ever observed, so an unrefreshed stamp is as good as a
//!      refreshed one. A skipped trip leaves rule (2) true for the next.
//!    * **Slot hints.** Each stream remembers the line it touched last and
//!      the slot that held it; `Cache::access` (the spill probes and the
//!      trip-by-trip walk) keeps one such hint for its previous probe.
//!      Re-probing that line checks the slot's tag before scanning the set:
//!      a hit that refreshes the stamp, as the scan would, so rule (2)
//!      stays exact. A stale hint fails the tag check, since a filled slot
//!      never empties and only ever holds lines of its own set.
//! 3. **Steady-state fast-forward.** Phase B replays timing trip by trip
//!    through the issue kernel, consuming recorded flags. The timing recurrence is translation
//!    invariant: shifting the current cycle and every live scoreboard entry
//!    by Δ shifts the outcome by Δ. Per trip the simulator fingerprints the
//!    *relative* machine state (scoreboard ready offsets clamped at 0,
//!    current-cycle issue-slot usage); when a fingerprint repeats with
//!    period `p` **and** the remaining recorded miss flags are verified
//!    `p`-periodic by direct comparison, the remaining full periods are
//!    skipped and the cycle counter advanced by `periods × Δcycle`. The
//!    fingerprint ring stores a 64-bit hash beside each key and compares
//!    it before the key's words, so a mismatching candidate costs one
//!    compare; equal hashes still compare the full key. Dynamic
//!    op counts, spill accesses and cache statistics are per-trip constants
//!    or already known from phase A, so every reported number is
//!    bit-identical to the reference walk.

use slc_machine::ir::{Bundle, Op, OpClass, ALL_CLASSES};
use slc_machine::mach::{IssueModel, MachineDesc};
use std::collections::HashMap;
use std::ops::Range;

/// L1 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// cache hits
    pub hits: u64,
    /// cache misses
    pub misses: u64,
}

/// Simulation result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimResult {
    /// total cycles
    pub cycles: u64,
    /// dynamic operation count per class (indexed like `ALL_CLASSES`)
    pub class_counts: [u64; 7],
    /// L1 behaviour
    pub cache: CacheStats,
    /// dynamic spill accesses charged
    pub spill_accesses: u64,
}

impl SimResult {
    /// Total dynamic operations.
    pub fn total_ops(&self) -> u64 {
        self.class_counts.iter().sum()
    }
}

/// Simulation fidelity: same numbers, different wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimFidelity {
    /// Compiled address streams + decoupled cache pass + steady-state
    /// fast-forward. Exact; the production default.
    #[default]
    Fast,
    /// The naive symbolic trip-by-trip walk, kept as the differential
    /// oracle for the fast path.
    Reference,
}

/// Steady-state fast-forward counters (diagnostics; not part of
/// [`SimResult`] so reference and fast runs compare equal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FfStats {
    /// loop entries executed through the compiled fast path
    pub fast_loops: u64,
    /// loop entries that fell back to the trip-by-trip walk (nested bodies,
    /// oversized flag buffers, reference fidelity)
    pub fallback_loops: u64,
    /// fast-path loop entries where fast-forward fired
    pub ff_hits: u64,
    /// fast-path loop entries where no steady state was detected
    pub ff_misses: u64,
    /// total loop trips simulated or skipped
    pub trips_total: u64,
    /// trips skipped by fast-forward extrapolation
    pub trips_skipped: u64,
}

impl FfStats {
    /// Accumulate counters from another run.
    pub fn merge(&mut self, o: &FfStats) {
        self.fast_loops += o.fast_loops;
        self.fallback_loops += o.fallback_loops;
        self.ff_hits += o.ff_hits;
        self.ff_misses += o.ff_misses;
        self.trips_total += o.trips_total;
        self.trips_skipped += o.trips_skipped;
    }
}

/// Result of [`simulate_with`]: the reported numbers plus fast-path
/// diagnostics.
#[derive(Debug, Clone, Default)]
pub struct SimOutcome {
    /// the reported simulation numbers (fidelity-independent)
    pub result: SimResult,
    /// fast-path / steady-state counters
    pub ff: FfStats,
}

/// One compiled program segment.
#[derive(Debug, Clone)]
pub enum Seg {
    /// Straight-line scheduled code, executed once.
    Straight(Vec<Bundle>),
    /// A counted loop.
    Loop(SimLoop),
}

/// A loop ready for simulation. For software-pipelined loops the builder
/// already folded prologue/epilogue ramp iterations into `trips` and set
/// per-op `iter_offset`s.
#[derive(Debug, Clone)]
pub struct SimLoop {
    /// loop variable name (bound in the address environment)
    pub var: String,
    /// first index value
    pub init: i64,
    /// additive step
    pub step: i64,
    /// number of times the body executes
    pub trips: i64,
    /// body segments (bundles and nested loops)
    pub body: Vec<Seg>,
    /// extra memory accesses charged per iteration for register spills
    pub extra_mem_per_iter: usize,
}

/// A compiled program: segments plus the array address map.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// program segments in execution order
    pub segs: Vec<Seg>,
    /// arrays sizes in elements (defines the address-space layout)
    pub arrays: Vec<(String, usize)>,
}

/// Set-associative L1 cache with LRU replacement, stored flat: way `w` of
/// set `s` lives at index `s · ways + w` of `tags`/`stamps`. A stamp is the
/// tick of the line's last touch; stamp 0 marks an empty way, so "evict the
/// smallest stamp" fills empty ways first. Line size and set count are
/// powers of two ([`MachineDesc::validate`]), so the set/tag split is a
/// shift and a mask.
struct Cache {
    ways: usize,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    tick: u64,
    /// where the most recent [`Cache::access`] found or put its line
    last: Hint,
    /// largest stamp of any line evicted since the caller last reset it
    max_victim: u64,
    stats: CacheStats,
}

/// Line number and flat slot of an earlier probe. A probe site that keeps
/// re-touching one line checks this slot before scanning the set; the tag
/// compare makes a stale hint harmless (a filled way never empties, and a
/// slot only ever holds lines of its own set).
type Hint = Option<(u64, usize)>;

impl Cache {
    fn new(m: &MachineDesc) -> Cache {
        let (line, nsets, ways) = (m.cache.line, m.cache.sets(), m.cache.ways);
        assert!(
            line.is_power_of_two() && nsets.is_power_of_two() && ways >= 1,
            "cache geometry of `{}` fails MachineDesc::validate",
            m.name
        );
        Cache {
            ways,
            line_shift: line.trailing_zeros(),
            set_shift: nsets.trailing_zeros(),
            set_mask: nsets as u64 - 1,
            tags: vec![0; nsets * ways],
            stamps: vec![0; nsets * ways],
            tick: 0,
            last: None,
            max_victim: 0,
            stats: CacheStats::default(),
        }
    }

    /// Line number of a byte address.
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Probe a byte address; true on hit.
    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        let mut hint = self.last;
        let hit = self.probe(self.line_of(addr), &mut hint);
        self.last = hint;
        hit
    }

    /// Probe line `lineno`, trying `hint` before the set scan and leaving
    /// it pointing at the line's slot; true on hit.
    #[inline]
    fn probe(&mut self, lineno: u64, hint: &mut Hint) -> bool {
        self.tick += 1;
        let tag = lineno >> self.set_shift;
        if let Some((l, k)) = *hint {
            if l == lineno && self.tags[k] == tag {
                self.stamps[k] = self.tick;
                self.stats.hits += 1;
                return true;
            }
        }
        let first = (lineno & self.set_mask) as usize * self.ways;
        let tags = &self.tags[first..first + self.ways];
        let stamps = &mut self.stamps[first..first + self.ways];
        let found = (0..tags.len()).find(|&k| tags[k] == tag && stamps[k] != 0);
        let k = match found {
            Some(k) => {
                self.stats.hits += 1;
                k
            }
            None => {
                self.stats.misses += 1;
                let lru = (0..stamps.len()).min_by_key(|&k| stamps[k]).unwrap();
                self.max_victim = self.max_victim.max(stamps[lru]);
                self.tags[first + lru] = tag;
                lru
            }
        };
        self.stamps[first + k] = self.tick;
        *hint = Some((lineno, first + k));
        found.is_some()
    }
}

fn class_idx(c: OpClass) -> usize {
    ALL_CLASSES.iter().position(|&x| x == c).unwrap()
}

/// Per-cycle issue-slot usage for the in-order model, as a tagged ring.
///
/// Exactness: the in-order walk only ever *reads* usage at cycles
/// `t ≥ current cycle`, and every written tag satisfies `tag ≤ current
/// cycle` immediately after the write (the issue advances `cycle` to the
/// slot it issued in). Operand readiness bounds the lookahead by
/// `max latency + miss penalty + 1`, so with a capacity larger than that
/// window two live cycles can never collide in a slot and stale tags can be
/// lazily reset — bit-identical to an unbounded map.
struct UsageRing {
    tags: Vec<u64>,
    classes: Vec<[u32; 7]>,
    issued: Vec<u32>,
    mask: u64,
}

impl UsageRing {
    fn new(m: &MachineDesc) -> UsageRing {
        let span =
            m.latency.iter().copied().max().unwrap_or(1) as u64 + m.cache.miss_penalty as u64 + 4;
        let cap = span.next_power_of_two().max(64) as usize;
        UsageRing {
            tags: vec![u64::MAX; cap],
            classes: vec![[0; 7]; cap],
            issued: vec![0; cap],
            mask: cap as u64 - 1,
        }
    }

    /// Usage counters for cycle `t`, resetting a stale slot.
    #[inline]
    fn slot(&mut self, t: u64) -> (&mut [u32; 7], &mut u32) {
        let i = (t & self.mask) as usize;
        if self.tags[i] != t {
            self.tags[i] = t;
            self.classes[i] = [0; 7];
            self.issued[i] = 0;
        }
        (&mut self.classes[i], &mut self.issued[i])
    }

    /// Read-only view of cycle `t`'s counters, if that slot is live.
    #[inline]
    fn peek(&self, t: u64) -> Option<(&[u32; 7], u32)> {
        let i = (t & self.mask) as usize;
        if self.tags[i] == t {
            Some((&self.classes[i], self.issued[i]))
        } else {
            None
        }
    }
}

/// A memory op's address stream inside one loop entry: `elem(t) = cur`,
/// advanced by `step` per trip, byte address
/// `base.saturating_add_signed(elem) * elem_bytes` — the exact arithmetic
/// of the symbolic walk, strength-reduced.
struct AddrStream {
    /// array base (element offset); `None` when the array is unmapped and
    /// the op never probes the cache (matches the symbolic walk)
    base: Option<u64>,
    cur: i64,
    step: i64,
    /// line of the latest address (cache pass state)
    line: u64,
    /// where the cache last held `line`
    hint: Hint,
}

/// One op as the issue kernel sees it: class, latency and operands
/// resolved once per simulation, so issuing touches no `String`s, no
/// `LinForm`s and no allocation.
struct IssueOp {
    ci: usize,
    lat: u64,
    dst: Option<usize>,
    /// range of this op's source registers in its block's `srcs`
    srcs: Range<usize>,
    /// `(index into the block's mem_ops, is_store)` for memory ops
    mem: Option<(usize, bool)>,
    /// floating-point class (software-emulated on single-issue cores)
    fp: bool,
}

/// A scheduled block ([`Seg::Straight`]) lowered for the issue kernel.
struct Block<'p> {
    /// ops of all bundles back to back; bundle `b` is
    /// `ops[bundle_ends[b - 1]..bundle_ends[b]]`
    ops: Vec<IssueOp>,
    bundle_ends: Vec<usize>,
    /// source registers of all ops, back to back
    srcs: Vec<usize>,
    /// the memory ops in op order, for their addresses
    mem_ops: Vec<&'p Op>,
    /// dynamic op count per class of one execution
    counts: [u64; 7],
    /// every register the block reads or writes, sorted, no duplicates
    regs: Vec<usize>,
}

impl<'p> Block<'p> {
    fn lower(bundles: &'p [Bundle], m: &MachineDesc) -> Block<'p> {
        let mut b = Block {
            ops: Vec::new(),
            bundle_ends: Vec::with_capacity(bundles.len()),
            srcs: Vec::new(),
            mem_ops: Vec::new(),
            counts: [0; 7],
            regs: Vec::new(),
        };
        for bundle in bundles {
            for op in bundle {
                let ci = class_idx(op.class());
                b.counts[ci] += 1;
                let mem = op.mem().map(|(_, _, is_store)| {
                    b.mem_ops.push(op);
                    (b.mem_ops.len() - 1, is_store)
                });
                let first = b.srcs.len();
                op.visit_srcs(|r| b.srcs.push(r as usize));
                b.ops.push(IssueOp {
                    ci,
                    lat: m.latency_of(op.class()) as u64,
                    dst: op.dst().map(|d| d as usize),
                    srcs: first..b.srcs.len(),
                    mem,
                    fp: matches!(op.class(), OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv),
                });
            }
            b.bundle_ends.push(b.ops.len());
        }
        b.regs = b.srcs.clone();
        b.regs.extend(b.ops.iter().filter_map(|op| op.dst));
        b.regs.sort_unstable();
        b.regs.dedup();
        b
    }
}

/// The program lowered once per simulation, mirroring [`Seg`].
enum Node<'p> {
    Block(Block<'p>),
    Loop(&'p SimLoop, Vec<Node<'p>>),
}

fn lower<'p>(segs: &'p [Seg], m: &MachineDesc) -> Vec<Node<'p>> {
    segs.iter()
        .map(|s| match s {
            Seg::Straight(bundles) => Node::Block(Block::lower(bundles, m)),
            Seg::Loop(l) => Node::Loop(l, lower(&l.body, m)),
        })
        .collect()
}

/// Largest register index used anywhere in a lowered program (for the
/// dense scoreboard).
fn max_reg(nodes: &[Node]) -> usize {
    nodes
        .iter()
        .map(|n| match n {
            Node::Block(b) => b.regs.last().copied().unwrap_or(0),
            Node::Loop(_, body) => max_reg(body),
        })
        .max()
        .unwrap_or(0)
}

/// The issue kernel: the scoreboard, the current cycle, the in-order slot
/// usage and the one copy of the timing rules. The reference and fallback
/// walks and the fast path's phase B all issue through it; they differ
/// only in where a memory op's hit or miss comes from (a live cache probe
/// or a recorded flag).
struct Issue {
    /// register → cycle at which its value is ready (0: no constraint)
    ready: Vec<u64>,
    /// current cycle (next issue opportunity)
    cycle: u64,
    /// per-cycle resource usage for the in-order model
    usage: UsageRing,
    vliw: bool,
    width: u32,
    single_issue: bool,
    unit_caps: [u32; 7],
    miss_penalty: u64,
}

impl Issue {
    fn new(m: &MachineDesc, nregs: usize) -> Issue {
        let mut unit_caps = [0u32; 7];
        for (cap, u) in unit_caps.iter_mut().zip(&m.units) {
            *cap = (*u).max(1) as u32;
        }
        Issue {
            ready: vec![0; nregs],
            cycle: 0,
            usage: UsageRing::new(m),
            vliw: m.issue == IssueModel::StaticVliw,
            width: m.issue_width as u32,
            single_issue: m.issue_width == 1,
            unit_caps,
            miss_penalty: m.cache.miss_penalty as u64,
        }
    }

    /// The first cycle from `t` at which every source of `op` is ready.
    #[inline]
    fn operands_ready(&self, op: &IssueOp, srcs: &[usize], t: u64) -> u64 {
        srcs[op.srcs.clone()]
            .iter()
            .fold(t, |t, &r| t.max(self.ready[r]))
    }

    /// `op`'s result latency and the pipeline stall it charges; `miss`
    /// says whether a memory op misses. A load miss extends the load's
    /// latency (non-blocking loads); a store miss stalls a single-issue
    /// core and is absorbed by the store buffer on wider ones.
    #[inline]
    fn latency(&self, op: &IssueOp, miss: &mut impl FnMut(usize) -> bool) -> (u64, u64) {
        let Some((i, is_store)) = op.mem else {
            return (op.lat, 0);
        };
        let extra = if miss(i) { self.miss_penalty } else { 0 };
        match (is_store, self.single_issue) {
            (false, _) => (op.lat + extra, 0),
            (true, true) => (op.lat, extra),
            (true, false) => (op.lat, 0),
        }
    }

    /// StaticVliw: issue one bundle as scheduled, once all its sources are
    /// ready; its store stalls delay the next bundle.
    #[inline]
    fn issue_bundle(
        &mut self,
        ops: &[IssueOp],
        srcs: &[usize],
        miss: &mut impl FnMut(usize) -> bool,
    ) {
        let start = ops
            .iter()
            .fold(self.cycle, |t, op| self.operands_ready(op, srcs, t));
        let mut store_stall = 0;
        for op in ops {
            let (lat, stall) = self.latency(op, miss);
            store_stall += stall;
            if let Some(d) = op.dst {
                self.ready[d] = start + lat;
            }
        }
        self.cycle = start + 1 + store_stall;
    }

    /// DynamicInOrder: issue one op in the first cycle, from its operands'
    /// readiness on, with a free issue slot and a free unit of its class.
    #[inline]
    fn issue_op(&mut self, op: &IssueOp, srcs: &[usize], miss: &mut impl FnMut(usize) -> bool) {
        let mut t = self.operands_ready(op, srcs, self.cycle);
        loop {
            let (classes, issued) = self.usage.slot(t);
            if *issued < self.width && classes[op.ci] < self.unit_caps[op.ci] {
                classes[op.ci] += 1;
                *issued += 1;
                break;
            }
            t += 1;
        }
        let (lat, mut stall) = self.latency(op, miss);
        if let Some(d) = op.dst {
            self.ready[d] = t + lat;
        }
        // Single-issue cores execute floating point in software (ARM7TDMI
        // has no FPU): the emulation routine blocks the pipeline for its
        // full latency instead of overlapping.
        if self.single_issue && op.fp {
            stall = stall.max(lat);
        }
        // in-order: the next op cannot issue before this one
        self.cycle = t + stall;
    }

    /// Issue one execution of `b`: bundle by bundle on StaticVliw, as one
    /// op stream on DynamicInOrder. `miss(i)` says whether the block's
    /// memory op `i` misses; it is asked once per memory op, in op order.
    #[inline]
    fn issue_block(&mut self, b: &Block, mut miss: impl FnMut(usize) -> bool) {
        if self.vliw {
            let mut from = 0;
            for &end in &b.bundle_ends {
                self.issue_bundle(&b.ops[from..end], &b.srcs, &mut miss);
                from = end;
            }
        } else {
            for op in &b.ops {
                self.issue_op(op, &b.srcs, &mut miss);
            }
        }
    }
}

/// The address space: loop bindings and the array layout.
struct Space {
    /// loop variable environment: variable → (current value, step)
    env: HashMap<String, (i64, i64)>,
    /// array base element offsets
    base: HashMap<String, u64>,
    /// dedicated spill slot base
    spill_base: u64,
    elem_bytes: u64,
}

impl Space {
    /// Array base and element index of a memory op in the current
    /// environment; `None` when its array is unmapped (it never probes).
    fn elem_of(&self, op: &Op) -> Option<(u64, i64)> {
        let (array, lin, _) = op.mem()?;
        let base = *self.base.get(array)?;
        let elem = match lin {
            Some(l) => {
                let mut v = l.konst;
                for (var, c) in &l.terms {
                    v += c * self.env.get(var).map_or(0, |b| b.0);
                }
                // pipeline offset: the op runs `iter_offset` iterations
                // ahead of the loop's nominal index
                if op.iter_offset != 0 {
                    if let Some((var, c)) = l.terms.iter().next() {
                        let step = self.env.get(var).map_or(1, |b| b.1);
                        v += c * op.iter_offset * step;
                    }
                }
                v
            }
            None => 0, // unknown address: array base (documented approximation)
        };
        Some((base, elem))
    }

    fn addr_of(&self, op: &Op) -> Option<u64> {
        let (base, elem) = self.elem_of(op)?;
        Some(base.saturating_add_signed(elem) * self.elem_bytes)
    }

    /// Lower one memory op's address into a stream over the trips of `l`:
    /// `elem_of` in the current environment, advanced by the loop
    /// variable's coefficient times its step per trip.
    fn stream(&self, op: &Op, l: &SimLoop) -> AddrStream {
        let (base, cur, step) = match (self.elem_of(op), op.mem()) {
            (Some((base, elem)), Some((_, lin, _))) => {
                let per_trip = lin
                    .and_then(|lf| lf.terms.get(&l.var))
                    .map_or(0, |c| c * l.step);
                (Some(base), elem, per_trip)
            }
            _ => (None, 0, 0),
        };
        AddrStream {
            base,
            cur,
            step,
            line: 0,
            hint: None,
        }
    }

    /// Rebind a loop variable bound at its loop's entry.
    fn set_var(&mut self, var: &str, value: i64) {
        self.env.get_mut(var).expect("bound at loop entry").0 = value;
    }
}

/// Flag-buffer ceiling for the decoupled cache pass (bytes); pathological
/// trip counts fall back to the trip-by-trip walk instead of allocating.
const MAX_FLAG_BYTES: usize = 64 << 20;

/// How many multiples of the base flag period the steady-state detector
/// compares against (covers scoreboard transients whose period is a small
/// multiple of the miss-pattern period).
const FF_PERIOD_MULTIPLES: i64 = 8;

/// 64-bit hash of a state key; the fingerprint ring compares it before
/// the full key, so a mismatching slot costs one word compare.
fn hash_words(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
    })
}

/// Index of the last position where two equally long byte slices differ,
/// comparing 64-byte blocks from the end.
fn last_mismatch(a: &[u8], b: &[u8]) -> Option<usize> {
    let mut end = a.len();
    while end > 0 {
        let start = end.saturating_sub(64);
        if a[start..end] != b[start..end] {
            return (start..end).rev().find(|&i| a[i] != b[i]);
        }
        end = start;
    }
    None
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

struct SimState<'m> {
    m: &'m MachineDesc,
    tracer: &'m slc_trace::Tracer,
    fidelity: SimFidelity,
    cache: Cache,
    result: SimResult,
    ff: FfStats,
    issue: Issue,
    space: Space,
    /// reusable per-access miss-flag buffer for the decoupled cache pass
    flags: Vec<u8>,
}

impl SimState<'_> {
    /// Add `times` executions of a block's per-class op counts.
    fn count(&mut self, b: &Block, times: u64) {
        for (total, c) in self.result.class_counts.iter_mut().zip(b.counts) {
            *total += c * times;
        }
    }

    fn exec(&mut self, node: &Node) {
        match node {
            Node::Block(b) => {
                // live walk: each memory op probes the cache as it issues
                let (space, cache) = (&self.space, &mut self.cache);
                self.issue.issue_block(b, |i| {
                    space
                        .addr_of(b.mem_ops[i])
                        .is_some_and(|addr| !cache.access(addr))
                });
                self.count(b, 1);
            }
            Node::Loop(l, body) => {
                let mut span = self
                    .tracer
                    .span_dyn("sim", || format!("sim.loop {}", l.var));
                span.arg("trips", l.trips.max(0) as u64);
                match self.space.env.get_mut(&l.var) {
                    Some(b) => *b = (l.init, l.step),
                    None => {
                        self.space.env.insert(l.var.clone(), (l.init, l.step));
                    }
                }
                self.ff.trips_total += l.trips.max(0) as u64;
                if self.fidelity == SimFidelity::Fast && self.try_exec_loop_fast(l, body) {
                    span.arg("path", "fast");
                    return;
                }
                self.ff.fallback_loops += 1;
                span.arg("path", "fallback");
                self.exec_loop_reference(l, body);
            }
        }
    }

    /// The naive trip-by-trip walk (reference fidelity; also the fallback
    /// for loop shapes the fast path does not compile).
    fn exec_loop_reference(&mut self, l: &SimLoop, body: &[Node]) {
        // Spill stores/reloads are dependent memory traffic the
        // scheduler could not hide: each access costs its slot plus
        // the machine's spill penalty, spread over the memory ports.
        let spill_cycles = self.spill_cycles_of(l);
        for t in 0..l.trips {
            for node in body {
                self.exec(node);
            }
            if l.extra_mem_per_iter > 0 {
                // spill traffic: touches the spill slots (usually hits)
                self.probe_spills(l.extra_mem_per_iter);
                self.result.spill_accesses += l.extra_mem_per_iter as u64;
                self.issue.cycle += spill_cycles;
            }
            self.space.set_var(&l.var, l.init + (t + 1) * l.step);
        }
    }

    fn spill_cycles_of(&self, l: &SimLoop) -> u64 {
        if l.extra_mem_per_iter > 0 {
            let units = self.m.units_of(OpClass::Mem).max(1) as u64;
            let cost = l.extra_mem_per_iter as u64 * (1 + self.m.spill_penalty as u64);
            cost.div_ceil(units)
        } else {
            0
        }
    }

    fn probe_spills(&mut self, extra: usize) {
        for k in 0..extra {
            let addr = (self.space.spill_base + (k % 64) as u64) * self.space.elem_bytes;
            self.cache.access(addr);
        }
    }

    /// Phase A: run the cache over every trip's probes (the streams in op
    /// order, then `extra` spill probes), leaving one miss flag per stream
    /// per trip in `flags`. A trip the settled-trip rule proves all-hit is
    /// counted without touching the cache; the argument is in the module
    /// docs.
    fn cache_pass(
        &mut self,
        streams: &mut [AddrStream],
        trips: usize,
        extra: usize,
        flags: &mut Vec<u8>,
    ) {
        let nstreams = streams.len();
        // every flag starts as a hit; a probed trip writes its misses
        flags.clear();
        flags.resize(trips * nstreams, 0);
        let eb = self.m.elem_bytes as u64;
        let probes_per_trip = (streams.iter().filter(|s| s.base.is_some()).count() + extra) as u64;
        // whether every line the previous trip touched is still resident
        let mut settled = false;
        for t in 0..trips {
            let mut same_lines = t > 0;
            for s in streams.iter_mut() {
                if let Some(base) = s.base {
                    let line = self.cache.line_of(base.saturating_add_signed(s.cur) * eb);
                    same_lines &= line == s.line;
                    s.line = line;
                }
                s.cur += s.step;
            }
            if same_lines && settled {
                self.cache.stats.hits += probes_per_trip;
                continue;
            }
            let trip_start = self.cache.tick;
            self.cache.max_victim = 0;
            let trip_flags = &mut flags[t * nstreams..(t + 1) * nstreams];
            for (s, flag) in streams.iter_mut().zip(trip_flags) {
                if s.base.is_some() {
                    *flag = !self.cache.probe(s.line, &mut s.hint) as u8;
                }
            }
            // the spill probes touch the same lines every trip
            self.probe_spills(extra);
            settled = self.cache.max_victim <= trip_start;
        }
    }

    /// Fast path for an innermost loop whose body is one scheduled block.
    /// Returns false (having executed nothing) when the shape or size is
    /// ineligible. Exactness is argued in the module docs.
    fn try_exec_loop_fast(&mut self, l: &SimLoop, body: &[Node]) -> bool {
        let [Node::Block(b)] = body else {
            return false;
        };
        if l.trips <= 0 {
            // zero-trip loop: entry bindings stay, nothing executes
            self.ff.fast_loops += 1;
            return true;
        }
        let nstreams = b.mem_ops.len();
        if (l.trips as u128) * (nstreams as u128) > MAX_FLAG_BYTES as u128 {
            return false;
        }
        self.ff.fast_loops += 1;
        let mut streams: Vec<AddrStream> = b
            .mem_ops
            .iter()
            .map(|op| self.space.stream(op, l))
            .collect();

        // ---- phase A: decoupled cache pass over all trips ----
        let trips = l.trips;
        let extra = l.extra_mem_per_iter;
        let mut flags = std::mem::take(&mut self.flags);
        self.cache_pass(&mut streams, trips as usize, extra, &mut flags);

        // per-trip invariants: dynamic counts and spill traffic
        self.count(b, trips as u64);
        if extra > 0 {
            self.result.spill_accesses += extra as u64 * trips as u64;
        }
        let spill_cycles = self.spill_cycles_of(l);

        // ---- phase B: timing with steady-state fast-forward ----
        // Candidate miss-pattern period: an affine stream sweeping with byte
        // stride `s` crosses cache lines in a pattern of period
        // `line / gcd(s, line)` trips; the joint pattern's period divides
        // the lcm over streams. Each term divides the line size, so the lcm
        // does too — it stays small.
        let line = self.m.cache.line.max(1) as i64;
        let eb = self.m.elem_bytes as u64;
        let mut period: i64 = 1;
        for s in &streams {
            if s.base.is_some() && s.step != 0 {
                let p = line / gcd(s.step.saturating_mul(eb as i64), line);
                period = period / gcd(period, p) * p;
            }
        }
        // First trip from which the recorded flags repeat with `period`:
        // the trip after the last flag that differs from the flag one
        // period earlier.
        let steady_from: i64 = if nstreams == 0 {
            0
        } else if period >= trips {
            trips
        } else {
            let shift = period as usize * nstreams;
            match last_mismatch(&flags[shift..], &flags[..flags.len() - shift]) {
                Some(i) => ((i + shift) / nstreams) as i64 + 1,
                None => period,
            }
        };

        let vliw = self.issue.vliw;
        let regs = &b.regs;
        let ff_possible = trips >= 3 && steady_from + period < trips;
        let kmax = FF_PERIOD_MULTIPLES.min((trips / period).max(1));
        let klen = regs.len() + if vliw { 0 } else { 8 };
        let rl = if ff_possible {
            (period * kmax) as usize
        } else {
            1
        };
        // ring of the last `rl` per-trip state keys (flat, allocation-free)
        let mut ring_keys = vec![0u64; rl * klen];
        let mut ring_hash = vec![0u64; rl];
        let mut ring_cycle = vec![0u64; rl];
        let mut ring_set = vec![false; rl];
        let mut key_buf: Vec<u64> = vec![0; klen];
        let mut searching = ff_possible;
        let mut fired = false;
        let mut t: i64 = 0;
        while t < trips {
            if searching {
                let issue = &mut self.issue;
                key_buf.clear();
                for &r in regs {
                    key_buf.push(issue.ready[r].saturating_sub(issue.cycle));
                }
                if !vliw {
                    match issue.usage.peek(issue.cycle) {
                        Some((classes, issued)) => {
                            key_buf.extend(classes.iter().map(|&c| c as u64));
                            key_buf.push(issued as u64);
                        }
                        None => key_buf.extend([0u64; 8]),
                    }
                }
                let key_hash = hash_words(&key_buf);
                for k in 1..=kmax {
                    let t0 = t - k * period;
                    if t0 < steady_from {
                        break;
                    }
                    let slot = (t0 % rl as i64) as usize;
                    if !ring_set[slot]
                        || ring_hash[slot] != key_hash
                        || ring_keys[slot * klen..(slot + 1) * klen] != key_buf
                    {
                        continue;
                    }
                    // state repeated over a verified-periodic flag window:
                    // skip every remaining full period
                    let p = k * period;
                    let delta = issue.cycle - ring_cycle[slot];
                    let periods = (trips - t) / p;
                    if periods > 0 {
                        let adv = periods as u64 * delta;
                        let old_cycle = issue.cycle;
                        issue.cycle += adv;
                        for &r in regs {
                            if issue.ready[r] > old_cycle {
                                issue.ready[r] += adv;
                            }
                        }
                        if !vliw && adv > 0 {
                            // translate the live current-cycle slot
                            if let Some((classes, issued)) =
                                issue.usage.peek(old_cycle).map(|(c, i)| (*c, i))
                            {
                                let (cl, is) = issue.usage.slot(issue.cycle);
                                *cl = classes;
                                *is = issued;
                            }
                        }
                        self.ff.ff_hits += 1;
                        self.ff.trips_skipped += (periods * p) as u64;
                        t += periods * p;
                        fired = true;
                    }
                    searching = false;
                    break;
                }
                if t >= trips {
                    break;
                }
                if searching {
                    let slot = (t % rl as i64) as usize;
                    ring_keys[slot * klen..(slot + 1) * klen].copy_from_slice(&key_buf);
                    ring_hash[slot] = key_hash;
                    ring_cycle[slot] = issue.cycle;
                    ring_set[slot] = true;
                }
            }

            // ---- simulate trip t from its recorded flags ----
            let fbase = t as usize * nstreams;
            self.issue.issue_block(b, |i| flags[fbase + i] != 0);
            if extra > 0 {
                self.issue.cycle += spill_cycles;
            }
            t += 1;
        }
        if !fired {
            self.ff.ff_misses += 1;
        }
        // final loop-variable binding, as the trip-by-trip walk leaves it
        self.space.set_var(&l.var, l.init + trips * l.step);
        self.flags = flags;
        true
    }
}

/// Simulate a compiled program on a machine at a chosen fidelity, returning
/// the reported numbers plus fast-path diagnostics. `Fast` and `Reference`
/// produce identical [`SimResult`]s (enforced by the differential suite).
pub fn simulate_with(prog: &CompiledProgram, m: &MachineDesc, fidelity: SimFidelity) -> SimOutcome {
    simulate_spanned(prog, m, fidelity, &slc_trace::Tracer::disabled())
}

/// [`simulate_with`] with wall-clock spans: one span per simulated loop
/// (category `"sim"`) carrying its trip count and which path executed it
/// (`fast` = steady-state fast-forward eligible, `fallback` = trip-by-trip
/// reference walk). The [`SimOutcome`] is identical to [`simulate_with`].
pub fn simulate_spanned(
    prog: &CompiledProgram,
    m: &MachineDesc,
    fidelity: SimFidelity,
    tracer: &slc_trace::Tracer,
) -> SimOutcome {
    let mut base = HashMap::new();
    let mut next: u64 = 64; // leave a guard region
    for (name, len) in &prog.arrays {
        base.insert(name.clone(), next);
        next += *len as u64 + 16;
    }
    let nodes = lower(&prog.segs, m);
    let mut st = SimState {
        m,
        tracer,
        fidelity,
        cache: Cache::new(m),
        result: SimResult::default(),
        ff: FfStats::default(),
        issue: Issue::new(m, max_reg(&nodes) + 1),
        space: Space {
            env: HashMap::new(),
            base,
            spill_base: next,
            elem_bytes: m.elem_bytes as u64,
        },
        flags: Vec::new(),
    };
    for node in &nodes {
        st.exec(node);
    }
    // drain: final cycle count covers the last issue plus the longest
    // latency still in flight
    let drain = st.issue.ready.iter().copied().max().unwrap_or(0);
    st.result.cycles = st.issue.cycle.max(drain);
    st.result.cache = st.cache.stats;
    SimOutcome {
        result: st.result,
        ff: st.ff,
    }
}

/// Simulate a compiled program on a machine (fast fidelity).
pub fn simulate(prog: &CompiledProgram, m: &MachineDesc) -> SimResult {
    simulate_with(prog, m, SimFidelity::Fast).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_analysis::LinForm;
    use slc_machine::ir::{BinKind, OpKind, Operand};

    fn lin_i(k: i64) -> LinForm {
        LinForm::var("i").add(&LinForm::constant(k))
    }

    fn load(dst: u32, k: i64) -> Op {
        Op::new(OpKind::Load {
            dst,
            array: "A".into(),
            addr: Some(lin_i(k)),
        })
    }

    fn fadd(dst: u32, a: u32, b: u32) -> Op {
        Op::new(OpKind::Bin {
            op: BinKind::Add,
            fp: true,
            dst,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        })
    }

    fn prog_with_loop(body: Vec<Bundle>, trips: i64) -> CompiledProgram {
        CompiledProgram {
            segs: vec![Seg::Loop(SimLoop {
                var: "i".into(),
                init: 0,
                step: 1,
                trips,
                body: vec![Seg::Straight(body)],
                extra_mem_per_iter: 0,
            })],
            arrays: vec![("A".into(), 1024)],
        }
    }

    fn both(p: &CompiledProgram, m: &MachineDesc) -> SimResult {
        let fast = simulate_with(p, m, SimFidelity::Fast);
        let reference = simulate_with(p, m, SimFidelity::Reference);
        assert_eq!(fast.result, reference.result);
        fast.result
    }

    #[test]
    fn vliw_cycle_count_basic() {
        let m = MachineDesc::default();
        let p = prog_with_loop(vec![vec![load(0, 0)]], 10);
        let r = both(&p, &m);
        assert!(r.cycles >= 10);
        assert_eq!(r.class_counts[5], 10); // Mem class index 5
    }

    #[test]
    fn sequential_addresses_mostly_hit() {
        let m = MachineDesc::default(); // 64B lines, 8B elems → 8 per line
        let p = prog_with_loop(vec![vec![load(0, 0)]], 64);
        let r = both(&p, &m);
        assert_eq!(r.cache.hits + r.cache.misses, 64);
        assert_eq!(r.cache.misses, 8, "{:?}", r.cache); // one per line
    }

    #[test]
    fn associativity_avoids_conflict_thrash() {
        // two streams exactly one cache-way apart thrash a direct-mapped
        // cache but coexist in a 4-way cache
        let mut m = MachineDesc::default();
        m.cache.ways = 4;
        let stride = (m.cache.size / m.cache.ways / m.elem_bytes) as i64;
        let mk = || {
            let a = load(0, 0);
            let mut b = load(1, 0);
            if let slc_machine::ir::OpKind::Load { addr, .. } = &mut b.kind {
                *addr = Some(lin_i(stride));
            }
            prog_with_loop(vec![vec![a], vec![b]], 64)
        };
        let p = CompiledProgram {
            arrays: vec![("A".into(), 8192)],
            ..mk()
        };
        let r = both(&p, &m);
        // both streams are sequential: ~2 misses per line, not per access
        assert!(r.cache.misses < 40, "{:?}", r.cache);
    }

    #[test]
    fn loop_carried_latency_stalls_vliw() {
        let m = MachineDesc::default(); // FpAdd latency 3
        let p = prog_with_loop(vec![vec![fadd(7, 7, 7)]], 10);
        let r = both(&p, &m);
        assert!(r.cycles >= 3 * 9, "cycles {}", r.cycles);
    }

    #[test]
    fn inorder_width_matters() {
        let mk = |w| MachineDesc {
            issue: IssueModel::DynamicInOrder,
            issue_width: w,
            units: [4, 4, 4, 4, 4, 4, 4],
            ..MachineDesc::default()
        };
        let body = vec![vec![load(0, 0), load(1, 1)]];
        let p1 = prog_with_loop(body.clone(), 32);
        let r1 = both(&p1, &mk(1));
        let r2 = both(&p1, &mk(2));
        assert!(r2.cycles < r1.cycles, "{} !< {}", r2.cycles, r1.cycles);
    }

    #[test]
    fn iter_offset_shifts_addresses() {
        let m = MachineDesc::default();
        let mut op = load(0, 0);
        op.iter_offset = 2;
        let p = prog_with_loop(vec![vec![op]], 32);
        let r = both(&p, &m);
        assert_eq!(r.cache.hits + r.cache.misses, 32);
    }

    #[test]
    fn spill_traffic_costs_cycles() {
        let m = MachineDesc::default();
        let mk = |extra| CompiledProgram {
            segs: vec![Seg::Loop(SimLoop {
                var: "i".into(),
                init: 0,
                step: 1,
                trips: 50,
                body: vec![Seg::Straight(vec![vec![load(0, 0)]])],
                extra_mem_per_iter: extra,
            })],
            arrays: vec![("A".into(), 1024)],
        };
        let r0 = both(&mk(0), &m);
        let r4 = both(&mk(4), &m);
        assert!(r4.cycles > r0.cycles);
        assert_eq!(r4.spill_accesses, 200);
    }

    #[test]
    fn wider_vliw_schedule_is_faster() {
        let m = MachineDesc::default();
        // packed schedule: 2 loads per bundle vs serial 1 per bundle
        let packed = prog_with_loop(vec![vec![load(0, 0), load(1, 1)]], 64);
        let serial = prog_with_loop(vec![vec![load(0, 0)], vec![load(1, 1)]], 64);
        let rp = both(&packed, &m);
        let rs = both(&serial, &m);
        assert!(rp.cycles < rs.cycles);
    }

    #[test]
    fn fast_forward_fires_on_steady_loop() {
        let m = MachineDesc::default();
        let p = prog_with_loop(vec![vec![load(0, 0)], vec![fadd(1, 0, 1)]], 2000);
        let out = simulate_with(&p, &m, SimFidelity::Fast);
        assert!(out.ff.fast_loops >= 1);
        assert!(out.ff.ff_hits >= 1, "{:?}", out.ff);
        assert!(out.ff.trips_skipped > 0, "{:?}", out.ff);
        let reference = simulate_with(&p, &m, SimFidelity::Reference);
        assert_eq!(out.result, reference.result);
        assert_eq!(reference.ff.fallback_loops, 1);
    }

    #[test]
    fn nested_loops_fall_back_outside_and_fast_path_inside() {
        let m = MachineDesc::default();
        let inner = SimLoop {
            var: "j".into(),
            init: 0,
            step: 1,
            trips: 64,
            body: vec![Seg::Straight(vec![vec![load(0, 0)]])],
            extra_mem_per_iter: 0,
        };
        let p = CompiledProgram {
            segs: vec![Seg::Loop(SimLoop {
                var: "i".into(),
                init: 0,
                step: 1,
                trips: 8,
                body: vec![Seg::Loop(inner)],
                extra_mem_per_iter: 0,
            })],
            arrays: vec![("A".into(), 1024)],
        };
        let out = simulate_with(&p, &m, SimFidelity::Fast);
        assert_eq!(out.ff.fallback_loops, 1); // the outer loop
        assert_eq!(out.ff.fast_loops, 8); // one inner entry per outer trip
        let reference = simulate_with(&p, &m, SimFidelity::Reference);
        assert_eq!(out.result, reference.result);
    }

    /// The per-set `Vec<(tag, tick)>` LRU cache the flat [`Cache`]
    /// replaced, kept as its oracle.
    struct RefCache {
        nsets: usize,
        ways: usize,
        line: usize,
        sets: Vec<Vec<(u64, u64)>>,
        tick: u64,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(m: &MachineDesc) -> RefCache {
            let ways = m.cache.ways.max(1);
            let nsets = (m.cache.size / m.cache.line / ways).max(1);
            RefCache {
                nsets,
                ways,
                line: m.cache.line,
                sets: vec![Vec::new(); nsets],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let lineno = addr / self.line as u64;
            let set = (lineno % self.nsets as u64) as usize;
            let tag = lineno / self.nsets as u64;
            let ways = &mut self.sets[set];
            if let Some(slot) = ways.iter_mut().find(|(t, _)| *t == tag) {
                slot.1 = self.tick;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            if ways.len() < self.ways {
                ways.push((tag, self.tick));
            } else {
                let lru = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, t))| *t)
                    .map(|(k, _)| k)
                    .unwrap();
                ways[lru] = (tag, self.tick);
            }
            false
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64, ..Default::default() })]
        /// The flat cache gives the oracle's hit/miss sequence and stats on
        /// every preset geometry. Four probe sites walk the address space
        /// (small strides, so lines repeat, and random jumps, so sets
        /// conflict); site 0 probes through the cache-wide hint, the others
        /// through hints of their own.
        #[test]
        fn flat_cache_matches_per_set_lru(
            preset in 0usize..4,
            moves in proptest::collection::vec((0usize..4, 0usize..8, 0usize..8192), 0..3000),
        ) {
            use crate::presets::{arm7tdmi, itanium2, pentium, power4};
            let m = [itanium2(), pentium(), power4(), arm7tdmi()][preset].clone();
            let mut flat = Cache::new(&m);
            let mut oracle = RefCache::new(&m);
            let mut cursor = [0u64; 4];
            let mut hints: [Hint; 4] = [None; 4];
            for (k, &(site, step, jump)) in moves.iter().enumerate() {
                cursor[site] = match step {
                    0 => jump as u64,
                    _ => cursor[site].saturating_add_signed(step as i64 - 3),
                };
                let addr = cursor[site] * m.elem_bytes as u64;
                let line = flat.line_of(addr);
                let got = match site {
                    0 => flat.access(addr),
                    _ => flat.probe(line, &mut hints[site]),
                };
                proptest::prop_assert_eq!(got, oracle.access(addr), "{} probe {}", m.name, k);
            }
            proptest::prop_assert_eq!(flat.stats, oracle.stats);
        }
    }

    #[test]
    fn last_mismatch_finds_the_last_differing_byte() {
        for len in [0, 1, 63, 64, 65, 200] {
            let a = vec![0u8; len];
            assert_eq!(last_mismatch(&a, &a), None);
            for at in [0, len / 2, len.saturating_sub(1)] {
                if at < len {
                    let mut b = a.clone();
                    b[at] = 1;
                    assert_eq!(last_mismatch(&a, &b), Some(at), "len {len} at {at}");
                    b[0] = 1;
                    assert_eq!(last_mismatch(&a, &b), Some(at), "len {len} at {at}");
                }
            }
        }
    }

    fn load_at(dst: u32, elem: i64) -> Op {
        Op::new(OpKind::Load {
            dst,
            array: "A".into(),
            addr: Some(LinForm::constant(elem)),
        })
    }

    fn tiny_cache(size: usize, ways: usize) -> MachineDesc {
        MachineDesc {
            cache: slc_machine::mach::CacheConfig {
                size,
                line: 64,
                ways,
                miss_penalty: 12,
            },
            ..MachineDesc::default()
        }
    }

    #[test]
    fn in_trip_self_eviction_defeats_the_trip_skip() {
        // three fixed lines in one set of a 2-way cache: every trip touches
        // the same lines as the last, but evicts lines it touched itself,
        // so no trip is settled and LRU misses on every probe
        let m = tiny_cache(1024, 2);
        let same_set = (m.cache.sets() * m.cache.line / m.elem_bytes) as i64;
        let body = (0..3)
            .map(|k| vec![load_at(k, k as i64 * same_set)])
            .collect();
        let r = both(&prog_with_loop(body, 16), &m);
        assert_eq!(r.cache.misses, 3 * 16, "{:?}", r.cache);
        assert_eq!(r.cache.hits, 0);
    }

    #[test]
    fn wrapped_spill_slots_defeat_the_trip_skip() {
        // 70 spill probes wrap onto the 64 slots (8 lines) of a 4-line
        // cache: the slots evict each other inside every trip
        let m = tiny_cache(256, 2);
        let p = CompiledProgram {
            segs: vec![Seg::Loop(SimLoop {
                var: "i".into(),
                init: 0,
                step: 1,
                trips: 12,
                body: vec![Seg::Straight(vec![vec![load(0, 0)]])],
                extra_mem_per_iter: 70,
            })],
            arrays: vec![("A".into(), 1024)],
        };
        let r = both(&p, &m);
        assert_eq!(r.cache.hits + r.cache.misses, 12 * 71);
        assert!(r.cache.misses >= 12 * 8, "{:?}", r.cache);
    }

    #[test]
    fn zero_trip_loop_matches_reference() {
        let m = MachineDesc::default();
        let p = prog_with_loop(vec![vec![load(0, 0)]], 0);
        let r = both(&p, &m);
        assert_eq!(r.total_ops(), 0);
        assert_eq!(r.cycles, 0);
    }
}
