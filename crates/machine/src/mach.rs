//! Parametric machine descriptions.
//!
//! One structure covers the paper's four targets: a wide in-order VLIW
//! (Itanium II), a narrow in-order superscalar (Pentium), a wider superscalar
//! (Power4) and a single-issue scalar core (ARM7TDMI). The schedulers and
//! the cycle simulator read everything from here — nothing is hard-coded to
//! a target.

use crate::ir::{OpClass, ALL_CLASSES};
use slc_trace::{FromJson, Json};

/// How the machine finds instruction-level parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueModel {
    /// Compiler-scheduled bundles execute as given (VLIW / EPIC).
    StaticVliw,
    /// Hardware issues the linear op stream in order, up to `issue_width`
    /// per cycle, stalling on unavailable operands (in-order superscalar).
    DynamicInOrder,
}

/// Set-associative L1 data-cache parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// total size in bytes
    pub size: usize,
    /// line size in bytes
    pub line: usize,
    /// associativity (LRU replacement)
    pub ways: usize,
    /// extra stall cycles on a miss (hit cost is the Mem op latency)
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// Number of sets: `size / line / ways` (0 when the geometry is
    /// degenerate; [`MachineDesc::validate`] rejects that).
    pub fn sets(&self) -> usize {
        self.size
            .checked_div(self.line)
            .and_then(|s| s.checked_div(self.ways))
            .unwrap_or(0)
    }
}

/// Why [`MachineDesc::validate`] rejected a machine description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// the field must be a nonzero power of two
    NotPowerOfTwo {
        /// field name (`cache.line`, `cache.sets`)
        field: &'static str,
        /// offending value
        value: usize,
    },
    /// the field must be at least 1
    Zero {
        /// field name (`cache.ways`, `issue_width`, `elem_bytes`, `units[k]`)
        field: String,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::NotPowerOfTwo { field, value } => {
                write!(
                    f,
                    "machine {field} must be a nonzero power of two, got {value}"
                )
            }
            MachineError::Zero { field } => write!(f, "machine {field} must be at least 1"),
        }
    }
}

impl std::error::Error for MachineError {}

/// A machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDesc {
    /// human-readable name
    pub name: String,
    /// issue model
    pub issue: IssueModel,
    /// maximum operations issued per cycle
    pub issue_width: usize,
    /// functional-unit count per class
    pub units: [usize; 7],
    /// result latency per class (cycles until a consumer may issue)
    pub latency: [u32; 7],
    /// architected integer registers available to the allocator
    pub int_regs: usize,
    /// architected float registers
    pub fp_regs: usize,
    /// L1 data cache
    pub cache: CacheConfig,
    /// element size in bytes for address → byte conversion
    pub elem_bytes: usize,
    /// extra stall cycles for a spill (per spilled access, on top of the
    /// Mem latency)
    pub spill_penalty: u32,
}

impl MachineDesc {
    fn class_index(c: OpClass) -> usize {
        ALL_CLASSES.iter().position(|&x| x == c).unwrap()
    }

    /// Functional units available for a class.
    pub fn units_of(&self, c: OpClass) -> usize {
        self.units[Self::class_index(c)]
    }

    /// Result latency of a class.
    pub fn latency_of(&self, c: OpClass) -> u32 {
        self.latency[Self::class_index(c)]
    }

    /// Check the geometry the schedulers and the simulator rely on: the
    /// cache line size and set count are nonzero powers of two (the
    /// simulator splits addresses with shifts and masks), and the cache
    /// ways, issue width, element size and every unit count are at least 1
    /// (a zero would divide by zero or never issue).
    pub fn validate(&self) -> Result<(), MachineError> {
        let zero = |field: String| Err(MachineError::Zero { field });
        if self.cache.ways == 0 {
            return zero("cache.ways".into());
        }
        for (field, value) in [
            ("cache.line", self.cache.line),
            ("cache.sets", self.cache.sets()),
        ] {
            if !value.is_power_of_two() {
                return Err(MachineError::NotPowerOfTwo { field, value });
            }
        }
        if self.issue_width == 0 {
            return zero("issue_width".into());
        }
        if self.elem_bytes == 0 {
            return zero("elem_bytes".into());
        }
        if let Some(k) = self.units.iter().position(|&u| u == 0) {
            return zero(format!("units[{k}]"));
        }
        Ok(())
    }

    /// Stable content fingerprint of the machine description, part of the
    /// cache key for memoized cell simulations in the batch
    /// experiment engine. Exhaustive destructuring keeps this in sync with
    /// the struct definition.
    pub fn fingerprint(&self) -> u64 {
        let MachineDesc {
            name,
            issue,
            issue_width,
            units,
            latency,
            int_regs,
            fp_regs,
            cache,
            elem_bytes,
            spill_penalty,
        } = self;
        let mut h = slc_analysis::Fnv64::new();
        h.write_str(name);
        h.write_u64(match issue {
            IssueModel::StaticVliw => 0,
            IssueModel::DynamicInOrder => 1,
        });
        h.write_usize(*issue_width);
        for u in units {
            h.write_usize(*u);
        }
        for l in latency {
            h.write_u64(*l as u64);
        }
        h.write_usize(*int_regs).write_usize(*fp_regs);
        h.write_usize(cache.size)
            .write_usize(cache.line)
            .write_usize(cache.ways)
            .write_u64(cache.miss_penalty as u64);
        h.write_usize(*elem_bytes).write_u64(*spill_penalty as u64);
        h.finish()
    }
}

impl Default for MachineDesc {
    /// A generic 4-issue VLIW used by unit tests.
    fn default() -> Self {
        MachineDesc {
            name: "generic-vliw4".into(),
            issue: IssueModel::StaticVliw,
            issue_width: 4,
            //        IntAlu IntMul FpAdd FpMul FpDiv Mem Branch
            units: [2, 1, 2, 2, 1, 2, 1],
            latency: [1, 3, 3, 4, 12, 2, 1],
            int_regs: 32,
            fp_regs: 32,
            cache: CacheConfig {
                size: 16 * 1024,
                line: 64,
                ways: 4,
                miss_penalty: 12,
            },
            elem_bytes: 8,
            spill_penalty: 2,
        }
    }
}

impl From<&MachineDesc> for Json {
    fn from(m: &MachineDesc) -> Json {
        let issue = match m.issue {
            IssueModel::StaticVliw => "vliw",
            IssueModel::DynamicInOrder => "inorder",
        };
        Json::obj()
            .field("name", m.name.as_str())
            .field("issue", issue)
            .field("issue_width", m.issue_width)
            .field("units", m.units.to_vec())
            .field("latency", m.latency.to_vec())
            .field("int_regs", m.int_regs)
            .field("fp_regs", m.fp_regs)
            .field(
                "cache",
                Json::obj()
                    .field("size", m.cache.size)
                    .field("line", m.cache.line)
                    .field("ways", m.cache.ways)
                    .field("miss_penalty", m.cache.miss_penalty),
            )
            .field("elem_bytes", m.elem_bytes)
            .field("spill_penalty", m.spill_penalty)
    }
}

/// Decodes only machines that pass [`MachineDesc::validate`].
impl FromJson for MachineDesc {
    fn from_json(j: &Json) -> Result<MachineDesc, String> {
        let table = |key: &str| format!("field `{key}`: want 7 entries, one per op class");
        let cache = j.get("cache").ok_or("missing field `cache`")?;
        let m = MachineDesc {
            name: j.req("name")?,
            issue: match j.req::<String>("issue")?.as_str() {
                "vliw" => IssueModel::StaticVliw,
                "inorder" => IssueModel::DynamicInOrder,
                other => return Err(format!("unknown issue model `{other}`")),
            },
            issue_width: j.req("issue_width")?,
            units: j
                .req::<Vec<usize>>("units")?
                .try_into()
                .map_err(|_| table("units"))?,
            latency: j
                .req::<Vec<u32>>("latency")?
                .try_into()
                .map_err(|_| table("latency"))?,
            int_regs: j.req("int_regs")?,
            fp_regs: j.req("fp_regs")?,
            cache: CacheConfig {
                size: cache.req("size")?,
                line: cache.req("line")?,
                ways: cache.req("ways")?,
                miss_penalty: cache.req("miss_penalty")?,
            },
            elem_bytes: j.req("elem_bytes")?,
            spill_penalty: j.req("spill_penalty")?,
        };
        m.validate().map_err(|e| e.to_string())?;
        Ok(m)
    }
}
