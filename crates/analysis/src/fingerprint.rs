//! Stable content hashing for cacheable compilation artifacts.
//!
//! The batch experiment engine (`slc-pipeline`) memoizes expensive per-loop
//! artifacts — parsed programs, SLMS outputs, lowered LIR, simulated
//! cells — in maps keyed by *content* fingerprints, so identical inputs reached
//! through different matrix cells share one computation. The hash must be
//! stable across runs, platforms and thread counts (the report generated
//! from cache statistics is asserted byte-identical), so we use FNV-1a
//! with explicit field feeding rather than `std::hash`, whose `Hasher`
//! values are not guaranteed stable between releases.

use slc_ast::{to_source, Program};

/// Incremental FNV-1a (64-bit) hasher with a stable, documented algorithm.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feed a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// Feed a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Feed a `usize` as `u64`.
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Feed a bool.
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write(&[v as u8])
    }

    /// Finish the hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a raw string (e.g. workload source text).
pub fn fingerprint_str(s: &str) -> u64 {
    Fnv64::new().write_str(s).finish()
}

/// Fingerprint of a program's canonical printed form. Two programs with
/// the same source print identically, so this is a sound memoization key
/// for every artifact derived deterministically from the AST (lowered LIR,
/// schedules, simulation results for a fixed machine).
pub fn program_fingerprint(p: &Program) -> u64 {
    fingerprint_str(&to_source(p))
}

/// Combine fingerprints of independent key components (order-sensitive).
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for p in parts {
        h.write_u64(*p);
    }
    h.finish()
}

/// Fingerprint of a tagged record: a textual tag (length-prefixed, so tags
/// cannot collide by concatenation) followed by ordered numeric parts.
/// This is the building block of *pass* and *plan* fingerprints: each pass
/// feeds its name as the tag and its parameters as parts, and a plan is
/// `combine` over its passes — so any change to a plan's shape, order or
/// arguments changes the cache key the batch engine memoizes under.
pub fn tagged(tag: &str, parts: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(tag);
    h.write_usize(parts.len());
    for p in parts {
        h.write_u64(*p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slc_ast::parse_program;

    #[test]
    fn stable_known_value() {
        // FNV-1a of empty input is the offset basis
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        // and the hash of "a" is a published constant
        assert_eq!(Fnv64::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let a = Fnv64::new().write_str("ab").write_str("c").finish();
        let b = Fnv64::new().write_str("a").write_str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn program_fingerprint_ignores_whitespace() {
        let p1 = parse_program("float A[8]; int i; for (i = 0; i < 4; i++) A[i] = 1.0;").unwrap();
        let p2 =
            parse_program("float A[8];\nint i;\nfor (i = 0; i < 4; i++)  A[i] = 1.0;").unwrap();
        assert_eq!(program_fingerprint(&p1), program_fingerprint(&p2));
    }

    #[test]
    fn different_programs_differ() {
        let p1 = parse_program("float A[8]; int i; for (i = 0; i < 4; i++) A[i] = 1.0;").unwrap();
        let p2 = parse_program("float A[8]; int i; for (i = 0; i < 4; i++) A[i] = 2.0;").unwrap();
        assert_ne!(program_fingerprint(&p1), program_fingerprint(&p2));
    }
}
