//! A stream digest for checking a workload's output: the sink folds in
//! what arrived, the harness folds in what it generated, and the two
//! values must match.
//!
//! It is tiny, dependency-free and deterministic across platforms — the
//! point is reproducibility, not cryptography. The digest is FNV-1a 64
//! over the little-endian bytes of each folded value, so it commits to
//! every value and to their order.

/// A streaming 64-bit digest (FNV-1a) over a sequence of `u64` values.
///
/// The benchmark's workloads fold each item's sequence number and
/// fingerprint in, so a sink that saw an item lost, repeated, reordered
/// or corrupted reads a different value than the reference.
#[derive(Clone, Debug)]
pub struct Digest64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Digest64 {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Digest64 {
        Digest64 { state: FNV_OFFSET }
    }

    /// Folds a `u64` in (e.g. a sequence number or a payload's
    /// fingerprint).
    pub fn update_u64(&mut self, v: u64) {
        let mut h = self.state;
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The digest of everything folded in so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.state
    }
}

impl Default for Digest64 {
    fn default() -> Self {
        Digest64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(values: &[u64]) -> u64 {
        let mut d = Digest64::new();
        for &v in values {
            d.update_u64(v);
        }
        d.value()
    }

    #[test]
    fn digest_commits_to_each_value_and_its_order() {
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[2, 1, 3]), "reordered");
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2]), "lost");
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2, 3, 3]), "repeated");
    }

    #[test]
    fn digest_covers_every_value_including_zero() {
        assert_ne!(digest(&[7]), digest(&[8]), "corrupted");
        assert_ne!(digest(&[1 << 56]), digest(&[0]), "high byte");
        // A zero still moves the digest: every value folds in 8 bytes.
        assert_ne!(digest(&[0]), digest(&[]));
    }
}
