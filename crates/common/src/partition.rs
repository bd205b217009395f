//! Stable hashing and hash partitioning.
//!
//! InvaliDB performs hash partitioning for inbound writes and queries
//! (§5.1): after-images hash by primary key (the only attribute present on
//! insert, update *and* delete); queries hash by their normalized attributes
//! so all subscriptions to one query share a partition. The hash must be
//! stable across processes and runs — `std::hash` makes no such guarantee,
//! so we ship FNV-1a.

use crate::value::CanonicalSink;

/// Running 64-bit FNV-1a state: a hash that can be fed in pieces, so a
/// canonical encoding is hashed as it is produced instead of being
/// collected first. Feeding the pieces of a byte string in order gives
/// [`fnv1a64`] of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The state before any byte.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Folds the next bytes in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalSink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// 64-bit FNV-1a hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

/// 64-bit finalizer (MurmurHash3's `fmix64`): full avalanche over FNV's
/// weakly mixed output, so partitioning by high bits stays uniform even for
/// short sequential keys.
pub fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Stable, well-mixed 64-bit hash of a byte string — FNV-1a plus finalizer.
/// This is the hash used for query and write partitioning.
pub fn stable_hash64(bytes: &[u8]) -> u64 {
    fmix64(fnv1a64(bytes))
}

/// Maps a stable hash onto one of `n` partitions.
///
/// Uses the high bits via 128-bit multiply (Lemire reduction) instead of
/// modulo: FNV's low bits are its weakest and modulo would expose them.
pub fn partition_of(hash: u64, n: usize) -> usize {
    assert!(n > 0, "partition count must be positive");
    (((hash as u128) * (n as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Key;

    #[test]
    fn fnv_known_vectors() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn partition_in_range() {
        for n in [1usize, 2, 3, 7, 16] {
            for i in 0..1000u64 {
                let p = partition_of(fnv1a64(&i.to_be_bytes()), n);
                assert!(p < n);
            }
        }
    }

    #[test]
    fn partition_is_stable() {
        let k = Key::of("user:42");
        let p1 = partition_of(k.stable_hash(), 16);
        let p2 = partition_of(k.stable_hash(), 16);
        assert_eq!(p1, p2);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let n = 8usize;
        let mut counts = vec![0usize; n];
        let total = 80_000u64;
        for i in 0..total {
            let k = Key::of(format!("key-{i}"));
            counts[partition_of(k.stable_hash(), n)] += 1;
        }
        let expect = total as usize / n;
        for &c in &counts {
            // Within 5% of perfectly even for 80k keys over 8 partitions.
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < (expect / 20) as u64,
                "skewed: {counts:?}"
            );
        }
    }
}
