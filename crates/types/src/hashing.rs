//! Stable, dependency-free hashing used to map user keys onto the key space.
//!
//! DataFlasks partitions a 64-bit key space into `k` contiguous ranges, one
//! per slice. User-facing keys (arbitrary byte strings) are mapped onto that
//! space with the FNV-1a hash, chosen because it is deterministic across
//! platforms and process runs — a requirement for reproducible simulation
//! experiments — and cheap enough to be negligible next to network costs.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with the 64-bit FNV-1a function.
///
/// The result is stable across platforms, compiler versions and process
/// runs, which makes key placement reproducible in experiments.
///
/// # Example
///
/// ```
/// use dataflasks_types::fnv1a_64;
///
/// assert_eq!(fnv1a_64(b"abc"), fnv1a_64(b"abc"));
/// assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abd"));
/// ```
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Mixes a 64-bit integer with the SplitMix64 finaliser.
///
/// Used to spread sequential identifiers (record numbers, node indices)
/// uniformly over the key space so that key-range slices receive balanced
/// load even when the workload enumerates keys sequentially.
#[must_use]
pub fn splitmix64(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fast, deterministic [`std::hash::Hasher`] for integer-keyed tables.
///
/// Protocol state keyed by node or request identifiers lives on the hot
/// path of every gossip exchange; the default SipHash spends more time
/// hashing an 8-byte id than the table spends probing. This hasher runs the
/// SplitMix64 finaliser over integer writes and FNV-1a over byte writes —
/// both already the crate's stable primitives — so maps stay deterministic
/// across platforms and process runs (unlike `RandomState`), which seeded
/// simulations require.
///
/// Not DoS-resistant; use only for keys an attacker does not choose.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl std::hash::Hasher for FastHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = splitmix64(self.0 ^ fnv1a_64(bytes));
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = splitmix64(self.0 ^ value);
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    fn write_u8(&mut self, value: u8) {
        self.write_u64(u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

/// Deterministic build-state for [`FastHasher`]-backed tables.
pub type FastHashState = std::hash::BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed through [`FastHasher`] (deterministic, cheap on
/// integer ids).
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastHashState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // Reference values for the 64-bit FNV-1a function.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_distinguishes_nearby_inputs() {
        assert_ne!(fnv1a_64(b"key-1"), fnv1a_64(b"key-2"));
        assert_ne!(fnv1a_64(b"key-1"), fnv1a_64(b"key-10"));
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(42), splitmix64(42));
        // Sequential inputs must land far apart.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1 << 32);
    }

    #[test]
    fn splitmix_zero_is_not_zero() {
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn fast_hash_maps_are_deterministic_across_instances() {
        use crate::NodeId;
        let build = |seed: u64| {
            let mut map: FastHashMap<NodeId, u64> = FastHashMap::default();
            for i in 0..64u64 {
                map.insert(NodeId::new(i * 7 + seed), i);
            }
            map.iter()
                .map(|(k, v)| (k.as_u64(), *v))
                .fold(0u64, |acc, (k, v)| acc ^ splitmix64(k ^ v))
        };
        // Same content → same (order-independent) digest, and two instances
        // never disagree the way RandomState-backed maps can.
        assert_eq!(build(1), build(1));
    }

    #[test]
    fn splitmix_spreads_fnv_hashes_across_high_bits() {
        // FNV-1a alone concentrates short sequential keys in few high-byte
        // values; the key constructor therefore post-mixes with SplitMix64.
        // This test documents why that second step is required.
        let mut top_bytes = std::collections::HashSet::new();
        for i in 0..64u32 {
            let key = format!("user{i}");
            top_bytes.insert(splitmix64(fnv1a_64(key.as_bytes())) >> 56);
        }
        assert!(top_bytes.len() > 16, "expected spread, got {top_bytes:?}");
    }
}
