//! Property-based tests for the data-store substrate.

use dataflasks_store::{DataStore, MemoryStore, PutOutcome, StoreDigest};
use dataflasks_types::{Key, SliceId, SlicePartition, StoredObject, Value, Version};
use proptest::prelude::*;

/// A randomly generated put operation.
fn arb_put() -> impl Strategy<Value = (u8, u64, Vec<u8>)> {
    (
        0u8..16,
        0u64..8,
        proptest::collection::vec(any::<u8>(), 0..32),
    )
}

fn object(key_tag: u8, version: u64, payload: &[u8]) -> StoredObject {
    StoredObject::new(
        Key::from_user_key(&format!("key-{key_tag}")),
        Version::new(version),
        Value::from_bytes(payload),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any sequence of puts, the latest version visible for every key
    /// equals the maximum version ever put for that key, and a latest read
    /// returns the payload associated with that maximum version (last write
    /// wins among equal versions is not required: equal versions are
    /// duplicates by contract).
    #[test]
    fn memory_store_latest_version_is_the_maximum(puts in proptest::collection::vec(arb_put(), 0..128)) {
        let mut store = MemoryStore::unbounded();
        let mut expected_latest: std::collections::HashMap<u8, u64> = std::collections::HashMap::new();
        for (tag, version, payload) in &puts {
            let _ = store.put(&object(*tag, *version, payload));
            let entry = expected_latest.entry(*tag).or_insert(*version);
            if *version > *entry {
                *entry = *version;
            }
        }
        for (tag, latest) in expected_latest {
            let key = Key::from_user_key(&format!("key-{tag}"));
            prop_assert_eq!(store.latest_version(key), Some(Version::new(latest)));
            prop_assert_eq!(store.get_latest(key).unwrap().version, Version::new(latest));
        }
        prop_assert_eq!(store.len(), store.keys().len());
    }

    /// Put outcomes are consistent: a strictly newer version is Stored, the
    /// same version is Duplicate, an older one is Obsolete.
    #[test]
    fn put_outcomes_follow_version_ordering(v1 in 0u64..100, v2 in 0u64..100) {
        let mut store = MemoryStore::unbounded();
        store.put(&object(0, v1, b"first")).unwrap();
        let outcome = store.put(&object(0, v2, b"second")).unwrap();
        if v2 > v1 {
            prop_assert_eq!(outcome, PutOutcome::Stored);
        } else if v2 == v1 {
            prop_assert_eq!(outcome, PutOutcome::Duplicate);
        } else {
            prop_assert_eq!(outcome, PutOutcome::Obsolete);
        }
    }

    /// Anti-entropy convergence: shipping `objects_newer_than` in both
    /// directions makes two replicas' digests identical.
    #[test]
    fn anti_entropy_exchange_converges_two_replicas(
        puts_a in proptest::collection::vec(arb_put(), 0..64),
        puts_b in proptest::collection::vec(arb_put(), 0..64),
    ) {
        let mut a = MemoryStore::unbounded();
        let mut b = MemoryStore::unbounded();
        for (tag, version, payload) in &puts_a {
            let _ = a.put(&object(*tag, *version, payload));
        }
        for (tag, version, payload) in &puts_b {
            let _ = b.put(&object(*tag, *version, payload));
        }
        // One full bidirectional exchange.
        for o in a.objects_newer_than(&b.digest(), usize::MAX) {
            let _ = b.put(&o);
        }
        for o in b.objects_newer_than(&a.digest(), usize::MAX) {
            let _ = a.put(&o);
        }
        // Digests now agree on every key.
        let da = a.digest();
        let db = b.digest();
        prop_assert_eq!(da.len(), db.len());
        for (key, version) in da.iter() {
            prop_assert_eq!(db.version_of(key), Some(version));
        }
    }

    /// The capacity bound is never violated, and puts to existing keys are
    /// always accepted.
    #[test]
    fn capacity_is_enforced(capacity in 1usize..8, puts in proptest::collection::vec(arb_put(), 0..64)) {
        let mut store = MemoryStore::with_capacity(capacity);
        for (tag, version, payload) in &puts {
            let had_key = store.latest_version(Key::from_user_key(&format!("key-{tag}"))).is_some();
            let result = store.put(&object(*tag, *version, payload));
            if had_key {
                prop_assert!(result.is_ok());
            }
            prop_assert!(store.len() <= capacity);
        }
    }

    /// After `retain_slice`, every remaining key belongs to the retained
    /// slice and nothing belonging to it was dropped.
    #[test]
    fn retain_slice_is_exact(puts in proptest::collection::vec(arb_put(), 0..64), k in 1u32..8, slice in 0u32..8) {
        let partition = SlicePartition::new(k);
        let slice = SliceId::new(slice % k);
        let mut store = MemoryStore::unbounded();
        for (tag, version, payload) in &puts {
            let _ = store.put(&object(*tag, *version, payload));
        }
        let owned_before: Vec<Key> = store
            .keys()
            .into_iter()
            .filter(|key| partition.owns(slice, *key))
            .collect();
        store.retain_slice(partition, slice);
        let mut after = store.keys();
        after.sort();
        let mut expected = owned_before;
        expected.sort();
        prop_assert_eq!(after, expected);
    }

    /// Digest `keys_ahead_of` / `keys_behind` never report a key both ways.
    #[test]
    fn digest_diff_is_antisymmetric(
        entries_a in proptest::collection::vec((0u8..16, 0u64..8), 0..32),
        entries_b in proptest::collection::vec((0u8..16, 0u64..8), 0..32),
    ) {
        let a: StoreDigest = entries_a
            .iter()
            .map(|(t, v)| (Key::from_user_key(&format!("key-{t}")), Version::new(*v)))
            .collect();
        let b: StoreDigest = entries_b
            .iter()
            .map(|(t, v)| (Key::from_user_key(&format!("key-{t}")), Version::new(*v)))
            .collect();
        let ahead = a.keys_ahead_of(&b);
        let behind = a.keys_behind(&b);
        for key in &ahead {
            prop_assert!(!behind.contains(key));
        }
    }
}
