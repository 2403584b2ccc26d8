//! A key-range sharded store.
//!
//! Anti-entropy and slice-repair traffic dominate the steady-state cost of a
//! large replica: every exchange walks the whole store to build a digest, to
//! diff against a remote digest, or to drop keys after a slice migration. The
//! [`ShardedStore`] splits the 64-bit key space into `N` contiguous key-range
//! shards — each backed by any inner [`DataStore`] — so those scans touch
//! only the shards that can contain affected keys:
//!
//! * [`DataStore::digest`] merges *cached* per-shard digests (maintained
//!   incrementally on every effective put) instead of re-walking the key
//!   maps,
//! * [`DataStore::objects_newer_than`] visits shards in ascending key order
//!   and stops as soon as the shipping limit is reached,
//! * [`DataStore::retain_slice`] classifies each shard against the retained
//!   slice range: shards entirely inside it are skipped, shards entirely
//!   outside are dropped wholesale, and only the (at most two) boundary
//!   shards are scanned key by key.
//!
//! Because shards are contiguous key ranges and every public operation
//! preserves the inner store's semantics, a `ShardedStore<MemoryStore>` is
//! observationally identical to a single [`MemoryStore`] — including the
//! sorted, truncated batches `objects_newer_than` ships — which is what lets
//! it slot in as the default node store behind the unchanged [`DataStore`]
//! trait.

use dataflasks_types::{Key, KeyRange, SliceId, SlicePartition, StoredObject, Version};

use crate::digest::StoreDigest;
use crate::error::StoreError;
use crate::memory::MemoryStore;
use crate::traits::{DataStore, PutOutcome};

/// Default number of key-range shards — the same value as the
/// `NodeConfig::store_shards` configuration knob, so `ShardedStore::default()`
/// and spec-materialised nodes can never drift apart.
pub const DEFAULT_SHARD_COUNT: u32 = dataflasks_types::DEFAULT_STORE_SHARDS;

/// A [`DataStore`] that splits the key space across `N` key-range shards.
///
/// The shard map reuses [`SlicePartition`]'s contiguous-range arithmetic
/// (shard `i` owns the `i`-th of `N` equal key ranges), so shard membership
/// is a pure function of the key and range-overlap tests against slice
/// ranges are exact.
///
/// # Example
///
/// ```
/// use dataflasks_store::{DataStore, ShardedStore};
/// use dataflasks_types::{Key, StoredObject, Value, Version};
///
/// let mut store: ShardedStore = ShardedStore::new(8);
/// let key = Key::from_user_key("user:1");
/// store
///     .put(&StoredObject::new(key, Version::new(1), Value::from_bytes(b"v1")))
///     .unwrap();
/// assert_eq!(store.get_latest(key).unwrap().value.as_slice(), b"v1");
/// assert_eq!(store.shard_count(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedStore<S = MemoryStore> {
    /// The key-range map: shard `i` owns the range of "slice" `i` of this
    /// `N`-way partition (unrelated to the system's slice partition).
    shard_map: SlicePartition,
    shards: Vec<S>,
    /// Cached per-shard `key → latest version` summaries, kept in lockstep
    /// with the shards by [`DataStore::put`] and [`DataStore::retain_slice`].
    digests: Vec<StoreDigest>,
}

impl<S: DataStore + Default> ShardedStore<S> {
    /// Creates a store with `shard_count` key-range shards (at least 1),
    /// each backed by `S::default()` — an unbounded [`MemoryStore`] for the
    /// default node store.
    #[must_use]
    pub fn new(shard_count: u32) -> Self {
        let shard_count = shard_count.max(1);
        Self {
            shard_map: SlicePartition::new(shard_count),
            shards: (0..shard_count).map(|_| S::default()).collect(),
            digests: (0..shard_count).map(|_| StoreDigest::new()).collect(),
        }
    }

    /// Number of key-range shards.
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.shard_map.slice_count()
    }

    fn shard_index(&self, key: Key) -> usize {
        self.shard_map.slice_of(key).index() as usize
    }

    /// The key range shard `index` owns.
    fn shard_range(&self, index: usize) -> KeyRange {
        self.shard_map.range_of(SliceId::new(index as u32))
    }
}

impl<S: DataStore + Default> Default for ShardedStore<S> {
    fn default() -> Self {
        Self::new(DEFAULT_SHARD_COUNT)
    }
}

impl<S: DataStore + Default> DataStore for ShardedStore<S> {
    fn put(&mut self, object: &StoredObject) -> Result<PutOutcome, StoreError> {
        let index = self.shard_index(object.key);
        let outcome = self.shards[index].put(object)?;
        if outcome.changed() {
            // `Stored` means the object became the latest version of its key,
            // so raising the cached shard digest keeps it exact.
            self.digests[index].record(object.key, object.version);
        }
        Ok(outcome)
    }

    fn get(&self, key: Key, version: Option<Version>) -> Option<StoredObject> {
        self.shards[self.shard_index(key)].get(key, version)
    }

    fn latest_version(&self, key: Key) -> Option<Version> {
        self.shards[self.shard_index(key)].latest_version(key)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(DataStore::len).sum()
    }

    fn keys(&self) -> Vec<Key> {
        let mut keys = Vec::with_capacity(self.len());
        for shard in &self.shards {
            keys.extend(shard.keys());
        }
        keys
    }

    fn digest(&self) -> StoreDigest {
        // Shards own disjoint key ranges, so the merge is a plain union of
        // the cached summaries — no per-key version comparison, no walk of
        // the shards' key maps.
        let mut merged =
            StoreDigest::with_capacity(self.digests.iter().map(StoreDigest::len).sum());
        for digest in &self.digests {
            merged.merge_disjoint(digest);
        }
        merged
    }

    fn range_digest(&self, range: KeyRange) -> StoreDigest {
        // Shards fully inside the range contribute their cached digest
        // verbatim (the incremental-anti-entropy fast path: a range that *is*
        // a shard range costs one clone of the cached summary); only the at
        // most two boundary shards are filtered key by key.
        let mut merged = StoreDigest::new();
        for (index, digest) in self.digests.iter().enumerate() {
            let shard_range = self.shard_range(index);
            if !range.overlaps(&shard_range) {
                continue;
            }
            if range.contains_range(&shard_range) {
                merged.merge_disjoint(digest);
            } else {
                merged.extend(digest.iter().filter(|&(key, _)| range.contains(key)));
            }
        }
        merged
    }

    fn objects_newer_than(&self, remote: &StoreDigest, limit: usize) -> Vec<StoredObject> {
        // Shard 0 owns the lowest key range, so visiting shards in order and
        // chaining per-shard (sorted) batches yields exactly the globally
        // sorted, limit-truncated batch an unsharded store ships — while
        // shards past the limit are never scanned at all.
        let mut shipped = Vec::new();
        for shard in &self.shards {
            let remaining = limit - shipped.len();
            if remaining == 0 {
                break;
            }
            shipped.extend(shard.objects_newer_than(remote, remaining));
        }
        shipped
    }

    fn objects_newer_than_in(
        &self,
        remote: &StoreDigest,
        range: KeyRange,
        limit: usize,
    ) -> Vec<StoredObject> {
        // Shards are visited in ascending key order, so chaining per-shard
        // sorted batches yields the globally sorted, limit-truncated batch of
        // the range; shards outside the range (and past the limit) are never
        // scanned.
        let mut shipped = Vec::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let remaining = limit - shipped.len();
            if remaining == 0 {
                break;
            }
            let shard_range = self.shard_range(index);
            if !range.overlaps(&shard_range) {
                continue;
            }
            if range.contains_range(&shard_range) {
                shipped.extend(shard.objects_newer_than(remote, remaining));
            } else {
                shipped.extend(shard.objects_newer_than_in(remote, range, remaining));
            }
        }
        shipped
    }

    fn retain_slice(&mut self, partition: SlicePartition, slice: SliceId) -> usize {
        let keep_lo = partition.range_start(slice).as_u64();
        let keep_hi = partition.range_end(slice).as_u64();
        let mut removed = 0;
        for index in 0..self.shards.len() {
            let shard_slice = SliceId::new(index as u32);
            let shard_lo = self.shard_map.range_start(shard_slice).as_u64();
            let shard_hi = self.shard_map.range_end(shard_slice).as_u64();
            if shard_lo >= keep_lo && shard_hi <= keep_hi {
                // Entirely inside the retained range: nothing to drop, and —
                // the common steady-state case — nothing to scan.
                continue;
            }
            if shard_hi < keep_lo || shard_lo > keep_hi {
                // Entirely outside: the whole shard is handed over, in O(1).
                let dropped = self.shards[index].len();
                if dropped > 0 {
                    self.shards[index] = S::default();
                    self.digests[index] = StoreDigest::new();
                    removed += dropped;
                }
                continue;
            }
            // A boundary shard: scan it key by key like an unsharded store.
            let dropped = self.shards[index].retain_slice(partition, slice);
            if dropped > 0 {
                self.digests[index] = self.shards[index].digest();
            }
            removed += dropped;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_types::Value;

    fn object(name: &str, version: u64) -> StoredObject {
        StoredObject::new(
            Key::from_user_key(name),
            Version::new(version),
            Value::from_bytes(format!("{name}:{version}").as_bytes()),
        )
    }

    /// A store populated with `count` keys spread over the whole key space.
    fn populated(shards: u32, count: u64) -> ShardedStore {
        let mut store = ShardedStore::new(shards);
        for i in 0..count {
            store.put(&object(&format!("key{i}"), 1)).unwrap();
        }
        store
    }

    #[test]
    fn routing_spreads_keys_over_shards() {
        let store = populated(8, 256);
        assert_eq!(store.len(), 256);
        assert_eq!(store.shard_count(), 8);
        let lens: Vec<usize> = store.shards.iter().map(DataStore::len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 256);
        assert!(
            lens.iter().filter(|&&l| l > 0).count() >= 4,
            "random keys should populate most shards, got {lens:?}"
        );
        // Every key is served by the shard the router names.
        for key in store.keys() {
            assert!(store.shards[store.shard_index(key)]
                .get_latest(key)
                .is_some());
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store: ShardedStore = ShardedStore::new(0);
        assert_eq!(store.shard_count(), 1);
    }

    #[test]
    fn put_outcomes_match_the_inner_store() {
        let mut store: ShardedStore = ShardedStore::new(4);
        assert_eq!(store.put(&object("a", 5)).unwrap(), PutOutcome::Stored);
        assert_eq!(store.put(&object("a", 5)).unwrap(), PutOutcome::Duplicate);
        assert_eq!(store.put(&object("a", 3)).unwrap(), PutOutcome::Obsolete);
        assert_eq!(
            store.latest_version(Key::from_user_key("a")),
            Some(Version::new(5))
        );
        // The obsolete version went to the shard's history.
        assert!(store
            .get(Key::from_user_key("a"), Some(Version::new(3)))
            .is_some());
    }

    #[test]
    fn cached_digest_matches_a_fresh_walk() {
        let mut store = populated(8, 128);
        // Overwrites and stale puts keep the cache exact.
        store.put(&object("key3", 9)).unwrap();
        store.put(&object("key5", 0)).unwrap();
        let cached = store.digest();
        let walked: StoreDigest = store
            .shards
            .iter()
            .flat_map(|s| s.digest().iter().collect::<Vec<_>>())
            .collect();
        assert_eq!(cached, walked);
        assert_eq!(cached.len(), 128);
        assert_eq!(
            cached.version_of(Key::from_user_key("key3")),
            Some(Version::new(9))
        );
    }

    #[test]
    fn behaves_like_an_unsharded_memory_store() {
        let mut sharded: ShardedStore = ShardedStore::new(7);
        let mut flat = MemoryStore::unbounded();
        for i in 0..200u64 {
            let o = object(&format!("k{}", i % 50), i % 6);
            assert_eq!(sharded.put(&o).unwrap(), flat.put(&o).unwrap());
        }
        assert_eq!(sharded.len(), flat.len());
        let mut a = sharded.keys();
        let mut b = flat.keys();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(sharded.digest(), flat.digest());
        // Identical shipping batches, including the sorted truncation.
        let mut remote = MemoryStore::unbounded();
        for i in 0..20u64 {
            remote.put(&object(&format!("k{i}"), 9)).unwrap();
        }
        for limit in [0, 1, 7, 1000] {
            assert_eq!(
                sharded.objects_newer_than(&remote.digest(), limit),
                flat.objects_newer_than(&remote.digest(), limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn objects_newer_than_stops_at_the_limit() {
        let store = populated(8, 64);
        let empty = StoreDigest::new();
        let batch = store.objects_newer_than(&empty, 10);
        assert_eq!(batch.len(), 10);
        // Globally sorted by key.
        for window in batch.windows(2) {
            assert!(window[0].key < window[1].key);
        }
        assert!(store.objects_newer_than(&empty, 0).is_empty());
        assert_eq!(store.objects_newer_than(&empty, 1000).len(), 64);
    }

    #[test]
    fn retain_slice_matches_the_unsharded_result() {
        for shards in [1u32, 3, 4, 16] {
            let mut sharded: ShardedStore = ShardedStore::new(shards);
            let mut flat = MemoryStore::unbounded();
            for i in 0..128u64 {
                let o = object(&format!("k{i}"), 1);
                sharded.put(&o).unwrap();
                flat.put(&o).unwrap();
            }
            let partition = SlicePartition::new(4);
            let slice = SliceId::new(2);
            assert_eq!(
                sharded.retain_slice(partition, slice),
                flat.retain_slice(partition, slice),
                "{shards} shards"
            );
            let mut a = sharded.keys();
            let mut b = flat.keys();
            a.sort();
            b.sort();
            assert_eq!(a, b);
            assert_eq!(sharded.digest(), flat.digest());
        }
    }

    #[test]
    fn retain_slice_after_migration_is_idempotent_and_cheap() {
        let mut store = populated(16, 256);
        let partition = SlicePartition::new(4);
        let slice = SliceId::new(1);
        let removed = store.retain_slice(partition, slice);
        assert!(removed > 0);
        let len = store.len();
        // A second call finds the fully-inside shards untouched.
        assert_eq!(store.retain_slice(partition, slice), 0);
        assert_eq!(store.len(), len);
    }

    #[test]
    fn range_digest_matches_a_filtered_full_digest() {
        let store = populated(8, 200);
        let full = store.digest();
        // Shard-aligned chunks (the cached-digest fast path) and misaligned
        // chunks (boundary filtering) both match a brute-force filter.
        for chunks in [8u32, 3] {
            let partition = SlicePartition::new(chunks);
            let mut union = StoreDigest::new();
            for index in 0..chunks {
                let range = partition.range_of(SliceId::new(index));
                let scoped = store.range_digest(range);
                let filtered: StoreDigest = full
                    .iter()
                    .filter(|&(key, _)| range.contains(key))
                    .collect();
                assert_eq!(scoped, filtered, "{chunks} chunks, chunk {index}");
                union.merge_disjoint(&scoped);
            }
            assert_eq!(union, full, "{chunks} chunks must tile the digest");
        }
    }

    #[test]
    fn range_scoped_shipping_matches_the_flat_store() {
        let mut sharded: ShardedStore = ShardedStore::new(8);
        let mut flat = MemoryStore::unbounded();
        for i in 0..160u64 {
            let o = object(&format!("rk{i}"), i % 4 + 1);
            sharded.put(&o).unwrap();
            flat.put(&o).unwrap();
        }
        let mut remote = MemoryStore::unbounded();
        for i in 0..40u64 {
            remote.put(&object(&format!("rk{i}"), 9)).unwrap();
        }
        let remote = remote.digest();
        for chunks in [8u32, 5] {
            let partition = SlicePartition::new(chunks);
            for index in 0..chunks {
                let range = partition.range_of(SliceId::new(index));
                for limit in [0usize, 1, 7, 1000] {
                    assert_eq!(
                        sharded.objects_newer_than_in(&remote, range, limit),
                        flat.objects_newer_than_in(&remote, range, limit),
                        "{chunks} chunks, chunk {index}, limit {limit}"
                    );
                }
            }
        }
        // The full range degenerates to the unscoped batch.
        assert_eq!(
            sharded.objects_newer_than_in(&remote, KeyRange::FULL, 64),
            sharded.objects_newer_than(&remote, 64)
        );
    }
}
