//! The in-memory versioned store.

use std::collections::{BTreeMap, HashMap};

use dataflasks_types::{Key, SliceId, SlicePartition, StoredObject, Value, Version};

use crate::digest::StoreDigest;
use crate::error::StoreError;
use crate::traits::{DataStore, PutOutcome};

/// Number of versions retained per key, the latest included.
const DEFAULT_HISTORY: usize = 4;

/// An in-memory versioned object store.
///
/// For every key the store keeps the latest version plus a bounded history of
/// earlier versions (so that versioned reads issued by the upper layer can be
/// served), and optionally enforces a capacity expressed in distinct keys —
/// the "storage capacity" attribute the slicing protocol partitions the
/// system by.
///
/// # Example
///
/// ```
/// use dataflasks_store::{DataStore, MemoryStore};
/// use dataflasks_types::{Key, StoredObject, Value, Version};
///
/// let mut store = MemoryStore::with_capacity(100);
/// let key = Key::from_user_key("a");
/// store.put(&StoredObject::new(key, Version::new(1), Value::from_bytes(b"1"))).unwrap();
/// store.put(&StoredObject::new(key, Version::new(2), Value::from_bytes(b"2"))).unwrap();
/// assert_eq!(store.get(key, Some(Version::new(1))).unwrap().value.as_slice(), b"1");
/// assert_eq!(store.get_latest(key).unwrap().version, Version::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct MemoryStore {
    /// Per key: version → value, bounded to [`DEFAULT_HISTORY`] entries.
    objects: HashMap<Key, BTreeMap<Version, Value>>,
    capacity_keys: usize,
    puts_applied: u64,
    puts_ignored: u64,
}

impl MemoryStore {
    /// Creates a store with no capacity bound.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a store bounded to `capacity_keys` distinct keys
    /// (`0` means unbounded).
    #[must_use]
    pub fn with_capacity(capacity_keys: usize) -> Self {
        Self {
            objects: HashMap::new(),
            capacity_keys,
            puts_applied: 0,
            puts_ignored: 0,
        }
    }

    /// The configured capacity in distinct keys (`0` = unbounded).
    #[must_use]
    pub fn capacity_keys(&self) -> usize {
        self.capacity_keys
    }

    /// Number of puts that changed the store.
    #[must_use]
    pub fn puts_applied(&self) -> u64 {
        self.puts_applied
    }

    /// Number of puts absorbed as duplicates or obsolete versions.
    #[must_use]
    pub fn puts_ignored(&self) -> u64 {
        self.puts_ignored
    }
}

impl Default for MemoryStore {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl DataStore for MemoryStore {
    fn put(&mut self, object: &StoredObject) -> Result<PutOutcome, StoreError> {
        let is_new_key = !self.objects.contains_key(&object.key);
        if is_new_key && self.capacity_keys > 0 && self.objects.len() >= self.capacity_keys {
            return Err(StoreError::CapacityExceeded {
                capacity: self.capacity_keys,
            });
        }
        let versions = self.objects.entry(object.key).or_default();
        let outcome = match versions.keys().next_back().copied() {
            Some(latest) if latest > object.version => {
                // Keep it in the history if there is room and it is new; the
                // outcome is still Obsolete because the latest value did not
                // change.
                if !versions.contains_key(&object.version) && versions.len() < DEFAULT_HISTORY {
                    versions.insert(object.version, object.value.clone());
                }
                PutOutcome::Obsolete
            }
            Some(latest) if latest == object.version => PutOutcome::Duplicate,
            _ => {
                versions.insert(object.version, object.value.clone());
                while versions.len() > DEFAULT_HISTORY {
                    let oldest = *versions.keys().next().expect("non-empty history");
                    versions.remove(&oldest);
                }
                PutOutcome::Stored
            }
        };
        if outcome.changed() {
            self.puts_applied += 1;
        } else {
            self.puts_ignored += 1;
        }
        Ok(outcome)
    }

    fn get(&self, key: Key, version: Option<Version>) -> Option<StoredObject> {
        let versions = self.objects.get(&key)?;
        match version {
            Some(requested) => versions
                .get(&requested)
                .map(|value| StoredObject::new(key, requested, value.clone())),
            None => versions
                .iter()
                .next_back()
                .map(|(&v, value)| StoredObject::new(key, v, value.clone())),
        }
    }

    fn latest_version(&self, key: Key) -> Option<Version> {
        self.objects
            .get(&key)
            .and_then(|versions| versions.keys().next_back().copied())
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    fn keys(&self) -> Vec<Key> {
        self.objects.keys().copied().collect()
    }

    fn digest(&self) -> StoreDigest {
        self.objects
            .iter()
            .filter_map(|(&key, versions)| {
                versions.keys().next_back().map(|&version| (key, version))
            })
            .collect()
    }

    fn objects_newer_than(&self, remote: &StoreDigest, limit: usize) -> Vec<StoredObject> {
        // HashMap iteration order is random per process; truncating a sorted
        // candidate list keeps the shipped subset identical across seeded
        // runs. Values are cloned only for the objects that survive the cut.
        let mut newer: Vec<(Key, Version)> = self
            .objects
            .iter()
            .filter_map(|(&key, versions)| {
                let (&version, _) = versions.iter().next_back()?;
                let remote_version = remote.version_of(key);
                (remote_version.is_none() || remote_version < Some(version))
                    .then_some((key, version))
            })
            .collect();
        newer.sort_unstable();
        newer.truncate(limit);
        newer
            .into_iter()
            .filter_map(|(key, version)| {
                let value = self.objects.get(&key)?.get(&version)?;
                Some(StoredObject::new(key, version, value.clone()))
            })
            .collect()
    }

    fn retain_slice(&mut self, partition: SlicePartition, slice: SliceId) -> usize {
        let before = self.objects.len();
        self.objects.retain(|key, _| partition.owns(slice, *key));
        before - self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(name: &str, version: u64) -> StoredObject {
        StoredObject::new(
            Key::from_user_key(name),
            Version::new(version),
            Value::from_bytes(format!("{name}:{version}").as_bytes()),
        )
    }

    #[test]
    fn put_and_get_roundtrip() {
        let mut store = MemoryStore::unbounded();
        assert_eq!(store.put(&object("a", 1)).unwrap(), PutOutcome::Stored);
        let read = store.get_latest(Key::from_user_key("a")).unwrap();
        assert_eq!(read.version, Version::new(1));
        assert_eq!(read.value.as_slice(), b"a:1");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn duplicate_and_obsolete_puts_are_absorbed() {
        let mut store = MemoryStore::unbounded();
        store.put(&object("a", 5)).unwrap();
        assert_eq!(store.put(&object("a", 5)).unwrap(), PutOutcome::Duplicate);
        assert_eq!(store.put(&object("a", 3)).unwrap(), PutOutcome::Obsolete);
        assert_eq!(
            store.latest_version(Key::from_user_key("a")),
            Some(Version::new(5))
        );
        assert_eq!(store.puts_applied(), 1);
        assert_eq!(store.puts_ignored(), 2);
        // The obsolete version is still readable from the history.
        assert!(store
            .get(Key::from_user_key("a"), Some(Version::new(3)))
            .is_some());
    }

    #[test]
    fn versioned_reads_hit_the_history() {
        let mut store = MemoryStore::unbounded();
        for v in 1..=3u64 {
            store.put(&object("a", v)).unwrap();
        }
        for v in 1..=3u64 {
            let read = store
                .get(Key::from_user_key("a"), Some(Version::new(v)))
                .unwrap();
            assert_eq!(read.value.as_slice(), format!("a:{v}").as_bytes());
        }
        assert_eq!(
            store.get(Key::from_user_key("a"), Some(Version::new(9))),
            None
        );
    }

    #[test]
    fn history_is_bounded_and_keeps_the_newest_versions() {
        let mut store = MemoryStore::unbounded();
        let newest = DEFAULT_HISTORY as u64 + 2;
        for v in 1..=newest {
            store.put(&object("a", v)).unwrap();
        }
        // The DEFAULT_HISTORY newest versions are readable, the older ones
        // were dropped.
        for v in 1..=newest {
            let kept = v > newest - DEFAULT_HISTORY as u64;
            let read = store.get(Key::from_user_key("a"), Some(Version::new(v)));
            assert_eq!(read.is_some(), kept, "version {v}");
        }
    }

    #[test]
    fn capacity_rejects_new_keys_but_accepts_updates() {
        let mut store = MemoryStore::with_capacity(2);
        store.put(&object("a", 1)).unwrap();
        store.put(&object("b", 1)).unwrap();
        let err = store.put(&object("c", 1)).unwrap_err();
        assert!(matches!(err, StoreError::CapacityExceeded { capacity: 2 }));
        // Updating an existing key still works at capacity.
        assert_eq!(store.put(&object("a", 2)).unwrap(), PutOutcome::Stored);
        assert_eq!(store.capacity_keys(), 2);
    }

    #[test]
    fn contains_at_least_checks_versions() {
        let mut store = MemoryStore::unbounded();
        store.put(&object("a", 3)).unwrap();
        assert!(store.contains_at_least(Key::from_user_key("a"), Version::new(2)));
        assert!(store.contains_at_least(Key::from_user_key("a"), Version::new(3)));
        assert!(!store.contains_at_least(Key::from_user_key("a"), Version::new(4)));
        assert!(!store.contains_at_least(Key::from_user_key("zzz"), Version::new(1)));
    }

    #[test]
    fn digest_reflects_latest_versions() {
        let mut store = MemoryStore::unbounded();
        store.put(&object("a", 1)).unwrap();
        store.put(&object("a", 4)).unwrap();
        store.put(&object("b", 2)).unwrap();
        let digest = store.digest();
        assert_eq!(
            digest.version_of(Key::from_user_key("a")),
            Some(Version::new(4))
        );
        assert_eq!(
            digest.version_of(Key::from_user_key("b")),
            Some(Version::new(2))
        );
        assert_eq!(digest.len(), 2);
    }

    #[test]
    fn objects_newer_than_ships_missing_and_stale_keys() {
        let mut ours = MemoryStore::unbounded();
        ours.put(&object("a", 3)).unwrap();
        ours.put(&object("b", 1)).unwrap();
        ours.put(&object("c", 2)).unwrap();
        let mut theirs = MemoryStore::unbounded();
        theirs.put(&object("a", 3)).unwrap(); // up to date
        theirs.put(&object("b", 0)).unwrap(); // stale
                                              // c missing entirely
        let to_ship = ours.objects_newer_than(&theirs.digest(), 10);
        let keys: Vec<Key> = to_ship.iter().map(|o| o.key).collect();
        assert_eq!(to_ship.len(), 2);
        assert!(keys.contains(&Key::from_user_key("b")));
        assert!(keys.contains(&Key::from_user_key("c")));
        // The limit is respected.
        assert_eq!(ours.objects_newer_than(&theirs.digest(), 1).len(), 1);
    }

    #[test]
    fn retain_slice_drops_foreign_keys() {
        let partition = SlicePartition::new(4);
        let mut store = MemoryStore::unbounded();
        for i in 0..64u64 {
            store.put(&object(&format!("key{i}"), 1)).unwrap();
        }
        let slice = SliceId::new(2);
        let removed = store.retain_slice(partition, slice);
        assert!(removed > 0);
        assert!(store.len() > 0, "slice 2 should own some of 64 random keys");
        for key in store.keys() {
            assert_eq!(partition.slice_of(key), slice);
        }
        assert_eq!(removed + store.len(), 64);
    }

    #[test]
    fn keys_lists_every_stored_key() {
        let mut store = MemoryStore::unbounded();
        store.put(&object("a", 1)).unwrap();
        store.put(&object("b", 1)).unwrap();
        let mut keys = store.keys();
        keys.sort();
        let mut expected = vec![Key::from_user_key("a"), Key::from_user_key("b")];
        expected.sort();
        assert_eq!(keys, expected);
    }
}
