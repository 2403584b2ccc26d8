//! Trait-conformance suite: the same property checks run against every
//! [`DataStore`] implementation.
//!
//! A random operation sequence is applied in lockstep to the implementation
//! under test and to an unbounded [`MemoryStore`] reference; every
//! client-observable behaviour — put outcomes, reads, latest versions,
//! digests, anti-entropy shipping batches and slice-migration drops — must
//! match exactly. The suite is parameterised over [`MemoryStore`] and
//! [`ShardedStore`] (several shard counts, including the degenerate single
//! shard), so any future store backend can be added with one line.

use dataflasks_store::{DataStore, MemoryStore, ShardedStore, StoreDigest};
use dataflasks_types::{Key, KeyRange, SliceId, SlicePartition, StoredObject, Value, Version};
use proptest::prelude::*;
use proptest::test_runner::{Config, TestCaseError, TestRunner};

/// One random store operation.
type Op = (u8, u8, u64, Vec<u8>);

/// Strategy: (op selector, key tag, version, payload).
fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..8,
        0u8..24,
        0u64..6,
        proptest::collection::vec(any::<u8>(), 0..24),
    )
}

fn key_of(tag: u8) -> Key {
    Key::from_user_key(&format!("conf-{tag}"))
}

fn object(tag: u8, version: u64, payload: &[u8]) -> StoredObject {
    StoredObject::new(
        key_of(tag),
        Version::new(version),
        Value::from_bytes(payload),
    )
}

/// Applies one op to a store and renders the observable outcome.
fn apply<S: DataStore>(store: &mut S, op: &Op) -> String {
    let (selector, tag, version, payload) = op;
    match selector {
        // Mostly puts, so the stores accumulate state to observe.
        0..=3 => format!("put:{:?}", store.put(&object(*tag, *version, payload))),
        4 => format!(
            "get:{:?}",
            store.get(key_of(*tag), Some(Version::new(*version)))
        ),
        5 => format!("get_latest:{:?}", store.get_latest(key_of(*tag))),
        6 => format!("latest_version:{:?}", store.latest_version(key_of(*tag))),
        _ => {
            // A slice migration: drop every key outside a slice derived from
            // the op, exactly like a node handing its old range over.
            let partition = SlicePartition::new(u32::from(*tag % 5) + 1);
            let slice = SliceId::new(*version as u32 % partition.slice_count());
            format!("retain:{}", store.retain_slice(partition, slice))
        }
    }
}

/// Runs `ops` against the store under test and the reference, comparing every
/// outcome and the final observable state.
fn check_conformance<S: DataStore>(
    label: &str,
    store: &mut S,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut reference = MemoryStore::unbounded();
    for (step, op) in ops.iter().enumerate() {
        let got = apply(store, op);
        let expected = apply(&mut reference, op);
        if got != expected {
            return Err(TestCaseError::Fail(format!(
                "{label}: step {step} ({op:?}) diverged: {got} != {expected}"
            )));
        }
    }
    // Final state: size, key set, per-key latest versions and history reads.
    if store.len() != reference.len() {
        return Err(TestCaseError::Fail(format!(
            "{label}: len {} != {}",
            store.len(),
            reference.len()
        )));
    }
    let mut got_keys = store.keys();
    let mut expected_keys = reference.keys();
    got_keys.sort();
    expected_keys.sort();
    if got_keys != expected_keys {
        return Err(TestCaseError::Fail(format!("{label}: key sets diverged")));
    }
    for key in &expected_keys {
        if store.latest_version(*key) != reference.latest_version(*key) {
            return Err(TestCaseError::Fail(format!(
                "{label}: latest_version({key}) diverged"
            )));
        }
        if store.contains_at_least(*key, Version::new(3))
            != reference.contains_at_least(*key, Version::new(3))
        {
            return Err(TestCaseError::Fail(format!(
                "{label}: contains_at_least({key}) diverged"
            )));
        }
    }
    // Anti-entropy surface: digests agree, and the shipped batches against
    // an arbitrary remote digest are identical (same objects, same sorted
    // order, same truncation).
    if store.digest() != reference.digest() {
        return Err(TestCaseError::Fail(format!("{label}: digests diverged")));
    }
    let remote: StoreDigest = expected_keys
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, &k)| (k, Version::new(2)))
        .collect();
    for limit in [0usize, 1, 5, usize::MAX] {
        if store.objects_newer_than(&remote, limit) != reference.objects_newer_than(&remote, limit)
        {
            return Err(TestCaseError::Fail(format!(
                "{label}: shipping batch diverged at limit {limit}"
            )));
        }
    }
    // Incremental anti-entropy surface: range-scoped digests and shipping
    // batches agree for shard-aligned chunks, misaligned chunks and the full
    // range (the sharded store's cached-digest fast path must be exact).
    let mut probe_ranges = vec![KeyRange::FULL];
    let aligned = SlicePartition::new(8);
    let misaligned = SlicePartition::new(5);
    for partition in [aligned, misaligned] {
        for index in 0..partition.slice_count() {
            probe_ranges.push(partition.range_of(SliceId::new(index)));
        }
    }
    for range in probe_ranges {
        if store.range_digest(range) != reference.range_digest(range) {
            return Err(TestCaseError::Fail(format!(
                "{label}: range digest diverged for {range}"
            )));
        }
        for limit in [0usize, 1, 3, usize::MAX] {
            if store.objects_newer_than_in(&remote, range, limit)
                != reference.objects_newer_than_in(&remote, range, limit)
            {
                return Err(TestCaseError::Fail(format!(
                    "{label}: range shipping batch diverged for {range} at limit {limit}"
                )));
            }
        }
    }
    Ok(())
}

fn runner(cases: u32) -> TestRunner {
    TestRunner::new(Config {
        cases,
        ..Config::default()
    })
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(arb_op(), 0..96)
}

#[test]
fn memory_store_conforms() {
    runner(48)
        .run(&ops_strategy(), |ops| {
            check_conformance("MemoryStore", &mut MemoryStore::unbounded(), &ops)
        })
        .unwrap();
}

#[test]
fn sharded_store_conforms_across_shard_counts() {
    for shards in [1u32, 2, 3, 8, 64] {
        runner(24)
            .run(&ops_strategy(), |ops| {
                check_conformance(
                    &format!("ShardedStore({shards})"),
                    &mut ShardedStore::<MemoryStore>::new(shards),
                    &ops,
                )
            })
            .unwrap();
    }
}

/// Regression: `retain_slice` at exact shard/slice boundaries. Shard ranges
/// and slice ranges generally do not align (6 shards vs 4 slices); keys
/// planted precisely on every slice's first and last position must survive
/// or be dropped exactly as the partition dictates, for every shard count.
#[test]
fn retain_slice_is_exact_at_shard_boundaries() {
    for slice_count in [1u32, 2, 4, 5] {
        let partition = SlicePartition::new(slice_count);
        for shard_count in [1u32, 2, 3, 6, 16] {
            for retained in 0..slice_count {
                let retained = SliceId::new(retained);
                let mut store: ShardedStore = ShardedStore::new(shard_count);
                let mut expected_kept = 0;
                let mut planted = 0;
                for s in 0..slice_count {
                    let slice = SliceId::new(s);
                    for key in [partition.range_start(slice), partition.range_end(slice)] {
                        let object = StoredObject::new(key, Version::new(1), Value::default());
                        if store.put(&object).unwrap().changed() {
                            planted += 1;
                            if slice == retained {
                                expected_kept += 1;
                            }
                        }
                    }
                }
                let removed = store.retain_slice(partition, retained);
                assert_eq!(
                    store.len(),
                    expected_kept,
                    "k={slice_count} shards={shard_count} slice={retained}"
                );
                assert_eq!(removed, planted - expected_kept);
                for key in store.keys() {
                    assert!(partition.owns(retained, key));
                }
                // The digest cache survived the boundary surgery.
                assert_eq!(store.digest().len(), store.len());
                // Idempotence: a second migration to the same slice is free.
                assert_eq!(store.retain_slice(partition, retained), 0);
            }
        }
    }
}
