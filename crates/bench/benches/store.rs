//! Micro-benchmarks of the data-store substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dataflasks::prelude::*;

fn bench_memory_store_put_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/memory");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for value_size in [64usize, 1024] {
        group.bench_with_input(
            BenchmarkId::new("put", value_size),
            &value_size,
            |b, &value_size| {
                let mut store = MemoryStore::unbounded();
                let value = Value::filled(value_size, 0x5A);
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    store
                        .put(&StoredObject::new(
                            Key::from_raw(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                            Version::new(1),
                            value.clone(),
                        ))
                        .unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("get", value_size),
            &value_size,
            |b, &value_size| {
                let mut store = MemoryStore::unbounded();
                let keys: Vec<Key> = (0..10_000u64)
                    .map(|i| Key::from_raw(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                    .collect();
                for &key in &keys {
                    store
                        .put(&StoredObject::new(
                            key,
                            Version::new(1),
                            Value::filled(value_size, 1),
                        ))
                        .unwrap();
                }
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % keys.len();
                    store.get_latest(keys[i])
                });
            },
        );
    }
    group.finish();
}

fn bench_anti_entropy_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/anti_entropy");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for keys in [1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("digest", keys), &keys, |b, &keys| {
            let mut store = MemoryStore::unbounded();
            for i in 0..keys as u64 {
                store
                    .put(&StoredObject::new(
                        Key::from_raw(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        Version::new(1),
                        Value::filled(32, 2),
                    ))
                    .unwrap();
            }
            b.iter(|| store.digest());
        });
        group.bench_with_input(
            BenchmarkId::new("diff_and_ship", keys),
            &keys,
            |b, &keys| {
                let mut ours = MemoryStore::unbounded();
                let mut theirs = MemoryStore::unbounded();
                for i in 0..keys as u64 {
                    let key = Key::from_raw(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    ours.put(&StoredObject::new(
                        key,
                        Version::new(2),
                        Value::filled(32, 2),
                    ))
                    .unwrap();
                    if i % 10 != 0 {
                        theirs
                            .put(&StoredObject::new(
                                key,
                                Version::new(2),
                                Value::filled(32, 2),
                            ))
                            .unwrap();
                    }
                }
                let remote = theirs.digest();
                b.iter(|| ours.objects_newer_than(&remote, 256));
            },
        );
    }
    group.finish();
}

/// Builds a flat store and a sharded store with identical contents: `keys`
/// objects spread uniformly over the whole key space.
fn paired_stores(keys: usize, shards: u32) -> (MemoryStore, ShardedStore) {
    let mut flat = MemoryStore::unbounded();
    let mut sharded = ShardedStore::new(shards);
    for i in 0..keys as u64 {
        let object = StoredObject::new(
            Key::from_raw(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            Version::new(1),
            Value::filled(32, 2),
        );
        flat.put(&object).unwrap();
        sharded.put(&object).unwrap();
    }
    (flat, sharded)
}

/// Sharded vs unsharded scans: the anti-entropy digest, the bounded
/// shipping diff (early exit at the limit) and the steady-state
/// `retain_slice` (shards wholly inside the retained range are skipped).
fn bench_sharded_vs_unsharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/sharded");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for keys in [1_000usize, 10_000, 50_000] {
        let (flat, sharded) = paired_stores(keys, 16);
        group.bench_with_input(BenchmarkId::new("digest_flat", keys), &keys, |b, _| {
            b.iter(|| flat.digest())
        });
        group.bench_with_input(BenchmarkId::new("digest_sharded", keys), &keys, |b, _| {
            b.iter(|| sharded.digest())
        });
        // A stale remote digest: the initiator ships at most 256 objects.
        let remote = StoreDigest::new();
        group.bench_with_input(BenchmarkId::new("ship256_flat", keys), &keys, |b, _| {
            b.iter(|| flat.objects_newer_than(&remote, 256))
        });
        group.bench_with_input(BenchmarkId::new("ship256_sharded", keys), &keys, |b, _| {
            b.iter(|| sharded.objects_newer_than(&remote, 256))
        });
        // Steady-state slice scan: the node already migrated, so nothing is
        // dropped — the flat store still walks every key, the sharded store
        // skips every shard inside the slice range.
        let partition = SlicePartition::new(4);
        let slice = SliceId::new(1);
        let (mut flat_retained, mut sharded_retained) = paired_stores(keys, 16);
        flat_retained.retain_slice(partition, slice);
        sharded_retained.retain_slice(partition, slice);
        group.bench_with_input(BenchmarkId::new("retain_flat", keys), &keys, |b, _| {
            b.iter(|| flat_retained.retain_slice(partition, slice))
        });
        group.bench_with_input(BenchmarkId::new("retain_sharded", keys), &keys, |b, _| {
            b.iter(|| sharded_retained.retain_slice(partition, slice))
        });
    }
    group.finish();
}

criterion_group!(
    store,
    bench_memory_store_put_get,
    bench_anti_entropy_digest,
    bench_sharded_vs_unsharded
);
criterion_main!(store);
