//! Sharded-store and batched-delivery baseline: times the scans the
//! sharded store optimises (anti-entropy digest, bounded shipping diff,
//! steady-state slice scan) against the flat store, and per-destination
//! batched delivery against per-message delivery, then writes the medians
//! to `BENCH_shard.json` so successive PRs have a perf trajectory.
//!
//! ```bash
//! cargo run -p dataflasks-bench --release --bin shard_bench
//! ```

use std::sync::Arc;
use std::time::Instant;

use dataflasks::core::Message;
use dataflasks::prelude::*;
use dataflasks::sim::{EventPayload, EventQueue};

/// Shards used for every sharded measurement.
const SHARDS: u32 = 16;
/// Timed repetitions per measurement (the median is reported).
const REPS: usize = 7;

fn main() {
    let mut results: Vec<(String, f64)> = Vec::new();
    for &keys in &[1_000usize, 10_000, 50_000] {
        let (flat, sharded) = paired_stores(keys);
        results.push((
            format!("digest_flat_{keys}"),
            median_us(|| {
                std::hint::black_box(flat.digest());
            }),
        ));
        results.push((
            format!("digest_sharded_{keys}"),
            median_us(|| {
                std::hint::black_box(sharded.digest());
            }),
        ));
        let remote = StoreDigest::new();
        results.push((
            format!("ship256_flat_{keys}"),
            median_us(|| {
                std::hint::black_box(flat.objects_newer_than(&remote, 256));
            }),
        ));
        results.push((
            format!("ship256_sharded_{keys}"),
            median_us(|| {
                std::hint::black_box(sharded.objects_newer_than(&remote, 256));
            }),
        ));
        let partition = SlicePartition::new(4);
        let slice = SliceId::new(1);
        let (mut flat_retained, mut sharded_retained) = paired_stores(keys);
        flat_retained.retain_slice(partition, slice);
        sharded_retained.retain_slice(partition, slice);
        results.push((
            format!("retain_flat_{keys}"),
            median_us(|| {
                std::hint::black_box(flat_retained.retain_slice(partition, slice));
            }),
        ));
        results.push((
            format!("retain_sharded_{keys}"),
            median_us(|| {
                std::hint::black_box(sharded_retained.retain_slice(partition, slice));
            }),
        ));
    }
    results.push((
        "delivery_queue_unbatched_8x4_x1000".to_string(),
        median_us(|| deliver_round(false, 1_000)),
    ));
    results.push((
        "delivery_queue_batched_8x4_x1000".to_string(),
        median_us(|| deliver_round(true, 1_000)),
    ));
    results.push((
        "delivery_channel_unbatched_8x4_x1000".to_string(),
        median_us(|| channel_round(false, 1_000)),
    ));
    results.push((
        "delivery_channel_batched_8x4_x1000".to_string(),
        median_us(|| channel_round(true, 1_000)),
    ));

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"shards\": {SHARDS},\n  \"unit\": \"us\",\n"));
    for (i, (name, us)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("  \"{name}\": {us:.2}{comma}\n"));
        println!("{name}: {us:.2} us");
    }
    json.push_str("}\n");
    std::fs::write("BENCH_shard.json", json).expect("write BENCH_shard.json");
    println!("wrote BENCH_shard.json");
}

/// Identically filled flat and sharded stores.
fn paired_stores(keys: usize) -> (MemoryStore, ShardedStore) {
    let mut flat = MemoryStore::unbounded();
    let mut sharded = ShardedStore::new(SHARDS);
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

/// Median wall-clock microseconds of `routine` over [`REPS`] runs.
fn median_us<F: FnMut()>(mut routine: F) -> f64 {
    // One untimed warm-up.
    routine();
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A shared message template: emitting clones an Arc, exactly like a relay.
fn relay_template() -> Message {
    Message::AntiEntropyDigest {
        digest: Arc::new(StoreDigest::new()),
        range: KeyRange::FULL,
    }
}

/// Emits one dispatch round of `template` — 4 messages to each of 8
/// destinations — either grouped per destination by `fx` (batched) or as
/// one `Send` per message into `units`.
fn emit_round(batched: bool, template: &Message, fx: &mut EffectBuffer, units: &mut Vec<Output>) {
    for _ in 0..4 {
        for to in 0..8u64 {
            let (to, message) = (NodeId::new(to), template.clone());
            if batched {
                fx.emit_send(to, message);
            } else {
                units.push(Output::Send { to, message });
            }
        }
    }
}

/// Routes `rounds` dispatch rounds (4 messages to each of 8 destinations)
/// through the simulator's event queue, batched or per-message, paying the
/// real per-transport-unit routing cost (one loss decision and one latency
/// sample per queue entry, exactly like `Simulation`'s routing).
fn deliver_round(batched: bool, rounds: usize) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let template = relay_template();
    let mut fx = EffectBuffer::new();
    let mut units = Vec::new();
    let mut queue = EventQueue::new();
    let network = NetworkConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..rounds {
        emit_round(batched, &template, &mut fx, &mut units);
        for output in units.drain(..).chain(fx.drain()) {
            match output {
                Output::Send { to, message } => {
                    if network.drops(&mut rng) {
                        continue;
                    }
                    let latency = network.sample_latency(&mut rng);
                    queue.schedule(
                        SimTime::ZERO + latency,
                        EventPayload::Deliver {
                            from: NodeId::new(99),
                            to,
                            message,
                        },
                    );
                }
                Output::SendBatch { to, messages } => {
                    if network.drops(&mut rng) {
                        continue;
                    }
                    let latency = network.sample_latency(&mut rng);
                    queue.schedule(
                        SimTime::ZERO + latency,
                        EventPayload::DeliverBatch {
                            from: NodeId::new(99),
                            to,
                            messages,
                        },
                    );
                }
                _ => {}
            }
        }
        while queue.pop().is_some() {}
    }
}

/// A channel transport: one channel send per transport unit. Unbatched
/// sends every message individually; batched sends the round as the effect
/// buffer grouped it — one send (and one routing lookup) per destination.
fn channel_round(batched: bool, rounds: usize) {
    use std::collections::HashMap;
    use std::sync::mpsc;

    enum Unit {
        One(Message),
        Many(Vec<Message>),
    }
    let inboxes: HashMap<NodeId, (mpsc::Sender<Unit>, mpsc::Receiver<Unit>)> = (0..8u64)
        .map(|i| (NodeId::new(i), mpsc::channel()))
        .collect();
    let template = relay_template();
    let mut fx = EffectBuffer::new();
    let mut units = Vec::new();
    let mut handled = 0usize;
    for _ in 0..rounds {
        emit_round(batched, &template, &mut fx, &mut units);
        for output in units.drain(..).chain(fx.drain()) {
            match output {
                Output::Send { to, message } => {
                    let _ = inboxes[&to].0.send(Unit::One(message));
                }
                Output::SendBatch { to, messages } => {
                    let _ = inboxes[&to].0.send(Unit::Many(messages));
                }
                _ => {}
            }
        }
        for (_, (_, rx)) in inboxes.iter() {
            while let Ok(unit) = rx.try_recv() {
                match unit {
                    Unit::One(message) => {
                        std::hint::black_box(&message);
                        handled += 1;
                    }
                    Unit::Many(messages) => {
                        for message in &messages {
                            std::hint::black_box(message);
                            handled += 1;
                        }
                    }
                }
            }
        }
    }
    std::hint::black_box(handled);
}
