//! Micro-benchmarks of the protocol building blocks.
//!
//! These isolate the per-message cost of the three gossip protocols
//! (membership shuffle, slicing exchange, request dissemination step) and of
//! the duplicate-suppression probe under a cluster's access pattern, so that
//! regressions in the hot path show up independently of the end-to-end
//! figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataflasks::core::dedup::DedupCache;
use dataflasks::membership::{CyclonProtocol, NodeDescriptor};
use dataflasks::prelude::*;
use dataflasks::slicing::OrderedSlicer;
use dataflasks::types::{DisseminationConfig, PssConfig, SlicingConfig};

fn bench_cyclon_shuffle(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocols/cyclon_shuffle");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for view_size in [8usize, 20, 40] {
        group.bench_with_input(
            BenchmarkId::from_parameter(view_size),
            &view_size,
            |b, &view_size| {
                let cfg = PssConfig {
                    view_size,
                    shuffle_length: view_size / 2,
                    ..PssConfig::default()
                };
                let mut rng = StdRng::seed_from_u64(1);
                let mut a = CyclonProtocol::new(NodeId::new(1), cfg);
                let mut peer = CyclonProtocol::new(NodeId::new(2), cfg);
                a.bootstrap(
                    (2..2 + view_size as u64)
                        .map(|i| NodeDescriptor::new(NodeId::new(i), NodeProfile::default())),
                );
                peer.bootstrap(
                    (100..100 + view_size as u64)
                        .map(|i| NodeDescriptor::new(NodeId::new(i), NodeProfile::default())),
                );
                b.iter(|| {
                    if let Some((_, request)) = a.initiate_shuffle(&mut rng) {
                        let response = peer.handle_request(a.local_id(), request, &mut rng);
                        a.handle_response(response);
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_slicing_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocols/slicing_exchange");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for buffer in [32usize, 128, 512] {
        group.bench_with_input(
            BenchmarkId::from_parameter(buffer),
            &buffer,
            |b, &buffer| {
                let cfg = SlicingConfig {
                    sample_buffer_size: buffer,
                    ..SlicingConfig::default()
                };
                let partition = SlicePartition::new(10);
                let mut rng = StdRng::seed_from_u64(2);
                let mut a = OrderedSlicer::new(
                    NodeId::new(1),
                    NodeProfile::with_capacity(10),
                    cfg,
                    partition,
                );
                let mut peer = OrderedSlicer::new(
                    NodeId::new(2),
                    NodeProfile::with_capacity(20),
                    cfg,
                    partition,
                );
                for i in 0..buffer as u64 {
                    a.observe(NodeId::new(100 + i), NodeProfile::with_capacity(i));
                    peer.observe(NodeId::new(10_000 + i), NodeProfile::with_capacity(i * 2));
                }
                b.iter(|| {
                    a.advance_round();
                    let request = a.create_exchange(&mut rng);
                    let reply = peer.handle_exchange(request, &mut rng);
                    a.handle_reply(reply);
                    a.estimated_rank()
                });
            },
        );
    }
    group.finish();
}

fn bench_put_dissemination_step(c: &mut Criterion) {
    // Cost of one node handling a put it is responsible for (store + fanout).
    let mut group = c.benchmark_group("protocols/put_handling");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    for fanout_nodes in [8usize, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(fanout_nodes),
            &fanout_nodes,
            |b, &fanout_nodes| {
                let config = NodeConfig::for_system_size(fanout_nodes * 4, 1);
                let mut node = DataFlasksNode::new(
                    NodeId::new(0),
                    config,
                    NodeProfile::default(),
                    MemoryStore::unbounded(),
                    3,
                );
                node.bootstrap((1..=fanout_nodes as u64).map(|i| {
                    NodeDescriptor::new(NodeId::new(i), NodeProfile::default())
                        .with_slice(Some(SliceId::new(0)))
                }));
                // One reusable effect buffer: steady-state handling allocates
                // nothing for the effect pipeline.
                let mut fx = EffectBuffer::new();
                let mut sequence = 0u64;
                b.iter(|| {
                    sequence += 1;
                    node.handle_client_request(
                        1,
                        ClientRequest::Put {
                            id: RequestId::new(1, sequence),
                            key: Key::from_raw(sequence.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                            version: Version::new(1),
                            value: Value::filled(128, 0xAB),
                        },
                        SimTime::ZERO,
                        &mut fx,
                    );
                    let effects = fx.len();
                    fx.clear();
                    effects
                });
            },
        );
    }
    group.finish();
}

/// Nodes of the warm benchmark cluster (220 nodes, 4 slices).
const FLOOD_NODES: usize = 220;
/// Distinct request ids in one pass of the flood schedule.
const FLOOD_IDS: u64 = 512;
/// Probes per timed iteration, so that reading the clock once per
/// iteration does not swamp a probe's cost.
const FLOOD_PROBES_PER_ITER: usize = 1_000;

/// The order in which a cluster's nodes probe their dedup caches while
/// requests flood: ids issued in sequence, each reaching ~64 nodes, each of
/// those receiving it 1–9 times (~83 % duplicates overall, as measured in a
/// warm 220-node cluster), copies spread over the next few ids' issue times.
fn flood_schedule() -> Vec<(usize, u64)> {
    let mut rng = StdRng::seed_from_u64(5);
    let mut arrivals = Vec::new();
    for sequence in 0..FLOOD_IDS {
        for _ in 0..64 {
            let node = rng.gen_range(0..FLOOD_NODES);
            for _ in 0..rng.gen_range(1..=9u32) {
                let at = sequence * 1_000 + rng.gen_range(0..8_000u64);
                arrivals.push((at, node, sequence));
            }
        }
    }
    arrivals.sort_unstable();
    arrivals
        .into_iter()
        .map(|(_, node, sequence)| (node, sequence))
        .collect()
}

fn bench_dedup_flood(c: &mut Criterion) {
    // Cost of dedup probes when 220 nodes' caches take turns, so that a
    // probe finds its cache evicted by the other nodes' probes — the
    // in-cluster cost a single hot cache never shows. Divide the reported
    // time by the probes per iteration for the cost of one probe.
    let mut group = c.benchmark_group("protocols/dedup_flood");
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(2));
    let name = format!("{FLOOD_NODES}_nodes_{FLOOD_PROBES_PER_ITER}_probes");
    group.bench_function(&name, |b| {
        let capacity = DisseminationConfig::default().dedup_cache_size;
        let mut caches: Vec<DedupCache> = (0..FLOOD_NODES)
            .map(|_| DedupCache::new(capacity))
            .collect();
        let schedule = flood_schedule();
        let mut at = 0;
        let mut base = 0;
        b.iter(|| {
            let mut new = 0u32;
            for _ in 0..FLOOD_PROBES_PER_ITER {
                let (node, sequence) = schedule[at];
                at += 1;
                if at == schedule.len() {
                    // Replay with fresh ids: sequences keep rising, as a
                    // client's do.
                    at = 0;
                    base += FLOOD_IDS;
                }
                new += u32::from(caches[node].first_sighting(RequestId::new(1, base + sequence)));
            }
            new
        });
    });
    group.finish();
}

criterion_group!(
    protocols,
    bench_cyclon_shuffle,
    bench_slicing_exchange,
    bench_put_dissemination_step,
    bench_dedup_flood
);
criterion_main!(protocols);
