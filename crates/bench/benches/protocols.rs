//! Micro-benchmarks of the protocol building blocks.
//!
//! These isolate the per-message cost of the three gossip protocols
//! (membership shuffle, slicing exchange, request dissemination step) so that
//! regressions in the hot path show up independently of the end-to-end
//! figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dataflasks::membership::{CyclonProtocol, NodeDescriptor};
use dataflasks::prelude::*;
use dataflasks::slicing::OrderedSlicer;
use dataflasks::types::{PssConfig, SlicingConfig};

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

criterion_group!(
    protocols,
    bench_cyclon_shuffle,
    bench_slicing_exchange,
    bench_put_dissemination_step
);
criterion_main!(protocols);
