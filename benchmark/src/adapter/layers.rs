//! The layer pass: direct calls into each layer's public functions, one
//! thread, fixed iteration counts, the median of five batches, ns per call.
//!
//! These numbers compare two versions of one program. They carry no
//! waiting, no cache pressure from neighbours and no contention, so they
//! say what a call costs, not what an operation waits for.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use dataflasks::core::{dedup, gateway, sched, wheel, wire};
use dataflasks::prelude::{
    ClientRequest, ClusterSpec, CyclonProtocol, DataFlasksNode, DataStore, DefaultStore, Duration,
    Key, KeyRange, NodeConfig, NodeDescriptor, NodeHost, NodeId, NodeProfile, OrderedSlicer,
    Output, ReassemblyBuffer, RequestId, SchedulerConfig, ShardedStore, SimTime, SliceId,
    SlicePartition, StoredObject, TicketKind, TimerKind, Value, Version, WorkloadGenerator,
    WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;

/// Batches per measurement; the reported number is their median.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches (after one untimed batch) of the mean
/// nanoseconds one call of `f` takes.
fn ns_per_call(iterations: usize, mut f: impl FnMut()) -> f64 {
    let mut batches = [0.0; BATCHES];
    for batch in 0..=BATCHES {
        let start = Instant::now();
        for _ in 0..iterations {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iterations as f64;
        if batch > 0 {
            batches[batch - 1] = ns;
        }
    }
    median(&batches)
}

/// A 48-node, 2-slice cluster materialised warm: the state the node-level
/// calls run against.
fn small_cluster() -> Vec<DataFlasksNode<DefaultStore>> {
    let nodes = 48;
    let config = NodeConfig::for_system_size(nodes, 2);
    let capacities = (0..nodes as u64).map(|i| 100 + 97 * i).collect();
    ClusterSpec::new(config, capacities, 0x1A7E25).build_nodes()
}

/// Record numbers whose keys `node` is (`owned == true`) or is not
/// responsible for.
fn records_for(node: &DataFlasksNode<DefaultStore>, owned: bool, count: usize) -> Vec<usize> {
    (0..)
        .filter(|&r| {
            let key = Key::from_user_key(&WorkloadGenerator::user_key(r));
            node.is_responsible_for(key) == owned
        })
        .take(count)
        .collect()
}

/// The first protocol message a node sends when a client hands it a put of
/// `value_size` bytes, rendered as one encoded frame per requested batch
/// size.
fn put_frames(value_size: usize, batch: usize) -> Vec<u8> {
    let mut nodes = small_cluster();
    let mut host = NodeHost::new(nodes.swap_remove(0));
    let from = host.node().id();
    let mut message = None;
    host.submit_client_request(
        1,
        ClientRequest::Put {
            id: RequestId::new(1, 1),
            key: Key::from_user_key("layer-pass"),
            version: Version::new(1),
            value: Value::filled(value_size, 9),
        },
        SimTime::ZERO,
        |output| match output {
            Output::Send { message: m, .. } if message.is_none() => message = Some(m),
            Output::SendBatch { mut messages, .. } if message.is_none() => {
                message = messages.pop();
            }
            _ => {}
        },
    );
    let message = message.expect("a client put is forwarded to at least one peer");
    let messages = vec![message; batch];
    let mut frame = Vec::new();
    wire::encode_frame(from, &messages, &mut frame).expect("a put frame fits the frame limit");
    frame
}

/// `(encode_ns, decode_ns)` of a frame carrying `batch` puts of
/// `value_size` bytes.
fn wire_pair(value_size: usize, batch: usize, iterations: usize) -> (f64, f64) {
    let frame = put_frames(value_size, batch);
    let decoded = wire::decode_frame(&frame).expect("own frame decodes");
    let mut buf = Vec::with_capacity(frame.len());
    let encode = ns_per_call(iterations, || {
        wire::encode_frame_into(decoded.from, black_box(&decoded.messages), &mut buf)
            .expect("re-encode");
        black_box(&buf);
    });
    let decode = ns_per_call(iterations, || {
        black_box(wire::decode_frame(black_box(&frame)).expect("decode"));
    });
    (encode, decode)
}

/// Node-handler costs through [`NodeHost`]: a put at a contact outside the
/// key's slice (forwarded), a put and a get at a responsible replica (served
/// and fanned out) — each the one node's handling alone — and one firing of
/// each protocol timer with the exchange it starts.
fn node_layer(out: &mut Vec<(&'static str, f64)>) {
    let mut nodes = small_cluster();
    let mut host = NodeHost::new(nodes.swap_remove(0));
    let foreign = records_for(host.node(), false, 64);
    let owned = records_for(host.node(), true, 64);
    let key_of = |r: usize| Key::from_user_key(&WorkloadGenerator::user_key(r));
    let value = Value::filled(128, 3);
    let mut sequence = 0u64;
    let mut put = |host: &mut NodeHost<DefaultStore>, records: &[usize]| {
        sequence += 1;
        let record = records[sequence as usize % records.len()];
        host.submit_client_request(
            7,
            ClientRequest::Put {
                id: RequestId::new(7, sequence),
                key: key_of(record),
                version: Version::new(sequence),
                value: value.clone(),
            },
            SimTime::from_millis(sequence),
            |output| {
                black_box(output);
            },
        );
    };
    out.push((
        "core.node.contact_put_ns",
        ns_per_call(20_000, || put(&mut host, &foreign)),
    ));
    out.push((
        "core.node.replica_put_ns",
        ns_per_call(20_000, || put(&mut host, &owned)),
    ));
    let mut sequence = 1u64 << 40;
    out.push((
        "core.node.replica_get_ns",
        ns_per_call(20_000, || {
            sequence += 1;
            host.submit_client_request(
                7,
                ClientRequest::Get {
                    id: RequestId::new(7, sequence),
                    key: key_of(owned[sequence as usize % owned.len()]),
                    version: None,
                },
                SimTime::from_millis(sequence & 0xFFFF),
                |output| {
                    black_box(output);
                },
            );
        }),
    ));
    // Timers are measured with their consequences: the firing node's
    // messages are delivered and answered across a routed mini-cluster, as
    // the simulator would, so views stay populated round after round.
    let mut hosts: Vec<NodeHost<DefaultStore>> =
        small_cluster().into_iter().map(NodeHost::new).collect();
    let mut now = 0u64;
    for record in 0..200 {
        now += 1;
        let contact = record % hosts.len();
        let mut first = Vec::new();
        hosts[contact].submit_client_request(
            9,
            ClientRequest::Put {
                id: RequestId::new(9, now),
                key: key_of(record),
                version: Version::new(1),
                value: value.clone(),
            },
            SimTime::from_millis(now),
            |output| first.push(output),
        );
        route(&mut hosts, contact, first, SimTime::from_millis(now));
    }
    for (name, kind) in [
        ("core.node.shuffle_timer_ns", TimerKind::PssShuffle),
        ("core.node.slicing_timer_ns", TimerKind::SliceGossip),
        ("core.node.ae_timer_ns", TimerKind::AntiEntropy),
    ] {
        let mut turn = 0usize;
        out.push((
            name,
            ns_per_call(5_000, || {
                now += 10;
                turn = (turn + 1) % hosts.len();
                let mut first = Vec::new();
                hosts[turn].fire_timer(kind, SimTime::from_millis(now), |output| {
                    first.push(output);
                });
                route(&mut hosts, turn, first, SimTime::from_millis(now));
            }),
        ));
    }
}

/// Delivers `outputs` of node `from` — and everything the deliveries cause
/// in turn — across `hosts` (node `i` is `NodeId(i)`), dropping client
/// replies and timer re-arms.
fn route(hosts: &mut [NodeHost<DefaultStore>], from: usize, outputs: Vec<Output>, now: SimTime) {
    let mut queue: std::collections::VecDeque<(usize, Output)> =
        outputs.into_iter().map(|o| (from, o)).collect();
    while let Some((from, output)) = queue.pop_front() {
        let sender = NodeId::new(from as u64);
        match output {
            Output::Send { to, message } => {
                let to = to.as_u64() as usize;
                hosts[to].deliver_message(sender, message, now, |o| queue.push_back((to, o)));
            }
            Output::SendBatch { to, messages } => {
                let to = to.as_u64() as usize;
                hosts[to].deliver_batch(sender, messages, now, |o| queue.push_back((to, o)));
            }
            Output::Reply { .. } | Output::Timer { .. } => {}
        }
    }
}

fn store_layer(out: &mut Vec<(&'static str, f64)>) {
    let keys: Vec<Key> = (0..2_000)
        .map(|r| Key::from_user_key(&WorkloadGenerator::user_key(r)))
        .collect();
    let value = Value::filled(128, 5);
    let mut store: DefaultStore = ShardedStore::new(8);
    let mut version = 0u64;
    let mut i = 0usize;
    out.push((
        "store.put_ns",
        ns_per_call(50_000, || {
            i += 1;
            if i.is_multiple_of(keys.len()) {
                version += 1;
            }
            let object = StoredObject::new(
                keys[i % keys.len()],
                Version::new(version + 1),
                value.clone(),
            );
            black_box(store.put(&object).expect("unbounded store accepts"));
        }),
    ));
    out.push((
        "store.get_ns",
        ns_per_call(50_000, || {
            i += 1;
            black_box(store.get(keys[i % keys.len()], None));
        }),
    ));
    let chunks = SlicePartition::new(8);
    out.push((
        "store.range_digest_ns",
        ns_per_call(2_000, || {
            i += 1;
            let range: KeyRange = chunks.range_of(SliceId::new((i % 8) as u32));
            black_box(store.range_digest(range));
        }),
    ));
}

fn gossip_layer(out: &mut Vec<(&'static str, f64)>) {
    let config = NodeConfig::for_system_size(220, 4);
    let mut rng = StdRng::seed_from_u64(0x6055);
    let profile = |i: u64| NodeProfile::with_capacity_and_tie_break(100 + 37 * i, i);
    let descriptor = |i: u64| NodeDescriptor::new(NodeId::new(i), profile(i));

    let mut a = CyclonProtocol::with_profile(NodeId::new(0), config.pss, profile(0));
    let mut b = CyclonProtocol::with_profile(NodeId::new(1), config.pss, profile(1));
    a.bootstrap((1..40).map(descriptor));
    b.bootstrap((0..40).filter(|&i| i != 1).map(descriptor));
    out.push((
        "membership.shuffle_ns",
        ns_per_call(20_000, || {
            if let Some((_, request)) = a.initiate_shuffle(&mut rng) {
                let response = b.handle_request(NodeId::new(0), request, &mut rng);
                a.handle_response(response);
            }
        }),
    ));

    let partition = SlicePartition::new(4);
    let mut x = OrderedSlicer::new(NodeId::new(0), profile(0), config.slicing, partition);
    let mut y = OrderedSlicer::new(NodeId::new(1), profile(1), config.slicing, partition);
    for i in 2..200 {
        x.observe(NodeId::new(i), profile(i));
        y.observe(NodeId::new(i + 200), profile(i + 200));
    }
    out.push((
        "slicing.merge_ns",
        ns_per_call(20_000, || {
            let push = x.create_exchange(&mut rng);
            let pull = y.handle_exchange(push, &mut rng);
            x.handle_reply(pull);
            // Rounds advance as under the slicing timer, so samples age out
            // at the configured rate instead of piling up.
            x.advance_round();
            y.advance_round();
        }),
    ));
}

fn sched_layer(out: &mut Vec<(&'static str, f64)>) {
    let inbox = sched::Inbox::<u64>::new();
    let mut n = 0u64;
    out.push((
        "core.sched.inbox_push_pop_ns",
        ns_per_call(200_000, || {
            n += 1;
            inbox.push(n);
            black_box(inbox.try_pop());
        }),
    ));

    let scheduler = sched::Scheduler::new(256, 1, SchedulerConfig::default());
    let mut slot = 0usize;
    out.push((
        "core.sched.mark_next_finish_ns",
        ns_per_call(200_000, || {
            slot = (slot + 1) % 256;
            scheduler.mark_ready(slot);
            if let sched::Poll::Ready(ready) = scheduler.next_ready(0, std::time::Duration::ZERO) {
                scheduler.finish(ready, false);
            }
        }),
    ));

    let mut cache = dedup::DedupCache::new(4_096);
    let mut sequence = 0u64;
    out.push((
        "core.dedup.first_sighting_ns",
        ns_per_call(200_000, || {
            sequence += 1;
            black_box(cache.first_sighting(RequestId::new(3, sequence)));
        }),
    ));
}

/// Registering a ticket, a reply crossing the cluster-wide channel, and the
/// poll that routes it into its completion slot.
fn gateway_layer(out: &mut Vec<(&'static str, f64)>) {
    // A genuine acknowledgement, produced by a responsible replica.
    let mut nodes = small_cluster();
    let mut host = NodeHost::new(nodes.swap_remove(0));
    let record = records_for(host.node(), true, 1)[0];
    let mut ack = None;
    host.submit_client_request(
        5,
        ClientRequest::Put {
            id: RequestId::new(5, 0),
            key: Key::from_user_key(&WorkloadGenerator::user_key(record)),
            version: Version::new(1),
            value: Value::filled(128, 1),
        },
        SimTime::ZERO,
        |output| {
            if let Output::Reply { reply, .. } = output {
                ack = Some(reply);
            }
        },
    );
    let ack = ack.expect("a responsible replica acknowledges a put");

    let (tx, rx) = mpsc::channel();
    let gate = gateway::ClientGateway::new(rx);
    let mut completions = Vec::new();
    let mut sequence = 0u64;
    out.push((
        "core.gateway.register_route_ns",
        ns_per_call(100_000, || {
            sequence += 1;
            let id = RequestId::new(5, sequence);
            gate.register_ticket(id, TicketKind::Put, Duration::from_secs(5));
            let mut reply = ack.clone();
            reply.request = id;
            tx.send((5, reply)).expect("gateway holds the receiver");
            gate.poll_completions(&mut completions);
            black_box(completions.len());
            completions.clear();
        }),
    ));
}

fn wheel_layer(out: &mut Vec<(&'static str, f64)>) {
    const HOSTS: usize = 1_024;
    let tick = Duration::from_millis(5);
    let mut now = 0u64;
    let mut wheel = wheel::TimerWheel::<SimTime>::new(1_024, tick, SimTime::ZERO);
    let mut due = Vec::new();
    let mut host = 0usize;
    // Arming supersedes the pair's previous deadline; the stale entries are
    // swept by the advance below, so the wheel stays at HOSTS live timers.
    out.push((
        "core.wheel.arm_ns",
        ns_per_call(50_000, || {
            host = (host + 1) % HOSTS;
            now += 1;
            wheel.arm(
                host,
                TimerKind::PssShuffle,
                SimTime::from_millis(now + 1_000),
            );
            if host == 0 {
                wheel.advance(SimTime::from_millis(now), &mut due);
                due.clear();
            }
        }),
    ));
    for host in 0..HOSTS {
        wheel.arm(
            host,
            TimerKind::SliceGossip,
            SimTime::from_millis(now + 1 + host as u64),
        );
    }
    out.push((
        "core.wheel.advance_ns",
        ns_per_call(50_000, || {
            now += 1;
            wheel.advance(SimTime::from_millis(now), &mut due);
            for fired in due.drain(..) {
                wheel.arm(
                    fired.host,
                    fired.kind,
                    SimTime::from_millis(now + HOSTS as u64),
                );
            }
        }),
    ));
}

fn edge_layer(out: &mut Vec<(&'static str, f64)>) {
    let frame = put_frames(128, 1);
    let (head, tail) = frame.split_at(frame.len() / 2);
    let mut buffer = ReassemblyBuffer::new();
    out.push((
        "net_env.reassembly_recut_ns",
        ns_per_call(100_000, || {
            buffer.extend_from_slice(head);
            black_box(buffer.next_frame().expect("half a frame is not an error"));
            buffer.extend_from_slice(tail);
            black_box(buffer.next_frame().expect("own frame decodes"));
        }),
    ));

    let mut generator = WorkloadGenerator::new(WorkloadSpec::workload_b(200, usize::MAX), 11);
    let _ = generator.load_phase().count();
    let mut operations = generator.transaction_phase();
    out.push((
        "workload.schedule_gen_ns",
        ns_per_call(100_000, || {
            black_box(operations.next());
        }),
    ));
}

/// Runs the whole pass; every entry is `(metric name, ns per call)`.
pub fn run() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for (size, batch, encode_name, decode_name) in [
        (
            128,
            1,
            "core.wire.encode_put128_ns",
            "core.wire.decode_put128_ns",
        ),
        (
            1_024,
            1,
            "core.wire.encode_put1k_ns",
            "core.wire.decode_put1k_ns",
        ),
        (
            128,
            16,
            "core.wire.encode_batch16_ns",
            "core.wire.decode_batch16_ns",
        ),
    ] {
        let (encode, decode) = wire_pair(size, batch, 50_000 / batch);
        out.push((encode_name, encode));
        out.push((decode_name, decode));
    }
    sched_layer(&mut out);
    gateway_layer(&mut out);
    node_layer(&mut out);
    store_layer(&mut out);
    gossip_layer(&mut out);
    wheel_layer(&mut out);
    edge_layer(&mut out);
    out
}
