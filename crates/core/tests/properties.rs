//! Property-based tests of the DataFlasks node invariants.
//!
//! These drive small clusters of real nodes with randomly generated
//! topologies and workloads and check the safety properties the design
//! relies on: objects only ever live on responsible replicas, duplicate
//! suppression terminates dissemination, and message accounting matches the
//! outputs actually produced.

use std::sync::Arc;

use dataflasks_core::{
    encode_frame, ClientReply, ClientRequest, DataFlasksNode, DispatchScratch, DisseminationPhase,
    EffectBuffer, Effects, GetRequest, Message, MessageKind, NodeHost, Output, PutRequest,
    ReplyBody, TimerKind,
};
use dataflasks_membership::NodeDescriptor;
use dataflasks_store::{DataStore, MemoryStore, StoreDigest};
use dataflasks_types::{
    Duration, Key, KeyRange, NodeConfig, NodeId, NodeProfile, RequestId, SimTime, StoredObject,
    Value, Version,
};
use proptest::prelude::*;

/// Builds a cluster of `count` nodes with the given capacities, where every
/// node knows every other node's true profile and slice (a fully converged
/// membership/slicing state, so the tests focus on the request path).
fn warm_cluster(capacities: &[u64], slices: u32) -> Vec<DataFlasksNode<MemoryStore>> {
    let count = capacities.len();
    let config = NodeConfig::for_system_size(count.max(2), slices);
    let mut nodes: Vec<DataFlasksNode<MemoryStore>> = capacities
        .iter()
        .enumerate()
        .map(|(i, &capacity)| {
            DataFlasksNode::new(
                NodeId::new(i as u64),
                config,
                NodeProfile::with_capacity_and_tie_break(capacity, i as u64),
                MemoryStore::unbounded(),
                0xBEEF + i as u64,
            )
        })
        .collect();
    for _ in 0..2 {
        let descriptors: Vec<NodeDescriptor> = nodes
            .iter()
            .map(|n| NodeDescriptor::new(n.id(), n.profile()).with_slice(n.slice()))
            .collect();
        for node in nodes.iter_mut() {
            let others: Vec<NodeDescriptor> = descriptors
                .iter()
                .copied()
                .filter(|d| d.id() != node.id())
                .collect();
            node.bootstrap(others);
        }
    }
    nodes
}

/// Delivers one protocol message and returns the effects it produced.
fn deliver(
    node: &mut DataFlasksNode<MemoryStore>,
    from: NodeId,
    message: dataflasks_core::Message,
) -> Vec<Output> {
    let mut fx = EffectBuffer::new();
    node.handle_message(from, message, SimTime::ZERO, &mut fx);
    fx.take()
}

/// Submits one client request and returns the effects it produced.
fn submit(
    node: &mut DataFlasksNode<MemoryStore>,
    client: u64,
    request: ClientRequest,
) -> Vec<Output> {
    let mut fx = EffectBuffer::new();
    node.handle_client_request(client, request, SimTime::ZERO, &mut fx);
    fx.take()
}

/// Delivers every pending output until the network quiesces; returns the
/// total number of node-to-node messages delivered and the client replies.
fn run_to_quiescence(
    nodes: &mut [DataFlasksNode<MemoryStore>],
    initial: Vec<(NodeId, Output)>,
) -> (usize, usize) {
    let mut pending = initial;
    let mut delivered = 0usize;
    let mut replies = 0usize;
    while let Some((from, output)) = pending.pop() {
        assert!(
            delivered < 200_000,
            "dissemination did not terminate (duplicate suppression broken?)"
        );
        match output {
            Output::Send { to, message } => {
                delivered += 1;
                let index = to.as_u64() as usize;
                let outs = deliver(&mut nodes[index], from, message);
                let sender = nodes[index].id();
                pending.extend(outs.into_iter().map(|o| (sender, o)));
            }
            Output::SendBatch { to, messages } => {
                let index = to.as_u64() as usize;
                for message in messages {
                    delivered += 1;
                    let outs = deliver(&mut nodes[index], from, message);
                    let sender = nodes[index].id();
                    pending.extend(outs.into_iter().map(|o| (sender, o)));
                }
            }
            Output::Reply { .. } => replies += 1,
            Output::Timer { .. } => {}
        }
    }
    (delivered, replies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Safety: after an arbitrary batch of puts, every stored copy of every
    /// object sits on a node whose slice is responsible for its key, and the
    /// stored value matches what was written.
    #[test]
    fn objects_only_live_on_responsible_replicas(
        capacities in proptest::collection::vec(1u64..10_000, 6..16),
        slices in 1u32..4,
        writes in proptest::collection::vec((0u8..32, 0usize..16), 1..24),
    ) {
        let mut nodes = warm_cluster(&capacities, slices);
        for (sequence, (key_tag, contact)) in writes.iter().enumerate() {
            let contact = contact % nodes.len();
            let key = Key::from_user_key(&format!("prop-{key_tag}"));
            let request = ClientRequest::Put {
                id: RequestId::new(1, sequence as u64),
                key,
                version: Version::new(sequence as u64 + 1),
                value: Value::from_bytes(format!("value-{sequence}").as_bytes()),
            };
            let outs = submit(&mut nodes[contact], 9, request);
            let origin = nodes[contact].id();
            run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());
        }
        for node in &nodes {
            let slice = node.slice().expect("warm nodes always have a slice");
            for key in node.store().keys() {
                prop_assert!(
                    node.partition().owns(slice, key),
                    "node {} in {slice} stores foreign key {key}",
                    node.id()
                );
            }
        }
    }

    /// Termination + at-least-one-replica: any single put disseminated through
    /// any contact terminates (bounded messages) and, when the target slice is
    /// populated, reaches at least one responsible replica which acknowledges.
    #[test]
    fn every_put_terminates_and_is_acknowledged(
        capacities in proptest::collection::vec(1u64..10_000, 8..20),
        key_tag in 0u64..1000,
        contact in 0usize..20,
    ) {
        let slices = 2u32;
        let mut nodes = warm_cluster(&capacities, slices);
        let contact = contact % nodes.len();
        let key = Key::from_user_key(&format!("ack-{key_tag}"));
        let request = ClientRequest::Put {
            id: RequestId::new(2, key_tag),
            key,
            version: Version::new(1),
            value: Value::from_bytes(b"ack-me"),
        };
        let outs = submit(&mut nodes[contact], 3, request);
        let origin = nodes[contact].id();
        let (_delivered, replies) =
            run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());
        let target = nodes[0].partition().slice_of(key);
        let slice_populated = nodes.iter().any(|n| n.slice() == Some(target));
        if slice_populated {
            prop_assert!(replies > 0, "populated target slice produced no acknowledgement");
            let replicas = nodes
                .iter()
                .filter(|n| n.store().get_latest(key).is_some())
                .count();
            prop_assert!(replicas > 0);
        }
    }

    /// Duplicate suppression: once a node has seen a request id, delivering
    /// the same request to it again produces no further dissemination at all
    /// (this is what makes the epidemic flood terminate).
    #[test]
    fn duplicate_requests_never_propagate(
        capacities in proptest::collection::vec(1u64..10_000, 6..12),
        key_tag in 0u64..1000,
    ) {
        let mut nodes = warm_cluster(&capacities, 2);
        let key = Key::from_user_key(&format!("dup-{key_tag}"));
        let request = ClientRequest::Put {
            id: RequestId::new(4, key_tag),
            key,
            version: Version::new(1),
            value: Value::from_bytes(b"once"),
        };
        let outs = submit(&mut nodes[0], 1, request);
        let origin = nodes[0].id();
        run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());
        // Deliver the same request to every node twice in a row: whatever the
        // first delivery does (a node off the original dissemination path may
        // legitimately forward it once), the second delivery must be absorbed
        // silently by the duplicate-suppression cache.
        for (i, node) in nodes.iter_mut().enumerate() {
            let replay = dataflasks_core::Message::Put(std::sync::Arc::new(dataflasks_core::PutRequest {
                id: RequestId::new(4, key_tag),
                client: 1,
                object: dataflasks_types::StoredObject::new(key, Version::new(1), Value::from_bytes(b"once")),
                phase: dataflasks_core::DisseminationPhase::Global,
                ttl: 8,
            }));
            let _ = deliver(node, NodeId::new(999), replay.clone());
            let second = deliver(node, NodeId::new(998), replay);
            prop_assert!(second.is_empty(), "node {i} forwarded a request it had already seen");
        }
    }

    /// Accounting: the number of Send outputs a node produces equals the
    /// growth of its sent counters, and received counters grow by exactly one
    /// per handled message.
    #[test]
    fn stats_match_outputs(
        capacities in proptest::collection::vec(1u64..10_000, 4..10),
        timer_rounds in 1usize..4,
    ) {
        let mut nodes = warm_cluster(&capacities, 2);
        for _ in 0..timer_rounds {
            for i in 0..nodes.len() {
                let sent_before = nodes[i].stats().total_sent();
                let mut fx = EffectBuffer::new();
                nodes[i].on_timer(TimerKind::PssShuffle, SimTime::ZERO, &mut fx);
                let outs_shuffle = fx.take();
                nodes[i].on_timer(TimerKind::SliceGossip, SimTime::ZERO, &mut fx);
                let outs_gossip = fx.take();
                let sends = outs_shuffle
                    .iter()
                    .chain(outs_gossip.iter())
                    .filter(|o| matches!(o, Output::Send { .. }))
                    .count() as u64;
                prop_assert_eq!(nodes[i].stats().total_sent() - sent_before, sends);
                // Deliver them and check the receivers count exactly one each.
                for output in outs_shuffle.into_iter().chain(outs_gossip) {
                    if let Output::Send { to, message } = output {
                        let t = to.as_u64() as usize;
                        let received_before = nodes[t].stats().total_received();
                        let from = nodes[i].id();
                        let _ = deliver(&mut nodes[t], from, message);
                        prop_assert_eq!(nodes[t].stats().total_received() - received_before, 1);
                    }
                }
            }
        }
    }

    /// Reads of keys that were never written only ever produce misses, never
    /// fabricated objects.
    #[test]
    fn reads_of_unwritten_keys_only_miss(
        capacities in proptest::collection::vec(1u64..10_000, 6..14),
        key_tag in 0u64..1000,
        contact in 0usize..14,
    ) {
        let mut nodes = warm_cluster(&capacities, 2);
        let contact = contact % nodes.len();
        let key = Key::from_user_key(&format!("ghost-{key_tag}"));
        let request = ClientRequest::Get {
            id: RequestId::new(5, key_tag),
            key,
            version: None,
        };
        let outs = submit(&mut nodes[contact], 6, request);
        let origin = nodes[contact].id();
        // Collect replies manually to inspect their bodies.
        let mut pending: Vec<(NodeId, Output)> = outs.into_iter().map(|o| (origin, o)).collect();
        let mut guard = 0;
        while let Some((from, output)) = pending.pop() {
            guard += 1;
            prop_assert!(guard < 100_000);
            match output {
                Output::Send { to, message } => {
                    let index = to.as_u64() as usize;
                    let next = deliver(&mut nodes[index], from, message);
                    let sender = nodes[index].id();
                    pending.extend(next.into_iter().map(|o| (sender, o)));
                }
                Output::SendBatch { to, messages } => {
                    let index = to.as_u64() as usize;
                    for message in messages {
                        let next = deliver(&mut nodes[index], from, message);
                        let sender = nodes[index].id();
                        pending.extend(next.into_iter().map(|o| (sender, o)));
                    }
                }
                Output::Reply { reply, .. } => {
                    let is_miss = matches!(reply.body, ReplyBody::GetMiss { .. });
                    prop_assert!(is_miss, "read of an unwritten key produced a non-miss reply");
                }
                Output::Timer { .. } => {}
            }
        }
        // And nothing got stored anywhere as a side effect of reading.
        for node in &nodes {
            prop_assert!(node.store().get_latest(key).is_none());
        }
        // Request traffic was accounted as request/reply kinds only.
        let any_request_traffic = nodes
            .iter()
            .any(|n| n.stats().sent(MessageKind::Request) + n.stats().sent(MessageKind::Reply) > 0);
        prop_assert!(any_request_traffic);
    }
}

/// A distinct protocol message per emission, so the reference model can
/// tell every message apart.
fn tagged_message(tag: u64) -> Message {
    Message::Get(Arc::new(GetRequest {
        id: RequestId::new(1, tag),
        client: 1,
        key: Key::from_raw(tag),
        version: None,
        phase: DisseminationPhase::Global,
        ttl: 1,
    }))
}

/// The reference model of the effect sink: replies and timers in emission
/// order, and one unit per destination, placed where that destination was
/// first sent to and holding its messages in emission order.
#[derive(Default)]
struct SinkModel {
    entries: Vec<ModelEntry>,
}

enum ModelEntry {
    Unit(NodeId, Vec<Message>),
    Other(Output),
}

impl SinkModel {
    fn send(&mut self, to: NodeId, message: Message) {
        for entry in &mut self.entries {
            if let ModelEntry::Unit(dest, messages) = entry {
                if *dest == to {
                    messages.push(message);
                    return;
                }
            }
        }
        self.entries.push(ModelEntry::Unit(to, vec![message]));
    }

    /// What the sink must hand out now; empties the model.
    fn expected(&mut self) -> Vec<Output> {
        self.entries
            .drain(..)
            .map(|entry| match entry {
                ModelEntry::Unit(to, mut messages) if messages.len() == 1 => Output::Send {
                    to,
                    message: messages.pop().expect("one message"),
                },
                ModelEntry::Unit(to, messages) => Output::SendBatch { to, messages },
                ModelEntry::Other(output) => output,
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The effect sink groups sends as they are emitted exactly as the
    /// reference model does, across any interleaving of sends (to a small
    /// set of destinations), replies and timer re-arms. Emptying the buffer
    /// — drain, clear or take — ends every unit, so a later send to the
    /// same destination starts a fresh one.
    #[test]
    fn the_effect_sink_groups_sends_like_the_reference_model(
        steps in proptest::collection::vec((0u8..12, 0u64..4), 1..80),
    ) {
        let mut fx = EffectBuffer::new();
        let mut model = SinkModel::default();
        for (tag, &(step, dest)) in steps.iter().enumerate() {
            let tag = tag as u64;
            match step {
                0..=6 => {
                    let to = NodeId::new(dest);
                    fx.emit_send(to, tagged_message(tag));
                    model.send(to, tagged_message(tag));
                }
                7 | 8 => {
                    let reply = ClientReply {
                        request: RequestId::new(2, tag),
                        responder: NodeId::new(dest),
                        responder_slice: None,
                        body: ReplyBody::GetMiss { key: Key::from_raw(tag) },
                    };
                    fx.emit_reply(9, reply.clone());
                    model.entries.push(ModelEntry::Other(Output::Reply { client: 9, reply }));
                }
                9 => {
                    let kind = TimerKind::ALL[dest as usize % TimerKind::ALL.len()];
                    let after = Duration::from_millis(tag);
                    fx.emit_timer(kind, after);
                    model.entries.push(ModelEntry::Other(Output::Timer { kind, after }));
                }
                10 => {
                    let drained: Vec<Output> = fx.drain().collect();
                    prop_assert_eq!(drained, model.expected());
                }
                _ if dest % 2 == 0 => {
                    let expected = model.expected();
                    prop_assert_eq!(fx.as_slice(), &expected[..]);
                    fx.clear();
                }
                _ => prop_assert_eq!(fx.take(), model.expected()),
            }
            prop_assert_eq!(fx.len(), model.entries.len());
        }
        let drained: Vec<Output> = fx.drain().collect();
        prop_assert_eq!(drained, model.expected());
    }
}

/// A destination's second send upgrades its unit to a batch in a vector
/// taken from the pool that `recycle_batch` fills: the pooled allocation
/// itself, capacity intact.
#[test]
fn a_batch_reuses_a_recycled_vector() {
    let mut fx = EffectBuffer::new();
    let recycled: Vec<Message> = Vec::with_capacity(64);
    let allocation = recycled.as_ptr();
    fx.recycle_batch(recycled);
    assert_eq!(fx.pooled_batches(), 1);
    let to = NodeId::new(3);
    fx.emit_send(to, tagged_message(0));
    assert_eq!(fx.pooled_batches(), 1, "a single send takes no batch");
    fx.emit_send(to, tagged_message(1));
    assert_eq!(fx.pooled_batches(), 0);
    let Some(Output::SendBatch { messages, .. }) = fx.drain().next() else {
        panic!("two sends to one destination form a batch");
    };
    assert_eq!(messages.capacity(), 64);
    assert_eq!(
        messages.as_ptr(),
        allocation,
        "the pooled allocation itself"
    );
    assert_eq!(messages, vec![tagged_message(0), tagged_message(1)]);
}

/// One input of a dispatch round, generated from `(kind, a, b)`: a timer, a
/// client put or get, or a wire frame of puts, gets and a digest whose
/// request ids repeat often enough to exercise admission.
fn round_input(
    host: &mut NodeHost<MemoryStore>,
    (kind, a, b): (u8, u64, u64),
    hosts: usize,
    now: SimTime,
) {
    let key = Key::from_user_key(&format!("lent-{b}"));
    match kind {
        0 => host.enqueue_timer(TimerKind::ALL[a as usize % TimerKind::ALL.len()], now),
        1 => host.enqueue_client_request(
            7,
            ClientRequest::Put {
                id: RequestId::new(7, a),
                key,
                version: Version::new(a + 1),
                value: Value::from_bytes(format!("v{a}").as_bytes()),
            },
            now,
        ),
        2 => host.enqueue_client_request(
            7,
            ClientRequest::Get {
                id: RequestId::new(7, a),
                key,
                version: None,
            },
            now,
        ),
        _ => {
            let phase = if a % 2 == 0 {
                DisseminationPhase::Global
            } else {
                DisseminationPhase::IntraSlice
            };
            let put = Message::Put(Arc::new(PutRequest {
                id: RequestId::new(8, a),
                client: 8,
                object: StoredObject::new(key, Version::new(a + 1), Value::from_bytes(b"framed")),
                phase,
                ttl: 2,
            }));
            let get = Message::Get(Arc::new(GetRequest {
                id: RequestId::new(8, a / 2),
                client: 8,
                key,
                version: None,
                phase,
                ttl: 2,
            }));
            let digest = Message::AntiEntropyDigest {
                digest: Arc::new(StoreDigest::new()),
                range: KeyRange::FULL,
            };
            let messages = match kind {
                3 => vec![put],
                4 => vec![get, put],
                _ => vec![put.clone(), digest, get, put],
            };
            let mut bytes = Vec::new();
            encode_frame(NodeId::new(b % hosts as u64), &messages, &mut bytes)
                .expect("a small frame encodes");
            host.enqueue_frame(&bytes, now)
                .expect("an encoded frame walks");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A scratch lent from host to host changes nothing a host flushes:
    /// rounds of timer, client and frame inputs interleaved across hosts
    /// that all borrow one shared scratch produce exactly the outputs —
    /// units, order, messages — of twin hosts each dispatching on its own
    /// buffer. Every hand-back leaves the scratch with no buffered effect
    /// and a cleared destination table, so no effect of one host's round
    /// leaks into the next, and the borrowing hosts never allocate a
    /// scratch of their own.
    #[test]
    fn a_lent_scratch_flushes_what_a_host_owned_buffer_flushes(
        capacities in proptest::collection::vec(1u64..10_000, 3..6),
        rounds in proptest::collection::vec(
            (0usize..6, proptest::collection::vec((0u8..6, 0u64..24, 0u64..6), 1..5)),
            1..40,
        ),
    ) {
        let hosts = capacities.len();
        let mut owning: Vec<NodeHost<MemoryStore>> =
            warm_cluster(&capacities, 2).into_iter().map(NodeHost::new).collect();
        let mut borrowing: Vec<NodeHost<MemoryStore>> =
            warm_cluster(&capacities, 2).into_iter().map(NodeHost::new).collect();
        let mut scratch = DispatchScratch::new();
        for (step, (host, inputs)) in rounds.iter().enumerate() {
            let host = host % hosts;
            let now = SimTime::from_millis(step as u64 * 250);
            let mut expected = Vec::new();
            for &input in inputs {
                round_input(&mut owning[host], input, hosts, now);
            }
            owning[host].flush_effects(|output| expected.push(output));

            let mut lent = Vec::new();
            let borrower = &mut borrowing[host];
            borrower.swap_scratch(&mut scratch);
            for &input in inputs {
                round_input(borrower, input, hosts, now);
            }
            borrower.flush_effects(|output| lent.push(output));
            borrower.swap_scratch(&mut scratch);

            prop_assert!(scratch.is_empty(), "round {step} left state in the scratch");
            prop_assert!(!borrower.scratch().is_allocated());
            prop_assert_eq!(&lent, &expected);
            for output in lent {
                if let Output::SendBatch { messages, .. } = output {
                    scratch.recycle_batch(messages);
                }
            }
        }
        for (owner, borrower) in owning.iter().zip(&borrowing) {
            prop_assert_eq!(owner.node().stats(), borrower.node().stats());
        }
    }
}
