//! The worker-pool runtime for DataFlasks nodes: one runtime, two
//! transports.
//!
//! [`Cluster<T>`](Cluster) hosts thousands of nodes on a few threads: every
//! node lives in a `NodeHost` slot with its own mailbox, a small worker pool
//! (default `min(cores, 8)`) pops ready nodes off the one FIFO ready queue
//! of the `core::sched` scheduler, and one `core::wheel` timer wheel drives
//! the periodic protocol timers. Every hop between nodes is a
//! length-prefixed `core::wire` frame — one `SendBatch` = one frame — in a
//! pooled buffer that the worker dispatching it checks whole, decodes only
//! as far as the node admits (`NodeHost::enqueue_frame`: a duplicate request
//! ends at the dedup probe without leaving the buffer) and hands back, so
//! everything a message owns is allocated, used and freed on one thread.
//! The memory a dispatch round works in is the worker's, not the node's:
//! each worker owns one `DispatchScratch` (effect buffer, frame-entry
//! scratch, pool of spent `SendBatch` vectors) and lends it to the host it
//! dispatches for the length of the round, so a round starts on memory the
//! worker's previous round left in cache and a node that is not being
//! dispatched carries no buffers. All of that, plus the fault
//! seam, the client API and the [`Environment`](dataflasks_core::Environment)
//! surface, is written once; the [`Transport`] decides only where an encoded
//! frame goes:
//!
//! * [`InProcess`] ([`AsyncCluster`]) offers it straight to the
//!   destination's mailbox. With [`AsyncClusterConfig::mailbox_capacity`]
//!   set, a saturated destination hands it back and the sending worker
//!   holds it, in per-destination order, until the receiver drains —
//!   backpressure without loss, observable via
//!   [`Cluster::saturation_events`].
//! * [`Socket`] ([`SocketCluster`]) writes it to a real socket. Every node
//!   runs behind its own listener (TCP on loopback or a Unix-domain socket,
//!   see [`SocketTransportKind`]); peers dial each other lazily through a
//!   connection pool with exponential backoff; readiness reactors
//!   (`epoll`/`kqueue`) flush each destination's queued frames with one
//!   `writev` per kernel crossing and cut inbound streams back into frames
//!   with a per-connection [`ReassemblyBuffer`] — the reactor checks only
//!   the length prefix (an oversized announcement is rejected from the
//!   header alone). A frame that completes but fails to decode is counted
//!   once and closes its connection; the peer re-dials. With a bounded
//!   mailbox, a saturated node's connections stop being read and the kernel
//!   socket buffers do the holding. Crashing a node closes its connections
//!   too; a restart re-establishes connectivity from scratch.
//!
//! Every path that discards a frame — a crash purge, a refused push, a
//! decode reject, a removed connection's holdover — returns its buffer to
//! the arena, so a warm cluster's frame path does not allocate. Both
//! transports implement the same driver surface as the simulator, and the
//! three-way differential parity suite holds them to identical
//! client-visible behaviour, crash→restart included.
//!
//! # Example
//!
//! ```
//! use dataflasks_net_env::{PipelinedClient, SocketCluster};
//! use dataflasks_types::{Duration, Key, NodeConfig, Value, Version};
//!
//! // Three nodes, three loopback TCP listeners, real socket hops.
//! let cluster = SocketCluster::start(3, NodeConfig::for_system_size(3, 1), 7);
//! cluster
//!     .put(Key::from_user_key("a"), Version::new(1), Value::from_bytes(b"x"), Duration::from_secs(10))
//!     .unwrap();
//! let read = cluster
//!     .get(Key::from_user_key("a"), None, Duration::from_secs(10))
//!     .unwrap();
//! assert_eq!(read.unwrap().value.as_slice(), b"x");
//! cluster.shutdown();
//! ```

// `deny` instead of `forbid`: the reactor's per-OS selector backends carry
// the only `unsafe` in the crate (hand-declared epoll/kqueue syscalls, since
// the workspace vendors neither mio nor libc) behind scoped allows.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod cluster;
mod in_process;
mod outbound;
mod reactor;
mod reassembly;
mod socket;
mod transport;

pub use cluster::{Cluster, SpawnTimings, Transport};
pub use dataflasks_core::PipelinedClient;
pub use in_process::{AsyncClusterConfig, InProcess};
pub use reassembly::ReassemblyBuffer;
pub use socket::{Socket, SocketClusterConfig};
pub use transport::SocketTransportKind;

/// The in-process cluster: frames travel through mailboxes.
pub type AsyncCluster = Cluster<InProcess>;

/// The socket cluster: frames travel over TCP loopback or Unix-domain
/// sockets.
pub type SocketCluster = Cluster<Socket>;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::io::{ErrorKind, Read, Write};
    use std::sync::Arc;
    use std::time::{Duration as StdDuration, Instant};

    use super::*;
    use crate::cluster::Input;
    use crate::transport::Stream;
    use dataflasks_core::wire::encode_frame;
    use dataflasks_core::{
        ClientRequest, ClusterSpec, DataFlasksNode, DefaultStore, DisseminationPhase, Environment,
        GatewayError, Message, PutRequest, ReplyBody, Ticket, TicketOutcome,
    };
    use dataflasks_store::DataStore;
    use dataflasks_types::{
        Duration, Key, NodeConfig, NodeId, PssConfig, RequestId, StoredObject, Value, Version,
    };

    /// A configuration with fast gossip so tests converge quickly.
    fn fast_config(nodes: usize, slices: u32) -> NodeConfig {
        let mut config = NodeConfig::for_system_size(nodes, slices);
        config.pss = PssConfig {
            shuffle_period: Duration::from_millis(50),
            ..config.pss
        };
        config.slicing.gossip_period = Duration::from_millis(50);
        config.replication.anti_entropy_period = Duration::from_millis(100);
        config
    }

    fn put_request(sequence: u64, key: Key, value: &[u8]) -> ClientRequest {
        ClientRequest::Put {
            id: RequestId::new(9, sequence),
            key,
            version: Version::new(1),
            value: Value::from_bytes(value),
        }
    }

    /// Put, then get, through the blocking client; `check` sees the cluster
    /// before shutdown.
    fn roundtrip<T: Transport>(cluster: Cluster<T>, check: impl FnOnce(&Cluster<T>)) {
        std::thread::sleep(StdDuration::from_millis(300));
        let key = Key::from_user_key("roundtrip");
        let timeout = Duration::from_secs(10);
        cluster
            .put(key, Version::new(1), Value::from_bytes(b"value"), timeout)
            .expect("put should be acknowledged");
        let read = cluster
            .get(key, None, timeout)
            .expect("get should complete");
        assert_eq!(read.unwrap().value.as_slice(), b"value");
        check(&cluster);
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 4);
        assert!(nodes.iter().any(|n| n.store().get_latest(key).is_some()));
    }

    #[test]
    fn put_then_get_roundtrip_through_the_worker_pool() {
        roundtrip(AsyncCluster::start(4, fast_config(4, 1), 11), |_| {});
    }

    #[test]
    fn put_then_get_roundtrip_over_tcp_loopback() {
        roundtrip(SocketCluster::start(4, fast_config(4, 1), 11), |cluster| {
            assert!(
                cluster.dial_count() > 0,
                "protocol traffic must have dialed real connections"
            );
            assert_eq!(cluster.wire_reject_count(), 0);
        });
    }

    #[cfg(unix)]
    #[test]
    fn put_then_get_roundtrip_over_unix_domain_sockets() {
        let spec = ClusterSpec::new(fast_config(4, 1), vec![400, 300, 200, 100], 13);
        let config = SocketClusterConfig {
            transport: SocketTransportKind::Unix,
            ..SocketClusterConfig::default()
        };
        roundtrip(SocketCluster::start_spec_with(&spec, config), |_| {});
    }

    fn serves_through_the_environment<T: Transport>() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            21,
        );
        let mut cluster = Cluster::<T>::start_spec(&spec);
        let key = Key::from_user_key("env-driven");
        cluster.submit_client_request(9, NodeId::new(0), put_request(0, key, b"spec"));
        let replies = cluster.drain_effects(Duration::from_secs(10));
        assert!(
            replies
                .iter()
                .any(|r| matches!(r.body, ReplyBody::PutAck { .. })),
            "expected an acknowledgement, got {replies:?}"
        );
        let nodes = cluster.shutdown();
        // Single slice and warm views: every node replicated the object.
        assert!(nodes.iter().all(|n| n.store().get_latest(key).is_some()));
    }

    #[test]
    fn spec_started_cluster_serves_requests_through_the_environment() {
        serves_through_the_environment::<InProcess>();
        serves_through_the_environment::<Socket>();
    }

    fn failed_node_stops_answering<T: Transport>() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 22);
        let mut cluster = Cluster::<T>::start_spec(&spec);
        let victim = NodeId::new(2);
        cluster.fail_node(victim);
        let request = put_request(1, Key::from_user_key("to-the-dead"), b"lost");
        cluster.submit_client_request(9, victim, request);
        let replies = cluster.drain_effects(Duration::from_millis(400));
        assert!(replies.is_empty(), "a failed contact cannot reply");
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 3, "failed nodes still return their state");
    }

    #[test]
    fn failed_nodes_stop_answering() {
        failed_node_stops_answering::<InProcess>();
    }

    #[test]
    fn failed_nodes_stop_answering_and_connections_drop() {
        failed_node_stops_answering::<Socket>();
    }

    /// A restarted node answers again with its volatile state lost;
    /// `dials`, where the transport has connections, must show they were
    /// re-established.
    fn restarted_node_rejoins<T: Transport>(dials: Option<fn(&Cluster<T>) -> u64>) {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            25,
        );
        let mut cluster = Cluster::<T>::start_spec(&spec);
        let key = Key::from_user_key("lost-on-restart");
        cluster.submit_client_request(9, NodeId::new(0), put_request(0, key, b"volatile"));
        assert!(!cluster.drain_effects(Duration::from_secs(10)).is_empty());
        let dials_before = dials.map(|dials| dials(&cluster));
        let victim = NodeId::new(1);
        cluster.restart_node(victim); // restart implies the crash
        let get = ClientRequest::Get {
            id: RequestId::new(9, 1),
            key,
            version: None,
        };
        cluster.submit_client_request(9, victim, get);
        let replies = cluster.drain_effects(Duration::from_secs(10));
        assert!(
            !replies.is_empty(),
            "a restarted contact must answer requests"
        );
        if let (Some(dials), Some(before)) = (dials, dials_before) {
            assert!(
                dials(&cluster) > before,
                "post-restart traffic must re-dial the closed connections"
            );
        }
        let nodes = cluster.shutdown();
        let restarted = nodes.iter().find(|n| n.id() == victim).unwrap();
        assert_eq!(restarted.store().len(), 0, "volatile state must be lost");
        assert!(restarted.slice().is_some(), "membership rejoins warm");
    }

    #[test]
    fn restarted_node_rejoins_with_empty_volatile_state() {
        restarted_node_rejoins::<InProcess>(None);
    }

    #[test]
    fn restarted_node_rejoins_and_reestablishes_connections() {
        restarted_node_rejoins::<Socket>(Some(SocketCluster::dial_count));
    }

    /// Every contact the blocking API draws is live: repeated puts all
    /// succeed instead of sporadically failing on the crashed node.
    fn blocking_puts_avoid_a_failed_contact<T: Transport>() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 23);
        let mut cluster = Cluster::<T>::start_spec(&spec);
        cluster.fail_node(NodeId::new(2));
        for i in 0..8u64 {
            let key = Key::from_user_key(&format!("survivor-{i}"));
            cluster
                .put(
                    key,
                    Version::new(1),
                    Value::from_bytes(b"ok"),
                    Duration::from_secs(10),
                )
                .expect("live contacts must serve the put");
        }
        cluster.shutdown();
    }

    #[test]
    fn blocking_api_avoids_failed_contacts() {
        blocking_puts_avoid_a_failed_contact::<InProcess>();
        blocking_puts_avoid_a_failed_contact::<Socket>();
    }

    /// Writing an older version after a newer one must not shadow it: once
    /// the epidemic settles, reads return the newest version.
    fn overwrites_respect_versions<T: Transport>() {
        let cluster = Cluster::<T>::start(4, fast_config(4, 1), 2);
        std::thread::sleep(StdDuration::from_millis(300));
        let key = Key::from_user_key("versioned");
        let timeout = Duration::from_secs(10);
        for (version, value) in [(1, b"old"), (2, b"new"), (1, b"bad")] {
            cluster
                .put(
                    key,
                    Version::new(version),
                    Value::from_bytes(value),
                    timeout,
                )
                .expect("put should be acknowledged");
        }
        // Replicas converge on version 2 within a few dissemination and
        // anti-entropy rounds; retry the read until it shows.
        let deadline = Instant::now() + StdDuration::from_secs(10);
        let latest = loop {
            let read = cluster
                .get(key, None, timeout)
                .unwrap()
                .expect("object present");
            if read.version == Version::new(2) || Instant::now() > deadline {
                break read;
            }
            std::thread::sleep(StdDuration::from_millis(100));
        };
        assert_eq!(latest.version, Version::new(2));
        assert_eq!(latest.value.as_slice(), b"new");
        cluster.shutdown();
    }

    #[test]
    fn older_versions_never_shadow_newer_ones_on_either_transport() {
        overwrites_respect_versions::<InProcess>();
        overwrites_respect_versions::<Socket>();
    }

    /// Tiny mailboxes under a bursty fan-out on a multi-worker pool:
    /// saturation must surface as held (retried) deliveries, never as lost
    /// replies — every put is acknowledged and every key is held somewhere
    /// (the fan-out covers a subset of the slice per hop, so per-node
    /// totals may differ; loss would show as a key vanishing everywhere).
    fn backpressure_without_loss<T: Transport>(nodes: usize, config: T::Config) {
        let spec = ClusterSpec::new(fast_config(nodes, 1), vec![500; nodes], 31);
        let mut cluster = Cluster::<T>::start_spec_with(&spec, config);
        cluster.set_drain_idle_grace(Duration::from_millis(300));
        let burst = 3 * nodes as u64;
        let key = |sequence: u64| Key::from_user_key(&format!("burst-{sequence}"));
        for sequence in 0..burst {
            let contact = NodeId::new(sequence % nodes as u64);
            let request = put_request(sequence, key(sequence), b"pressure");
            cluster.submit_client_request(9, contact, request);
        }
        let replies = cluster.drain_effects(Duration::from_secs(20));
        let acked: HashSet<_> = replies
            .iter()
            .filter(|r| matches!(r.body, ReplyBody::PutAck { .. }))
            .map(|r| r.request)
            .collect();
        assert_eq!(
            acked.len(),
            burst as usize,
            "every burst put must be acknowledged despite saturation \
             ({} saturation events)",
            cluster.saturation_events()
        );
        let nodes = cluster.shutdown();
        for sequence in 0..burst {
            assert!(
                nodes
                    .iter()
                    .any(|n| n.store().get_latest(key(sequence)).is_some()),
                "burst-{sequence} was lost under saturation"
            );
        }
    }

    #[test]
    fn bounded_mailboxes_backpressure_without_losing_traffic() {
        let config = AsyncClusterConfig {
            workers: 4,
            mailbox_capacity: 1,
        };
        backpressure_without_loss::<InProcess>(8, config);
    }

    #[test]
    fn bounded_mailboxes_backpressure_through_the_socket_without_loss() {
        let config = SocketClusterConfig {
            workers: 2,
            mailbox_capacity: 1,
            ..SocketClusterConfig::default()
        };
        backpressure_without_loss::<Socket>(6, config);
    }

    fn submit_under_the_reserved_client_id<T: Transport>() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 24);
        let mut cluster = Cluster::<T>::start_spec(&spec);
        let get = ClientRequest::Get {
            id: RequestId::new(1, 0),
            key: Key::from_user_key("collision"),
            version: None,
        };
        cluster.submit_client_request(u64::MAX, NodeId::new(0), get);
    }

    /// An Environment submission under the blocking API's client id would
    /// silently steal its replies, so it must panic instead.
    #[test]
    #[should_panic(expected = "reserved for the blocking put/get API")]
    fn reserved_blocking_client_id_is_rejected() {
        let in_process = std::panic::catch_unwind(submit_under_the_reserved_client_id::<InProcess>);
        assert!(in_process.is_err(), "the in-process cluster must panic too");
        submit_under_the_reserved_client_id::<Socket>();
    }

    #[test]
    fn error_display_is_informative() {
        assert!(GatewayError::Timeout.to_string().contains("timed out"));
        assert!(GatewayError::Shutdown.to_string().contains("shut down"));
    }

    #[test]
    fn many_nodes_run_on_a_bounded_worker_pool() {
        // Far more nodes than workers: the readiness queue multiplexes.
        let spec = ClusterSpec::new(fast_config(48, 4), vec![500; 48], 17);
        let config = AsyncClusterConfig {
            workers: 3,
            ..AsyncClusterConfig::default()
        };
        let cluster = AsyncCluster::start_spec_with(&spec, config);
        assert_eq!(cluster.worker_count(), 3);
        std::thread::sleep(StdDuration::from_millis(400));
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 48);
        // Gossip ran across the whole cluster on three threads.
        assert!(nodes.iter().any(|n| n.stats().total_messages() > 0));
        assert!(nodes.iter().all(|n| n.slice().is_some()));
    }

    #[test]
    fn gossip_flows_between_nodes_over_sockets() {
        let spec = ClusterSpec::new(fast_config(6, 1), vec![500; 6], 17);
        let cluster = SocketCluster::start_spec(&spec);
        std::thread::sleep(StdDuration::from_millis(600));
        let nodes = cluster.shutdown();
        assert!(
            nodes.iter().any(|n| n.stats().total_received() > 0),
            "periodic gossip must travel the sockets"
        );
        assert!(nodes.iter().all(|n| n.stats().wire_rejects == 0));
    }

    /// Armed frame corruption must be fully absorbed: every corrupted frame
    /// is rejected by the receiver's decoder (and counted), no worker
    /// panics, and the cluster keeps serving requests.
    #[test]
    fn injected_corruption_surfaces_as_wire_rejects() {
        let spec = ClusterSpec::new(fast_config(4, 1), vec![400, 300, 200, 100], 33);
        let cluster = AsyncCluster::start_spec(&spec);
        let plan = cluster.fault_plan();
        let budget = 8;
        plan.arm_corruption(budget);
        // Gossip traffic spends the budget; wait until it is gone, then give
        // the corrupted frames time to be dispatched (and rejected).
        let deadline = Instant::now() + StdDuration::from_secs(10);
        while plan.corrupted_frames() < budget && Instant::now() < deadline {
            std::thread::sleep(StdDuration::from_millis(20));
        }
        assert_eq!(plan.corrupted_frames(), budget, "traffic spends the budget");
        std::thread::sleep(StdDuration::from_millis(500));
        cluster
            .put(
                Key::from_user_key("after-corruption"),
                Version::new(1),
                Value::from_bytes(b"still alive"),
                Duration::from_secs(5),
            )
            .expect("the cluster must survive injected corruption");
        assert_eq!(cluster.wire_reject_count(), budget);
        let nodes = cluster.shutdown();
        assert_eq!(
            cluster_wire_rejects(&nodes),
            budget,
            "every corrupted frame is rejected exactly once"
        );
    }

    #[test]
    fn fail_restart_cycles_do_not_leak_reactor_tokens() {
        let spec = ClusterSpec::new(fast_config(4, 1), vec![400, 300, 200, 100], 35);
        let mut cluster = SocketCluster::start_spec(&spec);
        std::thread::sleep(StdDuration::from_millis(400)); // let the mesh form
        let victim = NodeId::new(2);
        for cycle in 0..5u32 {
            let dials = cluster.dial_count();
            cluster.restart_node(victim);
            let key = Key::from_user_key(&format!("cycle-{cycle}"));
            cluster
                .put(
                    key,
                    Version::new(1),
                    Value::from_bytes(b"x"),
                    Duration::from_secs(10),
                )
                .expect("cluster must stay writable across restart cycles");
            // Replication and gossip traffic to the restarted node must
            // re-dial the connection its crash closed.
            assert!(
                eventually(|| cluster.dial_count() > dials),
                "cycle {cycle}: the re-dial after restart was never observed"
            );
        }
        std::thread::sleep(StdDuration::from_millis(200)); // cleanup lists drain
                                                           // Every legitimate registration in this 4-node cluster: one listener
                                                           // per node, one pooled dial per destination, and the matching
                                                           // accepted connection at that destination — plus slack for a re-dial
                                                           // racing an unreaped predecessor. Tokens a crash failed to free
                                                           // would accumulate per cycle and push the live count past this.
        let ceiling = (4 + 4 + 4 + 4) as u64;
        let live = cluster.reactor_live_tokens();
        assert!(
            live <= ceiling,
            "stale reactor tokens leaked across restarts: {live} live registrations"
        );
        assert!(
            cluster.reactor_registration_count() > live,
            "five crash cycles must have registered and freed extra tokens"
        );
        cluster.shutdown();
    }

    #[test]
    fn saturated_connections_park_and_resume_without_frame_loss() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 33);
        let config = SocketClusterConfig {
            workers: 1,
            mailbox_capacity: 1,
            ..SocketClusterConfig::default()
        };
        let cluster = SocketCluster::start_spec_with(&spec, config);
        // Blast one raw connection with valid frames far faster than a
        // single worker drains a one-slot mailbox: the reactor must park the
        // connection (dropping read interest), wait for the worker's nudge,
        // and deliver the holdover — every frame exactly once.
        let mut frame = Vec::new();
        dataflasks_core::wire::encode_frame(
            NodeId::new(9),
            &[Message::AntiEntropyPush { objects: [].into() }],
            &mut frame,
        )
        .unwrap();
        let total = 200u64;
        let mut raw = dial(&cluster, 0);
        for _ in 0..total {
            raw.write_all(&frame).unwrap();
        }
        assert!(
            eventually(|| cluster.saturation_events() > 0),
            "a one-slot mailbox under a 200-frame burst must saturate"
        );
        // Give the park/nudge/re-arm pipeline time to drain the burst.
        std::thread::sleep(StdDuration::from_millis(1500));
        let nodes = cluster.shutdown();
        let received = nodes[0].stats().total_received();
        assert!(
            received >= total,
            "saturation holdover lost frames: {received}/{total} delivered"
        );
        assert!(
            received <= total + 50,
            "saturation holdover duplicated frames: {received}/{total} delivered"
        );
        assert_eq!(cluster_wire_rejects(&nodes), 0);
    }

    fn cluster_wire_rejects(nodes: &[DataFlasksNode<DefaultStore>]) -> u64 {
        nodes.iter().map(|n| n.stats().wire_rejects).sum()
    }

    /// A configuration whose timers never fire within a test, so every
    /// frame on the wire is one the test caused.
    fn quiet_config(nodes: usize) -> NodeConfig {
        let far = Duration::from_secs(3600);
        let mut config = NodeConfig::for_system_size(nodes, 1);
        config.pss.shuffle_period = far;
        config.slicing.gossip_period = far;
        config.replication.anti_entropy_period = far;
        config
    }

    fn quiet_cluster(seed: u64) -> SocketCluster {
        let spec = ClusterSpec::new(quiet_config(3), vec![300, 200, 100], seed);
        let config = SocketClusterConfig {
            workers: 1,
            ..SocketClusterConfig::default()
        };
        SocketCluster::start_spec_with(&spec, config)
    }

    /// A raw connection to `slot`'s listener.
    fn dial(cluster: &SocketCluster, slot: usize) -> Stream {
        Stream::connect(&cluster.shared.transport.endpoint(slot).addr).unwrap()
    }

    /// One frame pushing a single repair object for `key`.
    fn push_frame(key: Key) -> Vec<u8> {
        let object = StoredObject::new(key, Version::new(1), Value::from_bytes(b"pushed"));
        let message = Message::AntiEntropyPush {
            objects: vec![object].into(),
        };
        let mut frame = Vec::new();
        dataflasks_core::wire::encode_frame(
            NodeId::new(9),
            std::slice::from_ref(&message),
            &mut frame,
        )
        .unwrap();
        frame
    }

    /// Polls `condition` for up to five seconds.
    fn eventually(mut condition: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + StdDuration::from_secs(5);
        while Instant::now() < deadline {
            if condition() {
                return true;
            }
            std::thread::sleep(StdDuration::from_millis(2));
        }
        condition()
    }

    /// Whether the cluster closes the raw (non-blocking) connection.
    fn observes_eof(raw: &mut Stream) -> bool {
        let mut scratch = [0u8; 64];
        eventually(|| match raw.read(&mut scratch) {
            Ok(0) => true,
            Ok(_) => false,
            Err(error) => !matches!(error.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
        })
    }

    fn stores(cluster: &SocketCluster, slot: usize, key: Key) -> bool {
        let host = cluster.shared.slots[slot].host.lock();
        host.node().store().get_latest(key).is_some()
    }

    #[test]
    fn a_corrupt_frame_is_rejected_once_by_the_worker_and_closes_its_connection() {
        let cluster = quiet_cluster(29);
        // Intact framing, flipped tag byte: the reactor cuts and mails it,
        // the worker's decode rejects it.
        let mut corrupt = push_frame(Key::from_user_key("never-stored"));
        corrupt[16] ^= 0x80;
        let mut raw = dial(&cluster, 0);
        raw.write_all(&corrupt).unwrap();
        assert!(
            observes_eof(&mut raw),
            "the corrupt frame's connection must be closed"
        );
        assert_eq!(cluster.wire_reject_count(), 1);
        // The node keeps serving: a fresh connection's frame is dispatched.
        let key = Key::from_user_key("served-after-reject");
        let mut fresh = dial(&cluster, 0);
        fresh.write_all(&push_frame(key)).unwrap();
        assert!(
            eventually(|| stores(&cluster, 0, key)),
            "a fresh connection must be served after the reject"
        );
        assert_eq!(cluster.wire_reject_count(), 1, "counted exactly once");
        let nodes = cluster.shutdown();
        assert_eq!(nodes[0].stats().wire_rejects, 1);
        assert!(nodes[1..].iter().all(|n| n.stats().wire_rejects == 0));
        assert!(nodes[0]
            .store()
            .get_latest(Key::from_user_key("never-stored"))
            .is_none());
    }

    #[test]
    fn a_garbage_stream_stays_counters_and_drops_the_connection() {
        let cluster = quiet_cluster(30);
        // Fifty well-framed bodies of 0xFF (an absurd message count), a valid
        // frame the close may or may not outrun, then a torn tail.
        let mut garbage = Vec::new();
        for _ in 0..50 {
            garbage.extend_from_slice(&24u32.to_le_bytes());
            garbage.extend_from_slice(&[0xFF; 24]);
        }
        garbage.extend_from_slice(&push_frame(Key::from_user_key("behind-garbage")));
        garbage.extend_from_slice(&1000u32.to_le_bytes());
        garbage.extend_from_slice(&[0xAB; 10]);
        let mut raw = dial(&cluster, 1);
        raw.write_all(&garbage).unwrap();
        assert!(observes_eof(&mut raw), "a garbage stream must be dropped");
        // The single worker survived the hostile bytes: the cluster serves.
        cluster
            .put(
                Key::from_user_key("after-garbage"),
                Version::new(1),
                Value::from_bytes(b"x"),
                Duration::from_secs(10),
            )
            .expect("the worker must survive hostile bytes");
        let rejects = cluster.wire_reject_count();
        assert!(
            (1..=50).contains(&rejects),
            "each mailed garbage frame is rejected on its own: {rejects}"
        );
        let nodes = cluster.shutdown();
        assert_eq!(nodes[1].stats().wire_rejects, rejects);
        assert_eq!(cluster_wire_rejects(&nodes), rejects);
    }

    #[test]
    fn an_oversized_announcement_is_rejected_by_the_reactor_with_nothing_mailed() {
        let cluster = quiet_cluster(31);
        let announced = (dataflasks_core::wire::MAX_FRAME_BYTES + 1) as u32;
        let mut raw = dial(&cluster, 2);
        // The header alone, then bytes that would decode if they were cut.
        raw.write_all(&announced.to_le_bytes()).unwrap();
        raw.write_all(&push_frame(Key::from_user_key("behind-oversized")))
            .unwrap();
        assert!(observes_eof(&mut raw));
        assert_eq!(cluster.wire_reject_count(), 1);
        let fresh = cluster.arena_fresh_buffers();
        let recycled = cluster.arena_recycled_buffers();
        assert_eq!(
            fresh + recycled,
            1,
            "only the connection's reassembly buffer: no frame buffer was cut"
        );
        let nodes = cluster.shutdown();
        assert_eq!(nodes[2].stats().wire_rejects, 1);
        assert_eq!(
            nodes[2].stats().total_received(),
            0,
            "nothing reached the mailbox"
        );
    }

    /// A pipelined burst of puts floods the single slice, the victim
    /// crashes with frames in its mailbox and in flight (held by senders,
    /// parked on connections, queued outbound), and comes back — cycle
    /// after cycle. Every buffer ever allocated must idle in the pool or be
    /// `held` by a live connection whenever no frame is in flight: a discard
    /// path that drops a frame instead of returning it breaks that for good.
    fn crash_cycles_return_every_buffer<T: Transport>(
        config: T::Config,
        held: impl Fn(&Cluster<T>) -> usize,
    ) {
        let spec = ClusterSpec::new(quiet_config(6), vec![500; 6], 37);
        let mut cluster = Cluster::<T>::start_spec_with(&spec, config);
        let victim = NodeId::new(5);
        let timeout = Duration::from_secs(10);
        let mut sequence = 0u64;
        let mut cycle = |cluster: &mut Cluster<T>, burst: u64| {
            let tickets: Vec<Ticket> = (0..burst)
                .map(|_| {
                    sequence += 1;
                    cluster
                        .submit_put(
                            Some(NodeId::new(sequence % 3)),
                            Key::from_user_key(&format!("audit-{sequence}")),
                            Version::new(1),
                            Value::from_bytes(&[0x5A; 256]),
                            timeout,
                        )
                        .unwrap()
                })
                .collect();
            cluster.fail_node(victim);
            cluster.restart_node(victim);
            for ticket in tickets {
                let outcome = cluster.await_ticket(ticket, timeout).unwrap();
                assert!(matches!(outcome, TicketOutcome::Acked(_)), "{outcome:?}");
            }
        };
        let unaccounted = |cluster: &Cluster<T>| {
            let arena = &cluster.shared.arena;
            arena.fresh_buffers() as i64 - (arena.idle_buffers() + held(cluster)) as i64
        };
        for _ in 0..3 {
            cycle(&mut cluster, 32);
        }
        assert!(
            eventually(|| unaccounted(&cluster) == 0),
            "the warm-up floods never died down"
        );
        // How many frames are in flight at once depends on thread timing;
        // stock the pool with headroom over the warm-up's peak so that only
        // buffers going missing can make the arena allocate again.
        let stock = cluster.arena_fresh_buffers() as usize + 64;
        let headroom: Vec<Vec<u8>> = (0..stock).map(|_| cluster.shared.arena.take()).collect();
        for buffer in headroom {
            cluster.shared.arena.give(buffer);
        }
        let warm = cluster.arena_fresh_buffers();
        for _ in 0..6 {
            cycle(&mut cluster, 32);
        }
        assert!(
            eventually(|| unaccounted(&cluster) == 0),
            "{} frame buffers never came back to the arena",
            unaccounted(&cluster)
        );
        assert_eq!(
            cluster.arena_fresh_buffers(),
            warm,
            "a warm arena must serve crash cycles without allocating"
        );
        cluster.shutdown();
    }

    /// A worker lends its own dispatch scratch to the host it dispatches and
    /// keeps every spent `SendBatch` vector in that scratch's pool: the round
    /// that first sends two messages to one peer takes a fresh vector from
    /// the worker's scratch, an identical round then batches from the
    /// stocked pool without allocating, and the dispatched host's own
    /// scratch never allocates at all. One worker, so both rounds run on
    /// the same scratch.
    fn spent_batches_return_to_the_worker_pool<T: Transport>(config: T::Config) {
        let spec = ClusterSpec::new(quiet_config(2), vec![200, 100], 41);
        let cluster = Cluster::<T>::start_spec_with(&spec, config);
        let stored = || cluster.shared.slots[1].host.lock().node().store().len();
        // Two fresh puts in one frame: node 0 stores both and fans each out
        // to its only slice peer, node 1 — one batch of two.
        let round = |sequence: u64| {
            let put = |sequence: u64| {
                Message::Put(Arc::new(PutRequest {
                    id: RequestId::new(8, sequence),
                    client: 8,
                    object: StoredObject::new(
                        Key::from_user_key(&format!("pooled-{sequence}")),
                        Version::new(1),
                        Value::from_bytes(b"batched"),
                    ),
                    phase: DisseminationPhase::Global,
                    ttl: 1,
                }))
            };
            let mut bytes = Vec::new();
            encode_frame(
                NodeId::new(9),
                &[put(sequence), put(sequence + 1)],
                &mut bytes,
            )
            .unwrap();
            assert!(cluster.shared.mail(0, Input::Frame { bytes, conn: None }));
        };
        round(0);
        // Node 1 stores once node 0's round is over; the worker recycles and
        // publishes its count before it releases node 0's host.
        assert!(eventually(|| stored() == 2), "the batch never arrived");
        assert!(
            !cluster.shared.slots[0].host.lock().scratch().is_allocated(),
            "the round must run on the worker's scratch, not the host's own"
        );
        let warm = cluster.batch_fresh_vectors();
        assert!(warm > 0, "the worker's scratch never batched");
        round(2);
        assert!(
            eventually(|| stored() == 4),
            "the second batch never arrived"
        );
        assert_eq!(
            cluster.batch_fresh_vectors(),
            warm,
            "a warm worker must batch from the vectors its pool got back"
        );
        cluster.shutdown();
    }

    #[test]
    fn the_worker_lends_its_scratch_and_pools_spent_batch_vectors() {
        spent_batches_return_to_the_worker_pool::<InProcess>(AsyncClusterConfig {
            workers: 1,
            ..AsyncClusterConfig::default()
        });
        spent_batches_return_to_the_worker_pool::<Socket>(SocketClusterConfig {
            workers: 1,
            ..SocketClusterConfig::default()
        });
    }

    #[test]
    fn crash_cycles_under_traffic_return_every_frame_buffer_to_the_arena() {
        // Mailboxes small enough that floods hold frames at the senders
        // (in-process) or park holdovers on connections (socket).
        let in_process = AsyncClusterConfig {
            workers: 1,
            mailbox_capacity: 4,
        };
        crash_cycles_return_every_buffer::<InProcess>(in_process, |_| 0);
        let socket = SocketClusterConfig {
            workers: 1,
            mailbox_capacity: 4,
            ..SocketClusterConfig::default()
        };
        // A live connection holds its reassembly buffer.
        crash_cycles_return_every_buffer::<Socket>(socket, |cluster| {
            cluster.shared.transport.live_conns()
        });
    }
}
