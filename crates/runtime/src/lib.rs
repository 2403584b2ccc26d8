//! A threaded in-process runtime for DataFlasks nodes.
//!
//! The discrete-event simulator (`dataflasks-sim`) is what the experiments
//! use, but the node state machines are transport-agnostic; this crate runs
//! the very same [`DataFlasksNode`] code with one operating-system thread per
//! node and channels as the network, demonstrating that the protocol layer
//! carries over unchanged to a concurrent deployment.
//!
//! Each node thread hosts its node in a [`NodeHost`] — the same dispatch
//! pipeline the simulator uses — and waits on a core [`Inbox`] (the shared
//! mailbox of the `dataflasks_core::sched` scheduling layer, absorbing
//! backlog up to the shared [`SchedulerConfig`] run budget per dispatch
//! round), so the only runtime-specific code is how one [`Output`] is
//! routed: protocol sends become inbox pushes, client replies land in the
//! cluster-wide reply inbox, and timer re-arms update the thread's local
//! deadline table. The cluster as a whole implements [`Environment`], the
//! driver interface shared with the simulator; this runtime is the
//! one-thread-per-host degenerate case of the scheduling layer, while the
//! worker-pool runtime (`dataflasks-net-env`) multiplexes the same hosts
//! over a few threads.
//!
//! * [`ThreadedCluster`] — spawns the node threads, routes messages between
//!   them, pushes client requests into a live contact's inbox (the rest of
//!   the client API is `core::gateway`'s) and joins everything on shutdown.
//!
//! # Example
//!
//! ```
//! use dataflasks_core::PipelinedClient;
//! use dataflasks_runtime::ThreadedCluster;
//! use dataflasks_types::{Duration, Key, NodeConfig, Value, Version};
//!
//! // A tiny single-slice cluster keeps the doctest fast.
//! let cluster = ThreadedCluster::start(3, NodeConfig::for_system_size(3, 1), 7);
//! cluster
//!     .put(Key::from_user_key("a"), Version::new(1), Value::from_bytes(b"x"), Duration::from_secs(5))
//!     .unwrap();
//! let read = cluster
//!     .get(Key::from_user_key("a"), None, Duration::from_secs(5))
//!     .unwrap();
//! assert_eq!(read.unwrap().value.as_slice(), b"x");
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataflasks_core::fault::{FaultPlan, InjectedCounters, LinkVerdict};
use dataflasks_core::gateway::BLOCKING_CLIENT;
use dataflasks_core::{
    BootstrapRounds, ClientGateway, ClientId, ClientPort, ClientReply, ClientRequest, ClusterSpec,
    DataFlasksNode, DefaultStore, Environment, GatewayError, Inbox, Message, NodeHost, Output,
    RecvOutcome, SchedulerConfig, TimerKind,
};

use dataflasks_membership::NodeDescriptor;
use dataflasks_store::ShardedStore;
use dataflasks_types::{Duration, NodeConfig, NodeId, NodeProfile, SimTime};

/// What travels through a node's inbox channel.
enum Envelope {
    FromNode {
        from: NodeId,
        message: Message,
    },
    /// A per-destination batch ([`Output::SendBatch`]): several messages from
    /// one sender in a single channel send.
    Batch {
        from: NodeId,
        messages: Vec<Message>,
    },
    FromClient {
        client: ClientId,
        request: ClientRequest,
    },
    /// Fire a protocol timer immediately (injected through [`Environment`]).
    Timer {
        kind: TimerKind,
    },
    Shutdown,
}

/// Routing table shared by every node thread.
struct Router {
    nodes: RwLock<HashMap<NodeId, Arc<Inbox<Envelope>>>>,
    client_inbox: Sender<(ClientId, ClientReply)>,
    epoch: Instant,
    /// Shared fault-injection plan: every protocol hop between nodes asks it
    /// for a verdict before the inbox push (the threaded-runtime analogue of
    /// the simulator's routing gate). Client replies and driver injections
    /// bypass it, exactly as in the other backends.
    faults: Arc<FaultPlan>,
}

impl Router {
    fn now(&self) -> SimTime {
        SimTime::from_millis(self.epoch.elapsed().as_millis() as u64)
    }

    /// Routes one send/reply effect. Timer re-arms never reach the router:
    /// the node thread intercepts them and updates its deadline table.
    /// Injected drops and duplicates are tallied into `injected`, which the
    /// node thread folds into the sender's statistics after the flush.
    fn route_one(&self, from: NodeId, output: Output, injected: &mut InjectedCounters) {
        match output {
            Output::Send { to, message } => {
                let verdict = self.faults.link_verdict(from, to);
                injected.record(verdict);
                if matches!(verdict, LinkVerdict::DropPartition | LinkVerdict::DropLoss) {
                    return;
                }
                let guard = self.nodes.read();
                if let Some(inbox) = guard.get(&to) {
                    // A closed inbox (a crashed node) drops the envelope.
                    if matches!(verdict, LinkVerdict::Duplicate) {
                        let _ = inbox.push(Envelope::FromNode {
                            from,
                            message: message.clone(),
                        });
                    }
                    let _ = inbox.push(Envelope::FromNode { from, message });
                }
            }
            Output::SendBatch { to, messages } => {
                // The whole per-destination batch travels as one inbox push
                // (and one routing-table lookup) — and is therefore one
                // transport unit for fault injection, matching the one
                // frame the wire backends encode it into. The counters tally
                // per message (batch boundaries are scheduling-dependent;
                // the message flow is not).
                let verdict = self.faults.link_verdict(from, to);
                injected.record_messages(verdict, messages.len() as u64);
                if matches!(verdict, LinkVerdict::DropPartition | LinkVerdict::DropLoss) {
                    return;
                }
                let guard = self.nodes.read();
                if let Some(inbox) = guard.get(&to) {
                    if matches!(verdict, LinkVerdict::Duplicate) {
                        let _ = inbox.push(Envelope::Batch {
                            from,
                            messages: messages.clone(),
                        });
                    }
                    let _ = inbox.push(Envelope::Batch { from, messages });
                }
            }
            Output::Reply { client, reply } => {
                let _ = self.client_inbox.send((client, reply));
            }
            Output::Timer { .. } => {
                debug_assert!(false, "timer re-arms are handled by the node thread");
            }
        }
    }
}

fn to_std(duration: Duration) -> std::time::Duration {
    std::time::Duration::from_millis(duration.as_millis())
}

/// A cluster of DataFlasks nodes, one thread per node, channels as transport.
pub struct ThreadedCluster {
    router: Arc<Router>,
    node_ids: Vec<NodeId>,
    handles: Vec<JoinHandle<DataFlasksNode<DefaultStore>>>,
    /// The shared reply-routing discipline between the client API and the
    /// Environment driver surface.
    gate: ClientGateway,
    /// Draws the random live contact of client requests without one.
    rng: std::cell::RefCell<StdRng>,
    /// Per-node crash flags: set by [`Environment::fail_node`] so the victim
    /// stops processing immediately, including envelopes already queued in
    /// its inbox (matching the simulator dropping undelivered events).
    kill_switches: HashMap<NodeId, Arc<AtomicBool>>,
    /// Scheduling knobs handed to every node thread (run budget per
    /// dispatch round) — the same knobs the worker-pool runtime honours.
    sched: SchedulerConfig,
    /// Shared node configuration (used to re-arm timers on restart spawns).
    node_config: NodeConfig,
    /// The spec this cluster was started from (if any): the recipe
    /// [`Environment::restart_node`] rebuilds crashed nodes with.
    spec: Option<ClusterSpec>,
    /// Cached warm-up rounds of the spec, computed on the first restart so
    /// later restarts rebuild one node in O(cluster) instead of building
    /// (and discarding) the whole cluster.
    restart_rounds: Option<BootstrapRounds>,
}

impl ThreadedCluster {
    /// Starts `node_count` nodes sharing `node_config`. Node capacities are
    /// drawn deterministically from `seed`; every node is bootstrapped with a
    /// handful of ring successors so gossip connects the overlay immediately.
    #[must_use]
    pub fn start(node_count: usize, node_config: NodeConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes = Vec::with_capacity(node_count);
        for i in 0..node_count {
            let id = NodeId::new(i as u64);
            let capacity = rng.gen_range(100..=10_000);
            let profile = NodeProfile::with_capacity_and_tie_break(capacity, id.as_u64());
            nodes.push(DataFlasksNode::new(
                id,
                node_config,
                profile,
                ShardedStore::new(node_config.effective_store_shards()),
                rng.gen(),
            ));
        }
        // Bootstrap every node with its ring successors so the overlay starts
        // connected (gossip randomises it from there). Descriptors carry the
        // initial slice assignment so intra-slice dissemination works from
        // the very first request, before any gossip round has run.
        let descriptors: Vec<NodeDescriptor> = nodes
            .iter()
            .map(|n| NodeDescriptor::new(n.id(), n.profile()).with_slice(n.slice()))
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            let contacts: Vec<NodeDescriptor> = (1..=3)
                .map(|step| descriptors[(i + step) % node_count])
                .filter(|d| d.id() != node.id())
                .collect();
            node.bootstrap(contacts);
        }
        Self::start_nodes(nodes, node_config, seed)
    }

    /// Starts the cluster described by a [`ClusterSpec`]: explicit
    /// capacities, per-node seeds derived from the spec seed, and fully
    /// warmed membership — the exact same node state the simulator's
    /// `spawn_spec` materialises, so the two environments can be compared
    /// input for input.
    #[must_use]
    pub fn start_spec(spec: &ClusterSpec) -> Self {
        let mut cluster = Self::start_nodes(spec.build_nodes(), spec.node_config, spec.seed);
        cluster.spec = Some(spec.clone());
        cluster
    }

    fn start_nodes(
        nodes: Vec<DataFlasksNode<DefaultStore>>,
        node_config: NodeConfig,
        seed: u64,
    ) -> Self {
        let (client_tx, client_rx) = mpsc::channel();
        let faults = Arc::new(FaultPlan::new());
        faults.set_seed(seed ^ 0x4E45_4D45_5349_5321);
        let router = Arc::new(Router {
            nodes: RwLock::new(HashMap::new()),
            client_inbox: client_tx,
            epoch: Instant::now(),
            faults,
        });
        let sched = SchedulerConfig::default();
        let mut cluster = Self {
            router,
            node_ids: nodes.iter().map(DataFlasksNode::id).collect(),
            handles: Vec::with_capacity(nodes.len()),
            gate: ClientGateway::new(client_rx),
            rng: std::cell::RefCell::new(StdRng::seed_from_u64(seed ^ 0xC11E)),
            kill_switches: HashMap::with_capacity(nodes.len()),
            sched,
            node_config,
            spec: None,
            restart_rounds: None,
        };
        for node in nodes {
            cluster.spawn_node_thread(node);
        }
        cluster
    }

    /// Registers a node's inbox and kill switch and spawns its thread.
    fn spawn_node_thread(&mut self, node: DataFlasksNode<DefaultStore>) {
        let id = node.id();
        let inbox = Arc::new(Inbox::new());
        self.router.nodes.write().insert(id, Arc::clone(&inbox));
        let failed = Arc::new(AtomicBool::new(false));
        self.kill_switches.insert(id, Arc::clone(&failed));
        let router = Arc::clone(&self.router);
        let config = self.node_config;
        let sched = self.sched;
        self.handles.push(std::thread::spawn(move || {
            node_thread(node, inbox, router, config, sched, failed)
        }));
    }

    /// Overrides how long [`Environment::drain_effects`] treats inbox
    /// silence as quiescence (default: one second). In-process hops take
    /// microseconds, so harnesses issuing many drains (the differential
    /// property test) can lower this substantially without losing replies.
    pub fn set_drain_idle_grace(&mut self, grace: Duration) {
        self.gate.set_drain_idle_grace(grace);
    }

    /// Identifiers of the running nodes.
    #[must_use]
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// The shared fault-injection plan. Faults staged on it (partitions,
    /// blocked links, loss, duplication) take effect on the next protocol
    /// hop; injected drops and duplicates are tallied on the sender's
    /// [`NodeStats`](dataflasks_core::NodeStats).
    #[must_use]
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.router.faults)
    }

    /// Highest number of simultaneously in-flight pipelined requests since
    /// start.
    #[must_use]
    pub fn inflight_high_water(&self) -> u64 {
        self.gate.inflight_high_water()
    }

    /// Replies delivered into pipelined completion slots since start.
    #[must_use]
    pub fn completions_routed(&self) -> u64 {
        self.gate.completions_routed()
    }

    /// Open-loop arrivals shed at the in-flight cap since start.
    #[must_use]
    pub fn openloop_sheds(&self) -> u64 {
        self.gate.openloop_sheds()
    }

    /// Stops every node thread and returns the final node states for
    /// inspection (stores, statistics, slice assignments). Nodes failed with
    /// [`Environment::fail_node`] are included, frozen at their final state;
    /// a node that was restarted is reported once, at its restarted state
    /// (the pre-crash incarnation is superseded).
    pub fn shutdown(self) -> Vec<DataFlasksNode<DefaultStore>> {
        {
            let guard = self.router.nodes.read();
            for inbox in guard.values() {
                let _ = inbox.push(Envelope::Shutdown);
            }
        }
        // Handles are joined in spawn order, so a restarted incarnation
        // lands after (and supersedes) the crashed one.
        let mut by_id: HashMap<NodeId, DataFlasksNode<DefaultStore>> = HashMap::new();
        let mut order = Vec::new();
        for handle in self.handles {
            let Ok(node) = handle.join() else { continue };
            if !by_id.contains_key(&node.id()) {
                order.push(node.id());
            }
            by_id.insert(node.id(), node);
        }
        order
            .into_iter()
            .filter_map(|id| by_id.remove(&id))
            .collect()
    }
}

impl ClientPort for ThreadedCluster {
    fn gateway(&self) -> &ClientGateway {
        &self.gate
    }

    fn push_request(
        &self,
        contact: Option<NodeId>,
        request: ClientRequest,
    ) -> Result<(), GatewayError> {
        let guard = self.router.nodes.read();
        let contact = match contact {
            // An explicit contact must still be routable (not failed).
            Some(node) => node,
            None => {
                // Contacts are drawn from the nodes still routable, so
                // operations keep succeeding after failures as long as any
                // node is alive.
                let live: Vec<NodeId> = self
                    .node_ids
                    .iter()
                    .copied()
                    .filter(|id| guard.contains_key(id))
                    .collect();
                if live.is_empty() {
                    return Err(GatewayError::Shutdown);
                }
                let mut rng = self.rng.borrow_mut();
                live[rng.gen_range(0..live.len())]
            }
        };
        let inbox = guard.get(&contact).ok_or(GatewayError::Shutdown)?;
        inbox
            .push(Envelope::FromClient {
                client: BLOCKING_CLIENT,
                request,
            })
            .map_err(|_| GatewayError::Shutdown)
    }
}

impl Environment for ThreadedCluster {
    fn deliver_message(&mut self, from: NodeId, to: NodeId, message: Message) {
        let guard = self.router.nodes.read();
        if let Some(inbox) = guard.get(&to) {
            let _ = inbox.push(Envelope::FromNode { from, message });
        }
    }

    fn fire_timer(&mut self, node: NodeId, kind: TimerKind) {
        let guard = self.router.nodes.read();
        if let Some(inbox) = guard.get(&node) {
            let _ = inbox.push(Envelope::Timer { kind });
        }
    }

    fn submit_client_request(&mut self, client: ClientId, contact: NodeId, request: ClientRequest) {
        self.gate.register_env_client(client);
        let guard = self.router.nodes.read();
        if let Some(inbox) = guard.get(&contact) {
            let _ = inbox.push(Envelope::FromClient { client, request });
        }
    }

    fn fail_node(&mut self, node: NodeId) {
        // The kill switch makes the victim discard everything still queued
        // in its inbox (the simulator equivalently drops undelivered
        // events); closing and unrouting the inbox then makes every later
        // send to the node a silent drop — and lets the victim's thread,
        // once it wakes, observe the closed mailbox and exit.
        if let Some(failed) = self.kill_switches.get(&node) {
            failed.store(true, Ordering::SeqCst);
        }
        if let Some(inbox) = self.router.nodes.write().remove(&node) {
            inbox.close();
        }
    }

    fn restart_node(&mut self, node: NodeId) {
        let fresh = {
            let spec = self
                .spec
                .as_ref()
                .expect("restart_node requires a spec-started cluster (start_spec)");
            let index = node.as_u64() as usize;
            assert!(index < spec.len(), "node {node} is not part of the spec");
            // First restart pays one full warm-up capture; later restarts
            // replay the cached rounds in O(cluster).
            let rounds = self
                .restart_rounds
                .get_or_insert_with(|| spec.bootstrap_rounds());
            spec.rebuild_node_with(index, rounds)
        };
        // Crash the running incarnation first (idempotent if already dead).
        Environment::fail_node(self, node);
        // Rejoin with identity, profile, seed and warm membership intact but
        // empty volatile state, on a fresh thread with a fresh inbox.
        self.spawn_node_thread(fresh);
    }

    fn drain_effects(&mut self, budget: Duration) -> Vec<ClientReply> {
        self.gate.drain_effects(budget)
    }
}

/// The per-node thread: hosts the node, waits on its [`Inbox`], fires timers
/// at the deadlines the node's own re-arm effects maintain, and hands every
/// other effect to the router.
///
/// Each dispatch round feeds the received envelope *plus any backlog already
/// queued in the inbox* (up to the shared [`SchedulerConfig`] run budget)
/// into the host, then flushes once: the host's buffer has grouped the
/// same-destination sends of the whole round into one [`Output::SendBatch`]
/// — one inbox push per destination per round — which is what amortises
/// per-message queue and lock overhead for slice-wide fan-outs under load.
fn node_thread(
    node: DataFlasksNode<DefaultStore>,
    rx: Arc<Inbox<Envelope>>,
    router: Arc<Router>,
    config: NodeConfig,
    sched: SchedulerConfig,
    failed: Arc<AtomicBool>,
) -> DataFlasksNode<DefaultStore> {
    let mut host = NodeHost::new(node);
    let id = host.node().id();
    let run_budget = sched.effective_run_budget();
    let mut deadlines: Vec<(TimerKind, Instant)> = TimerKind::ALL
        .iter()
        .map(|&kind| (kind, Instant::now() + to_std(kind.period(&config))))
        .collect();
    'running: loop {
        let next_deadline = deadlines
            .iter()
            .map(|&(_, at)| at)
            .min()
            .expect("timer list is never empty");
        let wait = next_deadline.saturating_duration_since(Instant::now());
        let envelope = rx.recv_timeout(wait);
        // Crashed: stop before touching anything still queued in the inbox.
        if failed.load(Ordering::SeqCst) {
            break;
        }
        match envelope {
            RecvOutcome::Item(first) => {
                let now = router.now();
                let mut pending = Some(first);
                let mut absorbed = 0;
                let mut stopping = false;
                while let Some(envelope) = pending.take() {
                    match envelope {
                        Envelope::FromNode { from, message } => {
                            host.enqueue_message(from, message, now);
                        }
                        Envelope::Batch { from, messages } => {
                            for message in messages {
                                host.enqueue_message(from, message, now);
                            }
                        }
                        Envelope::FromClient { client, request } => {
                            host.enqueue_client_request(client, request, now);
                        }
                        Envelope::Timer { kind } => {
                            host.enqueue_timer(kind, now);
                        }
                        Envelope::Shutdown => {
                            stopping = true;
                            break;
                        }
                    }
                    if failed.load(Ordering::SeqCst) {
                        // Crashed mid-round: stop absorbing, but still route
                        // what was already processed (below) — everything a
                        // node handles before dying has its effects
                        // delivered, matching the simulator, where effects
                        // of pre-crash dispatches are always routed.
                        stopping = true;
                        break;
                    }
                    absorbed += 1;
                    if absorbed < run_budget {
                        pending = rx.try_pop();
                    }
                }
                let mut injected = InjectedCounters::default();
                host.flush_effects(|output| {
                    route_thread_output(&router, id, &mut deadlines, output, &mut injected);
                });
                if !injected.is_empty() {
                    host.node_mut().record_injected_faults(&injected);
                }
                if stopping {
                    break 'running;
                }
            }
            RecvOutcome::TimedOut => {}
            RecvOutcome::Closed => break,
        }
        // Fire every timer whose deadline passed; the node's re-arm effect
        // moves the deadline forward (the pre-arm below only covers the
        // pathological case of a handler that emits nothing).
        let reached = Instant::now();
        for index in 0..deadlines.len() {
            let (kind, deadline) = deadlines[index];
            if deadline <= reached {
                deadlines[index].1 = reached + to_std(kind.period(&config));
                let now = router.now();
                let mut injected = InjectedCounters::default();
                host.fire_timer(kind, now, |output| {
                    route_thread_output(&router, id, &mut deadlines, output, &mut injected);
                });
                if !injected.is_empty() {
                    host.node_mut().record_injected_faults(&injected);
                }
            }
        }
    }
    host.into_node()
}

/// The threaded-runtime half of the shared effect pipeline: timer re-arms
/// update the local deadline table, everything else goes to the router.
fn route_thread_output(
    router: &Router,
    from: NodeId,
    deadlines: &mut [(TimerKind, Instant)],
    output: Output,
    injected: &mut InjectedCounters,
) {
    match output {
        Output::Timer { kind, after } => {
            if let Some(entry) = deadlines.iter_mut().find(|(k, _)| *k == kind) {
                entry.1 = Instant::now() + to_std(after);
            }
        }
        other => router.route_one(from, other, injected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_core::{PipelinedClient, ReplyBody};
    use dataflasks_types::{Key, PssConfig, RequestId, Value, Version};

    /// A configuration with fast gossip so tests converge quickly.
    fn fast_config(nodes: usize, slices: u32) -> NodeConfig {
        let mut config = NodeConfig::for_system_size(nodes, slices);
        config.pss = PssConfig {
            shuffle_period: Duration::from_millis(20),
            ..config.pss
        };
        config.slicing.gossip_period = Duration::from_millis(20);
        config.replication.anti_entropy_period = Duration::from_millis(50);
        config
    }

    #[test]
    fn put_then_get_roundtrip_through_threads() {
        let cluster = ThreadedCluster::start(4, fast_config(4, 1), 11);
        // Give gossip a moment to connect the overlay.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let key = Key::from_user_key("threaded");
        cluster
            .put(
                key,
                Version::new(1),
                Value::from_bytes(b"value"),
                Duration::from_secs(5),
            )
            .expect("put should be acknowledged");
        let read = cluster
            .get(key, None, Duration::from_secs(5))
            .expect("get should complete");
        assert_eq!(read.unwrap().value.as_slice(), b"value");
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 4);
        let replicas = nodes
            .iter()
            .filter(|n| dataflasks_store::DataStore::get_latest(n.store(), key).is_some())
            .count();
        assert!(replicas >= 1);
    }

    #[test]
    fn missing_keys_read_as_none_or_time_out() {
        let cluster = ThreadedCluster::start(3, fast_config(3, 1), 12);
        std::thread::sleep(std::time::Duration::from_millis(200));
        let result = cluster.get(Key::from_user_key("ghost"), None, Duration::from_secs(2));
        match result {
            Ok(found) => assert!(found.is_none()),
            Err(GatewayError::Timeout) => {}
            Err(other) => panic!("unexpected error: {other}"),
        }
        cluster.shutdown();
    }

    #[test]
    fn shutdown_returns_every_node_with_its_stats() {
        let cluster = ThreadedCluster::start(5, fast_config(5, 1), 13);
        std::thread::sleep(std::time::Duration::from_millis(300));
        let ids: Vec<NodeId> = cluster.node_ids().to_vec();
        assert_eq!(ids.len(), 5);
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 5);
        // Gossip ran: nodes exchanged membership messages.
        assert!(nodes.iter().any(|n| n.stats().total_messages() > 0));
        assert!(nodes.iter().all(|n| n.slice().is_some()));
    }

    #[test]
    fn spec_started_cluster_serves_requests_through_the_environment() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            21,
        );
        let mut cluster = ThreadedCluster::start_spec(&spec);
        let key = Key::from_user_key("env-driven");
        Environment::submit_client_request(
            &mut cluster,
            9,
            NodeId::new(0),
            ClientRequest::Put {
                id: RequestId::new(9, 0),
                key,
                version: Version::new(1),
                value: Value::from_bytes(b"spec"),
            },
        );
        let replies = cluster.drain_effects(Duration::from_secs(5));
        assert!(
            replies
                .iter()
                .any(|r| matches!(r.body, ReplyBody::PutAck { .. })),
            "expected an acknowledgement, got {replies:?}"
        );
        let nodes = cluster.shutdown();
        // Single slice and warm views: every node replicated the object.
        assert!(nodes
            .iter()
            .all(|n| dataflasks_store::DataStore::get_latest(n.store(), key).is_some()));
    }

    #[test]
    fn failed_nodes_stop_answering() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 22);
        let mut cluster = ThreadedCluster::start_spec(&spec);
        let victim = NodeId::new(2);
        cluster.fail_node(victim);
        Environment::submit_client_request(
            &mut cluster,
            9,
            victim,
            ClientRequest::Put {
                id: RequestId::new(9, 1),
                key: Key::from_user_key("to-the-dead"),
                version: Version::new(1),
                value: Value::from_bytes(b"lost"),
            },
        );
        let replies = cluster.drain_effects(Duration::from_millis(600));
        assert!(replies.is_empty(), "a failed contact cannot reply");
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 3, "failed nodes still return their state");
    }

    #[test]
    fn blocking_api_avoids_failed_contacts() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 23);
        let mut cluster = ThreadedCluster::start_spec(&spec);
        cluster.fail_node(NodeId::new(2));
        // Every contact draw must land on a live node: repeated puts all
        // succeed instead of sporadically erroring on the failed node.
        for i in 0..8u64 {
            cluster
                .put(
                    Key::from_user_key(&format!("survivor-{i}")),
                    Version::new(1),
                    Value::from_bytes(b"ok"),
                    Duration::from_secs(5),
                )
                .expect("live contacts must serve the put");
        }
        cluster.shutdown();
    }

    /// Regression test: the blocking put/get API owns client id `u64::MAX`;
    /// an Environment submission under that id would silently steal the
    /// blocking API's replies, so it must panic instead.
    #[test]
    #[should_panic(expected = "reserved for the blocking put/get API")]
    fn reserved_blocking_client_id_is_rejected() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 24);
        let mut cluster = ThreadedCluster::start_spec(&spec);
        Environment::submit_client_request(
            &mut cluster,
            u64::MAX,
            NodeId::new(0),
            ClientRequest::Get {
                id: RequestId::new(1, 0),
                key: Key::from_user_key("collision"),
                version: None,
            },
        );
    }

    /// A partition staged on the shared [`FaultPlan`] must isolate the two
    /// sides completely: an object written on one side never appears on the
    /// other, and every refused hop is tallied on the sender's statistics.
    #[test]
    fn partition_isolates_sides_and_counts_refusals() {
        let spec = ClusterSpec::new(fast_config(4, 1), vec![400, 300, 200, 100], 31);
        let mut cluster = ThreadedCluster::start_spec(&spec);
        cluster.fault_plan().set_partition(&[
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(2), NodeId::new(3)],
        ]);
        let key = Key::from_user_key("split-brain");
        Environment::submit_client_request(
            &mut cluster,
            9,
            NodeId::new(0),
            ClientRequest::Put {
                id: RequestId::new(9, 0),
                key,
                version: Version::new(1),
                value: Value::from_bytes(b"one side only"),
            },
        );
        let replies = cluster.drain_effects(Duration::from_secs(5));
        assert!(!replies.is_empty(), "the partitioned side still acks");
        // Let gossip and anti-entropy hammer the partition for a while.
        std::thread::sleep(std::time::Duration::from_millis(400));
        let nodes = cluster.shutdown();
        let holders: Vec<u64> = nodes
            .iter()
            .filter(|n| dataflasks_store::DataStore::get_latest(n.store(), key).is_some())
            .map(|n| n.id().as_u64())
            .collect();
        assert!(!holders.is_empty(), "the writing side must hold the object");
        assert!(
            holders.iter().all(|&id| id < 2),
            "the object leaked across the partition to {holders:?}"
        );
        let refusals: u64 = nodes.iter().map(|n| n.stats().partition_refusals).sum();
        assert!(refusals > 0, "gossip across the cut must be refused");
    }

    #[test]
    fn restarted_node_rejoins_with_empty_volatile_state() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            25,
        );
        let mut cluster = ThreadedCluster::start_spec(&spec);
        let key = Key::from_user_key("lost-on-restart");
        Environment::submit_client_request(
            &mut cluster,
            9,
            NodeId::new(0),
            ClientRequest::Put {
                id: RequestId::new(9, 0),
                key,
                version: Version::new(1),
                value: Value::from_bytes(b"volatile"),
            },
        );
        let replies = cluster.drain_effects(Duration::from_secs(5));
        assert!(!replies.is_empty(), "the put must be acknowledged");
        let victim = NodeId::new(1);
        cluster.fail_node(victim);
        cluster.restart_node(victim);
        // The restarted replica answers requests again — with a miss, since
        // its volatile store is empty.
        Environment::submit_client_request(
            &mut cluster,
            9,
            victim,
            ClientRequest::Get {
                id: RequestId::new(9, 1),
                key,
                version: None,
            },
        );
        let replies = cluster.drain_effects(Duration::from_secs(5));
        assert!(
            !replies.is_empty(),
            "a restarted contact must answer requests"
        );
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 4, "restart must not duplicate node states");
        let restarted = nodes.iter().find(|n| n.id() == victim).unwrap();
        assert_eq!(
            dataflasks_store::DataStore::len(restarted.store()),
            0,
            "volatile state must be lost on restart"
        );
        // The other replicas still hold the object.
        assert!(nodes
            .iter()
            .filter(|n| n.id() != victim)
            .all(|n| dataflasks_store::DataStore::get_latest(n.store(), key).is_some()));
    }
}
