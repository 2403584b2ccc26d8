//! The discrete-event simulation driving a whole DataFlasks cluster.

use std::collections::BTreeMap;
use std::mem;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataflasks_core::fault::{FaultPlan, InjectedCounters, LinkVerdict};
use dataflasks_core::wheel::{DueTimer, TimerWheel};
use dataflasks_core::Message;
use dataflasks_core::{
    ClientId, ClientLibrary, ClientReply, ClientRequest, ClusterSpec, CompletedOperation,
    DataFlasksNode, DefaultStore, DispatchScratch, Environment, NodeHost, NodeStats, Output,
    TimerKind,
};
use dataflasks_membership::NodeDescriptor;
use dataflasks_nemesis::{LatencyShape, NemesisOp};
use dataflasks_store::{DataStore, ShardedStore};
use dataflasks_types::{
    Duration, Key, NodeConfig, NodeId, NodeProfile, SimTime, SliceId, Value, Version,
};

use crate::metrics::ClusterReport;
use crate::network::{EventPayload, EventQueue, FaultyNetwork, LatencyModel, NetworkConfig};

/// Number of bootstrap contacts handed to a node when it is created or
/// restarts.
const BOOTSTRAP_CONTACTS: usize = 8;

/// Slot count of the per-simulation timer wheel. With the 1 ms tick this
/// covers 8.192 s per rotation — longer than every default protocol period,
/// so steady-state re-arms land in the current rotation.
const WHEEL_SLOTS: usize = 8192;

/// Cluster size from which [`Simulation::spawn_cluster`] materialises nodes
/// across the thread pool instead of one at a time (matches the spec
/// builder's own parallelism threshold).
const PARALLEL_SPAWN_THRESHOLD: usize = 256;

/// Top-level simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Network behaviour (latency, loss).
    pub network: NetworkConfig,
    /// Seed for every random choice made by the simulation and its nodes.
    pub seed: u64,
    /// Client-side timeout after which a pending operation is abandoned.
    pub client_timeout: Duration,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            network: NetworkConfig::default(),
            seed: 0xDA7A_F1A5,
            client_timeout: Duration::from_secs(30),
        }
    }
}

struct SimNode {
    host: NodeHost<DefaultStore>,
    alive: bool,
}

/// A client library plus the epoch of the alive set its contacts last
/// came from, so contacts are refreshed only when membership actually changed.
struct SimClient {
    library: ClientLibrary,
    contacts_epoch: u64,
}

/// The queue-side state needed to route one node effect: sends and replies
/// travel through the simulated network, timer re-arms go to the timer
/// wheel (superseding the pending deadline). This is the simulator half of
/// the shared [`Environment`] pipeline — the worker-pool runtime routes the
/// very same [`Output`] values as wire frames.
struct Routing<'a> {
    queue: &'a mut EventQueue,
    rng: &'a mut StdRng,
    network: &'a NetworkConfig,
    /// Shared nemesis link verdicts (partition/loss/duplication); inert by
    /// default, one relaxed load on the hot path.
    faults: &'a FaultPlan,
    /// Simulator-only nemesis timing faults (latency swaps, reordering).
    faulty: &'a FaultyNetwork,
    /// Injected-fault accounting for this dispatch; folded into the sender
    /// node's stats after the flush (its host is borrowed right now).
    injected: &'a mut InjectedCounters,
    messages_dropped: &'a mut u64,
    wheel: &'a mut TimerWheel<SimTime>,
    now: SimTime,
}

impl Routing<'_> {
    fn route(&mut self, from: NodeId, output: Output) {
        match output {
            Output::Send { to, message } => {
                let verdict = self.faults.link_verdict(from, to);
                self.injected.record(verdict);
                if matches!(verdict, LinkVerdict::DropPartition | LinkVerdict::DropLoss) {
                    return;
                }
                if self.network.drops(self.rng) {
                    *self.messages_dropped += 1;
                    return;
                }
                if verdict == LinkVerdict::Duplicate {
                    let extra = self.faulty.sample_latency(self.network, self.rng);
                    self.queue.schedule(
                        self.now + extra,
                        EventPayload::Deliver {
                            from,
                            to,
                            message: message.clone(),
                        },
                    );
                }
                let latency = self.faulty.sample_latency(self.network, self.rng);
                self.queue.schedule(
                    self.now + latency,
                    EventPayload::Deliver { from, to, message },
                );
            }
            Output::SendBatch { to, messages } => {
                // One transport unit: one verdict, one loss decision, one
                // latency sample and one queue entry for the whole
                // per-destination batch. The injected counters tally per
                // message so they stay comparable across backends whose
                // batch boundaries differ.
                let verdict = self.faults.link_verdict(from, to);
                self.injected
                    .record_messages(verdict, messages.len() as u64);
                if matches!(verdict, LinkVerdict::DropPartition | LinkVerdict::DropLoss) {
                    return;
                }
                if self.network.drops(self.rng) {
                    *self.messages_dropped += messages.len() as u64;
                    return;
                }
                if verdict == LinkVerdict::Duplicate {
                    let extra = self.faulty.sample_latency(self.network, self.rng);
                    self.queue.schedule(
                        self.now + extra,
                        EventPayload::DeliverBatch {
                            from,
                            to,
                            messages: messages.clone(),
                        },
                    );
                }
                let latency = self.faulty.sample_latency(self.network, self.rng);
                self.queue.schedule(
                    self.now + latency,
                    EventPayload::DeliverBatch { from, to, messages },
                );
            }
            Output::Reply { client, reply } => {
                // Client links are outside the nemesis blast radius: only
                // the latency model applies (a partitioned contact still
                // answers its own clients).
                let latency = self.faulty.sample_latency(self.network, self.rng);
                self.queue.schedule(
                    self.now + latency,
                    EventPayload::ClientDeliver { client, reply },
                );
            }
            Output::Timer { kind, after } => {
                // Arming supersedes the pending (node, kind) deadline:
                // exactly one chain is live per pair, like the worker-pool
                // runtime's generation-stamped wheel entry.
                self.wheel
                    .arm(from.as_u64() as usize, kind, self.now + after);
            }
        }
    }
}

/// A deterministic discrete-event simulation of a DataFlasks cluster.
///
/// The simulation owns the nodes (running the *real* protocol code from
/// `dataflasks-core`), the client libraries, a virtual clock and a simulated
/// network with configurable latency and loss. This is the substitution for
/// the Minha simulator used by the paper (see DESIGN.md §1).
///
/// Node state lives in a dense slab indexed by the (sequentially allocated)
/// node id, with a swap-remove alive list beside it, and periodic protocol
/// timers live in a hashed timer wheel rather than the event heap — the
/// steady-state event loop indexes, it does not hash, and a warmed run
/// allocates nothing per dispatch.
///
/// # Example
///
/// ```
/// use dataflasks_sim::{SimConfig, Simulation};
/// use dataflasks_types::{Duration, Key, NodeConfig, Value, Version};
///
/// let mut sim = Simulation::new(SimConfig::default());
/// let node_config = NodeConfig::for_system_size(8, 2);
/// sim.spawn_cluster(8, node_config);
/// let client = sim.add_client();
/// sim.run_for(Duration::from_secs(30)); // let gossip converge
/// sim.submit_put(client, Key::from_user_key("a"), Version::new(1), Value::from_bytes(b"x"));
/// sim.run_for(Duration::from_secs(5));
/// assert!(sim.replication_factor(Key::from_user_key("a")) > 0);
/// ```
pub struct Simulation {
    config: SimConfig,
    now: SimTime,
    queue: EventQueue,
    rng: StdRng,
    /// Shared nemesis fault plan, consulted on every routed transport unit
    /// (inert unless a fault is configured). Shared so a nemesis driver can
    /// mutate it mid-run through [`Self::fault_plan`].
    faults: Arc<FaultPlan>,
    /// Simulator-only nemesis timing faults (latency swaps, reordering).
    faulty: FaultyNetwork,
    /// Every node ever spawned, indexed by its id (ids are dense and never
    /// reused; a crashed node keeps its slot, inspectable, and a restart
    /// rebuilds the slot in place).
    nodes: Vec<SimNode>,
    /// Ids of the currently alive nodes (swap-remove order).
    alive: Vec<NodeId>,
    /// Position of each node in [`Self::alive`], `usize::MAX` when dead.
    alive_pos: Vec<usize>,
    /// Bumped on every membership change; lets clients skip refreshing their
    /// contact lists while the alive set is unchanged.
    alive_epoch: u64,
    /// Periodic protocol timers: one live deadline per (node, kind).
    wheel: TimerWheel<SimTime>,
    /// Scratch for collecting due timers (reused across dispatches).
    timer_scratch: Vec<DueTimer<SimTime>>,
    /// The memory of every dispatch round, lent to the node being
    /// dispatched: one warm effect buffer and batch pool for the whole
    /// event loop instead of one per node.
    dispatch_scratch: DispatchScratch,
    /// Scratch for bootstrap contact sampling (reused across joins).
    contacts_scratch: Vec<NodeDescriptor>,
    clients: BTreeMap<ClientId, SimClient>,
    next_client_id: ClientId,
    completed: Vec<CompletedOperation>,
    /// Replies to operations injected through the [`Environment`] interface;
    /// drained by [`Environment::drain_effects`].
    reply_log: Vec<ClientReply>,
    /// Client ids injected through [`Environment::submit_client_request`]:
    /// their replies go to [`Self::reply_log`] even if a [`ClientLibrary`]
    /// shares the id, mirroring the concurrent runtime's split between
    /// Environment traffic and its native client API.
    env_clients: std::collections::HashSet<ClientId>,
    messages_delivered: u64,
    messages_dropped: u64,
    events_dispatched: u64,
    timer_fires: u64,
    default_node_config: NodeConfig,
    /// The spec this simulation was materialised from (if any): the recipe
    /// [`Environment::restart_node`] rebuilds crashed nodes with.
    spec: Option<ClusterSpec>,
    /// Cached warm-up rounds of the spec, computed on the first restart so
    /// later restarts rebuild one node in O(cluster) instead of building
    /// (and discarding) the whole cluster.
    restart_rounds: Option<dataflasks_core::BootstrapRounds>,
}

impl Simulation {
    /// Creates an empty simulation.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let faults = Arc::new(FaultPlan::new());
        faults.set_seed(config.seed ^ 0x4E45_4D45_5349_5321);
        Self {
            config,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(config.seed),
            faults,
            faulty: FaultyNetwork::default(),
            nodes: Vec::new(),
            alive: Vec::new(),
            alive_pos: Vec::new(),
            alive_epoch: 0,
            wheel: TimerWheel::new(WHEEL_SLOTS, Duration::from_millis(1), SimTime::ZERO),
            timer_scratch: Vec::new(),
            dispatch_scratch: DispatchScratch::new(),
            contacts_scratch: Vec::new(),
            clients: BTreeMap::new(),
            next_client_id: 1,
            completed: Vec::new(),
            reply_log: Vec::new(),
            env_clients: std::collections::HashSet::new(),
            messages_delivered: 0,
            messages_dropped: 0,
            events_dispatched: 0,
            timer_fires: 0,
            default_node_config: NodeConfig::default(),
            spec: None,
            restart_rounds: None,
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes currently alive.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }

    /// Identifiers of the nodes currently alive (membership order, not
    /// spawn order: crashes swap-remove). Borrowed — no per-call allocation.
    #[must_use]
    pub fn alive_nodes(&self) -> &[NodeId] {
        &self.alive
    }

    /// Messages delivered by the network so far.
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages dropped by the network so far.
    #[must_use]
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Events the simulation loop has dispatched so far (network deliveries,
    /// timer firings, client traffic and churn): the denominator-free
    /// throughput counter `sim_bench` divides by wall time.
    #[must_use]
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Protocol timer firings actually handled by a live node so far
    /// (superseded and dead-node deadlines excluded).
    #[must_use]
    pub fn timer_fires(&self) -> u64 {
        self.timer_fires
    }

    /// Read access to a node (panics if the identifier is unknown).
    ///
    /// # Panics
    ///
    /// Panics if no node with this identifier was ever added.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &DataFlasksNode<DefaultStore> {
        self.nodes
            .get(id.as_u64() as usize)
            .expect("unknown node id")
            .host
            .node()
    }

    /// Operations completed by all clients so far (in completion order).
    #[must_use]
    pub fn completed_operations(&self) -> &[CompletedOperation] {
        &self.completed
    }

    /// Client statistics, by client identifier.
    #[must_use]
    pub fn client(&self, id: ClientId) -> Option<&ClientLibrary> {
        self.clients.get(&id).map(|c| &c.library)
    }

    // ------------------------------------------------------------------
    // Topology management
    // ------------------------------------------------------------------

    /// Spawns `count` nodes sharing `node_config`, with capacities drawn
    /// uniformly from `100..=10_000` (the heterogeneous capacity attribute
    /// the slicing protocol partitions by), and bootstraps their views.
    ///
    /// Large clusters spawned into an empty simulation are materialised
    /// cold across the thread pool ([`ClusterSpec::build_cold_nodes`]) and
    /// then bootstrapped serially in id order, keeping spawn O(n) — the
    /// observable behaviour matches the serial loop (each node bootstraps
    /// from contacts among its predecessors), though the seeded random
    /// stream differs from the one-at-a-time path.
    pub fn spawn_cluster(&mut self, count: usize, node_config: NodeConfig) {
        self.default_node_config = node_config;
        if !self.nodes.is_empty() || count < PARALLEL_SPAWN_THRESHOLD {
            for _ in 0..count {
                let capacity = self.rng.gen_range(100..=10_000);
                self.spawn_node(node_config, capacity);
            }
            return;
        }
        let capacities: Vec<u64> = (0..count)
            .map(|_| self.rng.gen_range(100..=10_000))
            .collect();
        let spec = ClusterSpec::new(node_config, capacities, self.rng.gen());
        for mut node in spec.build_cold_nodes() {
            let id = node.id();
            debug_assert_eq!(id.as_u64() as usize, self.nodes.len());
            self.fill_bootstrap_contacts();
            node.bootstrap(self.contacts_scratch.drain(..));
            self.register_alive(NodeHost::new(node));
            self.schedule_node_timers(id, node_config);
        }
    }

    /// Spawns a single node with an explicit capacity attribute, returning
    /// its identity.
    pub fn spawn_node(&mut self, node_config: NodeConfig, capacity: u64) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u64);
        let profile = NodeProfile::with_capacity_and_tie_break(capacity, id.as_u64());
        let seed = self.rng.gen();
        let store = ShardedStore::new(node_config.effective_store_shards());
        let mut node = DataFlasksNode::new(id, node_config, profile, store, seed);
        self.fill_bootstrap_contacts();
        node.bootstrap(self.contacts_scratch.drain(..));
        self.register_alive(NodeHost::new(node));
        self.schedule_node_timers(id, node_config);
        id
    }

    /// Appends a freshly built host to the slab and the alive set.
    fn register_alive(&mut self, host: NodeHost<DefaultStore>) {
        let index = self.nodes.len();
        self.nodes.push(SimNode { host, alive: true });
        self.alive_pos.push(self.alive.len());
        self.alive.push(NodeId::new(index as u64));
        self.alive_epoch += 1;
    }

    /// Materialises a [`ClusterSpec`] into this (empty) simulation: the same
    /// spec driven through any [`Environment`] hosts identical node state
    /// machines.
    ///
    /// # Panics
    ///
    /// Panics if nodes were already spawned (a spec describes a whole
    /// cluster, ids starting at zero).
    pub fn spawn_spec(&mut self, spec: &ClusterSpec) {
        assert!(
            self.nodes.is_empty(),
            "spawn_spec requires an empty simulation"
        );
        self.default_node_config = spec.node_config;
        self.spec = Some(spec.clone());
        for node in spec.build_nodes() {
            let id = node.id();
            debug_assert_eq!(id.as_u64() as usize, self.nodes.len());
            self.register_alive(NodeHost::new(node));
            self.schedule_node_timers(id, spec.node_config);
        }
    }

    /// Adds a client library whose contacts are every currently alive node,
    /// returning the client identifier.
    pub fn add_client(&mut self) -> ClientId {
        // Never mint an id already claimed by an Environment submission —
        // its replies are diverted to the Environment's reply log and the
        // library would starve.
        while self.env_clients.contains(&self.next_client_id) {
            self.next_client_id += 1;
        }
        let id = self.next_client_id;
        self.next_client_id += 1;
        self.clients.insert(
            id,
            SimClient {
                library: ClientLibrary::new(id, self.alive.clone()),
                contacts_epoch: self.alive_epoch,
            },
        );
        id
    }

    /// Schedules a crash of `node` at `at` (volatile state is lost; with an
    /// in-memory store that means all of its replicas).
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.queue.schedule(at, EventPayload::NodeCrash { node });
    }

    /// Schedules the arrival of a brand-new node with the given capacity.
    pub fn schedule_join(&mut self, at: SimTime, capacity: u64) {
        // The node id is allocated when the event fires so that ids stay
        // dense and deterministic.
        self.queue.schedule(at, EventPayload::NodeJoin { capacity });
    }

    /// Schedules uniform churn between `start` and `end`: `crashes` node
    /// failures and `joins` node arrivals spread uniformly at random over the
    /// window.
    pub fn schedule_churn(&mut self, start: SimTime, end: SimTime, crashes: usize, joins: usize) {
        let window = end.saturating_since(start).as_millis().max(1);
        if !self.nodes.is_empty() {
            for _ in 0..crashes {
                let offset = self.rng.gen_range(0..window);
                let at = start + Duration::from_millis(offset);
                let victim = NodeId::new(self.rng.gen_range(0..self.nodes.len() as u64));
                self.queue
                    .schedule(at, EventPayload::NodeCrash { node: victim });
            }
        }
        for _ in 0..joins {
            let offset = self.rng.gen_range(0..window);
            let at = start + Duration::from_millis(offset);
            let capacity = self.rng.gen_range(100..=10_000);
            self.queue.schedule(at, EventPayload::NodeJoin { capacity });
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// The shared nemesis fault plan every routed transport unit consults.
    /// Mutate it (directly or via [`NemesisOp::apply_to_plan`]) to impose
    /// partitions, blocked links and loss/duplication windows mid-run.
    #[must_use]
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.faults)
    }

    /// The simulator-only timing faults currently in force.
    #[must_use]
    pub fn faulty_network(&self) -> &FaultyNetwork {
        &self.faulty
    }

    /// Replaces the simulator-only timing faults (latency model override,
    /// reordering) wholesale.
    pub fn set_faulty_network(&mut self, faulty: FaultyNetwork) {
        self.faulty = faulty;
    }

    /// Applies one nemesis operation at the current virtual time: the
    /// link-fault subset lands on the shared [`FaultPlan`], timing faults
    /// reshape the [`FaultyNetwork`] interposer, and churn storms schedule
    /// crashes/joins over their window. [`NemesisOp::CorruptFrames`] arms
    /// the plan's budget but is a physical no-op here — the simulator
    /// delivers typed messages, not bytes, so there is no frame to flip a
    /// bit in (the socket and async backends exercise that path).
    pub fn apply_nemesis_op(&mut self, op: &NemesisOp) {
        if op.apply_to_plan(&self.faults) {
            return;
        }
        match op {
            NemesisOp::Reorder { p, max_delay } => {
                self.faulty.reorder_probability = *p;
                self.faulty.reorder_max_delay = *max_delay;
            }
            NemesisOp::LatencySwap(shape) => {
                self.faulty.latency = match *shape {
                    LatencyShape::Baseline => None,
                    LatencyShape::Uniform { min, max } => Some(LatencyModel::Uniform { min, max }),
                    LatencyShape::LogNormal { median, sigma } => {
                        Some(LatencyModel::LogNormal { median, sigma })
                    }
                    LatencyShape::Spike {
                        base,
                        spike,
                        spike_probability,
                    } => Some(LatencyModel::Spike {
                        base,
                        spike,
                        spike_probability,
                    }),
                };
            }
            NemesisOp::ChurnStorm {
                crashes,
                joins,
                duration,
            } => {
                let start = self.now;
                self.schedule_churn(start, start + *duration, *crashes, *joins);
            }
            _ => unreachable!("plan-expressible ops are handled by apply_to_plan"),
        }
    }

    // ------------------------------------------------------------------
    // Workload submission
    // ------------------------------------------------------------------

    /// Submits a put through `client` at the current time.
    pub fn submit_put(&mut self, client: ClientId, key: Key, version: Version, value: Value) {
        self.queue.schedule(
            self.now,
            EventPayload::ClientPut {
                client,
                key,
                version,
                value,
            },
        );
    }

    /// Submits a get through `client` at the current time.
    pub fn submit_get(&mut self, client: ClientId, key: Key, version: Option<Version>) {
        self.queue.schedule(
            self.now,
            EventPayload::ClientGet {
                client,
                key,
                version,
            },
        );
    }

    /// Schedules a put at an explicit future time.
    pub fn schedule_put(
        &mut self,
        at: SimTime,
        client: ClientId,
        key: Key,
        version: Version,
        value: Value,
    ) {
        self.queue.schedule(
            at,
            EventPayload::ClientPut {
                client,
                key,
                version,
                value,
            },
        );
    }

    /// Schedules a get at an explicit future time.
    pub fn schedule_get(
        &mut self,
        at: SimTime,
        client: ClientId,
        key: Key,
        version: Option<Version>,
    ) {
        self.queue.schedule(
            at,
            EventPayload::ClientGet {
                client,
                key,
                version,
            },
        );
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Runs the simulation for a span of virtual time.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    /// Runs the simulation until the virtual clock reaches `deadline`.
    ///
    /// Wheel deadlines strictly earlier than the next heap event fire
    /// first; at equal instants the heap event wins, which keeps injected
    /// inputs (which travel on the heap, including injected timer firings)
    /// in FIFO submission order relative to each other.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            let heap_next = self.queue.next_time().filter(|&t| t <= deadline);
            let wheel_limit = match heap_next {
                // Scheduled times are whole milliseconds (latencies and
                // periods are built from millis), so "strictly before the
                // heap event" is exactly one tick less.
                Some(t) if t == SimTime::ZERO => None,
                Some(t) => Some(SimTime::from_millis(t.as_millis() - 1)),
                None => Some(deadline),
            };
            if let Some(limit) = wheel_limit {
                if self.fire_due_timers(limit) {
                    continue;
                }
            }
            if heap_next.is_none() {
                break;
            }
            let event = self.queue.pop().expect("peeked event exists");
            self.now = event.at;
            self.events_dispatched += 1;
            self.dispatch(event.payload);
        }
        self.now = deadline;
        self.expire_clients();
    }

    /// Advances the wheel to the first tick with due deadlines at or before
    /// `limit` and fires them. Returns `true` if anything fired.
    fn fire_due_timers(&mut self, limit: SimTime) -> bool {
        let mut due = mem::take(&mut self.timer_scratch);
        due.clear();
        let fired = self.wheel.advance_next(limit, &mut due);
        if fired {
            let Self {
                nodes,
                queue,
                rng,
                config,
                faults,
                faulty,
                messages_dropped,
                wheel,
                timer_fires,
                events_dispatched,
                now,
                dispatch_scratch,
                ..
            } = self;
            for timer in &due {
                let Some(entry) = nodes.get_mut(timer.host) else {
                    continue;
                };
                // Dead nodes cancel their deadlines, so this only guards
                // against a crash handled earlier in this same batch.
                if !entry.alive {
                    continue;
                }
                *now = (*now).max(timer.at);
                *events_dispatched += 1;
                *timer_fires += 1;
                let mut injected = InjectedCounters::default();
                let mut routing = Routing {
                    queue: &mut *queue,
                    rng: &mut *rng,
                    network: &config.network,
                    faults,
                    faulty,
                    injected: &mut injected,
                    messages_dropped: &mut *messages_dropped,
                    wheel: &mut *wheel,
                    now: *now,
                };
                let node = NodeId::new(timer.host as u64);
                entry.host.swap_scratch(dispatch_scratch);
                entry
                    .host
                    .fire_timer(timer.kind, *now, |output| routing.route(node, output));
                entry.host.swap_scratch(dispatch_scratch);
                if !injected.is_empty() {
                    entry.host.node_mut().record_injected_faults(&injected);
                }
            }
        }
        self.timer_scratch = due;
        fired
    }

    fn dispatch(&mut self, payload: EventPayload) {
        match payload {
            EventPayload::Deliver { from, to, message } => {
                self.deliver_to_node(from, to, std::iter::once(message));
            }
            EventPayload::DeliverBatch {
                from,
                to,
                mut messages,
            } => {
                self.deliver_to_node(from, to, messages.drain(..));
                // The spent buffer goes back to the event loop's batch pool,
                // which every node's rounds draw from: a warmed event loop
                // recycles rather than allocates.
                self.dispatch_scratch.recycle_batch(messages);
            }
            EventPayload::Timer {
                node,
                kind,
                generation,
            } => {
                // An injected firing (periodic timers never travel on the
                // heap). Superseded by a later arm or injection: drop it,
                // there is exactly one live chain per (node, kind).
                let index = node.as_u64() as usize;
                if !self.wheel.is_current(index, kind, generation) {
                    return;
                }
                let now = self.now;
                let Self {
                    nodes,
                    queue,
                    rng,
                    config,
                    faults,
                    faulty,
                    messages_dropped,
                    wheel,
                    timer_fires,
                    dispatch_scratch,
                    ..
                } = self;
                let Some(entry) = nodes.get_mut(index) else {
                    return;
                };
                // A dead node's timer is simply not re-armed (the re-arm is
                // an effect of handling the timer, which dead nodes never do).
                if entry.alive {
                    *timer_fires += 1;
                    let mut injected = InjectedCounters::default();
                    let mut routing = Routing {
                        queue,
                        rng,
                        network: &config.network,
                        faults,
                        faulty,
                        injected: &mut injected,
                        messages_dropped,
                        wheel,
                        now,
                    };
                    entry.host.swap_scratch(dispatch_scratch);
                    entry
                        .host
                        .fire_timer(kind, now, |output| routing.route(node, output));
                    entry.host.swap_scratch(dispatch_scratch);
                    if !injected.is_empty() {
                        entry.host.node_mut().record_injected_faults(&injected);
                    }
                }
            }
            EventPayload::ClientSubmit {
                client,
                contact,
                request,
            } => {
                self.deliver_client_request(client, contact, request);
            }
            EventPayload::ClientDeliver { client, reply } => {
                if self.env_clients.contains(&client) {
                    // Environment-injected traffic: surfaced raw through
                    // drain_effects, never absorbed by a client library.
                    self.reply_log.push(reply);
                } else if let Some(entry) = self.clients.get_mut(&client) {
                    if let Some(done) = entry.library.on_reply(&reply, self.now) {
                        self.completed.push(done);
                    }
                } else {
                    self.reply_log.push(reply);
                }
            }
            EventPayload::ClientPut {
                client,
                key,
                version,
                value,
            } => {
                let Some(issued) = self.client_issue(client, |library, now, rng| {
                    library.put(key, version, value, now, rng)
                }) else {
                    return;
                };
                self.deliver_client_request(client, issued.contact, issued.request);
            }
            EventPayload::ClientGet {
                client,
                key,
                version,
            } => {
                let Some(issued) = self.client_issue(client, |library, now, rng| {
                    library.get(key, version, now, rng)
                }) else {
                    return;
                };
                self.deliver_client_request(client, issued.contact, issued.request);
            }
            EventPayload::NodeCrash { node } => {
                self.kill(node);
            }
            EventPayload::NodeJoin { capacity } => {
                let config = self.default_node_config;
                let _ = self.spawn_node(config, capacity);
            }
        }
    }

    /// Refreshes `client`'s contacts if membership changed since it last
    /// issued, then runs `issue` against its library.
    fn client_issue<T>(
        &mut self,
        client: ClientId,
        issue: impl FnOnce(&mut ClientLibrary, SimTime, &mut StdRng) -> Option<T>,
    ) -> Option<T> {
        let Self {
            clients,
            alive,
            alive_epoch,
            rng,
            now,
            ..
        } = self;
        let entry = clients.get_mut(&client)?;
        if entry.contacts_epoch != *alive_epoch {
            entry.library.set_contacts(alive.clone());
            entry.contacts_epoch = *alive_epoch;
        }
        issue(&mut entry.library, *now, rng)
    }

    /// Marks `node` dead: out of the alive set, wheel deadlines cancelled.
    fn kill(&mut self, node: NodeId) {
        let index = node.as_u64() as usize;
        let Some(entry) = self.nodes.get_mut(index) else {
            return;
        };
        if !entry.alive {
            return;
        }
        entry.alive = false;
        let pos = self.alive_pos[index];
        self.alive.swap_remove(pos);
        if let Some(&moved) = self.alive.get(pos) {
            self.alive_pos[moved.as_u64() as usize] = pos;
        }
        self.alive_pos[index] = usize::MAX;
        self.alive_epoch += 1;
        for kind in TimerKind::ALL {
            self.wheel.cancel(index, kind);
        }
    }

    /// Shared delivery path for single messages and per-destination batches
    /// (one transport unit either way): skips dead nodes, counts delivered
    /// messages and routes the whole dispatch round's effects through the
    /// simulated network.
    fn deliver_to_node<I>(&mut self, from: NodeId, to: NodeId, messages: I)
    where
        I: ExactSizeIterator<Item = Message>,
    {
        let now = self.now;
        let Self {
            nodes,
            queue,
            rng,
            config,
            faults,
            faulty,
            messages_dropped,
            messages_delivered,
            wheel,
            dispatch_scratch,
            ..
        } = self;
        let Some(entry) = nodes.get_mut(to.as_u64() as usize) else {
            return;
        };
        if !entry.alive {
            return;
        }
        *messages_delivered += messages.len() as u64;
        let mut injected = InjectedCounters::default();
        let mut routing = Routing {
            queue,
            rng,
            network: &config.network,
            faults,
            faulty,
            injected: &mut injected,
            messages_dropped,
            wheel,
            now,
        };
        entry.host.swap_scratch(dispatch_scratch);
        entry
            .host
            .deliver_batch(from, messages, now, |output| routing.route(to, output));
        entry.host.swap_scratch(dispatch_scratch);
        if !injected.is_empty() {
            entry.host.node_mut().record_injected_faults(&injected);
        }
    }

    fn deliver_client_request(
        &mut self,
        client: ClientId,
        contact: NodeId,
        request: ClientRequest,
    ) {
        // The contact node handles the request at submission time; the
        // client-perceived latency still includes the network because replies
        // travel through the queue.
        let now = self.now;
        let Self {
            nodes,
            queue,
            rng,
            config,
            faults,
            faulty,
            messages_dropped,
            wheel,
            dispatch_scratch,
            ..
        } = self;
        let Some(entry) = nodes.get_mut(contact.as_u64() as usize) else {
            return;
        };
        if !entry.alive {
            return;
        }
        let mut injected = InjectedCounters::default();
        let mut routing = Routing {
            queue,
            rng,
            network: &config.network,
            faults,
            faulty,
            injected: &mut injected,
            messages_dropped,
            wheel,
            now,
        };
        entry.host.swap_scratch(dispatch_scratch);
        entry
            .host
            .submit_client_request(client, request, now, |output| {
                routing.route(contact, output)
            });
        entry.host.swap_scratch(dispatch_scratch);
        if !injected.is_empty() {
            entry.host.node_mut().record_injected_faults(&injected);
        }
    }

    fn expire_clients(&mut self) {
        let timeout = self.config.client_timeout;
        let now = self.now;
        for entry in self.clients.values_mut() {
            self.completed
                .extend(entry.library.expire_pending(now, timeout));
        }
    }

    /// Seeds the first round of each protocol timer with a random phase;
    /// every subsequent round is re-armed by the node itself (an
    /// [`Output::Timer`] effect).
    fn schedule_node_timers(&mut self, node: NodeId, config: NodeConfig) {
        let index = node.as_u64() as usize;
        for kind in TimerKind::ALL {
            let period = kind.period(&config);
            let jitter = Duration::from_millis(self.rng.gen_range(0..period.as_millis().max(1)));
            self.wheel.arm(index, kind, self.now + jitter);
        }
    }

    /// Fills [`Self::contacts_scratch`] with up to [`BOOTSTRAP_CONTACTS`]
    /// distinct alive nodes, sampled by rejection off the alive list —
    /// O(contacts) per join, never O(cluster).
    fn fill_bootstrap_contacts(&mut self) {
        let Self {
            rng,
            alive,
            nodes,
            contacts_scratch,
            ..
        } = self;
        contacts_scratch.clear();
        let describe = |nodes: &[SimNode], id: NodeId| {
            let node = nodes[id.as_u64() as usize].host.node();
            NodeDescriptor::new(id, node.profile()).with_slice(node.slice())
        };
        if alive.len() <= BOOTSTRAP_CONTACTS {
            for &id in alive.iter() {
                contacts_scratch.push(describe(nodes, id));
            }
            return;
        }
        let mut chosen = [usize::MAX; BOOTSTRAP_CONTACTS];
        let mut count = 0;
        while count < BOOTSTRAP_CONTACTS {
            let pick = rng.gen_range(0..alive.len());
            if chosen[..count].contains(&pick) {
                continue;
            }
            chosen[count] = pick;
            count += 1;
            contacts_scratch.push(describe(nodes, alive[pick]));
        }
    }

    // ------------------------------------------------------------------
    // Measurements
    // ------------------------------------------------------------------

    /// Per-node statistics of every alive node, in spawn order.
    #[must_use]
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes
            .iter()
            .filter(|entry| entry.alive)
            .map(|entry| *entry.host.node().stats())
            .collect()
    }

    /// The cluster-wide report (the measurement the figures are built from).
    #[must_use]
    pub fn cluster_report(&self) -> ClusterReport {
        ClusterReport::from_node_stats(&self.node_stats())
    }

    /// Number of alive replicas currently holding `key`.
    #[must_use]
    pub fn replication_factor(&self, key: Key) -> usize {
        self.nodes
            .iter()
            .filter(|entry| entry.alive && entry.host.node().store().get_latest(key).is_some())
            .count()
    }

    /// The slice every alive node currently believes it belongs to, in
    /// spawn order. Borrowed iterator — no per-call allocation.
    pub fn slice_assignment(&self) -> impl Iterator<Item = (NodeId, SliceId)> + '_ {
        self.nodes
            .iter()
            .filter(|entry| entry.alive)
            .filter_map(|entry| {
                let node = entry.host.node();
                node.slice().map(|slice| (node.id(), slice))
            })
    }

    /// Number of alive members per populated slice, ordered by slice index.
    #[must_use]
    pub fn slice_populations(&self) -> Vec<(SliceId, usize)> {
        let configured = self.default_node_config.slicing.slice_count as usize;
        let mut counts: Vec<usize> = vec![0; configured];
        for (_, slice) in self.slice_assignment() {
            let index = slice.index() as usize;
            if index >= counts.len() {
                counts.resize(index + 1, 0);
            }
            counts[index] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (SliceId::new(index as u32), count))
            .collect()
    }

    /// Fraction of the submitted operations that completed successfully
    /// (acked puts and hit gets) among all completed-or-expired operations.
    #[must_use]
    pub fn success_ratio(&self) -> f64 {
        if self.completed.is_empty() {
            return 1.0;
        }
        let successes = self
            .completed
            .iter()
            .filter(|op| {
                matches!(
                    op.outcome,
                    dataflasks_core::OperationOutcome::PutAcked { .. }
                        | dataflasks_core::OperationOutcome::GetHit { .. }
                )
            })
            .count();
        successes as f64 / self.completed.len() as f64
    }
}

impl Environment for Simulation {
    fn deliver_message(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.queue
            .schedule(self.now, EventPayload::Deliver { from, to, message });
    }

    fn fire_timer(&mut self, node: NodeId, kind: TimerKind) {
        // Superseding kills the pending wheel deadline, exactly like the
        // worker-pool runtime superseding its wheel entry; the
        // injected firing travels on the heap so it keeps FIFO order with
        // other injected inputs, carrying the fresh stamp as proof of
        // currency at dispatch time.
        let generation = self.wheel.supersede(node.as_u64() as usize, kind);
        self.queue.schedule(
            self.now,
            EventPayload::Timer {
                node,
                kind,
                generation,
            },
        );
    }

    fn submit_client_request(&mut self, client: ClientId, contact: NodeId, request: ClientRequest) {
        assert!(
            !self.clients.contains_key(&client),
            "client id {client} belongs to a registered ClientLibrary; \
             Environment submissions must use their own ids"
        );
        self.env_clients.insert(client);
        // Queued (not handled inline) so injected inputs are processed in
        // submission order relative to injected messages and timer firings —
        // the same FIFO semantics a node's inbox gives the worker-pool runtime.
        self.queue.schedule(
            self.now,
            EventPayload::ClientSubmit {
                client,
                contact,
                request,
            },
        );
    }

    fn fail_node(&mut self, node: NodeId) {
        self.kill(node);
    }

    fn restart_node(&mut self, node: NodeId) {
        let spec = self
            .spec
            .as_ref()
            .expect("restart_node requires a spec-materialised cluster (spawn_spec)");
        let index = node.as_u64() as usize;
        assert!(index < spec.len(), "node {node} is not part of the spec");
        // First restart pays one full warm-up capture; later restarts replay
        // the cached rounds in O(cluster).
        let rounds = self
            .restart_rounds
            .get_or_insert_with(|| spec.bootstrap_rounds());
        let fresh = spec.rebuild_node_with(index, rounds);
        let config = spec.node_config;
        // The restart implies the crash: in-flight deliveries and client
        // submissions addressed to the pre-crash incarnation are lost with
        // it, exactly like the concurrent runtimes clearing the victim's
        // inbox. (Pending timer deadlines are superseded by the arms below.)
        self.queue.discard(|payload| {
            matches!(
                payload,
                EventPayload::Deliver { to, .. }
                | EventPayload::DeliverBatch { to, .. } if *to == node
            ) || matches!(payload, EventPayload::ClientSubmit { contact, .. } if *contact == node)
        });
        let entry = self
            .nodes
            .get_mut(index)
            .expect("spec nodes are registered");
        entry.host = NodeHost::new(fresh);
        if !entry.alive {
            entry.alive = true;
            self.alive_pos[index] = self.alive.len();
            self.alive.push(node);
            self.alive_epoch += 1;
        }
        // Re-seed the periodic timers deterministically (no spawn jitter):
        // one full period from the restart instant, exactly like the
        // concurrent runtimes arming a fresh deadline table. Arming
        // supersedes the chain, so pre-crash deadlines (and injected
        // firings still in the heap) are dead on arrival.
        for kind in TimerKind::ALL {
            self.wheel.arm(index, kind, self.now + kind.period(&config));
        }
    }

    fn drain_effects(&mut self, budget: Duration) -> Vec<ClientReply> {
        self.run_for(budget);
        std::mem::take(&mut self.reply_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sim(nodes: usize, slices: u32) -> Simulation {
        let mut sim = Simulation::new(SimConfig::default());
        let config = NodeConfig::for_system_size(nodes, slices);
        sim.spawn_cluster(nodes, config);
        sim
    }

    #[test]
    fn spawning_a_cluster_creates_alive_nodes() {
        let sim = small_sim(20, 4);
        assert_eq!(sim.alive_count(), 20);
        assert_eq!(sim.alive_nodes().len(), 20);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn gossip_fills_views_and_assigns_slices() {
        let mut sim = small_sim(30, 3);
        sim.run_for(Duration::from_secs(30));
        assert_eq!(sim.slice_assignment().count(), 30);
        let populations = sim.slice_populations();
        assert!(
            populations.len() >= 2,
            "expected at least two populated slices, got {populations:?}"
        );
        for &id in sim.alive_nodes() {
            assert!(sim.node(id).view_len() > 0, "node {id} has an empty view");
        }
        assert!(sim.messages_delivered() > 0);
    }

    #[test]
    fn every_dispatch_runs_on_the_event_loops_scratch() {
        let mut sim = small_sim(24, 3);
        sim.run_for(Duration::from_secs(40));
        let client = sim.add_client();
        let key = Key::from_user_key("lent-scratch");
        sim.submit_put(client, key, Version::new(1), Value::from_bytes(b"payload"));
        Environment::fire_timer(&mut sim, NodeId::new(3), TimerKind::AntiEntropy);
        sim.run_for(Duration::from_secs(10));
        sim.submit_get(client, key, None);
        sim.run_for(Duration::from_secs(10));
        // Timers, deliveries and client requests all dispatched on the one
        // scratch, which holds nothing between events.
        assert!(sim.dispatch_scratch.is_allocated());
        assert!(sim.dispatch_scratch.is_empty());
        for entry in &sim.nodes {
            assert!(
                !entry.host.scratch().is_allocated(),
                "node {} grew a scratch of its own",
                entry.host.node().id()
            );
        }
    }

    #[test]
    fn puts_replicate_to_the_target_slice_and_gets_find_them() {
        let mut sim = small_sim(24, 3);
        sim.run_for(Duration::from_secs(40));
        let client = sim.add_client();
        let key = Key::from_user_key("simulated-object");
        sim.submit_put(client, key, Version::new(1), Value::from_bytes(b"payload"));
        sim.run_for(Duration::from_secs(10));
        let replicas = sim.replication_factor(key);
        assert!(replicas >= 2, "expected replication, got {replicas}");
        sim.submit_get(client, key, None);
        sim.run_for(Duration::from_secs(10));
        let stats = sim.client(client).unwrap().stats();
        assert_eq!(stats.puts_acked, 1);
        assert_eq!(stats.gets_hit, 1);
        assert!(sim.success_ratio() > 0.99);
        let report = sim.cluster_report();
        assert!(report.request_messages_per_node.mean > 0.0);
        assert_eq!(report.alive_nodes, 24);
    }

    #[test]
    fn crashed_nodes_stop_participating() {
        let mut sim = small_sim(12, 2);
        sim.run_for(Duration::from_secs(10));
        let victim = sim.alive_nodes()[0];
        sim.schedule_crash(sim.now() + Duration::from_millis(1), victim);
        sim.run_for(Duration::from_secs(5));
        assert_eq!(sim.alive_count(), 11);
        assert!(!sim.alive_nodes().contains(&victim));
        // The cluster report only covers alive nodes.
        assert_eq!(sim.cluster_report().alive_nodes, 11);
    }

    #[test]
    fn joins_grow_the_cluster() {
        let mut sim = small_sim(10, 2);
        sim.run_for(Duration::from_secs(5));
        sim.schedule_join(sim.now() + Duration::from_millis(10), 5_000);
        sim.run_for(Duration::from_secs(20));
        assert_eq!(sim.alive_count(), 11);
        // The newcomer integrated: its view is non-empty and it has a slice.
        let newest = *sim.alive_nodes().last().unwrap();
        assert!(sim.node(newest).view_len() > 0);
        assert!(sim.node(newest).slice().is_some());
    }

    #[test]
    fn churn_scheduling_respects_counts() {
        let mut sim = small_sim(20, 2);
        sim.run_for(Duration::from_secs(5));
        sim.schedule_churn(sim.now(), sim.now() + Duration::from_secs(10), 5, 3);
        sim.run_for(Duration::from_secs(20));
        // 20 - 5 crashes + 3 joins = 18 (a node may be crashed twice, making
        // the count higher; it can never drop below 20 - 5 + 3).
        assert!(sim.alive_count() >= 18);
        assert!(sim.alive_count() <= 23);
    }

    #[test]
    fn injected_timer_firings_supersede_the_pending_chain() {
        use dataflasks_core::MessageKind;
        // Hour-long periods isolate the injected firings from the periodic
        // schedule.
        let mut config = NodeConfig::for_system_size(4, 1);
        let hour = Duration::from_secs(3_600);
        config.pss.shuffle_period = hour;
        config.slicing.gossip_period = hour;
        config.replication.anti_entropy_period = hour;
        let mut sim = Simulation::new(SimConfig::default());
        sim.spawn_cluster(4, config);
        // The last-spawned node bootstrapped with every earlier node, so its
        // view is non-empty and a shuffle firing produces one message.
        let node = *sim.alive_nodes().last().unwrap();
        let sent_before = sim.node(node).stats().sent(MessageKind::Membership);
        // Five injections arm five generations; only the newest chain is
        // live, so the shuffle fires exactly once (the worker-pool runtime's
        // single-deadline semantics).
        for _ in 0..5 {
            Environment::fire_timer(&mut sim, node, TimerKind::PssShuffle);
        }
        sim.run_for(Duration::from_secs(10));
        let sent_after = sim.node(node).stats().sent(MessageKind::Membership);
        assert_eq!(
            sent_after - sent_before,
            1,
            "five injected firings must collapse into one live timer chain"
        );
    }

    #[test]
    fn crash_then_restart_supersedes_precrash_timer_chains() {
        use dataflasks_core::MessageKind;
        // Short, distinct periods: the pre-crash chain (armed with spawn
        // jitter inside the first period) and the post-restart chain (armed
        // exactly one period after the restart) are distinguishable by when
        // shuffles resume.
        let mut config = NodeConfig::for_system_size(4, 1);
        config.pss.shuffle_period = Duration::from_secs(2);
        config.slicing.gossip_period = Duration::from_secs(3_600);
        config.replication.anti_entropy_period = Duration::from_secs(3_600);
        let spec = ClusterSpec::new(config, vec![400, 300, 200, 100], 41);
        let mut sim = Simulation::new(SimConfig {
            seed: spec.seed,
            ..SimConfig::default()
        });
        sim.spawn_spec(&spec);
        let victim = NodeId::new(2);
        Environment::fail_node(&mut sim, victim);
        // A dead node's deadlines are cancelled: nothing fires while down.
        let fires_at_crash = sim.timer_fires();
        sim.run_for(Duration::from_secs(10));
        let victim_sent = sim.node(victim).stats().sent(MessageKind::Membership);
        assert_eq!(victim_sent, 0, "a dead node must not shuffle");
        Environment::restart_node(&mut sim, victim);
        // The fresh incarnation shuffles again — from one full period after
        // the restart, on a chain that superseded the pre-crash one (no
        // double firing at the old phase).
        sim.run_for(Duration::from_secs(2));
        let resumed = sim.node(victim).stats().sent(MessageKind::Membership);
        assert_eq!(
            resumed, 1,
            "exactly one post-restart shuffle within the first period"
        );
        assert!(sim.timer_fires() > fires_at_crash);
    }

    #[test]
    fn restarted_nodes_rejoin_with_empty_volatile_state() {
        use dataflasks_core::{ClientRequest, ReplyBody};
        use dataflasks_types::{RequestId, Value, Version};

        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            31,
        );
        let mut sim = Simulation::new(SimConfig {
            seed: spec.seed,
            ..SimConfig::default()
        });
        sim.spawn_spec(&spec);
        let key = Key::from_user_key("lost-on-restart");
        Environment::submit_client_request(
            &mut sim,
            9,
            NodeId::new(0),
            ClientRequest::Put {
                id: RequestId::new(9, 0),
                key,
                version: Version::new(1),
                value: Value::from_bytes(b"volatile"),
            },
        );
        let replies = sim.drain_effects(Duration::from_secs(10));
        assert!(replies
            .iter()
            .any(|r| matches!(r.body, ReplyBody::PutAck { .. })));
        let victim = NodeId::new(1);
        assert!(sim.node(victim).store().get_latest(key).is_some());
        Environment::fail_node(&mut sim, victim);
        Environment::restart_node(&mut sim, victim);
        // Rejoined: alive, warm membership, but store and stats are empty.
        assert!(sim.alive_nodes().contains(&victim));
        assert_eq!(sim.node(victim).store().len(), 0);
        assert_eq!(sim.node(victim).stats().total_messages(), 0);
        assert!(sim.node(victim).slice().is_some());
        assert!(sim.node(victim).view_len() > 0);
        // The restarted replica serves traffic again.
        Environment::submit_client_request(
            &mut sim,
            9,
            victim,
            ClientRequest::Get {
                id: RequestId::new(9, 1),
                key,
                version: None,
            },
        );
        let replies = sim.drain_effects(Duration::from_secs(10));
        assert!(
            !replies.is_empty(),
            "a restarted contact must answer requests"
        );
    }

    #[test]
    fn restart_discards_in_flight_deliveries_to_the_old_incarnation() {
        use dataflasks_core::Message;
        use std::sync::Arc;

        // Far-future periodic timers isolate the injected traffic.
        let mut config = NodeConfig::for_system_size(3, 1);
        let far = Duration::from_secs(1 << 26);
        config.pss.shuffle_period = far;
        config.slicing.gossip_period = far;
        config.replication.anti_entropy_period = far;
        let spec = ClusterSpec::new(config, vec![300, 200, 100], 33);
        let mut sim = Simulation::new(SimConfig {
            seed: spec.seed,
            ..SimConfig::default()
        });
        sim.spawn_spec(&spec);
        let victim = NodeId::new(1);
        // Queue a delivery for the victim, then restart it before the event
        // dispatches: the message belonged to the dead incarnation and must
        // be lost, exactly like the concurrent runtimes clearing the inbox.
        Environment::deliver_message(
            &mut sim,
            NodeId::new(0),
            victim,
            Message::AntiEntropyDigest {
                digest: Arc::new(dataflasks_store::StoreDigest::new()),
                range: dataflasks_types::KeyRange::FULL,
            },
        );
        Environment::restart_node(&mut sim, victim);
        sim.run_for(Duration::from_secs(5));
        assert_eq!(
            sim.node(victim).stats().total_messages(),
            0,
            "pre-restart deliveries must not reach the fresh incarnation"
        );
    }

    #[test]
    fn a_request_a_window_behind_its_clients_newest_is_refused_as_stale() {
        use dataflasks_core::{DisseminationPhase, Message, MessageKind, PutRequest};
        use dataflasks_types::{RequestId, StoredObject, Value, Version};
        use std::sync::Arc;

        let mut config = NodeConfig::for_system_size(4, 1);
        let far = Duration::from_secs(1 << 26);
        config.pss.shuffle_period = far;
        config.slicing.gossip_period = far;
        config.replication.anti_entropy_period = far;
        let window = config.dissemination.dedup_cache_size as u64;
        let spec = ClusterSpec::new(config, vec![400, 300, 200, 100], 35);
        let mut sim = Simulation::new(SimConfig {
            seed: spec.seed,
            ..SimConfig::default()
        });
        sim.spawn_spec(&spec);
        let target = NodeId::new(1);
        let put = |sequence: u64, name: &str| {
            Message::Put(Arc::new(PutRequest {
                id: RequestId::new(9, sequence),
                client: 9,
                object: StoredObject::new(
                    Key::from_user_key(name),
                    Version::new(1),
                    Value::from_bytes(b"v"),
                ),
                phase: DisseminationPhase::Global,
                ttl: 4,
            }))
        };
        Environment::deliver_message(&mut sim, NodeId::new(0), target, put(window + 1, "newest"));
        sim.drain_effects(Duration::from_secs(10));
        let before = *sim.node(target).stats();
        assert!(
            before.sent(MessageKind::Request) > 0,
            "the newest is forwarded"
        );
        assert_eq!(before.requests_stale, 0);

        // W + 1 sequences behind the client's newest at this node.
        Environment::deliver_message(&mut sim, NodeId::new(0), target, put(0, "stale"));
        sim.drain_effects(Duration::from_secs(10));
        let after = *sim.node(target).stats();
        assert_eq!(after.requests_stale, 1, "refused and counted as stale");
        assert_eq!(after.requests_duplicate, before.requests_duplicate);
        assert_eq!(
            after.sent(MessageKind::Request),
            before.sent(MessageKind::Request),
            "a stale request is not forwarded"
        );
        assert_eq!(after.puts_stored, before.puts_stored, "nor applied");
        assert!(sim
            .node(target)
            .store()
            .get_latest(Key::from_user_key("stale"))
            .is_none());
        let mut total = NodeStats::new();
        for stats in sim.node_stats() {
            total.merge(&stats);
        }
        assert_eq!(total.requests_stale, 1, "no other node saw it");
    }

    #[test]
    fn client_timeouts_are_reported() {
        let mut sim = Simulation::new(SimConfig {
            client_timeout: Duration::from_secs(2),
            ..SimConfig::default()
        });
        // A cluster whose nodes have empty views: requests cannot disseminate
        // beyond the (non-responsible) contact node, so gets never complete.
        let config = NodeConfig::for_system_size(4, 4);
        sim.spawn_cluster(4, config);
        let client = sim.add_client();
        sim.submit_get(client, Key::from_user_key("nowhere"), None);
        sim.run_for(Duration::from_secs(10));
        let stats = sim.client(client).unwrap().stats();
        assert!(stats.timeouts <= 1);
        assert_eq!(stats.gets_issued, 1);
        // Either it timed out (likely) or a lucky contact answered a miss; in
        // both cases the operation is accounted for.
        assert_eq!(sim.completed_operations().len(), 1);
    }

    #[test]
    fn partition_refuses_cross_group_traffic_and_heals() {
        let mut sim = small_sim(16, 2);
        sim.run_for(Duration::from_secs(20));
        // Split even against odd ids: gossip across the cut is refused at
        // the sender and accounted on its stats.
        let plan = sim.fault_plan();
        let (evens, odds): (Vec<NodeId>, Vec<NodeId>) = (0..16u64)
            .map(NodeId::new)
            .partition(|id| id.as_u64() % 2 == 0);
        sim.apply_nemesis_op(&NemesisOp::Partition {
            groups: vec![evens, odds],
        });
        let delivered_before = sim.messages_delivered();
        sim.run_for(Duration::from_secs(20));
        let refusals: u64 = sim.node_stats().iter().map(|s| s.partition_refusals).sum();
        assert!(refusals > 0, "cross-partition sends must be refused");
        // Same-side traffic still flows.
        assert!(sim.messages_delivered() > delivered_before);
        sim.apply_nemesis_op(&NemesisOp::Heal);
        assert!(!plan.is_active());
        let refusals_at_heal: u64 = sim.node_stats().iter().map(|s| s.partition_refusals).sum();
        sim.run_for(Duration::from_secs(10));
        let refusals_after: u64 = sim.node_stats().iter().map(|s| s.partition_refusals).sum();
        assert_eq!(
            refusals_after, refusals_at_heal,
            "healed links refuse nothing"
        );
    }

    #[test]
    fn injected_loss_and_duplication_are_accounted_on_sender_stats() {
        let mut sim = small_sim(12, 2);
        sim.run_for(Duration::from_secs(10));
        sim.apply_nemesis_op(&NemesisOp::Loss {
            links: None,
            p: 0.5,
        });
        sim.run_for(Duration::from_secs(10));
        let dropped: u64 = sim
            .node_stats()
            .iter()
            .map(|s| s.frames_dropped_injected)
            .sum();
        assert!(dropped > 0, "a 50% loss window must drop transport units");
        sim.apply_nemesis_op(&NemesisOp::Loss {
            links: None,
            p: 0.0,
        });
        sim.apply_nemesis_op(&NemesisOp::Duplicate {
            links: None,
            p: 1.0,
        });
        sim.run_for(Duration::from_secs(5));
        let duplicated: u64 = sim
            .node_stats()
            .iter()
            .map(|s| s.frames_duplicated_injected)
            .sum();
        assert!(
            duplicated > 0,
            "a certain-duplication window must duplicate"
        );
        sim.apply_nemesis_op(&NemesisOp::Duplicate {
            links: None,
            p: 0.0,
        });
        assert!(!sim.fault_plan().is_active());
    }

    #[test]
    fn timing_and_churn_ops_reshape_the_simulator() {
        let mut sim = small_sim(20, 2);
        sim.run_for(Duration::from_secs(5));
        sim.apply_nemesis_op(&NemesisOp::LatencySwap(LatencyShape::LogNormal {
            median: Duration::from_millis(80),
            sigma: 1.0,
        }));
        sim.apply_nemesis_op(&NemesisOp::Reorder {
            p: 0.2,
            max_delay: Duration::from_millis(200),
        });
        assert!(!sim.faulty_network().is_inert());
        sim.run_for(Duration::from_secs(10));
        sim.apply_nemesis_op(&NemesisOp::LatencySwap(LatencyShape::Baseline));
        sim.apply_nemesis_op(&NemesisOp::Reorder {
            p: 0.0,
            max_delay: Duration::ZERO,
        });
        assert!(sim.faulty_network().is_inert());
        // A churn storm schedules its crashes and joins over the window.
        sim.apply_nemesis_op(&NemesisOp::ChurnStorm {
            crashes: 4,
            joins: 2,
            duration: Duration::from_secs(10),
        });
        sim.run_for(Duration::from_secs(20));
        assert!(sim.alive_count() >= 16);
        assert!(sim.alive_count() <= 22);
        // The cluster keeps making progress after the whole sequence.
        let delivered = sim.messages_delivered();
        sim.run_for(Duration::from_secs(5));
        assert!(sim.messages_delivered() > delivered);
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(SimConfig {
                seed,
                ..SimConfig::default()
            });
            let config = NodeConfig::for_system_size(16, 2);
            sim.spawn_cluster(16, config);
            let client = sim.add_client();
            sim.run_for(Duration::from_secs(20));
            sim.submit_put(
                client,
                Key::from_user_key("det"),
                Version::new(1),
                Value::from_bytes(b"d"),
            );
            sim.run_for(Duration::from_secs(10));
            (
                sim.messages_delivered(),
                sim.replication_factor(Key::from_user_key("det")),
                sim.cluster_report().totals.total_sent(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn parallel_cold_spawn_matches_cluster_invariants() {
        // Above the parallelism threshold the cold-build path kicks in; the
        // cluster must still converge, keep dense ids and stay deterministic.
        let run = |seed: u64| {
            let mut sim = Simulation::new(SimConfig {
                seed,
                ..SimConfig::default()
            });
            let config = NodeConfig::for_system_size(300, 4);
            sim.spawn_cluster(300, config);
            assert_eq!(sim.alive_count(), 300);
            for (index, &id) in sim.alive_nodes().iter().enumerate() {
                assert_eq!(id.as_u64() as usize, index, "spawn ids must be dense");
            }
            sim.run_for(Duration::from_secs(20));
            (sim.messages_delivered(), sim.slice_populations())
        };
        let (delivered, populations) = run(11);
        assert!(delivered > 0);
        assert_eq!(populations.iter().map(|(_, n)| n).sum::<usize>(), 300);
        assert_eq!(run(11), run(11));
    }
}
