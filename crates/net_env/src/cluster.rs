//! The worker-pool runtime both transports share: slots, scheduler, timer
//! wheel, the worker and timer loops, the fault seam, the frame-buffer
//! arena, the client half and the [`Environment`] surface.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataflasks_core::fault::{FaultPlan, InjectedCounters, LinkVerdict};
use dataflasks_core::gateway::BLOCKING_CLIENT;
use dataflasks_core::wheel::{DueTimer, TimerWheel};
use dataflasks_core::wire::encode_frame_into;
use dataflasks_core::{
    BootstrapRounds, ClientGateway, ClientId, ClientPort, ClientReply, ClientRequest, ClusterSpec,
    DataFlasksNode, DefaultStore, DispatchScratch, Environment, GatewayError, Inbox, Message,
    NodeHost, Output, Poll, PushOutcome, Scheduler, SchedulerConfig, TimerKind,
};
use dataflasks_types::{Duration, NodeConfig, NodeId, SimTime};

use crate::arena::BufferArena;

/// Timer-wheel granularity; firing latency is bounded by one tick.
const WHEEL_TICK: StdDuration = StdDuration::from_millis(5);
/// Slots of the timer wheel (tick × slots = one rotation).
const WHEEL_SLOTS: usize = 1024;
/// Idle buffers the frame arena keeps pooled: `0` keeps every returned
/// buffer, which is what makes the warm frame path allocation-free.
const ARENA_IDLE_CAP: usize = 0;
/// Seed mask of the fault plan, shared with every other backend so a fault
/// schedule replays identically on all of them.
const FAULT_SEED: u64 = 0x4E45_4D45_5349_5321;
/// How long an idle worker parks before re-checking for shutdown.
const WORKER_PARK: StdDuration = StdDuration::from_millis(200);
/// Park while a worker holds frames refused by saturated mailboxes: retries
/// must come well inside the drain-quiescence grace, so backpressured
/// traffic lands promptly once the receiver catches up.
const HELD_RETRY: StdDuration = StdDuration::from_millis(1);

/// What differs between carrying frames through in-process mailboxes and
/// over real sockets. Everything else is [`Cluster`]'s.
pub trait Transport: Sized + Send + Sync + 'static {
    /// The transport's knobs (`AsyncClusterConfig`, `SocketClusterConfig`).
    type Config: Copy + Default;
    /// Worker-local sender state, kept across dispatch rounds.
    type Outbox: Default;
    /// What [`Self::build`] prepares for [`Self::spawn`] to move into the
    /// transport's own threads.
    type Threads;

    /// Name prefix of the worker threads (`<prefix>-<index>`).
    const WORKER_THREAD: &'static str;
    /// Name of the timer thread.
    const TIMER_THREAD: &'static str;
    /// Seed mask of the contact picker of the client API.
    const CONTACT_SEED: u64;

    /// The worker-pool knobs of `config`.
    fn pool(config: &Self::Config) -> PoolConfig;

    /// Sets the transport up for `nodes` slots.
    fn build(config: &Self::Config, nodes: usize) -> (Self, Self::Threads);

    /// Starts the transport's own threads. Called after the workers and
    /// before the timer thread, which fixes the spawn order of the
    /// cluster's threads.
    fn spawn(shared: &Arc<Shared<Self>>, threads: Self::Threads) -> Vec<JoinHandle<()>>;

    /// Carries one encoded frame to slot `to`.
    fn send(shared: &Shared<Self>, to: usize, frame: Vec<u8>, outbox: &mut Self::Outbox);

    /// Retries what `outbox` holds; returns whether it still holds frames.
    fn retry(shared: &Shared<Self>, outbox: &mut Self::Outbox) -> bool;

    /// Runs after each dispatch round of `slot`.
    fn after_round(_shared: &Shared<Self>, _slot: usize) {}

    /// Connection `conn` of `slot` carried a frame that failed to decode.
    fn close_conn(_shared: &Shared<Self>, _slot: usize, _conn: u64) {}

    /// Crashes `slot`: `crash_mailbox` raises the crash flag and purges the
    /// mailbox; the transport adds its own crash work around it.
    fn crash(_shared: &Shared<Self>, _slot: usize, crash_mailbox: impl FnOnce()) {
        crash_mailbox();
    }

    /// Wakes the transport's threads so they observe shutdown.
    fn wake_all(_shared: &Shared<Self>) {}
}

/// The worker-pool knobs both transport configurations carry.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads; `0` picks `min(available cores, 8)`.
    pub workers: usize,
    /// Mailbox high-water mark; `0` = unbounded.
    pub mailbox_capacity: usize,
}

/// What waits in a node's mailbox.
pub(crate) enum Input {
    /// The bytes of one wire frame (length prefix included) in an arena
    /// buffer, decoded by the worker that dispatches it, which hands the
    /// buffer back. One transport unit from one sender.
    Frame {
        bytes: Vec<u8>,
        /// The inbound connection that carried the frame — closed if the
        /// frame fails to decode. `None` for frames that travelled no socket.
        conn: Option<u64>,
    },
    /// A client operation submitted to this node as contact.
    Client {
        client: ClientId,
        request: ClientRequest,
    },
    /// Fire a protocol timer (wheel expiry or [`Environment`] injection).
    Timer { kind: TimerKind },
}

/// One hosted node: the host behind a mutex (a worker owns it for the length
/// of a dispatch round), its mailbox and its crash flag.
pub(crate) struct NodeSlot {
    pub(crate) host: Mutex<NodeHost<DefaultStore>>,
    pub(crate) inbox: Inbox<Input>,
    pub(crate) failed: AtomicBool,
}

/// How an input offered under the high-water mark fared.
pub(crate) enum Delivery {
    /// Enqueued (and the host marked ready).
    Delivered,
    /// Refused by the mark and handed back for a later retry.
    Saturated(Input),
    /// Unknown, crashed or closed destination: dropped, the crash semantics
    /// every backend shares (a frame's buffer went back to the arena).
    Dropped,
}

/// State shared by the driver thread, the workers, the timer thread and the
/// transport's threads.
pub struct Shared<T> {
    pub(crate) slots: Vec<NodeSlot>,
    pub(crate) scheduler: Scheduler,
    /// Every node's protocol timers: re-armed by the workers, advanced by
    /// the timer thread.
    wheel: Mutex<TimerWheel<Instant>>,
    client_inbox: Sender<(ClientId, ClientReply)>,
    epoch: Instant,
    node_config: NodeConfig,
    pub(crate) stopping: AtomicBool,
    /// Every frame buffer: taken when a frame is encoded or cut, given back
    /// by whoever ends the frame's life — the worker after decoding it, the
    /// socket writer once it is on the wire, or [`Self::discard`].
    pub(crate) arena: BufferArena,
    /// Frames refused by a saturated mailbox (each retried, never lost).
    saturations: AtomicU64,
    /// Frames rejected as undecodable or oversized (also counted on the
    /// receiving node's `NodeStats::wire_rejects`).
    pub(crate) wire_rejects: AtomicU64,
    /// Batch vectors the workers' dispatch scratches allocated because
    /// their pools were empty, summed over the workers.
    batch_fresh: AtomicU64,
    /// Consulted once per transport unit, before the transport sees it.
    /// Driver injections and client replies bypass it, as in every backend.
    faults: Arc<FaultPlan>,
    pub(crate) transport: T,
}

impl<T: Transport> Shared<T> {
    fn now(&self) -> SimTime {
        SimTime::from_millis(self.epoch.elapsed().as_millis() as u64)
    }

    /// Routes one effect of `from`'s dispatch round: timer re-arms to the
    /// wheel, replies to the client inbox, transport units to
    /// [`Self::send_unit`]. Returns a batch's spent vector, for the worker to
    /// hand back to its dispatch scratch's pool.
    fn route(
        &self,
        from: usize,
        output: Output,
        outbox: &mut T::Outbox,
        injected: &mut InjectedCounters,
    ) -> Option<Vec<Message>> {
        match output {
            Output::Timer { kind, after } => {
                let deadline = Instant::now() + to_std(after);
                self.wheel.lock().arm(from, kind, deadline);
                None
            }
            Output::Reply { client, reply } => {
                let _ = self.client_inbox.send((client, reply));
                None
            }
            Output::Send { to, message } => {
                self.send_unit(from, to, std::slice::from_ref(&message), outbox, injected);
                None
            }
            Output::SendBatch { to, messages } => {
                self.send_unit(from, to, &messages, outbox, injected);
                Some(messages)
            }
        }
    }

    /// Sends the messages of one transport unit through the fault seam —
    /// one verdict per unit, tallied into `injected` — then encodes them
    /// once, as one frame, and hands it to the transport.
    fn send_unit(
        &self,
        from: usize,
        to: NodeId,
        messages: &[Message],
        outbox: &mut T::Outbox,
        injected: &mut InjectedCounters,
    ) {
        let from_id = NodeId::new(from as u64);
        let verdict = self.faults.link_verdict(from_id, to);
        injected.record_messages(verdict, messages.len() as u64);
        if matches!(verdict, LinkVerdict::DropPartition | LinkVerdict::DropLoss) {
            return;
        }
        let mut frame = self.arena.take();
        if encode_frame_into(from_id, messages, &mut frame).is_err() {
            // A pathological unit exceeding the frame limit is dropped like
            // a network rejecting an oversized datagram; the worker survives.
            debug_assert!(false, "protocol produced an oversized frame");
            self.arena.give(frame);
            return;
        }
        let to = to.as_u64() as usize;
        if matches!(verdict, LinkVerdict::Duplicate) {
            let mut copy = self.arena.take();
            copy.extend_from_slice(&frame);
            self.maybe_corrupt(&mut copy);
            T::send(self, to, copy, outbox);
        }
        self.maybe_corrupt(&mut frame);
        T::send(self, to, frame, outbox);
    }

    /// Spends one unit of armed corruption budget, if any, by flipping a bit
    /// inside the frame's first message tag: the framing stays intact, so
    /// the receiver's decoder is guaranteed to reject (and count) the frame,
    /// never to misparse it.
    fn maybe_corrupt(&self, frame: &mut [u8]) {
        if frame.len() > 16 && self.faults.should_corrupt() {
            frame[16] ^= 0x80;
        }
    }

    /// Slot `index`, unless it is unknown or crashed.
    fn live_slot(&self, index: usize) -> Option<&NodeSlot> {
        self.slots
            .get(index)
            .filter(|slot| !slot.failed.load(Ordering::SeqCst))
    }

    /// Offers `input` to slot `to`'s mailbox, honouring its high-water mark,
    /// and marks the host ready on delivery.
    pub(crate) fn offer(&self, to: usize, input: Input) -> Delivery {
        let Some(slot) = self.live_slot(to) else {
            self.discard(input);
            return Delivery::Dropped;
        };
        match slot.inbox.try_push(input) {
            PushOutcome::Delivered => {
                self.scheduler.mark_ready(to);
                Delivery::Delivered
            }
            PushOutcome::Saturated(input) => {
                self.saturations.fetch_add(1, Ordering::Relaxed);
                Delivery::Saturated(input)
            }
            PushOutcome::Closed(input) => {
                self.discard(input);
                Delivery::Dropped
            }
        }
    }

    /// Delivers `input` to slot `to` regardless of the high-water mark and
    /// marks the host ready — the path of driver injections, client
    /// submissions and timer firings, which must never be refused. Returns
    /// whether it landed; inputs to unknown or crashed nodes are dropped.
    pub(crate) fn mail(&self, to: usize, input: Input) -> bool {
        let Some(slot) = self.live_slot(to) else {
            self.discard(input);
            return false;
        };
        match slot.inbox.push(input) {
            Ok(()) => {
                self.scheduler.mark_ready(to);
                true
            }
            Err(input) => {
                self.discard(input);
                false
            }
        }
    }

    /// Drops an input nobody will dispatch, returning a frame's buffer to
    /// the arena.
    pub(crate) fn discard(&self, input: Input) {
        if let Input::Frame { bytes, .. } = input {
            self.arena.give(bytes);
        }
    }

    /// Raises `slot`'s crash flag, closes its mailbox and discards the
    /// backlog. Flag first (a worker mid-round stops absorbing at once),
    /// then close *before* draining: a push racing the crash either lands
    /// before the drain (and is discarded with the rest) or is refused by
    /// the closed mailbox — nothing slips through into a restart.
    fn crash_mailbox(&self, slot: usize) {
        let slot = &self.slots[slot];
        slot.failed.store(true, Ordering::SeqCst);
        slot.inbox.close();
        let mut backlog = Vec::new();
        slot.inbox.drain_up_to(usize::MAX, &mut backlog);
        for input in backlog {
            self.discard(input);
        }
    }
}

pub(crate) fn to_std(duration: Duration) -> StdDuration {
    StdDuration::from_millis(duration.as_millis())
}

/// Where the wall-clock of [`Cluster::start_spec_with`] went, so spawn
/// regressions are attributable (building host state vs seeding timers).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnTimings {
    /// Materialising the node state machines (the spec build — parallel
    /// across cores — plus wrapping them into host slots) and setting up
    /// the transport.
    pub build: std::time::Duration,
    /// Seeding the first round of every protocol timer on the wheel and
    /// starting the threads.
    pub arm: std::time::Duration,
}

/// A cluster of DataFlasks nodes multiplexed over a worker pool, every hop
/// an encoded wire frame carried by the transport `T`.
pub struct Cluster<T: Transport> {
    pub(crate) shared: Arc<Shared<T>>,
    workers: usize,
    /// Every thread, in spawn order: workers, the transport's, the timer.
    threads: Vec<JoinHandle<()>>,
    node_ids: Vec<NodeId>,
    /// The reply routing shared by the client API and the Environment
    /// driver surface.
    gate: ClientGateway,
    /// Draws the random live contact of client requests without one.
    rng: RefCell<StdRng>,
    /// The spec this cluster was started from: the recipe
    /// [`Environment::restart_node`] rebuilds crashed nodes with.
    spec: ClusterSpec,
    /// Cached warm-up rounds of the spec, computed on the first restart so
    /// later restarts rebuild one node in O(cluster) instead of building
    /// (and discarding) the whole cluster.
    restart_rounds: Option<BootstrapRounds>,
    spawn_timings: SpawnTimings,
}

impl<T: Transport> Cluster<T> {
    /// Starts `node_count` nodes sharing `node_config`, with capacities drawn
    /// deterministically from `seed`, on the default configuration.
    ///
    /// # Panics
    ///
    /// As [`Self::start_spec_with`].
    #[must_use]
    pub fn start(node_count: usize, node_config: NodeConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacities = (0..node_count)
            .map(|_| rng.gen_range(100..=10_000))
            .collect();
        Self::start_spec(&ClusterSpec::new(node_config, capacities, seed))
    }

    /// Starts the cluster described by a [`ClusterSpec`] on the default
    /// configuration — the exact node state every other environment
    /// materialises, so the backends can be compared input for input.
    ///
    /// # Panics
    ///
    /// As [`Self::start_spec_with`].
    #[must_use]
    pub fn start_spec(spec: &ClusterSpec) -> Self {
        Self::start_spec_with(spec, T::Config::default())
    }

    /// Starts a spec-described cluster with explicit knobs. Host
    /// construction is parallel across cores (see
    /// [`ClusterSpec::build_nodes`]).
    ///
    /// # Panics
    ///
    /// If the transport cannot be set up (for sockets: a listener cannot be
    /// bound, or the Unix family is asked for off Unix).
    #[must_use]
    pub fn start_spec_with(spec: &ClusterSpec, config: T::Config) -> Self {
        let epoch = Instant::now();
        let pool = T::pool(&config);
        let nodes = spec.build_nodes();
        let node_ids: Vec<NodeId> = nodes.iter().map(DataFlasksNode::id).collect();
        let slots: Vec<NodeSlot> = nodes
            .into_iter()
            .map(|node| NodeSlot {
                host: Mutex::new(NodeHost::new(node)),
                inbox: Inbox::bounded(pool.mailbox_capacity),
                failed: AtomicBool::new(false),
            })
            .collect();
        let (transport, transport_threads) = T::build(&config, slots.len());
        let build = epoch.elapsed();
        let arm_start = Instant::now();
        let workers = if pool.workers > 0 {
            pool.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8)
        };
        let mut wheel = TimerWheel::new(WHEEL_SLOTS, WHEEL_TICK, epoch);
        // Seed the first round of each protocol timer with a deterministic
        // per-node stagger so periodic work spreads over the period instead
        // of arriving as one thundering herd.
        let count = slots.len().max(1) as u64;
        for index in 0..slots.len() {
            for kind in TimerKind::ALL {
                let period = kind.period(&spec.node_config).as_millis();
                let stagger = period * index as u64 / count;
                let deadline = epoch + StdDuration::from_millis(period.saturating_add(stagger));
                wheel.arm(index, kind, deadline);
            }
        }
        let (client_tx, client_rx) = mpsc::channel();
        let faults = Arc::new(FaultPlan::new());
        faults.set_seed(spec.seed ^ FAULT_SEED);
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(slots.len(), workers, SchedulerConfig::default()),
            slots,
            wheel: Mutex::new(wheel),
            client_inbox: client_tx,
            epoch,
            node_config: spec.node_config,
            stopping: AtomicBool::new(false),
            arena: BufferArena::new(ARENA_IDLE_CAP),
            saturations: AtomicU64::new(0),
            wire_rejects: AtomicU64::new(0),
            batch_fresh: AtomicU64::new(0),
            faults,
            transport,
        });
        let mut threads: Vec<JoinHandle<()>> = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{}-{index}", T::WORKER_THREAD))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn worker thread")
            })
            .collect();
        threads.extend(T::spawn(&shared, transport_threads));
        let timer_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(T::TIMER_THREAD.to_string())
                .spawn(move || timer_loop(&timer_shared))
                .expect("spawn timer thread"),
        );
        Self {
            shared,
            workers,
            threads,
            node_ids,
            gate: ClientGateway::new(client_rx),
            rng: RefCell::new(StdRng::seed_from_u64(spec.seed ^ T::CONTACT_SEED)),
            spec: spec.clone(),
            restart_rounds: None,
            spawn_timings: SpawnTimings {
                build,
                arm: arm_start.elapsed(),
            },
        }
    }

    /// Overrides how long [`Environment::drain_effects`] treats reply
    /// silence as quiescence (default: one second). Hops take microseconds,
    /// so harnesses issuing many drains (the differential property test) can
    /// lower this substantially without losing replies.
    pub fn set_drain_idle_grace(&mut self, grace: Duration) {
        self.gate.set_drain_idle_grace(grace);
    }

    /// Identifiers of the hosted nodes.
    #[must_use]
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// Number of worker threads multiplexing the nodes.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Where the spawn wall-clock went (host construction vs timer arming).
    #[must_use]
    pub fn spawn_timings(&self) -> SpawnTimings {
        self.spawn_timings
    }

    /// Frames refused by a saturated mailbox since start. Every refusal is
    /// held and retried — this counts backpressure events, not losses.
    #[must_use]
    pub fn saturation_events(&self) -> u64 {
        self.shared.saturations.load(Ordering::Relaxed)
    }

    /// Frames rejected cluster-wide as undecodable or oversized (each also
    /// counted on the receiving node's `NodeStats::wire_rejects`).
    #[must_use]
    pub fn wire_reject_count(&self) -> u64 {
        self.shared.wire_rejects.load(Ordering::Relaxed)
    }

    /// Frame buffers the arena had to allocate because its pool was empty.
    /// Once the cluster is warm this stops moving — the steady-state frame
    /// path recycles buffers instead of allocating.
    #[must_use]
    pub fn arena_fresh_buffers(&self) -> u64 {
        self.shared.arena.fresh_buffers()
    }

    /// Frame buffers served from the arena's pool (the steady-state case).
    #[must_use]
    pub fn arena_recycled_buffers(&self) -> u64 {
        self.shared.arena.recycled_buffers()
    }

    /// `SendBatch` vectors the workers had to allocate because their
    /// dispatch scratch's pool was empty, summed over the workers. Once the
    /// cluster is warm this stops moving — each worker batches from the
    /// vectors its earlier rounds handed back.
    #[must_use]
    pub fn batch_fresh_vectors(&self) -> u64 {
        self.shared.batch_fresh.load(Ordering::Relaxed)
    }

    /// The shared fault-injection plan. Faults staged on it take effect on
    /// the next frame routed between nodes, before the transport sees it;
    /// armed corruption is spent one frame at a time and surfaces at the
    /// receiver as wire rejects.
    #[must_use]
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.shared.faults)
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

    /// Stops every thread and returns the final node states for inspection.
    /// Failed nodes are included frozen at their final state; restarted
    /// nodes appear once, at their restarted state.
    pub fn shutdown(mut self) -> Vec<DataFlasksNode<DefaultStore>> {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.scheduler.shutdown();
        T::wake_all(&self.shared);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("every thread released the shared state");
        shared
            .slots
            .into_iter()
            .map(|slot| slot.host.into_inner().into_node())
            .collect()
    }
}

impl<T: Transport> ClientPort for Cluster<T> {
    fn gateway(&self) -> &ClientGateway {
        &self.gate
    }

    fn push_request(
        &self,
        contact: Option<NodeId>,
        request: ClientRequest,
    ) -> Result<(), GatewayError> {
        let shared = &self.shared;
        let live = |index: &usize| shared.live_slot(*index).is_some();
        let contact = match contact {
            Some(node) => Some(node.as_u64() as usize).filter(live),
            // Contacts are drawn from live nodes only, so operations keep
            // succeeding after failures as long as any node is alive.
            None => {
                let live: Vec<usize> = (0..shared.slots.len()).filter(live).collect();
                (!live.is_empty()).then(|| live[self.rng.borrow_mut().gen_range(0..live.len())])
            }
        }
        .ok_or(GatewayError::Shutdown)?;
        let client = BLOCKING_CLIENT;
        if self.shared.mail(contact, Input::Client { client, request }) {
            Ok(())
        } else {
            Err(GatewayError::Shutdown)
        }
    }
}

impl<T: Transport> Environment for Cluster<T> {
    fn deliver_message(&mut self, from: NodeId, to: NodeId, message: Message) {
        // A one-message transport unit, straight into the mailbox: driver
        // injections travel no transport.
        let mut bytes = self.shared.arena.take();
        if encode_frame_into(from, std::slice::from_ref(&message), &mut bytes).is_ok() {
            let to = to.as_u64() as usize;
            self.shared.mail(to, Input::Frame { bytes, conn: None });
        } else {
            self.shared.arena.give(bytes);
        }
    }

    fn fire_timer(&mut self, node: NodeId, kind: TimerKind) {
        // The handler's own re-arm effect supersedes the pending wheel
        // deadline (a generation bump), matching the single-deadline
        // semantics of the other backends.
        self.shared
            .mail(node.as_u64() as usize, Input::Timer { kind });
    }

    fn submit_client_request(&mut self, client: ClientId, contact: NodeId, request: ClientRequest) {
        self.gate.register_env_client(client);
        self.shared
            .mail(contact.as_u64() as usize, Input::Client { client, request });
    }

    fn fail_node(&mut self, node: NodeId) {
        let index = node.as_u64() as usize;
        if index < self.shared.slots.len() {
            let shared = &self.shared;
            T::crash(shared, index, || shared.crash_mailbox(index));
        }
    }

    fn restart_node(&mut self, node: NodeId) {
        let index = node.as_u64() as usize;
        assert!(
            index < self.spec.len(),
            "node {node} is not part of the spec"
        );
        Environment::fail_node(self, node);
        // First restart pays one full warm-up capture; later restarts replay
        // the cached rounds in O(cluster).
        let rounds = self
            .restart_rounds
            .get_or_insert_with(|| self.spec.bootstrap_rounds());
        let fresh = NodeHost::new(self.spec.rebuild_node_with(index, rounds));
        let slot = &self.shared.slots[index];
        // Acquiring the host lock serialises with any worker still flushing
        // the pre-crash incarnation's final round. The crash left the
        // mailbox closed and empty.
        *slot.host.lock() = fresh;
        slot.inbox.reopen();
        slot.failed.store(false, Ordering::SeqCst);
        // A fresh deadline table: one full period from the restart instant,
        // exactly like the other backends.
        let mut wheel = self.shared.wheel.lock();
        let now = Instant::now();
        for kind in TimerKind::ALL {
            wheel.arm(
                index,
                kind,
                now + to_std(kind.period(&self.shared.node_config)),
            );
        }
    }

    fn drain_effects(&mut self, budget: Duration) -> Vec<ClientReply> {
        self.gate.drain_effects(budget)
    }
}

/// The worker loop: retry held frames, pop the oldest ready host, lend it
/// the worker's dispatch scratch, absorb up to the run budget from its
/// mailbox, flush once (one frame per destination, as the scratch's buffer
/// grouped the round's sends), take the scratch back with the spent batch
/// vectors in its pool, and re-queue the host if backlog remains. The
/// scratch is the worker's, not the node's: every round starts on memory
/// the worker's previous round left in cache.
fn worker_loop<T: Transport>(shared: &Shared<T>, worker: usize) {
    let run_budget = shared.scheduler.config().effective_run_budget();
    let mut round: Vec<Input> = Vec::with_capacity(run_budget);
    let mut spent: Vec<Vec<Message>> = Vec::new();
    let mut scratch = DispatchScratch::new();
    let mut published_fresh = 0;
    let mut outbox = T::Outbox::default();
    loop {
        let park = if T::retry(shared, &mut outbox) {
            HELD_RETRY
        } else {
            WORKER_PARK
        };
        let slot_index = match shared.scheduler.next_ready(worker, park) {
            Poll::Ready(slot_index) => slot_index,
            Poll::Idle => continue,
            Poll::Shutdown => return,
        };
        let slot = &shared.slots[slot_index];
        let mut host = slot.host.lock();
        host.swap_scratch(&mut scratch);
        slot.inbox.drain_up_to(run_budget, &mut round);
        let now = shared.now();
        for input in round.drain(..) {
            // Crashed (possibly mid-round): stop absorbing. Effects of inputs
            // already dispatched this round are still flushed below,
            // matching the other backends' pre-crash delivery semantics.
            if slot.failed.load(Ordering::SeqCst) {
                shared.discard(input);
                continue;
            }
            match input {
                Input::Frame { bytes, conn } => {
                    // Hostile or corrupted bytes stay counters: the frame is
                    // dropped whole (counted on the node by the decode) and
                    // the connection that carried it, if any, is closed.
                    if host.enqueue_frame(&bytes, now).is_err() {
                        shared.wire_rejects.fetch_add(1, Ordering::Relaxed);
                        if let Some(conn) = conn {
                            T::close_conn(shared, slot_index, conn);
                        }
                    }
                    shared.arena.give(bytes);
                }
                Input::Client { client, request } => {
                    host.enqueue_client_request(client, request, now);
                }
                Input::Timer { kind } => host.enqueue_timer(kind, now),
            }
        }
        let mut injected = InjectedCounters::default();
        host.flush_effects(|output| {
            spent.extend(shared.route(slot_index, output, &mut outbox, &mut injected));
        });
        host.swap_scratch(&mut scratch);
        for batch in spent.drain(..) {
            scratch.recycle_batch(batch);
        }
        let fresh = scratch.fresh_batches();
        if fresh != published_fresh {
            shared
                .batch_fresh
                .fetch_add(fresh - published_fresh, Ordering::Relaxed);
            published_fresh = fresh;
        }
        if !injected.is_empty() {
            host.node_mut().record_injected_faults(&injected);
        }
        drop(host);
        let still_pending = !slot.inbox.is_empty() && !slot.failed.load(Ordering::SeqCst);
        shared.scheduler.finish(slot_index, still_pending);
        T::after_round(shared, slot_index);
    }
}

/// The timer thread: advances the wheel once per tick and mails due
/// firings to their hosts.
fn timer_loop<T: Transport>(shared: &Shared<T>) {
    let mut due: Vec<DueTimer<Instant>> = Vec::new();
    while !shared.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(WHEEL_TICK);
        due.clear();
        shared.wheel.lock().advance(Instant::now(), &mut due);
        for timer in &due {
            shared.mail(timer.host, Input::Timer { kind: timer.kind });
        }
    }
}
