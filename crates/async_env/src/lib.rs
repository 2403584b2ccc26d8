//! An event-driven in-process runtime for DataFlasks nodes.
//!
//! The threaded runtime (`dataflasks-runtime`) spends one operating-system
//! thread per node, which tops out around the OS thread budget. This crate
//! hosts **thousands of nodes on a few threads**: every node lives in a
//! [`NodeHost`] slot with its own mailbox, a small worker pool (default
//! `min(cores, 8)`) pops ready nodes off the shared
//! [`Scheduler`] readiness queue, and a hashed
//! [timer wheel](wheel::TimerWheel) drives the periodic protocol timers — the
//! reactor-owns-state shape of event-sourced state-engine designs, applied to
//! the sans-io node state machine.
//!
//! Four properties distinguish the backend:
//!
//! * **Framed transport.** Every hop is a length-prefixed wire frame
//!   (`dataflasks_core::wire`): one [`Output::SendBatch`] becomes one encoded
//!   multi-message frame, pushed as a single mailbox entry and decoded in one
//!   dispatch round at the receiver — byte-for-byte what a socket-backed
//!   deployment would write, so the wire format is exercised on every
//!   message the cluster exchanges.
//! * **Sharded, work-stealing scheduling.** Mailboxes, the per-round run
//!   budget and the readiness queue come from `dataflasks_core::sched`: every
//!   node is homed on one worker's shard (`slot % workers`), `mark_ready`
//!   touches only per-slot atomics and the home shard's lock, and idle
//!   workers steal from the busiest shard before parking — no global
//!   scheduler mutex on the hot path. Protocol timers live on **per-worker
//!   timer wheels** sharded the same way, so arming a re-arm never contends
//!   across the pool.
//! * **Bounded mailboxes with backpressure.** With
//!   [`AsyncClusterConfig::mailbox_capacity`] set, worker-to-worker frames
//!   respect a per-node high-water mark: a saturated destination hands the
//!   frame back and the sending worker defers it (in per-destination order)
//!   until the receiver drains — flow control without loss, observable via
//!   [`AsyncCluster::saturation_events`]. Driver injections, client
//!   submissions and timer firings bypass the mark so control traffic is
//!   never refused.
//! * **Full [`Environment`] parity.** The cluster implements the same driver
//!   interface as the simulator and the threaded runtime (including
//!   crash/restart injection), and the three-way differential fuzzer holds
//!   it to identical client-visible behaviour — including at `workers = 4`
//!   with stealing and saturation in play.
//!
//! # Example
//!
//! ```
//! use dataflasks_async_env::AsyncCluster;
//! use dataflasks_types::{Duration, Key, NodeConfig, Value, Version};
//!
//! // A tiny single-slice cluster keeps the doctest fast.
//! let cluster = AsyncCluster::start(3, NodeConfig::for_system_size(3, 1), 7);
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

/// The shared hashed timer wheel, re-exported from its home in `core` (the
/// simulator drives the same implementation with virtual time).
pub use dataflasks_core::wheel;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataflasks_core::fault::{FaultPlan, InjectedCounters, LinkVerdict};
use dataflasks_core::wire::{encode_frame, encode_output};
use dataflasks_core::{
    BootstrapRounds, ClientGateway, ClientId, ClientReply, ClientRequest, ClusterSpec, Completion,
    DataFlasksNode, DefaultStore, Environment, Inbox, Message, NodeHost, Output, Poll, PushOutcome,
    Scheduler, SchedulerConfig, Ticket, TicketKind, TicketOutcome, TimerKind,
};
use dataflasks_types::{
    Duration, Key, NodeConfig, NodeId, RequestId, SimTime, StoredObject, Value, Version,
};

use wheel::{DueTimer, TimerWheel};

/// Errors returned by the blocking client API (the shared
/// [`dataflasks_core::gateway`] error type).
pub use dataflasks_core::GatewayError as AsyncRuntimeError;
pub use dataflasks_core::{PipelinedClient, StealPolicy};

/// Tuning knobs of the event-driven runtime.
#[derive(Debug, Clone, Copy)]
pub struct AsyncClusterConfig {
    /// Worker threads multiplexing the node hosts. `0` (the default) picks
    /// `min(available cores, 8)`.
    pub workers: usize,
    /// Shared scheduling knobs (run budget per dispatch round, steal policy).
    pub sched: SchedulerConfig,
    /// Timer-wheel granularity; firing latency is bounded by one tick.
    pub wheel_tick: Duration,
    /// Timer-wheel slot count (tick × slots = one rotation), per worker
    /// wheel.
    pub wheel_slots: usize,
    /// High-water mark of each node's mailbox (`0` = unbounded). Only
    /// worker-to-worker protocol frames honour the mark — a saturated
    /// destination makes the sending worker defer the frame (preserving
    /// per-destination order) until the receiver drains; client submissions,
    /// driver injections and timer firings always land.
    pub mailbox_capacity: usize,
}

impl Default for AsyncClusterConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            sched: SchedulerConfig::default(),
            wheel_tick: Duration::from_millis(5),
            wheel_slots: 1024,
            mailbox_capacity: 0,
        }
    }
}

/// Where the wall-clock of [`AsyncCluster::start_spec_with`] went, so spawn
/// regressions are attributable (building host state vs seeding timers).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnTimings {
    /// Materialising the node state machines (the spec build — parallel
    /// across cores — plus wrapping them into host slots).
    pub build: std::time::Duration,
    /// Seeding the first round of every protocol timer on the per-worker
    /// wheels and starting the worker pool.
    pub arm: std::time::Duration,
}

impl AsyncClusterConfig {
    /// The worker-pool size after resolving the `0 = auto` default.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8)
    }
}

/// The client id the blocking `put`/`get` API issues requests under.
/// Reserved: [`Environment::submit_client_request`] rejects it, exactly like
/// the threaded runtime.
const BLOCKING_CLIENT: ClientId = u64::MAX;

/// What waits in a node's mailbox.
enum AsyncInput {
    /// An encoded wire frame: one transport unit (single message or batch)
    /// from one sender, decoded in the receiving dispatch round.
    Frame(Vec<u8>),
    /// A client operation submitted to this node as contact.
    Client {
        client: ClientId,
        request: ClientRequest,
    },
    /// Fire a protocol timer (wheel expiry or [`Environment`] injection).
    Timer { kind: TimerKind },
}

/// One hosted node: the host behind a mutex (a worker owns it for the length
/// of a dispatch round), its mailbox, and its crash flag.
struct NodeSlot {
    host: Mutex<NodeHost<DefaultStore>>,
    inbox: Inbox<AsyncInput>,
    failed: AtomicBool,
}

/// How a worker-offered frame fared against the destination mailbox.
enum MailOutcome {
    /// Enqueued (and the host marked ready).
    Delivered,
    /// The destination is at its high-water mark; the frame is handed back
    /// for deferred delivery.
    Saturated(Vec<u8>),
    /// Unknown, failed or closed destination: dropped (the crash semantics
    /// every backend shares).
    Dropped,
}

/// A worker's frames refused by saturated destinations, retried every loop
/// iteration until the receivers drain. FIFO order is kept *per
/// destination* (the only order the transport ever promised); keying by
/// destination makes the is-blocked check on the send path O(1) instead of
/// a scan of the whole backlog.
#[derive(Default)]
struct DeferredFrames {
    by_dest: std::collections::HashMap<NodeId, VecDeque<Vec<u8>>>,
    total: usize,
}

/// Cap on frames one worker parks for saturated destinations. Past it, the
/// overflowing destination's backlog (in order) and the new frame are
/// delivered mark-exempt: under pathological pressure bounded sender memory
/// wins over the advisory high-water mark — still lossless, still ordered.
const DEFER_LIMIT: usize = 4096;

impl DeferredFrames {
    fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn has_backlog(&self, to: NodeId) -> bool {
        self.by_dest.get(&to).is_some_and(|queue| !queue.is_empty())
    }

    fn push(&mut self, to: NodeId, frame: Vec<u8>) {
        self.by_dest.entry(to).or_default().push_back(frame);
        self.total += 1;
    }

    /// Removes and returns a destination's whole backlog (for the overflow
    /// spill path).
    fn take_backlog(&mut self, to: NodeId) -> VecDeque<Vec<u8>> {
        let queue = self.by_dest.remove(&to).unwrap_or_default();
        self.total -= queue.len();
        queue
    }
}

/// State shared by the driver thread, the workers and the timer thread.
struct Shared {
    slots: Vec<NodeSlot>,
    scheduler: Scheduler,
    /// One timer wheel per worker; node `i` is armed on wheel
    /// `i % workers` — the same home mapping as the scheduler shards, so
    /// timer re-arms of concurrent dispatch rounds spread over the pool
    /// instead of convoying on one wheel lock.
    wheels: Vec<Mutex<TimerWheel<Instant>>>,
    client_inbox: Sender<(ClientId, ClientReply)>,
    epoch: Instant,
    node_config: NodeConfig,
    stopping: AtomicBool,
    /// Times a worker-offered frame was refused by a saturated mailbox (the
    /// backpressure observable; each refusal is later retried, never lost).
    saturations: AtomicU64,
    /// Shared fault-injection plan, consulted per transport unit on the
    /// frame boundary — after the verdict a surviving frame may additionally
    /// be bit-flipped ([`FaultPlan::should_corrupt`]), which the receiver
    /// absorbs as a wire reject. Driver injections and client replies
    /// bypass it, as in every backend.
    faults: Arc<FaultPlan>,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_millis(self.epoch.elapsed().as_millis() as u64)
    }

    fn slot_of(&self, node: NodeId) -> Option<&NodeSlot> {
        self.slots.get(node.as_u64() as usize)
    }

    /// The worker whose wheel (and scheduler shard) owns `slot`.
    fn home_worker(&self, slot: usize) -> usize {
        slot % self.wheels.len()
    }

    /// Routes one effect of `from`'s dispatch round: transport units are
    /// framed and offered to the destination mailbox (deferring on
    /// saturation), replies go to the cluster-wide client inbox, timer
    /// re-arms go to the emitting node's home wheel. Each transport unit is
    /// one fault-injection decision: injected drops and duplicates are
    /// tallied into `injected`, which the worker folds into the sender's
    /// statistics after the flush.
    fn route(
        &self,
        from: usize,
        output: Output,
        deferred: &mut DeferredFrames,
        injected: &mut InjectedCounters,
    ) {
        match output {
            Output::Timer { kind, after } => {
                let deadline = Instant::now() + to_std(after);
                self.wheels[self.home_worker(from)]
                    .lock()
                    .arm(from, kind, deadline);
            }
            Output::Reply { client, reply } => {
                let _ = self.client_inbox.send((client, reply));
            }
            transport @ (Output::Send { .. } | Output::SendBatch { .. }) => {
                let (to, unit_messages) = match &transport {
                    Output::Send { to, .. } => (*to, 1),
                    Output::SendBatch { to, messages } => (*to, messages.len() as u64),
                    _ => unreachable!("the transport arm matched"),
                };
                let from_id = NodeId::new(from as u64);
                let verdict = self.faults.link_verdict(from_id, to);
                injected.record_messages(verdict, unit_messages);
                if matches!(verdict, LinkVerdict::DropPartition | LinkVerdict::DropLoss) {
                    return;
                }
                let mut frame = Vec::new();
                match encode_output(from_id, &transport, &mut frame) {
                    Ok(dest) => {
                        debug_assert_eq!(dest, Some(to), "send outputs always frame");
                        if matches!(verdict, LinkVerdict::Duplicate) {
                            self.dispatch_frame(to, self.maybe_corrupt(frame.clone()), deferred);
                        }
                        self.dispatch_frame(to, self.maybe_corrupt(frame), deferred);
                    }
                    // A pathological unit (e.g. an unbounded client value)
                    // exceeding the frame limit is dropped like a network
                    // rejecting an oversized datagram; the worker survives.
                    Err(_) => debug_assert!(false, "protocol produced an oversized frame"),
                }
            }
        }
    }

    /// Spends one unit of armed corruption budget, if any, by flipping a bit
    /// inside the frame's first message tag — a corruption the receiver's
    /// decoder is guaranteed to reject (and count), never to misparse.
    fn maybe_corrupt(&self, mut frame: Vec<u8>) -> Vec<u8> {
        if frame.len() > 16 && self.faults.should_corrupt() {
            frame[16] ^= 0x80;
        }
        frame
    }

    /// Hands one encoded frame to the delivery machinery: behind any
    /// existing backlog for `to` (per-destination FIFO), deferring on
    /// saturation, spilling mark-exempt past the memory cap.
    fn dispatch_frame(&self, to: NodeId, frame: Vec<u8>, deferred: &mut DeferredFrames) {
        // Frames already deferred for `to` must stay ahead of this one
        // (per-destination FIFO), so a blocked destination queues everything
        // behind the backlog — unless the worker's backlog hit its memory
        // cap, in which case the destination's frames spill through
        // mark-exempt, in order.
        if deferred.has_backlog(to) {
            if deferred.total >= DEFER_LIMIT {
                for queued in deferred.take_backlog(to) {
                    self.mail_frame(to, queued);
                }
                self.mail_frame(to, frame);
            } else {
                deferred.push(to, frame);
            }
            return;
        }
        if let MailOutcome::Saturated(frame) = self.offer_frame(to, frame) {
            deferred.push(to, frame);
        }
    }

    /// Offers one encoded frame to `to`'s mailbox, honouring its high-water
    /// mark, and marks the host ready on delivery.
    fn offer_frame(&self, to: NodeId, frame: Vec<u8>) -> MailOutcome {
        let Some(slot) = self.slot_of(to) else {
            return MailOutcome::Dropped;
        };
        if slot.failed.load(Ordering::SeqCst) {
            return MailOutcome::Dropped;
        }
        match slot.inbox.try_push(AsyncInput::Frame(frame)) {
            PushOutcome::Delivered => {
                self.scheduler.mark_ready(to.as_u64() as usize);
                MailOutcome::Delivered
            }
            PushOutcome::Saturated(AsyncInput::Frame(frame)) => {
                self.saturations.fetch_add(1, Ordering::Relaxed);
                MailOutcome::Saturated(frame)
            }
            PushOutcome::Saturated(_) => unreachable!("a frame was offered"),
            PushOutcome::Closed => MailOutcome::Dropped,
        }
    }

    /// Delivers one encoded frame to `to`'s mailbox regardless of the
    /// high-water mark and marks the host ready — the driver-injection path
    /// ([`Environment::deliver_message`]), which has no dispatch loop to
    /// defer into. Frames to failed or unknown nodes are silently dropped.
    fn mail_frame(&self, to: NodeId, frame: Vec<u8>) {
        let Some(slot) = self.slot_of(to) else { return };
        if slot.failed.load(Ordering::SeqCst) {
            return;
        }
        if slot.inbox.push(AsyncInput::Frame(frame)) {
            self.scheduler.mark_ready(to.as_u64() as usize);
        }
    }
}

fn to_std(duration: Duration) -> std::time::Duration {
    std::time::Duration::from_millis(duration.as_millis())
}

/// A cluster of DataFlasks nodes multiplexed over a worker pool, with wire
/// frames as transport.
pub struct AsyncCluster {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    timer_thread: Option<JoinHandle<()>>,
    node_ids: Vec<NodeId>,
    /// The shared reply-routing discipline between the blocking client API
    /// and the Environment driver surface.
    gate: ClientGateway,
    request_sequence: std::cell::Cell<u64>,
    rng: std::cell::RefCell<StdRng>,
    /// The spec this cluster was started from: the recipe
    /// [`Environment::restart_node`] rebuilds crashed nodes with.
    spec: ClusterSpec,
    /// Cached warm-up rounds of the spec, computed on the first restart so
    /// later restarts rebuild one node in O(cluster) instead of building
    /// (and discarding) the whole cluster.
    restart_rounds: Option<BootstrapRounds>,
    /// Where the spawn wall-clock went (host construction vs timer arming).
    spawn_timings: SpawnTimings,
}

impl AsyncCluster {
    /// Starts `node_count` nodes sharing `node_config`, with capacities drawn
    /// deterministically from `seed`, on the default worker pool.
    #[must_use]
    pub fn start(node_count: usize, node_config: NodeConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacities = (0..node_count)
            .map(|_| rng.gen_range(100..=10_000))
            .collect();
        Self::start_spec(&ClusterSpec::new(node_config, capacities, seed))
    }

    /// Starts the cluster described by a [`ClusterSpec`] on the default
    /// worker pool — the exact same node state the other environments
    /// materialise, so the three backends can be compared input for input.
    #[must_use]
    pub fn start_spec(spec: &ClusterSpec) -> Self {
        Self::start_spec_with(spec, AsyncClusterConfig::default())
    }

    /// Starts a spec-described cluster with explicit runtime knobs.
    ///
    /// Host construction is parallel: the spec materialises its nodes across
    /// the machine's cores (see [`ClusterSpec::build_nodes`]), so a
    /// multi-thousand-node cluster spawns in seconds, not minutes.
    #[must_use]
    pub fn start_spec_with(spec: &ClusterSpec, config: AsyncClusterConfig) -> Self {
        let epoch = Instant::now();
        let build_start = Instant::now();
        let nodes = spec.build_nodes();
        let node_ids: Vec<NodeId> = nodes.iter().map(DataFlasksNode::id).collect();
        let slots: Vec<NodeSlot> = nodes
            .into_iter()
            .map(|node| NodeSlot {
                host: Mutex::new(NodeHost::new(node)),
                inbox: if config.mailbox_capacity > 0 {
                    Inbox::bounded(config.mailbox_capacity)
                } else {
                    Inbox::new()
                },
                failed: AtomicBool::new(false),
            })
            .collect();
        let build = build_start.elapsed();
        let arm_start = Instant::now();
        let worker_count = config.effective_workers();
        let (client_tx, client_rx) = mpsc::channel();
        let wheel_tick = to_std(config.wheel_tick).max(std::time::Duration::from_millis(1));
        let mut wheels: Vec<TimerWheel<Instant>> = (0..worker_count)
            .map(|_| TimerWheel::new(config.wheel_slots.max(1), wheel_tick, epoch))
            .collect();
        // Seed the first round of each protocol timer with a deterministic
        // per-node stagger so periodic work spreads over the period instead
        // of arriving as one thundering herd. Each node is armed on its home
        // worker's wheel.
        let count = slots.len().max(1) as u64;
        for (index, _) in slots.iter().enumerate() {
            for kind in TimerKind::ALL {
                let period = kind.period(&spec.node_config).as_millis();
                let stagger = period * index as u64 / count;
                let deadline =
                    epoch + std::time::Duration::from_millis(period.saturating_add(stagger));
                wheels[index % worker_count].arm(index, kind, deadline);
            }
        }
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(slots.len(), worker_count, config.sched),
            slots,
            wheels: wheels.into_iter().map(Mutex::new).collect(),
            client_inbox: client_tx,
            epoch,
            node_config: spec.node_config,
            stopping: AtomicBool::new(false),
            saturations: AtomicU64::new(0),
            faults: {
                let faults = Arc::new(FaultPlan::new());
                faults.set_seed(spec.seed ^ 0x4E45_4D45_5349_5321);
                faults
            },
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dataflasks-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn worker thread")
            })
            .collect();
        let timer_shared = Arc::clone(&shared);
        let timer_thread = std::thread::Builder::new()
            .name("dataflasks-timer-wheel".to_string())
            .spawn(move || timer_loop(&timer_shared))
            .expect("spawn timer thread");
        Self {
            shared,
            workers,
            timer_thread: Some(timer_thread),
            node_ids,
            gate: ClientGateway::new(client_rx),
            request_sequence: std::cell::Cell::new(0),
            rng: std::cell::RefCell::new(StdRng::seed_from_u64(spec.seed ^ 0xA5C1)),
            spec: spec.clone(),
            restart_rounds: None,
            spawn_timings: SpawnTimings {
                build,
                arm: arm_start.elapsed(),
            },
        }
    }

    /// Overrides how long [`Environment::drain_effects`] treats inbox
    /// silence as quiescence (default: one second). In-process hops take
    /// microseconds, so harnesses issuing many drains (the differential
    /// property test) can lower this substantially without losing replies.
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
        self.workers.len()
    }

    /// Where the spawn wall-clock went (host construction vs timer arming).
    #[must_use]
    pub fn spawn_timings(&self) -> SpawnTimings {
        self.spawn_timings
    }

    /// Times a worker-offered frame was refused by a saturated mailbox since
    /// start. Every refusal is deferred and retried — this counts
    /// backpressure events, not losses.
    #[must_use]
    pub fn saturation_events(&self) -> u64 {
        self.shared.saturations.load(Ordering::Relaxed)
    }

    /// The shared fault-injection plan. Faults staged on it take effect on
    /// the next frame routed between nodes; armed corruption budget is spent
    /// one frame at a time and surfaces at the receiver as wire rejects.
    #[must_use]
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.shared.faults)
    }

    /// Stores `value` under `key` and waits until at least one replica
    /// acknowledges it.
    ///
    /// # Errors
    ///
    /// Returns [`AsyncRuntimeError::Timeout`] if no acknowledgement arrives
    /// within `timeout`.
    pub fn put(
        &self,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<(), AsyncRuntimeError> {
        let ticket = self.submit_put(None, key, version, value, timeout)?;
        self.gate.await_ticket(ticket, timeout).map(|_| ())
    }

    /// Like [`Self::put`], but through an explicit contact node — the
    /// slice-aware client pattern: a caller that knows (or learned) the
    /// responsible slice submits straight to one of its members instead of
    /// relying on the epidemic search from a random contact.
    ///
    /// # Errors
    ///
    /// Returns [`AsyncRuntimeError::Timeout`] if no acknowledgement arrives
    /// within `timeout`, [`AsyncRuntimeError::Shutdown`] if `contact` is
    /// unknown or failed.
    pub fn put_via(
        &self,
        contact: NodeId,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<(), AsyncRuntimeError> {
        let ticket = self.submit_put(Some(contact), key, version, value, timeout)?;
        self.gate.await_ticket(ticket, timeout).map(|_| ())
    }

    /// Reads `key` (a specific version or the latest). Semantics match the
    /// threaded runtime: the first replica returning the object wins, and
    /// "not found" is only trusted once the timeout expires with misses only.
    ///
    /// # Errors
    ///
    /// Returns [`AsyncRuntimeError::Timeout`] if no reply of any kind arrives
    /// within `timeout`.
    pub fn get(
        &self,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, AsyncRuntimeError> {
        self.get_from(None, key, version, timeout)
    }

    /// Like [`Self::get`], but through an explicit contact node (see
    /// [`Self::put_via`]).
    ///
    /// # Errors
    ///
    /// As for [`Self::get`], plus [`AsyncRuntimeError::Shutdown`] if
    /// `contact` is unknown or failed.
    pub fn get_via(
        &self,
        contact: NodeId,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, AsyncRuntimeError> {
        self.get_from(Some(contact), key, version, timeout)
    }

    fn get_from(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, AsyncRuntimeError> {
        let ticket = self.submit_get(contact, key, version, timeout)?;
        match self.gate.await_ticket(ticket, timeout)? {
            TicketOutcome::Hit(object) => Ok(Some(object)),
            TicketOutcome::Miss => Ok(None),
            outcome => unreachable!("get ticket resolved to {outcome:?}"),
        }
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

    /// Stops the worker pool and the timer wheel, and returns the final node
    /// states for inspection. Failed nodes are included frozen at their final
    /// state; restarted nodes appear once, at their restarted state.
    pub fn shutdown(mut self) -> Vec<DataFlasksNode<DefaultStore>> {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.scheduler.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(timer) = self.timer_thread.take() {
            let _ = timer.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("workers and timer thread released the shared state");
        shared
            .slots
            .into_iter()
            .map(|slot| slot.host.into_inner().into_node())
            .collect()
    }

    fn submit_blocking(
        &self,
        contact: Option<NodeId>,
        request: ClientRequest,
    ) -> Result<(), AsyncRuntimeError> {
        let contact = match contact {
            Some(node) => {
                let index = node.as_u64() as usize;
                let known = self
                    .shared
                    .slots
                    .get(index)
                    .is_some_and(|slot| !slot.failed.load(Ordering::SeqCst));
                if !known {
                    return Err(AsyncRuntimeError::Shutdown);
                }
                index
            }
            None => {
                // Contacts are drawn from live nodes only, so operations keep
                // succeeding after failures as long as any node is alive.
                let live: Vec<usize> = (0..self.shared.slots.len())
                    .filter(|&index| !self.shared.slots[index].failed.load(Ordering::SeqCst))
                    .collect();
                if live.is_empty() {
                    return Err(AsyncRuntimeError::Shutdown);
                }
                let mut rng = self.rng.borrow_mut();
                live[rng.gen_range(0..live.len())]
            }
        };
        let slot = &self.shared.slots[contact];
        if !slot.inbox.push(AsyncInput::Client {
            client: BLOCKING_CLIENT,
            request,
        }) {
            return Err(AsyncRuntimeError::Shutdown);
        }
        self.shared.scheduler.mark_ready(contact);
        Ok(())
    }

    fn next_request_id(&self) -> RequestId {
        let sequence = self.request_sequence.get();
        self.request_sequence.set(sequence + 1);
        RequestId::new(0, sequence)
    }
}

impl PipelinedClient for AsyncCluster {
    fn submit_put(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<Ticket, AsyncRuntimeError> {
        let id = self.next_request_id();
        // Register before submitting so the reply cannot race the slot.
        let ticket = self.gate.register_ticket(id, TicketKind::Put, timeout);
        let request = ClientRequest::Put {
            id,
            key,
            version,
            value,
        };
        if let Err(err) = self.submit_blocking(contact, request) {
            self.gate.cancel_ticket(ticket);
            return Err(err);
        }
        Ok(ticket)
    }

    fn submit_get(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Ticket, AsyncRuntimeError> {
        let id = self.next_request_id();
        let ticket = self.gate.register_ticket(id, TicketKind::Get, timeout);
        let request = ClientRequest::Get { id, key, version };
        if let Err(err) = self.submit_blocking(contact, request) {
            self.gate.cancel_ticket(ticket);
            return Err(err);
        }
        Ok(ticket)
    }

    fn await_ticket(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<TicketOutcome, AsyncRuntimeError> {
        self.gate.await_ticket(ticket, timeout)
    }

    fn poll_completions(&self, out: &mut Vec<Completion>) {
        self.gate.poll_completions(out);
    }

    fn inflight(&self) -> usize {
        self.gate.inflight()
    }

    fn note_shed(&self) {
        self.gate.note_shed();
    }
}

impl Environment for AsyncCluster {
    fn deliver_message(&mut self, from: NodeId, to: NodeId, message: Message) {
        let mut frame = Vec::new();
        if encode_frame(from, std::slice::from_ref(&message), &mut frame).is_ok() {
            self.shared.mail_frame(to, frame);
        }
    }

    fn fire_timer(&mut self, node: NodeId, kind: TimerKind) {
        let Some(slot) = self.shared.slot_of(node) else {
            return;
        };
        if slot.failed.load(Ordering::SeqCst) {
            return;
        }
        // The injected firing goes straight to the mailbox; the handler's
        // own re-arm effect supersedes the pending wheel deadline (a
        // generation bump), matching the single-deadline semantics of the
        // other backends.
        if slot.inbox.push(AsyncInput::Timer { kind }) {
            self.shared.scheduler.mark_ready(node.as_u64() as usize);
        }
    }

    fn submit_client_request(&mut self, client: ClientId, contact: NodeId, request: ClientRequest) {
        assert!(
            client != BLOCKING_CLIENT,
            "client id {BLOCKING_CLIENT} is reserved for the blocking put/get API"
        );
        self.gate.register_env_client(client);
        let Some(slot) = self.shared.slot_of(contact) else {
            return;
        };
        if slot.failed.load(Ordering::SeqCst) {
            return;
        }
        if slot.inbox.push(AsyncInput::Client { client, request }) {
            self.shared.scheduler.mark_ready(contact.as_u64() as usize);
        }
    }

    fn fail_node(&mut self, node: NodeId) {
        let Some(slot) = self.shared.slot_of(node) else {
            return;
        };
        // Flag first (a worker mid-round stops absorbing immediately), then
        // close the mailbox *before* discarding the backlog: closing first
        // means a push racing the crash either lands before the clear (and
        // is discarded with the rest) or is rejected by the closed mailbox —
        // nothing can slip into the window and survive into a restart.
        slot.failed.store(true, Ordering::SeqCst);
        slot.inbox.close();
        slot.inbox.clear();
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
        // the pre-crash incarnation's final round.
        *slot.host.lock() = fresh;
        // Defensive: nothing can be queued between close and here, but the
        // fresh incarnation must start from an empty mailbox regardless.
        slot.inbox.clear();
        slot.inbox.reopen();
        slot.failed.store(false, Ordering::SeqCst);
        // Fresh deadline table: one full period from the restart instant,
        // exactly like the other backends — re-armed on the owning worker's
        // wheel.
        let mut wheel = self.shared.wheels[self.shared.home_worker(index)].lock();
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

/// How long an idle worker parks before re-checking for shutdown.
const WORKER_PARK: std::time::Duration = std::time::Duration::from_millis(200);

/// Poll timeout while frames are deferred: retries must come well inside the
/// drain-quiescence grace, so backpressured traffic lands promptly once the
/// receiver catches up.
const DEFERRED_RETRY: std::time::Duration = std::time::Duration::from_millis(1);

/// The worker loop: retry deferred frames, pop a ready host (own shard
/// first, stealing from the busiest foreign shard when idle), absorb up to
/// the run budget from its mailbox, dispatch, flush once (coalescing the
/// whole round's same-destination sends into per-destination frames), and
/// re-queue the host if backlog remains.
fn worker_loop(shared: &Shared, worker: usize) {
    let run_budget = shared.scheduler.config().effective_run_budget();
    let mut round: Vec<AsyncInput> = Vec::with_capacity(run_budget);
    let mut deferred = DeferredFrames::default();
    loop {
        if !deferred.is_empty() {
            flush_deferred(shared, &mut deferred);
        }
        let park = if deferred.is_empty() {
            WORKER_PARK
        } else {
            DEFERRED_RETRY
        };
        let slot_index = match shared.scheduler.next_ready(worker, park) {
            Poll::Ready(slot_index) => slot_index,
            Poll::Idle => continue,
            Poll::Shutdown => return,
        };
        let slot = &shared.slots[slot_index];
        let mut host = slot.host.lock();
        round.clear();
        slot.inbox.drain_up_to(run_budget, &mut round);
        let now = shared.now();
        for input in round.drain(..) {
            // Crashed (possibly mid-round): stop absorbing. Effects of
            // inputs already dispatched this round are still flushed below,
            // matching the other backends' pre-crash delivery semantics.
            if slot.failed.load(Ordering::SeqCst) {
                break;
            }
            match input {
                AsyncInput::Frame(bytes) => {
                    // In-process frames are produced by our own encoder, but
                    // the fault plan may have bit-flipped one in transit: a
                    // frame that fails to decode is counted on the node and
                    // discarded — there is no connection to close, and
                    // injected corruption must never take a worker down.
                    let _ = host.enqueue_frame(&bytes, now);
                }
                AsyncInput::Client { client, request } => {
                    host.enqueue_client_request(client, request, now);
                }
                AsyncInput::Timer { kind } => {
                    host.enqueue_timer(kind, now);
                }
            }
        }
        let mut injected = InjectedCounters::default();
        host.flush_effects(|output| shared.route(slot_index, output, &mut deferred, &mut injected));
        if !injected.is_empty() {
            host.node_mut().record_injected_faults(&injected);
        }
        drop(host);
        let still_pending = !slot.inbox.is_empty() && !slot.failed.load(Ordering::SeqCst);
        shared.scheduler.finish(slot_index, still_pending);
    }
}

/// Retries every deferred destination once, preserving per-destination
/// order: frames deliver until the destination refuses again (its remaining
/// backlog stays queued behind the refusal); destinations that drained or
/// died release theirs.
fn flush_deferred(shared: &Shared, deferred: &mut DeferredFrames) {
    let DeferredFrames { by_dest, total } = deferred;
    by_dest.retain(|&to, queue| {
        while let Some(frame) = queue.pop_front() {
            match shared.offer_frame(to, frame) {
                // Dropped = crashed/unknown destination: the crash-semantics
                // silent drop, frame by frame.
                MailOutcome::Delivered | MailOutcome::Dropped => *total -= 1,
                MailOutcome::Saturated(frame) => {
                    queue.push_front(frame);
                    return true;
                }
            }
        }
        false
    });
}

/// The timer thread: advances every worker's wheel once per tick and mails
/// due firings to their hosts. The wheels are sharded per worker so this
/// thread's brief per-wheel locks never convoy with the whole pool at once.
fn timer_loop(shared: &Shared) {
    let tick = shared.wheels[0].lock().tick();
    let mut due: Vec<DueTimer<Instant>> = Vec::new();
    while !shared.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        due.clear();
        let now = Instant::now();
        for wheel in &shared.wheels {
            wheel.lock().advance(now, &mut due);
        }
        for timer in &due {
            let slot = &shared.slots[timer.host];
            if slot.failed.load(Ordering::SeqCst) {
                continue;
            }
            if slot.inbox.push(AsyncInput::Timer { kind: timer.kind }) {
                shared.scheduler.mark_ready(timer.host);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_core::ReplyBody;
    use dataflasks_store::DataStore;
    use dataflasks_types::PssConfig;

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
    fn put_then_get_roundtrip_through_the_worker_pool() {
        let cluster = AsyncCluster::start(4, fast_config(4, 1), 11);
        std::thread::sleep(std::time::Duration::from_millis(200));
        let key = Key::from_user_key("async");
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
            .filter(|n| n.store().get_latest(key).is_some())
            .count();
        assert!(replicas >= 1);
    }

    #[test]
    fn many_nodes_run_on_a_bounded_worker_pool() {
        // Far more nodes than workers: the readiness queue multiplexes.
        let spec = ClusterSpec::new(fast_config(48, 4), vec![500; 48], 17);
        let cluster = AsyncCluster::start_spec_with(
            &spec,
            AsyncClusterConfig {
                workers: 3,
                ..AsyncClusterConfig::default()
            },
        );
        assert_eq!(cluster.worker_count(), 3);
        std::thread::sleep(std::time::Duration::from_millis(400));
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 48);
        // Gossip ran across the whole cluster on three threads.
        assert!(nodes.iter().any(|n| n.stats().total_messages() > 0));
        assert!(nodes.iter().all(|n| n.slice().is_some()));
    }

    #[test]
    fn bounded_mailboxes_backpressure_without_losing_traffic() {
        // Tiny mailboxes under a bursty fan-out on a multi-worker pool:
        // saturation must surface as deferred (retried) deliveries, never as
        // lost replies — every put is still acknowledged by every replica.
        let spec = ClusterSpec::new(fast_config(8, 1), vec![500; 8], 31);
        let mut cluster = AsyncCluster::start_spec_with(
            &spec,
            AsyncClusterConfig {
                workers: 4,
                mailbox_capacity: 1,
                ..AsyncClusterConfig::default()
            },
        );
        cluster.set_drain_idle_grace(Duration::from_millis(300));
        let burst = 24u64;
        for sequence in 0..burst {
            Environment::submit_client_request(
                &mut cluster,
                9,
                NodeId::new(sequence % 8),
                ClientRequest::Put {
                    id: RequestId::new(9, sequence),
                    key: Key::from_user_key(&format!("burst-{sequence}")),
                    version: Version::new(1),
                    value: Value::from_bytes(b"pressure"),
                },
            );
        }
        let replies = cluster.drain_effects(Duration::from_secs(10));
        let acked: std::collections::HashSet<_> = replies
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
        // Nothing was lost: every key of the burst is held somewhere (the
        // fan-out covers a subset of the slice per hop, so per-node totals
        // may differ — loss would show as a key vanishing everywhere).
        for sequence in 0..burst {
            let key = Key::from_user_key(&format!("burst-{sequence}"));
            assert!(
                nodes.iter().any(|n| n.store().get_latest(key).is_some()),
                "burst-{sequence} was lost under saturation"
            );
        }
    }

    #[test]
    fn spec_started_cluster_serves_requests_through_the_environment() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            21,
        );
        let mut cluster = AsyncCluster::start_spec(&spec);
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
        assert!(nodes.iter().all(|n| n.store().get_latest(key).is_some()));
    }

    #[test]
    fn failed_nodes_stop_answering() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 22);
        let mut cluster = AsyncCluster::start_spec(&spec);
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
        let replies = cluster.drain_effects(Duration::from_millis(400));
        assert!(replies.is_empty(), "a failed contact cannot reply");
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 3, "failed nodes still return their state");
    }

    #[test]
    fn restarted_node_rejoins_with_empty_volatile_state() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            25,
        );
        let mut cluster = AsyncCluster::start_spec(&spec);
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
        assert!(!cluster.drain_effects(Duration::from_secs(5)).is_empty());
        let victim = NodeId::new(1);
        cluster.restart_node(victim); // restart implies the crash
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
        let restarted = nodes.iter().find(|n| n.id() == victim).unwrap();
        assert_eq!(restarted.store().len(), 0, "volatile state must be lost");
        assert!(restarted.slice().is_some(), "membership rejoins warm");
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
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while plan.corrupted_frames() < budget && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(plan.corrupted_frames(), budget, "traffic spends the budget");
        std::thread::sleep(std::time::Duration::from_millis(500));
        cluster
            .put(
                Key::from_user_key("after-corruption"),
                Version::new(1),
                Value::from_bytes(b"still alive"),
                Duration::from_secs(5),
            )
            .expect("the cluster must survive injected corruption");
        let nodes = cluster.shutdown();
        let rejects: u64 = nodes.iter().map(|n| n.stats().wire_rejects).sum();
        assert_eq!(
            rejects, budget,
            "every corrupted frame is rejected exactly once"
        );
    }

    /// The reserved-id guard of the threaded runtime, mirrored here: an
    /// Environment submission under the blocking API's client id would
    /// silently steal its replies, so it must panic instead.
    #[test]
    #[should_panic(expected = "reserved for the blocking put/get API")]
    fn reserved_blocking_client_id_is_rejected() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 24);
        let mut cluster = AsyncCluster::start_spec(&spec);
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

    #[test]
    fn error_display_is_informative() {
        assert!(AsyncRuntimeError::Timeout.to_string().contains("timed out"));
        assert!(AsyncRuntimeError::Shutdown
            .to_string()
            .contains("shut down"));
    }
}
