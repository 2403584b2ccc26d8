//! A socket-backed runtime for DataFlasks nodes: real TCP/UDS transport.
//!
//! The event-driven runtime (`dataflasks-async-env`) already moves every hop
//! as an encoded `dataflasks_core::wire` frame — but through in-process
//! mailboxes. This crate promotes those byte-exact frames onto **real
//! sockets**: every node runs behind its own listener (TCP on loopback or a
//! Unix-domain socket, selected by [`SocketTransportKind`]), peers dial each
//! other lazily through a connection pool, and every inbound connection owns
//! a [`ReassemblyBuffer`] that re-cuts the byte stream at frame boundaries.
//! The scheduling substrate is shared with the async backend — the sharded
//! work-stealing [`Scheduler`], per-worker
//! [timer wheels](dataflasks_async_env::wheel::TimerWheel) and bounded
//! [`Inbox`] mailboxes all come from `dataflasks_core::sched` /
//! `dataflasks-async-env` — so the two runtimes differ *only* in transport.
//!
//! What the transport layer guarantees:
//!
//! * **One `SendBatch` = one frame = one write.** A dispatch round's
//!   per-destination batch is encoded once and written as a single frame,
//!   mirroring the in-process runtimes' one-transport-unit-per-batch
//!   discipline (partial writes resume at the byte where the socket pushed
//!   back).
//! * **Cut on the reactor, decode on the worker.** The reactor only *cuts*
//!   frames: it reads the length prefix, checks it against
//!   `MAX_FRAME_BYTES`, copies the frame's bytes into an arena buffer and
//!   mails them. The worker that dispatches the frame decodes it
//!   ([`NodeHost::enqueue_frame`], the arm the async backend's workers run
//!   too) and hands the buffer back. Every object a message owns — its
//!   `Arc`ed request, its value — is therefore allocated, used and freed on
//!   one thread; decoding on the reactor made each of them a cross-thread
//!   malloc/free pair, which cost more than the decode itself.
//! * **Defensive decode.** Partial reads, coalesced frames and mid-frame
//!   connection drops are normal stream behaviour, absorbed by the
//!   per-connection reassembly buffer. A frame that *completes* but fails to
//!   decode (`WireError::Malformed`, an unknown tag) is counted once — on
//!   the cluster and on the receiving node (`NodeStats::wire_rejects`) —
//!   and its connection is closed: the worker names it to the owning
//!   reactor, frames of that connection already mailed are each validated
//!   on their own. An oversized announcement (`FrameTooLarge`) is rejected
//!   by the reactor from the header alone.
//! * **Lazy dialing with backoff.** Connections are established on first
//!   send, shared by every onboard sender, and re-dialed with exponential
//!   backoff when a dial is refused.
//! * **Crash semantics.** Failing a node closes its mailbox *and* its
//!   connections; in-flight and queued frames to it are discarded, exactly
//!   like the other backends dropping deliveries to dead nodes. A restart
//!   re-establishes connectivity from scratch (fresh dials, fresh accepts).
//! * **Backpressure to the wire.** With a bounded mailbox, a saturated node
//!   stops the reactor from reading its connections — unread bytes stay in
//!   the kernel socket buffer, which is TCP/UDS flow control doing the
//!   deferring the async backend does in user space.
//!
//! The hot path is built for scale:
//!
//! * **Readiness reactor.** IO threads do not scan sockets for
//!   `WouldBlock`; they park on an `epoll`/`kqueue` selector
//!   ([`reactor`](crate) module) that registers every listener, accepted
//!   connection and pool dial, and wakes only on actual readiness (or a
//!   wake-pipe nudge from a sender or a worker that just drained a
//!   saturated mailbox).
//! * **Vectored writes.** A destination's queued frames are flushed with
//!   one `writev` per kernel crossing ([`outbound::OutboundQueue`](crate)),
//!   resuming partial writes at the exact byte across frame and iovec
//!   boundaries.
//! * **Zero steady-state allocation.** Encode buffers, reassembly buffers
//!   and the mailed frame buffers come from a pooled [`arena`](crate), and
//!   every path that discards a frame (crash purge, holdover of a removed
//!   connection, decode reject) returns its buffer; once the cluster is
//!   warm the send/receive path recycles instead of allocating (the
//!   arena's fresh-allocation counter is asserted zero by `socket_bench
//!   --assert-steady-alloc`).
//!
//! The cluster implements the same [`Environment`] driver surface as the
//! other three backends, and the four-way differential parity suite holds it
//! to identical client-visible behaviour, crash→restart included.
//!
//! # Example
//!
//! ```
//! use dataflasks_net_env::SocketCluster;
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
mod outbound;
mod reactor;
mod reassembly;
mod transport;

pub use reassembly::ReassemblyBuffer;
pub use transport::SocketTransportKind;

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arena::BufferArena;
use dataflasks_async_env::wheel::{DueTimer, TimerWheel};
use dataflasks_core::fault::{FaultPlan, InjectedCounters, LinkVerdict};
use dataflasks_core::wire::{encode_frame_into, encode_output_into};
use dataflasks_core::{
    BootstrapRounds, ClientGateway, ClientId, ClientReply, ClientRequest, ClusterSpec, Completion,
    DataFlasksNode, DefaultStore, Environment, Inbox, Message, NodeHost, Output, Poll, PushOutcome,
    Scheduler, SchedulerConfig, Ticket, TicketKind, TicketOutcome, TimerKind,
};
use dataflasks_types::{
    Duration, Key, NodeConfig, NodeId, RequestId, SimTime, StoredObject, Value, Version,
};
use outbound::{OutboundQueue, MAX_WRITE_VECS};
use reactor::Interest;

use transport::{Listener, PeerAddr, Stream};

/// Errors returned by the blocking client API (the shared
/// [`dataflasks_core::gateway`] error type).
pub use dataflasks_core::GatewayError as SocketRuntimeError;
pub use dataflasks_core::PipelinedClient;

/// Tuning knobs of the socket runtime.
#[derive(Debug, Clone, Copy)]
pub struct SocketClusterConfig {
    /// Worker threads multiplexing the node hosts. `0` (the default) picks
    /// `min(available cores, 8)`.
    pub workers: usize,
    /// Reactor threads polling the sockets (accepts, reads, writes, dials).
    /// Nodes and pool connections are sharded over them by slot index. `0`
    /// (the default) picks one.
    pub io_threads: usize,
    /// Shared scheduling knobs (run budget per dispatch round, steal policy).
    pub sched: SchedulerConfig,
    /// Timer-wheel granularity; firing latency is bounded by one tick.
    pub wheel_tick: Duration,
    /// Timer-wheel slot count (tick × slots = one rotation), per worker
    /// wheel.
    pub wheel_slots: usize,
    /// High-water mark of each node's mailbox (`0` = unbounded). A saturated
    /// node's connections stop being read — the bytes wait in the kernel
    /// socket buffer, so backpressure propagates to the sender's transport.
    /// Client submissions, driver injections and timer firings always land.
    pub mailbox_capacity: usize,
    /// Socket family carrying the frames.
    pub transport: SocketTransportKind,
    /// First retry delay after a refused dial; doubles per consecutive
    /// failure.
    pub dial_backoff: Duration,
    /// Upper bound on the dial retry delay.
    pub dial_backoff_max: Duration,
    /// Maximum idle buffers the frame arena keeps pooled (`0` = unbounded).
    /// The pool is what makes the steady-state send/receive path
    /// allocation-free; bounding it trades a few re-allocations after
    /// bursts for a tighter memory ceiling.
    pub arena_capacity: usize,
}

impl Default for SocketClusterConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            io_threads: 0,
            sched: SchedulerConfig::default(),
            wheel_tick: Duration::from_millis(5),
            wheel_slots: 1024,
            mailbox_capacity: 0,
            transport: SocketTransportKind::default(),
            dial_backoff: Duration::from_millis(10),
            dial_backoff_max: Duration::from_millis(500),
            arena_capacity: 0,
        }
    }
}

impl SocketClusterConfig {
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

    /// The reactor-thread count after resolving the `0 = auto` default.
    #[must_use]
    pub fn effective_io_threads(&self) -> usize {
        self.io_threads.max(1)
    }
}

/// The client id the blocking `put`/`get` API issues requests under.
/// Reserved: [`Environment::submit_client_request`] rejects it, exactly like
/// the other runtimes.
const BLOCKING_CLIENT: ClientId = u64::MAX;

/// What waits in a node's mailbox. Wire frames arrive **cut but not
/// decoded**: the reactor checked only the length prefix, the worker that
/// dispatches the frame decodes it — so every object a message owns lives
/// and dies on one thread. One mailbox entry is still one transport unit.
enum SocketInput {
    /// The bytes of one wire frame (length prefix included) in an arena
    /// buffer, which the consumer hands back to the arena.
    Frame {
        bytes: Vec<u8>,
        /// The inbound connection that carried the frame — closed if the
        /// frame fails to decode. `None` for driver injections, which
        /// travelled no socket.
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

/// One accepted connection at a node's listener: the byte stream, its
/// reassembly buffer, and at most one cut frame the saturated mailbox
/// refused (the read-side backpressure holdover).
struct InboundConn {
    stream: Stream,
    buffer: ReassemblyBuffer,
    pending: Option<Vec<u8>>,
    /// Stable identity within its slot — reactor tokens resolve through it,
    /// so a swap-removed vector never aliases a token to the wrong stream.
    id: u64,
    /// The owning reactor's slab token for this connection's registration.
    token: reactor::Token,
    /// Whether read interest is currently armed (dropped while a saturated
    /// holdover parks the connection, so level-triggered readiness does not
    /// busy-loop on bytes nobody will read).
    reading: bool,
}

/// One hosted node: the sans-io host, its mailbox, its listener and the
/// connections accepted at it.
struct NodeSlot {
    host: Mutex<NodeHost<DefaultStore>>,
    inbox: Inbox<SocketInput>,
    failed: AtomicBool,
    addr: PeerAddr,
    listener: Listener,
    conns: Mutex<Vec<InboundConn>>,
    /// Connections currently parked on a saturated-mailbox holdover (only
    /// mutated under the `conns` lock; read lock-free by workers deciding
    /// whether to nudge the reactor after draining the mailbox).
    blocked_conns: AtomicU64,
}

/// The outgoing half of the connection pool for one destination node,
/// shared by every onboard sender (frames carry their own `from`, so one
/// stream multiplexes all senders — the pooling a real deployment does per
/// process).
struct PoolEntry {
    state: Mutex<PoolState>,
    /// Whether this destination already sits in its reactor's dirty queue
    /// (senders CAS it so a flood enqueues the destination once, not once
    /// per frame).
    enqueued: AtomicBool,
}

#[derive(Default)]
struct PoolState {
    conn: Option<Stream>,
    /// Encoded frames awaiting the wire, in submission order, with
    /// partial-write resume state.
    queue: OutboundQueue,
    /// Consecutive failed dials (drives the exponential backoff).
    attempt: u32,
    /// Earliest instant the next dial may be tried.
    next_dial: Option<Instant>,
    /// The owning reactor's slab token for the dialed connection.
    token: Option<reactor::Token>,
    /// Whether write interest is armed (only while a flush is blocked on a
    /// full socket buffer — a level-triggered selector would otherwise
    /// report an idle writable socket forever).
    want_write: bool,
}

/// Cross-thread mailbox of one reactor thread: the wake handle plus the
/// work queues senders and crash paths hand it.
struct ReactorHandle {
    waker: reactor::Waker,
    /// Destinations with freshly queued frames awaiting a flush.
    dirty: Mutex<Vec<usize>>,
    /// Slab tokens whose sockets a crash path already closed; the reactor
    /// reclaims them on its next pass (the kernel dropped the closed fds
    /// from the readiness set on its own).
    cleanup: Mutex<Vec<reactor::Token>>,
    /// Inbound connections `(slot, connection id)` a worker wants closed
    /// because a frame they carried failed to decode; only the reactor may
    /// touch the selector, so it does the closing.
    corrupt: Mutex<Vec<(usize, u64)>>,
    /// Dedups wake-pipe writes: only the first nudge between two poll
    /// returns pays the syscall.
    wake_flag: AtomicBool,
}

impl ReactorHandle {
    fn wake(&self) {
        if !self.wake_flag.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// State shared by the driver, the workers, the reactor and the timer
/// thread.
struct Shared {
    slots: Vec<NodeSlot>,
    pool: Vec<PoolEntry>,
    scheduler: Scheduler,
    /// One timer wheel per worker; node `i` is armed on wheel `i % workers`
    /// — the same home mapping as the scheduler shards.
    wheels: Vec<Mutex<TimerWheel<Instant>>>,
    client_inbox: Sender<(ClientId, ClientReply)>,
    epoch: Instant,
    node_config: NodeConfig,
    stopping: AtomicBool,
    /// Slots and pool destinations are owned by reactor
    /// `index % reactors.len()`.
    reactors: Vec<ReactorHandle>,
    /// Pooled encode/reassembly buffers — the zero-allocation steady state.
    arena: BufferArena,
    dial_backoff: StdDuration,
    dial_backoff_max: StdDuration,
    /// Times a complete frame was refused by a saturated mailbox (each is
    /// retried from the connection's holdover slot, never lost).
    saturations: AtomicU64,
    /// Successful dials (lazy connects and post-restart re-connects).
    dials: AtomicU64,
    /// Refused dials awaiting a backoff retry.
    dial_retries: AtomicU64,
    /// Inbound frames rejected — by a worker's decode, or by the reactor
    /// for an oversized announcement (also counted per node in
    /// `NodeStats::wire_rejects`).
    wire_rejects: AtomicU64,
    /// Live reactor slab tokens (registrations minus reclaims), across all
    /// reactor threads.
    reactor_tokens: AtomicU64,
    /// Cumulative reactor registrations (listeners, inbound conns, dials).
    reactor_registrations: AtomicU64,
    /// Readiness events whose token no longer resolved to a live socket
    /// (the socket raced a crash path); tolerated and skipped.
    reactor_stale_events: AtomicU64,
    /// Shared fault-injection plan, consulted per encoded frame *before* it
    /// reaches the outbound queue — injected drops never touch a socket,
    /// duplicates are written twice, and armed corruption bit-flips the
    /// frame so the receiving decoder rejects it (closing that connection,
    /// as any corrupt byte stream would). Driver injections and client
    /// replies bypass it, as in every backend.
    faults: Arc<FaultPlan>,
}

/// How a cut frame fared against the destination mailbox.
enum Delivery {
    Delivered,
    /// Refused by the high-water mark; handed back for the connection's
    /// holdover slot (which stops further reads from that connection).
    Saturated(Vec<u8>),
    /// Crashed or closed destination: dropped, the shared crash semantics
    /// (the buffer went back to the arena).
    Dropped,
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

    /// The reactor thread owning `index` (a slot or a pool destination).
    fn reactor_of(&self, index: usize) -> &ReactorHandle {
        &self.reactors[index % self.reactors.len()]
    }

    /// Routes one effect of `from`'s dispatch round: transport units are
    /// encoded once and queued on the destination's pool connection, replies
    /// go to the cluster-wide client inbox, timer re-arms to the emitting
    /// node's home wheel. Each transport unit is one fault-injection
    /// decision, taken at the frame boundary *before* the outbound queue:
    /// injected drops and duplicates are tallied into `injected`, which the
    /// worker folds into the sender's statistics after the flush.
    fn route(&self, from: usize, output: Output, injected: &mut InjectedCounters) {
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
                let verdict = self.faults.link_verdict(NodeId::new(from as u64), to);
                injected.record_messages(verdict, unit_messages);
                if matches!(verdict, LinkVerdict::DropPartition | LinkVerdict::DropLoss) {
                    return;
                }
                let mut frame = self.arena.take();
                match encode_output_into(NodeId::new(from as u64), &transport, &mut frame) {
                    Ok(dest) => {
                        debug_assert_eq!(dest, Some(to), "send outputs always frame");
                        if matches!(verdict, LinkVerdict::Duplicate) {
                            let mut copy = self.arena.take();
                            copy.extend_from_slice(&frame);
                            self.maybe_corrupt(&mut copy);
                            self.send_frame(to, copy);
                        }
                        self.maybe_corrupt(&mut frame);
                        self.send_frame(to, frame);
                    }
                    // A pathological unit exceeding the frame limit is
                    // dropped like a network rejecting an oversized
                    // datagram; the worker survives.
                    Err(_) => {
                        debug_assert!(false, "protocol produced an oversized frame");
                        self.arena.give(frame);
                    }
                }
            }
        }
    }

    /// Spends one unit of armed corruption budget, if any, by flipping a bit
    /// inside the frame's first message tag: the framing (length prefix)
    /// stays intact, so the receiver cuts the frame normally and its decoder
    /// rejects it — counted as a wire reject, never misparsed.
    fn maybe_corrupt(&self, frame: &mut [u8]) {
        if frame.len() > 16 && self.faults.should_corrupt() {
            frame[16] ^= 0x80;
        }
    }

    /// Queues one encoded frame for `to`'s pool connection and marks the
    /// destination dirty for its reactor (once per flood, not once per
    /// frame). Frames to failed or unknown destinations are dropped
    /// silently (the crash semantics every backend shares).
    fn send_frame(&self, to: NodeId, frame: Vec<u8>) {
        let index = to.as_u64() as usize;
        let Some(slot) = self.slots.get(index) else {
            self.arena.give(frame);
            return;
        };
        let entry = &self.pool[index];
        let mut state = entry.state.lock();
        // The crash check must happen under the pool-state lock:
        // `fail_node` raises the flag *before* purging the outbox under this
        // same lock, so a sender either observes the flag (and drops) or
        // enqueues before the purge (and is swept with the rest) — a stale
        // pre-crash frame can never slip in between a crash and the
        // restart's un-failing and reach the fresh incarnation.
        if slot.failed.load(Ordering::SeqCst) {
            drop(state);
            self.arena.give(frame);
            return;
        }
        state.queue.push(frame);
        drop(state);
        if !entry.enqueued.swap(true, Ordering::SeqCst) {
            let handle = self.reactor_of(index);
            handle.dirty.lock().push(index);
            handle.wake();
        }
    }

    /// Offers one cut frame from connection `conn` to `to_slot`'s mailbox,
    /// honouring its high-water mark, and marks the host ready on delivery.
    /// Called with the slot's `conns` lock held, which `fail_node` takes
    /// before it raises the crash flag: an offer sees the flag or lands
    /// before the purge, so no buffer is lost to a closing mailbox.
    fn offer_input(&self, to_slot: usize, conn: u64, bytes: Vec<u8>) -> Delivery {
        let slot = &self.slots[to_slot];
        if slot.failed.load(Ordering::SeqCst) {
            self.arena.give(bytes);
            return Delivery::Dropped;
        }
        let conn = Some(conn);
        match slot.inbox.try_push(SocketInput::Frame { bytes, conn }) {
            PushOutcome::Delivered => {
                self.scheduler.mark_ready(to_slot);
                Delivery::Delivered
            }
            PushOutcome::Saturated(SocketInput::Frame { bytes, .. }) => {
                self.saturations.fetch_add(1, Ordering::Relaxed);
                Delivery::Saturated(bytes)
            }
            PushOutcome::Saturated(_) => unreachable!("a frame was offered"),
            // Not reached while offers hold `conns` (see above); were it,
            // the buffer would be freed with the input, not leaked.
            PushOutcome::Closed => Delivery::Dropped,
        }
    }

    /// Delivers one input regardless of the high-water mark and marks the
    /// host ready — the driver-injection, client-submission and timer paths,
    /// which have no connection to defer into. Inputs to failed or unknown
    /// nodes are silently dropped. Only the driver thread calls this, and
    /// only the driver thread crashes nodes, so the flag check is exact.
    fn mail_input(&self, to: NodeId, input: SocketInput) {
        match self.slot_of(to) {
            Some(slot) if !slot.failed.load(Ordering::SeqCst) => {
                if slot.inbox.push(input) {
                    self.scheduler.mark_ready(to.as_u64() as usize);
                }
            }
            _ => self.discard(input),
        }
    }

    /// Drops an input nobody will dispatch, returning a frame's buffer to
    /// the arena.
    fn discard(&self, input: SocketInput) {
        if let SocketInput::Frame { bytes, .. } = input {
            self.arena.give(bytes);
        }
    }

    /// Counts an oversized announcement the reactor rejected from the
    /// header alone, on the cluster and on the owning node's
    /// [`NodeStats`](dataflasks_core::NodeStats).
    fn record_oversized_frame(&self, to_slot: usize) {
        self.wire_rejects.fetch_add(1, Ordering::Relaxed);
        self.slots[to_slot]
            .host
            .lock()
            .node_mut()
            .record_wire_reject();
    }

    /// A frame from `slot`'s mailbox failed a worker's decode (which counted
    /// it on the node): count it on the cluster and ask the owning reactor
    /// to close the connection that carried it.
    fn reject_frame(&self, slot: usize, conn: Option<u64>) {
        self.wire_rejects.fetch_add(1, Ordering::Relaxed);
        if let Some(conn) = conn {
            let handle = self.reactor_of(slot);
            handle.corrupt.lock().push((slot, conn));
            handle.wake();
        }
    }
}

fn to_std(duration: Duration) -> StdDuration {
    StdDuration::from_millis(duration.as_millis())
}

/// A cluster of DataFlasks nodes exchanging every protocol hop over real
/// sockets (TCP loopback or Unix-domain), multiplexed over a worker pool.
pub struct SocketCluster {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    io_workers: Vec<JoinHandle<()>>,
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
    /// Cached warm-up rounds of the spec (computed on the first restart).
    restart_rounds: Option<BootstrapRounds>,
    /// The Unix-domain socket directory, removed on shutdown.
    uds_dir: Option<PathBuf>,
}

/// Monotonic suffix distinguishing the UDS directories of clusters started
/// by one process.
static UDS_CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

impl SocketCluster {
    /// Starts `node_count` nodes sharing `node_config`, with capacities drawn
    /// deterministically from `seed`, on the default configuration (TCP
    /// loopback).
    ///
    /// # Panics
    ///
    /// Panics if a listener cannot be bound.
    #[must_use]
    pub fn start(node_count: usize, node_config: NodeConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacities = (0..node_count)
            .map(|_| rng.gen_range(100..=10_000))
            .collect();
        Self::start_spec(&ClusterSpec::new(node_config, capacities, seed))
    }

    /// Starts the cluster described by a [`ClusterSpec`] with default knobs —
    /// the exact same node state the other environments materialise, so all
    /// four backends can be compared input for input.
    ///
    /// # Panics
    ///
    /// Panics if a listener cannot be bound.
    #[must_use]
    pub fn start_spec(spec: &ClusterSpec) -> Self {
        Self::start_spec_with(spec, SocketClusterConfig::default())
    }

    /// Starts a spec-described cluster with explicit runtime knobs.
    ///
    /// # Panics
    ///
    /// Panics if a listener cannot be bound (out of file descriptors, an
    /// unwritable temp directory for [`SocketTransportKind::Unix`]) or if
    /// the Unix transport is requested on a non-Unix platform.
    #[must_use]
    pub fn start_spec_with(spec: &ClusterSpec, config: SocketClusterConfig) -> Self {
        let epoch = Instant::now();
        let uds_dir = match config.transport {
            SocketTransportKind::Tcp => None,
            SocketTransportKind::Unix => {
                let dir = std::env::temp_dir().join(format!(
                    "dataflasks-net-{}-{}",
                    std::process::id(),
                    UDS_CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).expect("create the UDS socket directory");
                Some(dir)
            }
        };
        let nodes = spec.build_nodes();
        let node_ids: Vec<NodeId> = nodes.iter().map(DataFlasksNode::id).collect();
        let slots: Vec<NodeSlot> = nodes
            .into_iter()
            .enumerate()
            .map(|(index, node)| {
                let (listener, addr) = Listener::bind(config.transport, index, uds_dir.as_deref())
                    .expect("bind a node listener");
                NodeSlot {
                    host: Mutex::new(NodeHost::new(node)),
                    inbox: if config.mailbox_capacity > 0 {
                        Inbox::bounded(config.mailbox_capacity)
                    } else {
                        Inbox::new()
                    },
                    failed: AtomicBool::new(false),
                    addr,
                    listener,
                    conns: Mutex::new(Vec::new()),
                    blocked_conns: AtomicU64::new(0),
                }
            })
            .collect();
        let pool = (0..slots.len())
            .map(|_| PoolEntry {
                state: Mutex::new(PoolState::default()),
                enqueued: AtomicBool::new(false),
            })
            .collect();
        let worker_count = config.effective_workers();
        let io_count = config.effective_io_threads();
        let (client_tx, client_rx) = mpsc::channel();
        let wheel_tick = to_std(config.wheel_tick).max(StdDuration::from_millis(1));
        let mut wheels: Vec<TimerWheel<Instant>> = (0..worker_count)
            .map(|_| TimerWheel::new(config.wheel_slots.max(1), wheel_tick, epoch))
            .collect();
        // Deterministic per-node stagger of the first timer round, exactly
        // like the async backend: periodic work spreads over the period.
        let count = slots.len().max(1) as u64;
        for index in 0..slots.len() {
            for kind in TimerKind::ALL {
                let period = kind.period(&spec.node_config).as_millis();
                let stagger = period * index as u64 / count;
                let deadline = epoch + StdDuration::from_millis(period.saturating_add(stagger));
                wheels[index % worker_count].arm(index, kind, deadline);
            }
        }
        // The selectors exist before the shared state: their wake handles
        // live in `Shared`, the selectors themselves move into the reactor
        // threads below.
        let polls: Vec<reactor::Poll> = (0..io_count)
            .map(|_| reactor::Poll::new().expect("create the readiness selector"))
            .collect();
        let reactors = polls
            .iter()
            .map(|poll| ReactorHandle {
                waker: poll.waker(),
                dirty: Mutex::new(Vec::new()),
                cleanup: Mutex::new(Vec::new()),
                corrupt: Mutex::new(Vec::new()),
                wake_flag: AtomicBool::new(false),
            })
            .collect();
        let shared = Arc::new(Shared {
            scheduler: Scheduler::new(slots.len(), worker_count, config.sched),
            slots,
            pool,
            wheels: wheels.into_iter().map(Mutex::new).collect(),
            client_inbox: client_tx,
            epoch,
            node_config: spec.node_config,
            stopping: AtomicBool::new(false),
            reactors,
            arena: BufferArena::new(config.arena_capacity),
            dial_backoff: to_std(config.dial_backoff).max(StdDuration::from_millis(1)),
            dial_backoff_max: to_std(config.dial_backoff_max).max(StdDuration::from_millis(1)),
            saturations: AtomicU64::new(0),
            dials: AtomicU64::new(0),
            dial_retries: AtomicU64::new(0),
            wire_rejects: AtomicU64::new(0),
            reactor_tokens: AtomicU64::new(0),
            reactor_registrations: AtomicU64::new(0),
            reactor_stale_events: AtomicU64::new(0),
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
                    .name(format!("dataflasks-sock-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn worker thread")
            })
            .collect();
        let io_workers = polls
            .into_iter()
            .enumerate()
            .map(|(index, poll)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dataflasks-sock-io-{index}"))
                    .spawn(move || Reactor::new(&shared, index, poll).run())
                    .expect("spawn reactor thread")
            })
            .collect();
        let timer_shared = Arc::clone(&shared);
        let timer_thread = std::thread::Builder::new()
            .name("dataflasks-sock-timer".to_string())
            .spawn(move || timer_loop(&timer_shared))
            .expect("spawn timer thread");
        Self {
            shared,
            workers,
            io_workers,
            timer_thread: Some(timer_thread),
            node_ids,
            gate: ClientGateway::new(client_rx),
            request_sequence: std::cell::Cell::new(0),
            rng: std::cell::RefCell::new(StdRng::seed_from_u64(spec.seed ^ 0x50C4)),
            spec: spec.clone(),
            restart_rounds: None,
            uds_dir,
        }
    }

    /// Overrides how long [`Environment::drain_effects`] treats inbox
    /// silence as quiescence (default: one second). Loopback hops take tens
    /// of microseconds, so harnesses issuing many drains (the differential
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

    /// Number of reactor threads polling the sockets.
    #[must_use]
    pub fn io_thread_count(&self) -> usize {
        self.io_workers.len()
    }

    /// Times a complete inbound frame was refused by a saturated mailbox
    /// since start. Every refusal parks in its connection's holdover slot
    /// and is retried — this counts backpressure events, not losses.
    #[must_use]
    pub fn saturation_events(&self) -> u64 {
        self.shared.saturations.load(Ordering::Relaxed)
    }

    /// Successful outgoing dials since start (lazy first connects plus
    /// post-crash re-connects).
    #[must_use]
    pub fn dial_count(&self) -> u64 {
        self.shared.dials.load(Ordering::Relaxed)
    }

    /// Refused dials that were scheduled for a backoff retry.
    #[must_use]
    pub fn dial_retry_count(&self) -> u64 {
        self.shared.dial_retries.load(Ordering::Relaxed)
    }

    /// Inbound frames the wire decoder rejected cluster-wide (each also
    /// counted on the receiving node's `NodeStats::wire_rejects`).
    #[must_use]
    pub fn wire_reject_count(&self) -> u64 {
        self.shared.wire_rejects.load(Ordering::Relaxed)
    }

    /// The shared fault-injection plan. Faults staged on it take effect on
    /// the next frame routed between nodes — before the outbound socket
    /// queue, so injected drops never reach a kernel buffer; armed
    /// corruption is spent one frame at a time and surfaces at the receiver
    /// as wire rejects (closing the corrupted connection, which the pool
    /// re-dials).
    #[must_use]
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        Arc::clone(&self.shared.faults)
    }

    /// Frame buffers the arena had to allocate because its pool was empty.
    /// Once the cluster is warm this stops moving — the steady-state
    /// send/receive path recycles buffers instead of allocating
    /// (`socket_bench --assert-steady-alloc` asserts exactly that).
    #[must_use]
    pub fn arena_fresh_buffers(&self) -> u64 {
        self.shared.arena.fresh_buffers()
    }

    /// Frame buffers served from the arena's pool (the steady-state case).
    #[must_use]
    pub fn arena_recycled_buffers(&self) -> u64 {
        self.shared.arena.recycled_buffers()
    }

    /// Live reactor registrations (listeners + inbound connections + pool
    /// dials) across all reactor threads. Crash/restart churn must return
    /// this to listeners-plus-live-connections — a monotonic climb would
    /// mean leaked (stale) tokens.
    #[must_use]
    pub fn reactor_live_tokens(&self) -> u64 {
        self.shared.reactor_tokens.load(Ordering::Relaxed)
    }

    /// Cumulative reactor registrations since start.
    #[must_use]
    pub fn reactor_registration_count(&self) -> u64 {
        self.shared.reactor_registrations.load(Ordering::Relaxed)
    }

    /// Readiness events whose token no longer resolved to a live socket
    /// (the socket raced a crash path and was already closed); these are
    /// tolerated and skipped, never misrouted.
    #[must_use]
    pub fn reactor_stale_event_count(&self) -> u64 {
        self.shared.reactor_stale_events.load(Ordering::Relaxed)
    }

    /// Stores `value` under `key` and waits until at least one replica
    /// acknowledges it.
    ///
    /// # Errors
    ///
    /// Returns [`SocketRuntimeError::Timeout`] if no acknowledgement arrives
    /// within `timeout`.
    pub fn put(
        &self,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<(), SocketRuntimeError> {
        let ticket = self.submit_put(None, key, version, value, timeout)?;
        self.gate.await_ticket(ticket, timeout).map(|_| ())
    }

    /// Like [`Self::put`], but through an explicit contact node.
    ///
    /// # Errors
    ///
    /// Returns [`SocketRuntimeError::Timeout`] if no acknowledgement arrives
    /// within `timeout`, [`SocketRuntimeError::Shutdown`] if `contact` is
    /// unknown or failed.
    pub fn put_via(
        &self,
        contact: NodeId,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<(), SocketRuntimeError> {
        let ticket = self.submit_put(Some(contact), key, version, value, timeout)?;
        self.gate.await_ticket(ticket, timeout).map(|_| ())
    }

    /// Reads `key` (a specific version or the latest). Semantics match the
    /// other runtimes: the first replica returning the object wins, and
    /// "not found" is only trusted once the timeout expires with misses
    /// only.
    ///
    /// # Errors
    ///
    /// Returns [`SocketRuntimeError::Timeout`] if no reply of any kind
    /// arrives within `timeout`.
    pub fn get(
        &self,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, SocketRuntimeError> {
        self.get_from(None, key, version, timeout)
    }

    /// Like [`Self::get`], but through an explicit contact node.
    ///
    /// # Errors
    ///
    /// As for [`Self::get`], plus [`SocketRuntimeError::Shutdown`] if
    /// `contact` is unknown or failed.
    pub fn get_via(
        &self,
        contact: NodeId,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, SocketRuntimeError> {
        self.get_from(Some(contact), key, version, timeout)
    }

    fn get_from(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, SocketRuntimeError> {
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

    /// Stops the workers, the reactor and the timer thread, closes every
    /// socket, and returns the final node states for inspection. Failed
    /// nodes are included frozen at their final state; restarted nodes
    /// appear once, at their restarted state.
    pub fn shutdown(mut self) -> Vec<DataFlasksNode<DefaultStore>> {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.scheduler.shutdown();
        for handle in &self.shared.reactors {
            handle.waker.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for io in self.io_workers.drain(..) {
            let _ = io.join();
        }
        if let Some(timer) = self.timer_thread.take() {
            let _ = timer.join();
        }
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("workers, reactor and timer thread released the shared state");
        let nodes = shared
            .slots
            .into_iter()
            .map(|slot| slot.host.into_inner().into_node())
            .collect();
        if let Some(dir) = self.uds_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        nodes
    }

    fn submit_blocking(
        &self,
        contact: Option<NodeId>,
        request: ClientRequest,
    ) -> Result<(), SocketRuntimeError> {
        let contact = match contact {
            Some(node) => {
                let index = node.as_u64() as usize;
                let known = self
                    .shared
                    .slots
                    .get(index)
                    .is_some_and(|slot| !slot.failed.load(Ordering::SeqCst));
                if !known {
                    return Err(SocketRuntimeError::Shutdown);
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
                    return Err(SocketRuntimeError::Shutdown);
                }
                let mut rng = self.rng.borrow_mut();
                live[rng.gen_range(0..live.len())]
            }
        };
        let slot = &self.shared.slots[contact];
        if !slot.inbox.push(SocketInput::Client {
            client: BLOCKING_CLIENT,
            request,
        }) {
            return Err(SocketRuntimeError::Shutdown);
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

impl PipelinedClient for SocketCluster {
    fn submit_put(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<Ticket, SocketRuntimeError> {
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
    ) -> Result<Ticket, SocketRuntimeError> {
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
    ) -> Result<TicketOutcome, SocketRuntimeError> {
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

impl Environment for SocketCluster {
    fn deliver_message(&mut self, from: NodeId, to: NodeId, message: Message) {
        // Driver injections have no socket to travel; they land directly in
        // the mailbox as an encoded one-message transport unit, exactly like
        // the async backend's injection path.
        let mut bytes = self.shared.arena.take();
        if encode_frame_into(from, std::slice::from_ref(&message), &mut bytes).is_ok() {
            self.shared
                .mail_input(to, SocketInput::Frame { bytes, conn: None });
        } else {
            self.shared.arena.give(bytes);
        }
    }

    fn fire_timer(&mut self, node: NodeId, kind: TimerKind) {
        // The injected firing goes straight to the mailbox; the handler's
        // own re-arm effect supersedes the pending wheel deadline (a
        // generation bump), matching the other backends.
        self.shared.mail_input(node, SocketInput::Timer { kind });
    }

    fn submit_client_request(&mut self, client: ClientId, contact: NodeId, request: ClientRequest) {
        assert!(
            client != BLOCKING_CLIENT,
            "client id {BLOCKING_CLIENT} is reserved for the blocking put/get API"
        );
        self.gate.register_env_client(client);
        self.shared
            .mail_input(contact, SocketInput::Client { client, request });
    }

    fn fail_node(&mut self, node: NodeId) {
        let Some(slot) = self.shared.slot_of(node) else {
            return;
        };
        let index = node.as_u64() as usize;
        {
            // The connections lock comes first: the reactor offers frames
            // under it, so none is in flight towards the mailbox while the
            // node goes down.
            let mut conns = slot.conns.lock();
            // Flag first (a worker mid-round stops absorbing immediately),
            // then close the mailbox before discarding the backlog — nothing
            // can slip into the window and survive into a restart (see the
            // async backend for the race analysis). The backlog's frame
            // buffers go back to the arena.
            slot.failed.store(true, Ordering::SeqCst);
            slot.inbox.close();
            let mut backlog = Vec::new();
            slot.inbox.drain_up_to(usize::MAX, &mut backlog);
            for input in backlog {
                self.shared.discard(input);
            }
            // Connections follow: inbound streams are dropped (peers observe
            // EOF/reset and discard partial frames) and, below, the pool's
            // outgoing connection plus its queued frames — the network's
            // view of a crashed process. Dropping the streams closes them
            // immediately; the kernel drops closed fds from the readiness
            // set on its own, so only the reactor's slab tokens remain to be
            // reclaimed — handed to the owning reactor, which is the sole
            // slab mutator.
            let mut stale = Vec::with_capacity(conns.len());
            for conn in conns.drain(..) {
                stale.push(conn.token);
                self.shared.arena.give(conn.buffer.into_buffer());
                if let Some(held) = conn.pending {
                    self.shared.arena.give(held);
                }
            }
            slot.blocked_conns.store(0, Ordering::SeqCst);
            drop(conns);
            if !stale.is_empty() {
                let handle = self.shared.reactor_of(index);
                handle.cleanup.lock().extend(stale);
                handle.wake();
            }
        }
        let entry = &self.shared.pool[index];
        let mut state = entry.state.lock();
        let pool_token = state.token.take();
        state.queue.clear(|frame| self.shared.arena.give(frame));
        *state = PoolState::default();
        drop(state);
        entry.enqueued.store(false, Ordering::SeqCst);
        if let Some(token) = pool_token {
            let handle = self.shared.reactor_of(index);
            handle.cleanup.lock().push(token);
            handle.wake();
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
        // the pre-crash incarnation's final round.
        *slot.host.lock() = fresh;
        slot.inbox.clear();
        slot.inbox.reopen();
        slot.failed.store(false, Ordering::SeqCst);
        // The listener stayed bound (the OS endpoint survives the process
        // restart it models), but every connection was closed by the crash:
        // peers re-dial lazily on their next send, and the restarted node's
        // own sends re-dial through the pool — connectivity is re-established
        // from scratch.
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
const WORKER_PARK: StdDuration = StdDuration::from_millis(200);

/// The worker loop: pop a ready host (own shard first, stealing when idle),
/// absorb up to the run budget from its mailbox, dispatch, flush once
/// (coalescing the round's same-destination sends into per-destination
/// frames), and re-queue the host if backlog remains.
fn worker_loop(shared: &Shared, worker: usize) {
    let run_budget = shared.scheduler.config().effective_run_budget();
    let mut round: Vec<SocketInput> = Vec::with_capacity(run_budget);
    loop {
        let slot_index = match shared.scheduler.next_ready(worker, WORKER_PARK) {
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
                shared.discard(input);
                continue;
            }
            match input {
                SocketInput::Frame { bytes, conn } => {
                    // Hostile or corrupted bytes stay counters: the frame is
                    // dropped whole and its connection closed; frames of that
                    // connection already queued behind it are each validated
                    // on their own.
                    if host.enqueue_frame(&bytes, now).is_err() {
                        shared.reject_frame(slot_index, conn);
                    }
                    shared.arena.give(bytes);
                }
                SocketInput::Client { client, request } => {
                    host.enqueue_client_request(client, request, now);
                }
                SocketInput::Timer { kind } => {
                    host.enqueue_timer(kind, now);
                }
            }
        }
        let mut injected = InjectedCounters::default();
        host.flush_effects(|output| shared.route(slot_index, output, &mut injected));
        if !injected.is_empty() {
            host.node_mut().record_injected_faults(&injected);
        }
        drop(host);
        let still_pending = !slot.inbox.is_empty() && !slot.failed.load(Ordering::SeqCst);
        shared.scheduler.finish(slot_index, still_pending);
        // Mailbox room may have opened for a connection parked on a
        // saturated holdover; nudge the reactor so the retry does not wait
        // for its fallback timeout.
        if slot.blocked_conns.load(Ordering::Relaxed) > 0 {
            shared.reactor_of(slot_index).wake();
        }
    }
}

/// Read scratch size: large enough that one syscall drains a burst of
/// typical frames.
const READ_CHUNK: usize = 64 * 1024;
/// Idle poll timeout: long, because every state change that needs the
/// reactor (a queued frame, a drained mailbox, shutdown) wakes it
/// explicitly; the timeout only bounds how late it notices stragglers.
const IO_IDLE_PARK: StdDuration = StdDuration::from_millis(100);
/// Fallback retry cadence while any connection is parked on a saturated
/// holdover (workers nudge earlier; this bounds the worst case).
const BLOCKED_RETRY: StdDuration = StdDuration::from_millis(1);
/// Consecutive re-dials one flush call attempts before handing the
/// destination to the backoff queue (guards against a peer that accepts
/// and instantly resets).
const MAX_FLUSH_REDIALS: u32 = 8;

/// What one registered descriptor means. The reactor keeps these in a
/// per-thread slab; the slab index is the `reactor::Token`.
#[derive(Debug, Clone, Copy)]
enum Registration {
    /// A node's listener (registered once at startup, lives forever — the
    /// OS endpoint survives crash/restart).
    Listener(usize),
    /// An accepted connection: slot index plus the connection's stable id
    /// (the conns vector reorders on removal, ids do not).
    Inbound { slot: usize, conn: u64 },
    /// The pool's dialed connection to a destination.
    Pool(usize),
    /// Free slab entry.
    Free,
}

/// What handling one inbound connection concluded.
enum ConnVerdict {
    Keep,
    /// EOF, reset or an oversized announcement: remove the connection.
    Remove,
}

/// One reactor thread: owns a selector, the slab resolving its tokens, and
/// every slot/destination with `index % io_threads == io_index`.
struct Reactor<'a> {
    shared: &'a Shared,
    io_index: usize,
    poll: reactor::Poll,
    slab: Vec<Registration>,
    free: Vec<reactor::Token>,
    /// Monotonic id source for accepted connections.
    next_conn_id: u64,
    /// Read scratch shared by every connection this thread pumps.
    scratch: Vec<u8>,
    /// Destinations waiting out a dial backoff: (earliest retry, dest).
    backoffs: Vec<(Instant, usize)>,
    events: Vec<reactor::Event>,
}

impl<'a> Reactor<'a> {
    fn new(shared: &'a Shared, io_index: usize, poll: reactor::Poll) -> Self {
        Self {
            shared,
            io_index,
            poll,
            slab: Vec::new(),
            free: Vec::new(),
            next_conn_id: 0,
            scratch: vec![0u8; READ_CHUNK],
            backoffs: Vec::new(),
            events: Vec::new(),
        }
    }

    fn stride(&self) -> usize {
        self.shared.reactors.len()
    }

    fn handle(&self) -> &ReactorHandle {
        &self.shared.reactors[self.io_index]
    }

    fn alloc_token(&mut self, registration: Registration) -> reactor::Token {
        self.shared
            .reactor_registrations
            .fetch_add(1, Ordering::Relaxed);
        self.shared.reactor_tokens.fetch_add(1, Ordering::Relaxed);
        if let Some(token) = self.free.pop() {
            self.slab[token] = registration;
            token
        } else {
            self.slab.push(registration);
            self.slab.len() - 1
        }
    }

    fn free_token(&mut self, token: reactor::Token) {
        debug_assert!(!matches!(self.slab[token], Registration::Free));
        self.slab[token] = Registration::Free;
        self.free.push(token);
        self.shared.reactor_tokens.fetch_sub(1, Ordering::Relaxed);
    }

    /// The reactor loop: park on the selector, then work through dirty
    /// destinations, readiness events, parked holdovers and due re-dials.
    fn run(mut self) {
        let shared = self.shared;
        // Register every owned listener once; the registration lives for
        // the whole cluster (restart reuses the bound endpoint).
        for slot_index in (self.io_index..shared.slots.len()).step_by(self.stride()) {
            let token = self.alloc_token(Registration::Listener(slot_index));
            self.poll
                .register(
                    shared.slots[slot_index].listener.sys_fd(),
                    token,
                    Interest::READ,
                )
                .expect("register a listener");
        }
        let mut dirty: Vec<usize> = Vec::new();
        let mut cleanup: Vec<reactor::Token> = Vec::new();
        let mut corrupt: Vec<(usize, u64)> = Vec::new();
        while !shared.stopping.load(Ordering::SeqCst) {
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            if self.poll.wait(&mut events, timeout).is_err() {
                events.clear();
            }
            // Clearing the wake flag *before* draining the queues pairs
            // with senders pushing *before* swapping the flag: a nudge is
            // either seen by this drain or re-raises the flag for the next
            // wait.
            self.handle().wake_flag.store(false, Ordering::SeqCst);
            if shared.stopping.load(Ordering::SeqCst) {
                break;
            }
            // Tokens whose sockets a crash path closed: reclaim.
            cleanup.clear();
            cleanup.append(&mut self.handle().cleanup.lock());
            for token in cleanup.drain(..) {
                self.free_token(token);
            }
            // Connections a worker's decode rejected: close.
            corrupt.append(&mut self.handle().corrupt.lock());
            for (slot, conn) in corrupt.drain(..) {
                self.close_corrupt_conn(slot, conn);
            }
            // Destinations with freshly queued frames.
            dirty.clear();
            dirty.append(&mut self.handle().dirty.lock());
            for &dest in &dirty {
                shared.pool[dest].enqueued.store(false, Ordering::SeqCst);
                self.flush_pool(dest);
            }
            // Kernel readiness.
            for &event in &events {
                self.dispatch(event);
            }
            self.events = events;
            // Parked holdovers: workers nudge on mailbox room, the timeout
            // bounds the worst case, and a wasted probe is cheap.
            self.retry_blocked();
            // Due dial backoffs.
            self.retry_backoffs();
        }
    }

    /// How long the next selector wait may sleep, given parked connections
    /// and pending dial backoffs.
    fn next_timeout(&self) -> StdDuration {
        let mut timeout = IO_IDLE_PARK;
        let shared = self.shared;
        let any_blocked = (self.io_index..shared.slots.len())
            .step_by(self.stride())
            .any(|slot| shared.slots[slot].blocked_conns.load(Ordering::Relaxed) > 0);
        if any_blocked {
            timeout = timeout.min(BLOCKED_RETRY);
        }
        if let Some(&(earliest, _)) = self.backoffs.iter().min_by_key(|(at, _)| *at) {
            let now = Instant::now();
            timeout = timeout.min(if earliest > now {
                earliest - now
            } else {
                StdDuration::ZERO
            });
        }
        timeout
    }

    fn dispatch(&mut self, event: reactor::Event) {
        let Some(&registration) = self.slab.get(event.token) else {
            self.shared
                .reactor_stale_events
                .fetch_add(1, Ordering::Relaxed);
            return;
        };
        match registration {
            Registration::Listener(slot) => self.accept_conns(slot),
            Registration::Inbound { slot, conn } => self.pump_conn(slot, conn),
            Registration::Pool(dest) => {
                if event.writable {
                    self.flush_pool(dest);
                }
                if event.readable {
                    self.probe_pool_read(dest);
                }
            }
            Registration::Free => {
                // The socket died (crash path) with this event already
                // harvested; tolerated and skipped.
                self.shared
                    .reactor_stale_events
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Accepts every pending connection at `slot`'s listener and registers
    /// it for read readiness.
    fn accept_conns(&mut self, slot_index: usize) {
        let shared = self.shared;
        let slot = &shared.slots[slot_index];
        loop {
            match slot.listener.accept() {
                Ok(stream) => {
                    // Connections to a failed node are accepted and then
                    // starve: frames cut from them are dropped at the crash
                    // flag, the shared crash semantics. The
                    // streams themselves are discarded with the next
                    // fail/restart.
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    let token = self.alloc_token(Registration::Inbound {
                        slot: slot_index,
                        conn: id,
                    });
                    if self
                        .poll
                        .register(stream.sys_fd(), token, Interest::READ)
                        .is_err()
                    {
                        self.free_token(token);
                        continue;
                    }
                    slot.conns.lock().push(InboundConn {
                        stream,
                        buffer: ReassemblyBuffer::with_buffer(shared.arena.take()),
                        pending: None,
                        id,
                        token,
                        reading: true,
                    });
                }
                Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Pumps one inbound connection: retry its holdover, cut buffered
    /// frames, then read until `WouldBlock` — parking (read interest off)
    /// when the mailbox saturates, removing the connection on EOF or an
    /// oversized announcement.
    fn pump_conn(&mut self, slot_index: usize, conn_id: u64) {
        let shared = self.shared;
        let slot = &shared.slots[slot_index];
        let mut conns = slot.conns.lock();
        let Some(position) = conns.iter().position(|conn| conn.id == conn_id) else {
            // Crash path already dropped it; its token arrives via cleanup.
            shared.reactor_stale_events.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let conn = &mut conns[position];
        // A frame held over from a saturated mailbox blocks this connection
        // until it lands: per-connection FIFO is preserved and the unread
        // socket applies transport backpressure to the sender.
        if let Some(held) = conn.pending.take() {
            match shared.offer_input(slot_index, conn_id, held) {
                Delivery::Delivered | Delivery::Dropped => {
                    slot.blocked_conns.fetch_sub(1, Ordering::Relaxed);
                }
                Delivery::Saturated(held) => {
                    conn.pending = Some(held);
                    return; // still parked; read interest stays off
                }
            }
        }
        let verdict = self.drive_conn(slot_index, position, &mut conns);
        if matches!(verdict, ConnVerdict::Remove) {
            self.remove_conn(slot, &mut conns, position);
        }
    }

    /// Cuts buffered frames and reads fresh bytes for the connection at
    /// `position`, managing its read-interest and the slot's blocked count.
    fn drive_conn(
        &mut self,
        slot_index: usize,
        position: usize,
        conns: &mut [InboundConn],
    ) -> ConnVerdict {
        let shared = self.shared;
        let slot = &shared.slots[slot_index];
        let conn = &mut conns[position];
        // Cut whatever already sits in the reassembly buffer *before*
        // reading: a saturation can park a holdover with complete frames
        // still buffered behind it, and those must not wait for the peer to
        // send more bytes.
        match drain_frames(shared, slot_index, conn) {
            FrameDrain::Blocked => {
                self.park_conn(slot, conn);
                return ConnVerdict::Keep;
            }
            FrameDrain::Oversized => return ConnVerdict::Remove,
            FrameDrain::Drained => {}
        }
        loop {
            match conn.stream.read(&mut self.scratch) {
                // EOF: the peer closed (or crashed — a partial frame in the
                // buffer is exactly the mid-frame connection drop case, and
                // is discarded with the buffer).
                Ok(0) => return ConnVerdict::Remove,
                Ok(read) => {
                    conn.buffer.extend_from_slice(&self.scratch[..read]);
                    match drain_frames(shared, slot_index, conn) {
                        // Stop cutting and stop reading: the backlog waits
                        // on the socket (kernel-buffer flow control).
                        FrameDrain::Blocked => {
                            self.park_conn(slot, conn);
                            return ConnVerdict::Keep;
                        }
                        FrameDrain::Oversized => return ConnVerdict::Remove,
                        FrameDrain::Drained => {}
                    }
                }
                Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                // Reset/broken pipe: the peer vanished; partial bytes are
                // dropped with the connection.
                Err(_) => return ConnVerdict::Remove,
            }
        }
        // Fully drained and delivered: make sure read interest is armed.
        if !conn.reading {
            conn.reading = true;
            let _ = self
                .poll
                .reregister(conn.stream.sys_fd(), conn.token, Interest::READ);
        }
        ConnVerdict::Keep
    }

    /// Parks a connection that just took a saturated-mailbox holdover:
    /// drops its read interest (level-triggered readiness would busy-loop)
    /// and counts it for the worker nudge / fallback retry.
    fn park_conn(&mut self, slot: &NodeSlot, conn: &mut InboundConn) {
        slot.blocked_conns.fetch_add(1, Ordering::Relaxed);
        if conn.reading {
            conn.reading = false;
            let _ = self
                .poll
                .reregister(conn.stream.sys_fd(), conn.token, Interest::NONE);
        }
    }

    /// Removes one inbound connection: frees its token, returns its buffers
    /// to the arena, closes the stream (which deregisters it in the
    /// kernel).
    fn remove_conn(&mut self, slot: &NodeSlot, conns: &mut Vec<InboundConn>, position: usize) {
        let conn = conns.swap_remove(position);
        if let Some(held) = conn.pending {
            slot.blocked_conns.fetch_sub(1, Ordering::Relaxed);
            self.shared.arena.give(held);
        }
        self.poll.deregister(conn.stream.sys_fd());
        self.free_token(conn.token);
        self.shared.arena.give(conn.buffer.into_buffer());
    }

    /// Closes a connection a worker reported for carrying an undecodable
    /// frame. It may be gone already (EOF, or its node crashed); the peer's
    /// pool observes the close on its EOF probe and re-dials.
    fn close_corrupt_conn(&mut self, slot_index: usize, conn_id: u64) {
        let slot = &self.shared.slots[slot_index];
        let mut conns = slot.conns.lock();
        if let Some(position) = conns.iter().position(|conn| conn.id == conn_id) {
            self.remove_conn(slot, &mut conns, position);
        }
    }

    /// Retries every owned connection parked on a holdover (cheap when none
    /// is).
    fn retry_blocked(&mut self) {
        let shared = self.shared;
        for slot_index in (self.io_index..shared.slots.len()).step_by(self.stride()) {
            if shared.slots[slot_index]
                .blocked_conns
                .load(Ordering::Relaxed)
                == 0
            {
                continue;
            }
            // Collect ids first: pump_conn re-locks and re-validates.
            let ids: Vec<u64> = {
                let conns = shared.slots[slot_index].conns.lock();
                conns
                    .iter()
                    .filter(|conn| conn.pending.is_some())
                    .map(|conn| conn.id)
                    .collect()
            };
            for id in ids {
                self.pump_conn(slot_index, id);
            }
        }
    }

    /// A pool connection became readable: the peer never sends on this
    /// direction, so readable means EOF/reset (or stray bytes, discarded).
    fn probe_pool_read(&mut self, dest: usize) {
        let shared = self.shared;
        let entry = &shared.pool[dest];
        let mut state = entry.state.lock();
        let Some(conn) = state.conn.as_mut() else {
            return;
        };
        loop {
            match conn.read(&mut self.scratch) {
                Ok(0) => {
                    // Peer closed (typically a crash): drop the connection;
                    // a half-written frame cannot be resumed elsewhere.
                    let token = state.token.take();
                    state.conn = None;
                    state.want_write = false;
                    let PoolState { queue, .. } = &mut *state;
                    queue.drop_partial_front(|frame| shared.arena.give(frame));
                    let pending = !queue.is_empty();
                    drop(state);
                    if let Some(token) = token {
                        self.free_token(token);
                    }
                    if pending {
                        self.flush_pool(dest); // re-dial for the rest
                    }
                    return;
                }
                Ok(_) => continue, // protocol violation; discard the bytes
                Err(error) if error.kind() == ErrorKind::WouldBlock => return,
                Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    let token = state.token.take();
                    state.conn = None;
                    state.want_write = false;
                    let PoolState { queue, .. } = &mut *state;
                    queue.drop_partial_front(|frame| shared.arena.give(frame));
                    let pending = !queue.is_empty();
                    drop(state);
                    if let Some(token) = token {
                        self.free_token(token);
                    }
                    if pending {
                        self.flush_pool(dest);
                    }
                    return;
                }
            }
        }
    }

    /// Flushes (and, when necessary, dials) the pool connection to `dest`,
    /// coalescing every queued frame into vectored writes.
    fn flush_pool(&mut self, dest: usize) {
        let shared = self.shared;
        let entry = &shared.pool[dest];
        let mut state = entry.state.lock();
        if shared.slots[dest].failed.load(Ordering::SeqCst) {
            // Crash semantics: queued frames to a dead node are dropped.
            // (`fail_node` usually beat us to it; this covers the race.)
            let token = state.token.take();
            state.queue.clear(|frame| shared.arena.give(frame));
            state.conn = None;
            state.want_write = false;
            state.attempt = 0;
            state.next_dial = None;
            drop(state);
            if let Some(token) = token {
                self.free_token(token);
            }
            return;
        }
        let mut redials = 0u32;
        loop {
            if state.queue.is_empty() {
                // Nothing to write: disarm write interest so the idle
                // writable socket stops waking the selector.
                if state.want_write {
                    state.want_write = false;
                    if let (Some(conn), Some(token)) = (&state.conn, state.token) {
                        let _ = self.poll.reregister(conn.sys_fd(), token, Interest::READ);
                    }
                }
                return;
            }
            if state.conn.is_none() {
                if let Some(earliest) = state.next_dial {
                    if Instant::now() < earliest {
                        // Still backing off; poll timeout covers the retry.
                        self.backoffs.push((earliest, dest));
                        return;
                    }
                }
                match Stream::connect(&shared.slots[dest].addr) {
                    Ok(stream) => {
                        // Read interest from the start: the only inbound
                        // traffic on a pool connection is EOF/reset, which
                        // must be noticed promptly to re-dial.
                        let token = self.alloc_token(Registration::Pool(dest));
                        if self
                            .poll
                            .register(stream.sys_fd(), token, Interest::READ)
                            .is_err()
                        {
                            self.free_token(token);
                            return;
                        }
                        state.conn = Some(stream);
                        state.token = Some(token);
                        state.attempt = 0;
                        state.next_dial = None;
                        state.want_write = false;
                        shared.dials.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // Refused (or otherwise failed) dial: exponential
                        // backoff, capped; the queued frames wait.
                        state.attempt = state.attempt.saturating_add(1);
                        let exponent = state.attempt.saturating_sub(1).min(16);
                        let backoff = shared
                            .dial_backoff
                            .saturating_mul(1u32 << exponent)
                            .min(shared.dial_backoff_max);
                        let earliest = Instant::now() + backoff;
                        state.next_dial = Some(earliest);
                        shared.dial_retries.fetch_add(1, Ordering::Relaxed);
                        self.backoffs.push((earliest, dest));
                        return;
                    }
                }
            }
            // Vectored flush: every queued frame (up to the iovec cap) in
            // one syscall, resuming partial writes mid-frame and mid-iovec.
            let mut conn_died = false;
            {
                let PoolState { conn, queue, .. } = &mut *state;
                let stream = conn.as_mut().expect("dialed above");
                loop {
                    let mut slices = [IoSlice::new(&[]); MAX_WRITE_VECS];
                    let count = queue.fill_io_slices(&mut slices);
                    if count == 0 {
                        break;
                    }
                    match stream.write_vectored(&slices[..count]) {
                        Ok(0) => {
                            conn_died = true;
                            break;
                        }
                        Ok(written) => {
                            queue.advance(written, |frame| shared.arena.give(frame));
                        }
                        Err(error) if error.kind() == ErrorKind::WouldBlock => break,
                        Err(error) if error.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn_died = true;
                            break;
                        }
                    }
                }
            }
            if conn_died {
                // Reset/broken pipe (typically the destination crashed): a
                // frame already partially on the wire cannot be resumed on
                // a new connection; drop it and re-dial for the rest.
                let token = state.token.take();
                state.conn = None;
                state.want_write = false;
                state
                    .queue
                    .drop_partial_front(|frame| shared.arena.give(frame));
                if let Some(token) = token {
                    self.free_token(token);
                }
                redials += 1;
                if redials >= MAX_FLUSH_REDIALS {
                    let earliest = Instant::now() + shared.dial_backoff;
                    state.next_dial = Some(earliest);
                    self.backoffs.push((earliest, dest));
                    return;
                }
                continue; // re-dial and keep flushing
            }
            if state.queue.is_empty() {
                if state.want_write {
                    state.want_write = false;
                    if let (Some(conn), Some(token)) = (&state.conn, state.token) {
                        let _ = self.poll.reregister(conn.sys_fd(), token, Interest::READ);
                    }
                }
            } else if !state.want_write {
                // Blocked on a full socket buffer: arm write interest so
                // the selector reports the drain.
                state.want_write = true;
                if let (Some(conn), Some(token)) = (&state.conn, state.token) {
                    let _ =
                        self.poll
                            .reregister(conn.sys_fd(), token, Interest::READ.with_write(true));
                }
            }
            return;
        }
    }

    /// Re-flushes destinations whose dial backoff expired.
    fn retry_backoffs(&mut self) {
        if self.backoffs.is_empty() {
            return;
        }
        let now = Instant::now();
        let due: Vec<usize> = {
            let mut due = Vec::new();
            self.backoffs.retain(|&(earliest, dest)| {
                if earliest <= now {
                    due.push(dest);
                    false
                } else {
                    true
                }
            });
            due
        };
        for dest in due {
            self.flush_pool(dest);
        }
    }
}

/// What draining a connection's reassembly buffer concluded.
enum FrameDrain {
    /// Every complete frame was cut and offered; only a partial frame (or
    /// nothing) remains.
    Drained,
    /// A frame was refused by the saturated mailbox and parked in the
    /// connection's holdover slot; stop reading this connection.
    Blocked,
    /// The stream announced an oversized frame; the reject was counted and
    /// the connection must be dropped.
    Oversized,
}

/// Cuts every complete frame currently buffered on `conn`, copies each into
/// an arena buffer and offers it — still encoded — to the mailbox.
fn drain_frames(shared: &Shared, slot_index: usize, conn: &mut InboundConn) -> FrameDrain {
    loop {
        match conn.buffer.next_raw_frame() {
            Ok(Some(frame)) => {
                let mut bytes = shared.arena.take();
                bytes.extend_from_slice(frame);
                match shared.offer_input(slot_index, conn.id, bytes) {
                    Delivery::Delivered | Delivery::Dropped => {}
                    Delivery::Saturated(held) => {
                        conn.pending = Some(held);
                        return FrameDrain::Blocked;
                    }
                }
            }
            Ok(None) => return FrameDrain::Drained, // mid-frame: read more
            Err(_) => {
                // Oversized announcement, rejected from the header alone:
                // count it on the receiving node; the caller drops the
                // connection.
                shared.record_oversized_frame(slot_index);
                return FrameDrain::Oversized;
            }
        }
    }
}

/// The timer thread: advances every worker's wheel once per tick and mails
/// due firings to their hosts (mark-exempt, like driver injections).
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
            if slot.inbox.push(SocketInput::Timer { kind: timer.kind }) {
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
            shuffle_period: Duration::from_millis(50),
            ..config.pss
        };
        config.slicing.gossip_period = Duration::from_millis(50);
        config.replication.anti_entropy_period = Duration::from_millis(100);
        config
    }

    fn unix_config() -> SocketClusterConfig {
        SocketClusterConfig {
            transport: SocketTransportKind::Unix,
            ..SocketClusterConfig::default()
        }
    }

    #[test]
    fn put_then_get_roundtrip_over_tcp_loopback() {
        let cluster = SocketCluster::start(4, fast_config(4, 1), 11);
        std::thread::sleep(StdDuration::from_millis(300));
        let key = Key::from_user_key("socket");
        cluster
            .put(
                key,
                Version::new(1),
                Value::from_bytes(b"value"),
                Duration::from_secs(10),
            )
            .expect("put should be acknowledged");
        let read = cluster
            .get(key, None, Duration::from_secs(10))
            .expect("get should complete");
        assert_eq!(read.unwrap().value.as_slice(), b"value");
        assert!(
            cluster.dial_count() > 0,
            "protocol traffic must have dialed real connections"
        );
        assert_eq!(cluster.wire_reject_count(), 0);
        let nodes = cluster.shutdown();
        assert_eq!(nodes.len(), 4);
        let replicas = nodes
            .iter()
            .filter(|n| n.store().get_latest(key).is_some())
            .count();
        assert!(replicas >= 1);
    }

    #[cfg(unix)]
    #[test]
    fn put_then_get_roundtrip_over_unix_domain_sockets() {
        let spec = ClusterSpec::new(fast_config(4, 1), vec![400, 300, 200, 100], 13);
        let cluster = SocketCluster::start_spec_with(&spec, unix_config());
        std::thread::sleep(StdDuration::from_millis(300));
        let key = Key::from_user_key("uds");
        cluster
            .put(
                key,
                Version::new(1),
                Value::from_bytes(b"value"),
                Duration::from_secs(10),
            )
            .expect("put should be acknowledged");
        let read = cluster
            .get(key, None, Duration::from_secs(10))
            .expect("get should complete");
        assert_eq!(read.unwrap().value.as_slice(), b"value");
        cluster.shutdown();
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

    #[test]
    fn spec_started_cluster_serves_requests_through_the_environment() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            21,
        );
        let mut cluster = SocketCluster::start_spec(&spec);
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
    fn failed_nodes_stop_answering_and_connections_drop() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 22);
        let mut cluster = SocketCluster::start_spec(&spec);
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
    fn restarted_node_rejoins_and_reestablishes_connections() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(4, 1),
            vec![400, 300, 200, 100],
            25,
        );
        let mut cluster = SocketCluster::start_spec(&spec);
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
        assert!(!cluster.drain_effects(Duration::from_secs(10)).is_empty());
        let dials_before_restart = cluster.dial_count();
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
        let replies = cluster.drain_effects(Duration::from_secs(10));
        assert!(
            !replies.is_empty(),
            "a restarted contact must answer requests"
        );
        assert!(
            cluster.dial_count() > dials_before_restart,
            "post-restart traffic must re-dial the closed connections"
        );
        let nodes = cluster.shutdown();
        let restarted = nodes.iter().find(|n| n.id() == victim).unwrap();
        assert_eq!(restarted.store().len(), 0, "volatile state must be lost");
        assert!(restarted.slice().is_some(), "membership rejoins warm");
    }

    #[test]
    fn bounded_mailboxes_backpressure_through_the_socket_without_loss() {
        let spec = ClusterSpec::new(fast_config(6, 1), vec![500; 6], 31);
        let mut cluster = SocketCluster::start_spec_with(
            &spec,
            SocketClusterConfig {
                workers: 2,
                mailbox_capacity: 1,
                ..SocketClusterConfig::default()
            },
        );
        cluster.set_drain_idle_grace(Duration::from_millis(300));
        let burst = 18u64;
        for sequence in 0..burst {
            Environment::submit_client_request(
                &mut cluster,
                9,
                NodeId::new(sequence % 6),
                ClientRequest::Put {
                    id: RequestId::new(9, sequence),
                    key: Key::from_user_key(&format!("burst-{sequence}")),
                    version: Version::new(1),
                    value: Value::from_bytes(b"pressure"),
                },
            );
        }
        let replies = cluster.drain_effects(Duration::from_secs(20));
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
        for sequence in 0..burst {
            let key = Key::from_user_key(&format!("burst-{sequence}"));
            assert!(
                nodes.iter().any(|n| n.store().get_latest(key).is_some()),
                "burst-{sequence} was lost under saturation"
            );
        }
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
            let deadline = Instant::now() + StdDuration::from_secs(5);
            while cluster.dial_count() == dials && Instant::now() < deadline {
                std::thread::sleep(StdDuration::from_millis(5));
            }
            assert!(
                cluster.dial_count() > dials,
                "cycle {cycle}: the re-dial after restart was never observed"
            );
        }
        std::thread::sleep(StdDuration::from_millis(200)); // cleanup lists drain
                                                           // Every legitimate registration in this 4-node cluster: one listener
                                                           // per node, one pooled dial per destination, and the matching
                                                           // accepted connection at that destination — plus slack for a
                                                           // re-dial racing an unreaped predecessor. Tokens a crash failed to
                                                           // free would accumulate per cycle and push the live count past this.
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
        let cluster = SocketCluster::start_spec_with(
            &spec,
            SocketClusterConfig {
                workers: 1,
                mailbox_capacity: 1,
                ..SocketClusterConfig::default()
            },
        );
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
        let mut raw = Stream::connect(&cluster.shared.slots[0].addr).unwrap();
        for _ in 0..total {
            raw.write_all(&frame).unwrap();
        }
        let deadline = Instant::now() + StdDuration::from_secs(5);
        while cluster.saturation_events() == 0 && Instant::now() < deadline {
            std::thread::sleep(StdDuration::from_millis(1));
        }
        assert!(
            cluster.saturation_events() > 0,
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

    /// The reserved-id guard of the other runtimes, mirrored here.
    #[test]
    #[should_panic(expected = "reserved for the blocking put/get API")]
    fn reserved_blocking_client_id_is_rejected() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(3, 1), vec![300, 200, 100], 24);
        let mut cluster = SocketCluster::start_spec(&spec);
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
        SocketCluster::start_spec_with(
            &spec,
            SocketClusterConfig {
                workers: 1,
                ..SocketClusterConfig::default()
            },
        )
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
        let addr = &cluster.shared.slots[0].addr;
        // Intact framing, flipped tag byte: the reactor cuts and mails it,
        // the worker's decode rejects it.
        let mut corrupt = push_frame(Key::from_user_key("never-stored"));
        corrupt[16] ^= 0x80;
        let mut raw = Stream::connect(addr).unwrap();
        raw.write_all(&corrupt).unwrap();
        assert!(
            observes_eof(&mut raw),
            "the corrupt frame's connection must be closed"
        );
        assert_eq!(cluster.wire_reject_count(), 1);
        // The node keeps serving: a fresh connection's frame is dispatched.
        let key = Key::from_user_key("served-after-reject");
        let mut fresh = Stream::connect(addr).unwrap();
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
        let mut raw = Stream::connect(&cluster.shared.slots[1].addr).unwrap();
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
        let mut raw = Stream::connect(&cluster.shared.slots[2].addr).unwrap();
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

    #[test]
    fn crash_cycles_under_traffic_return_every_frame_buffer_to_the_arena() {
        let spec = ClusterSpec::new(quiet_config(6), vec![500; 6], 37);
        let mut cluster = SocketCluster::start_spec_with(
            &spec,
            SocketClusterConfig {
                workers: 1,
                // Small enough that floods park holdovers on connections.
                mailbox_capacity: 4,
                ..SocketClusterConfig::default()
            },
        );
        let victim = NodeId::new(5);
        let timeout = Duration::from_secs(10);
        // One cycle: a pipelined burst of puts floods the single slice, the
        // victim crashes with frames in its mailbox, holdovers and outbound
        // queue, and comes back.
        let mut sequence = 0u64;
        let mut cycle = |cluster: &mut SocketCluster, burst: u64| {
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
        // Every buffer ever allocated idles in the pool or is a live
        // connection's reassembly buffer — true whenever no frame is in
        // flight. A discard path that drops a frame instead of returning it
        // breaks this for good.
        let unaccounted = |cluster: &SocketCluster| {
            let shared = &cluster.shared;
            let reassembling: usize = shared.slots.iter().map(|s| s.conns.lock().len()).sum();
            shared.arena.fresh_buffers() as i64
                - (shared.arena.idle_buffers() + reassembling) as i64
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
        let headroom: Vec<Vec<u8>> = (0..64).map(|_| cluster.shared.arena.take()).collect();
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

    #[test]
    fn error_display_is_informative() {
        assert!(SocketRuntimeError::Timeout
            .to_string()
            .contains("timed out"));
        assert!(SocketRuntimeError::Shutdown
            .to_string()
            .contains("shut down"));
    }
}
