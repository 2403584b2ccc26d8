//! The socket transport: every node behind its own listener, frames written
//! to pooled connections by readiness reactors and cut back out of the
//! byte stream by per-connection reassembly buffers.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use parking_lot::Mutex;

use crate::cluster::{Cluster, Delivery, Input, PoolConfig, Shared, Transport};
use crate::outbound::{OutboundQueue, MAX_WRITE_VECS};
use crate::reactor::{self, Interest};
use crate::transport::{Listener, PeerAddr, SocketTransportKind, Stream};
use crate::ReassemblyBuffer;

/// Knobs of the socket cluster ([`SocketCluster`](crate::SocketCluster)).
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketClusterConfig {
    /// Worker threads multiplexing the node hosts. `0` (the default) picks
    /// `min(available cores, 8)`.
    pub workers: usize,
    /// Reactor threads polling the sockets (accepts, reads, writes, dials).
    /// Nodes and pool connections are sharded over them by slot index. `0`
    /// (the default) picks one.
    pub io_threads: usize,
    /// High-water mark of each node's mailbox (`0` = unbounded). A saturated
    /// node's connections stop being read — the bytes wait in the kernel
    /// socket buffer, so backpressure propagates to the sender's transport.
    /// Client submissions, driver injections and timer firings always land.
    pub mailbox_capacity: usize,
    /// Socket family carrying the frames.
    pub transport: SocketTransportKind,
}

/// First retry delay after a refused dial; doubles per consecutive failure.
const DIAL_BACKOFF: StdDuration = StdDuration::from_millis(10);
/// Upper bound on the dial retry delay.
const DIAL_BACKOFF_MAX: StdDuration = StdDuration::from_millis(500);

/// Monotonic suffix distinguishing the UDS directories of clusters started
/// by one process.
static UDS_CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Frames travel over real sockets: per-node listeners, a lazily dialed
/// connection pool, readiness reactors and per-connection reassembly.
pub struct Socket {
    endpoints: Vec<Endpoint>,
    pool: Vec<PoolEntry>,
    /// Slots and pool destinations are owned by reactor
    /// `index % reactors.len()`.
    reactors: Vec<ReactorHandle>,
    /// Successful dials (lazy connects and post-restart re-connects).
    dials: AtomicU64,
    /// Refused dials awaiting a backoff retry.
    dial_retries: AtomicU64,
    /// Live reactor slab tokens (registrations minus reclaims), across all
    /// reactor threads.
    live_tokens: AtomicU64,
    /// Cumulative reactor registrations (listeners, inbound conns, dials).
    registrations: AtomicU64,
    /// Readiness events whose token no longer resolved to a live socket
    /// (the socket raced a crash path); tolerated and skipped.
    stale_events: AtomicU64,
    /// The Unix-domain socket directory, removed with the transport.
    _uds_dir: Option<UdsDir>,
}

/// A node's network presence: its listener and the connections accepted at
/// it. The listener stays bound across crash and restart, like the OS
/// endpoint of a restarted process.
pub(crate) struct Endpoint {
    pub(crate) addr: PeerAddr,
    listener: Listener,
    pub(crate) conns: Mutex<Vec<InboundConn>>,
    /// Connections currently parked on a saturated-mailbox holdover (only
    /// mutated under the `conns` lock; read lock-free by workers deciding
    /// whether to nudge the reactor after draining the mailbox).
    blocked_conns: AtomicU64,
}

/// One accepted connection at a node's listener: the byte stream, its
/// reassembly buffer, and at most one cut frame the saturated mailbox
/// refused (the read-side backpressure holdover).
pub(crate) struct InboundConn {
    stream: Stream,
    buffer: ReassemblyBuffer,
    pending: Option<Input>,
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

/// One readiness selector per reactor thread, made before the shared state
/// (which keeps their wake handles) and moved into the reactor threads.
pub struct Selectors(Vec<reactor::Poll>);

/// Removes the Unix-domain socket directory when the transport goes away.
struct UdsDir(PathBuf);

impl Drop for UdsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Socket {
    /// The reactor thread owning `index` (a slot or a pool destination).
    fn reactor_of(&self, index: usize) -> &ReactorHandle {
        &self.reactors[index % self.reactors.len()]
    }

    /// The listener endpoint of slot `index` (tests dial it directly).
    #[cfg(test)]
    pub(crate) fn endpoint(&self, index: usize) -> &Endpoint {
        &self.endpoints[index]
    }

    /// Inbound connections currently open, cluster-wide.
    #[cfg(test)]
    pub(crate) fn live_conns(&self) -> usize {
        self.endpoints.iter().map(|e| e.conns.lock().len()).sum()
    }
}

impl Transport for Socket {
    type Config = SocketClusterConfig;
    type Outbox = ();
    type Threads = Selectors;

    const WORKER_THREAD: &'static str = "dataflasks-sock-worker";
    const TIMER_THREAD: &'static str = "dataflasks-sock-timer";
    const CONTACT_SEED: u64 = 0x50C4;

    fn pool(config: &SocketClusterConfig) -> PoolConfig {
        PoolConfig {
            workers: config.workers,
            mailbox_capacity: config.mailbox_capacity,
        }
    }

    /// Binds every node's listener (in a fresh per-cluster directory for
    /// Unix-domain sockets) and creates one selector per reactor thread:
    /// their wake handles live in the shared state, the selectors move into
    /// the reactor threads.
    fn build(config: &SocketClusterConfig, nodes: usize) -> (Self, Selectors) {
        let uds_dir = match config.transport {
            SocketTransportKind::Tcp => None,
            SocketTransportKind::Unix => {
                let dir = std::env::temp_dir().join(format!(
                    "dataflasks-net-{}-{}",
                    std::process::id(),
                    UDS_CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).expect("create the UDS socket directory");
                Some(UdsDir(dir))
            }
        };
        let endpoints = (0..nodes)
            .map(|index| {
                let dir = uds_dir.as_ref().map(|dir| dir.0.as_path());
                let (listener, addr) =
                    Listener::bind(config.transport, index, dir).expect("bind a node listener");
                Endpoint {
                    addr,
                    listener,
                    conns: Mutex::new(Vec::new()),
                    blocked_conns: AtomicU64::new(0),
                }
            })
            .collect();
        let pool = (0..nodes)
            .map(|_| PoolEntry {
                state: Mutex::new(PoolState::default()),
                enqueued: AtomicBool::new(false),
            })
            .collect();
        let polls: Vec<reactor::Poll> = (0..config.io_threads.max(1))
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
        let socket = Self {
            endpoints,
            pool,
            reactors,
            dials: AtomicU64::new(0),
            dial_retries: AtomicU64::new(0),
            live_tokens: AtomicU64::new(0),
            registrations: AtomicU64::new(0),
            stale_events: AtomicU64::new(0),
            _uds_dir: uds_dir,
        };
        (socket, Selectors(polls))
    }

    fn spawn(shared: &Arc<Shared<Self>>, selectors: Selectors) -> Vec<JoinHandle<()>> {
        selectors
            .0
            .into_iter()
            .enumerate()
            .map(|(index, poll)| {
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("dataflasks-sock-io-{index}"))
                    .spawn(move || Reactor::new(&shared, index, poll).run())
                    .expect("spawn reactor thread")
            })
            .collect()
    }

    /// Queues the frame on `to`'s pool connection and marks the destination
    /// dirty for its reactor (once per flood, not once per frame). Frames to
    /// crashed or unknown destinations are dropped.
    fn send(shared: &Shared<Self>, to: usize, frame: Vec<u8>, _outbox: &mut ()) {
        let net = &shared.transport;
        let (Some(slot), Some(entry)) = (shared.slots.get(to), net.pool.get(to)) else {
            shared.arena.give(frame);
            return;
        };
        let mut state = entry.state.lock();
        // The crash check must happen under the pool-state lock: a crash
        // raises the flag *before* purging the outbox under this same lock,
        // so a sender either observes the flag (and drops) or enqueues
        // before the purge (and is swept with the rest) — a stale pre-crash
        // frame can never reach the restarted incarnation.
        if slot.failed.load(Ordering::SeqCst) {
            drop(state);
            shared.arena.give(frame);
            return;
        }
        state.queue.push(frame);
        drop(state);
        if !entry.enqueued.swap(true, Ordering::SeqCst) {
            let handle = net.reactor_of(to);
            handle.dirty.lock().push(to);
            handle.wake();
        }
    }

    /// Nothing is held on the sending side: a saturated node's connections
    /// stop being read, and the kernel socket buffers do the holding.
    fn retry(_shared: &Shared<Self>, _outbox: &mut ()) -> bool {
        false
    }

    /// Mailbox room may have opened for a connection parked on a saturated
    /// holdover; nudge the reactor so the retry does not wait for its
    /// fallback timeout.
    fn after_round(shared: &Shared<Self>, slot: usize) {
        let net = &shared.transport;
        if net.endpoints[slot].blocked_conns.load(Ordering::Relaxed) > 0 {
            net.reactor_of(slot).wake();
        }
    }

    /// Only the reactor may touch the selector, so it does the closing; the
    /// peer's pool observes the EOF and re-dials.
    fn close_conn(shared: &Shared<Self>, slot: usize, conn: u64) {
        let handle = shared.transport.reactor_of(slot);
        handle.corrupt.lock().push((slot, conn));
        handle.wake();
    }

    /// The network's view of a crashed process: the mailbox crash runs under
    /// the connections lock (the reactor offers frames under it, so none is
    /// in flight towards the mailbox while the node goes down), then every
    /// inbound stream and the pool's outgoing connection close with their
    /// queued frames. Dropping a stream closes it at once and the kernel
    /// drops the fd from the readiness set; only the slab tokens remain, and
    /// the owning reactor — the sole slab mutator — reclaims them. A restart
    /// re-establishes connectivity from scratch: peers re-dial lazily on
    /// their next send.
    fn crash(shared: &Shared<Self>, slot: usize, crash_mailbox: impl FnOnce()) {
        let net = &shared.transport;
        let endpoint = &net.endpoints[slot];
        let mut conns = endpoint.conns.lock();
        crash_mailbox();
        let mut stale = Vec::with_capacity(conns.len());
        for conn in conns.drain(..) {
            stale.push(conn.token);
            shared.arena.give(conn.buffer.into_buffer());
            if let Some(held) = conn.pending {
                shared.discard(held);
            }
        }
        endpoint.blocked_conns.store(0, Ordering::SeqCst);
        drop(conns);
        let entry = &net.pool[slot];
        let mut state = entry.state.lock();
        stale.extend(state.token.take());
        state.queue.clear(|frame| shared.arena.give(frame));
        *state = PoolState::default();
        drop(state);
        entry.enqueued.store(false, Ordering::SeqCst);
        if !stale.is_empty() {
            let handle = net.reactor_of(slot);
            handle.cleanup.lock().extend(stale);
            handle.wake();
        }
    }

    fn wake_all(shared: &Shared<Self>) {
        for handle in &shared.transport.reactors {
            handle.waker.wake();
        }
    }
}

/// Counts an oversized announcement the reactor rejected from the header
/// alone, on the cluster and on the owning node's `NodeStats`.
fn record_oversized_frame(shared: &Shared<Socket>, slot: usize) {
    shared.wire_rejects.fetch_add(1, Ordering::Relaxed);
    shared.slots[slot]
        .host
        .lock()
        .node_mut()
        .record_wire_reject();
}

impl Cluster<Socket> {
    /// Successful outgoing dials since start (lazy first connects plus
    /// post-crash re-connects).
    #[must_use]
    pub fn dial_count(&self) -> u64 {
        self.shared.transport.dials.load(Ordering::Relaxed)
    }

    /// Refused dials that were scheduled for a backoff retry.
    #[must_use]
    pub fn dial_retry_count(&self) -> u64 {
        self.shared.transport.dial_retries.load(Ordering::Relaxed)
    }

    /// Live reactor registrations (listeners + inbound connections + pool
    /// dials) across all reactor threads. Crash/restart churn must return
    /// this to listeners-plus-live-connections — a monotonic climb would
    /// mean leaked (stale) tokens.
    #[must_use]
    pub fn reactor_live_tokens(&self) -> u64 {
        self.shared.transport.live_tokens.load(Ordering::Relaxed)
    }

    /// Cumulative reactor registrations since start.
    #[must_use]
    pub fn reactor_registration_count(&self) -> u64 {
        self.shared.transport.registrations.load(Ordering::Relaxed)
    }

    /// Readiness events whose token no longer resolved to a live socket
    /// (the socket raced a crash path and was already closed); these are
    /// tolerated and skipped, never misrouted.
    #[must_use]
    pub fn reactor_stale_event_count(&self) -> u64 {
        self.shared.transport.stale_events.load(Ordering::Relaxed)
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
    shared: &'a Shared<Socket>,
    /// `shared.transport`.
    net: &'a Socket,
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
    fn new(shared: &'a Shared<Socket>, io_index: usize, poll: reactor::Poll) -> Self {
        Self {
            shared,
            net: &shared.transport,
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
        self.net.reactors.len()
    }

    fn handle(&self) -> &ReactorHandle {
        &self.net.reactors[self.io_index]
    }

    fn alloc_token(&mut self, registration: Registration) -> reactor::Token {
        self.net.registrations.fetch_add(1, Ordering::Relaxed);
        self.net.live_tokens.fetch_add(1, Ordering::Relaxed);
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
        self.net.live_tokens.fetch_sub(1, Ordering::Relaxed);
    }

    /// The reactor loop: park on the selector, then work through dirty
    /// destinations, readiness events, parked holdovers and due re-dials.
    fn run(mut self) {
        let (shared, net) = (self.shared, self.net);
        // Register every owned listener once; the registration lives for
        // the whole cluster (restart reuses the bound endpoint).
        for slot_index in (self.io_index..net.endpoints.len()).step_by(self.stride()) {
            let token = self.alloc_token(Registration::Listener(slot_index));
            self.poll
                .register(
                    net.endpoints[slot_index].listener.sys_fd(),
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
                net.pool[dest].enqueued.store(false, Ordering::SeqCst);
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
        let endpoints = &self.net.endpoints;
        let any_blocked = (self.io_index..endpoints.len())
            .step_by(self.stride())
            .any(|slot| endpoints[slot].blocked_conns.load(Ordering::Relaxed) > 0);
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
            self.net.stale_events.fetch_add(1, Ordering::Relaxed);
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
                self.net.stale_events.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Accepts every pending connection at `slot`'s listener and registers
    /// it for read readiness.
    fn accept_conns(&mut self, slot_index: usize) {
        let endpoint = &self.net.endpoints[slot_index];
        loop {
            match endpoint.listener.accept() {
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
                    endpoint.conns.lock().push(InboundConn {
                        stream,
                        buffer: ReassemblyBuffer::with_buffer(self.shared.arena.take()),
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
        let endpoint = &self.net.endpoints[slot_index];
        let mut conns = endpoint.conns.lock();
        let Some(position) = conns.iter().position(|conn| conn.id == conn_id) else {
            // Crash path already dropped it; its token arrives via cleanup.
            self.net.stale_events.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let conn = &mut conns[position];
        // A frame held over from a saturated mailbox blocks this connection
        // until it lands: per-connection FIFO is preserved and the unread
        // socket applies transport backpressure to the sender.
        if let Some(held) = conn.pending.take() {
            match self.shared.offer(slot_index, held) {
                Delivery::Delivered | Delivery::Dropped => {
                    endpoint.blocked_conns.fetch_sub(1, Ordering::Relaxed);
                }
                Delivery::Saturated(held) => {
                    conn.pending = Some(held);
                    return; // still parked; read interest stays off
                }
            }
        }
        let verdict = self.drive_conn(slot_index, position, &mut conns);
        if matches!(verdict, ConnVerdict::Remove) {
            self.remove_conn(endpoint, &mut conns, position);
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
        let endpoint = &self.net.endpoints[slot_index];
        let conn = &mut conns[position];
        // Cut whatever already sits in the reassembly buffer *before*
        // reading: a saturation can park a holdover with complete frames
        // still buffered behind it, and those must not wait for the peer to
        // send more bytes.
        match drain_frames(shared, slot_index, conn) {
            FrameDrain::Blocked => {
                self.park_conn(endpoint, conn);
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
                            self.park_conn(endpoint, conn);
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
    fn park_conn(&mut self, endpoint: &Endpoint, conn: &mut InboundConn) {
        endpoint.blocked_conns.fetch_add(1, Ordering::Relaxed);
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
    fn remove_conn(&mut self, endpoint: &Endpoint, conns: &mut Vec<InboundConn>, position: usize) {
        let conn = conns.swap_remove(position);
        if let Some(held) = conn.pending {
            endpoint.blocked_conns.fetch_sub(1, Ordering::Relaxed);
            self.shared.discard(held);
        }
        self.poll.deregister(conn.stream.sys_fd());
        self.free_token(conn.token);
        self.shared.arena.give(conn.buffer.into_buffer());
    }

    /// Closes a connection a worker reported for carrying an undecodable
    /// frame. It may be gone already (EOF, or its node crashed); the peer's
    /// pool observes the close on its EOF probe and re-dials.
    fn close_corrupt_conn(&mut self, slot_index: usize, conn_id: u64) {
        let endpoint = &self.net.endpoints[slot_index];
        let mut conns = endpoint.conns.lock();
        if let Some(position) = conns.iter().position(|conn| conn.id == conn_id) {
            self.remove_conn(endpoint, &mut conns, position);
        }
    }

    /// Retries every owned connection parked on a holdover (cheap when none
    /// is).
    fn retry_blocked(&mut self) {
        let endpoints = &self.net.endpoints;
        for slot_index in (self.io_index..endpoints.len()).step_by(self.stride()) {
            if endpoints[slot_index].blocked_conns.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // Collect ids first: pump_conn re-locks and re-validates.
            let ids: Vec<u64> = {
                let conns = endpoints[slot_index].conns.lock();
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
        let entry = &self.net.pool[dest];
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
        let (shared, net) = (self.shared, self.net);
        let entry = &net.pool[dest];
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
                match Stream::connect(&net.endpoints[dest].addr) {
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
                        net.dials.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // Refused (or otherwise failed) dial: exponential
                        // backoff, capped; the queued frames wait.
                        state.attempt = state.attempt.saturating_add(1);
                        let exponent = state.attempt.saturating_sub(1).min(16);
                        let backoff = DIAL_BACKOFF
                            .saturating_mul(1u32 << exponent)
                            .min(DIAL_BACKOFF_MAX);
                        let earliest = Instant::now() + backoff;
                        state.next_dial = Some(earliest);
                        net.dial_retries.fetch_add(1, Ordering::Relaxed);
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
                    let earliest = Instant::now() + DIAL_BACKOFF;
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
fn drain_frames(shared: &Shared<Socket>, slot_index: usize, conn: &mut InboundConn) -> FrameDrain {
    loop {
        match conn.buffer.next_raw_frame() {
            Ok(Some(frame)) => {
                let mut bytes = shared.arena.take();
                bytes.extend_from_slice(frame);
                let conn_id = Some(conn.id);
                let input = Input::Frame {
                    bytes,
                    conn: conn_id,
                };
                match shared.offer(slot_index, input) {
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
                record_oversized_frame(shared, slot_index);
                return FrameDrain::Oversized;
            }
        }
    }
}
