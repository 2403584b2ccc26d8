//! The sans-io environment layer.
//!
//! Node handlers never perform IO and never allocate per-dispatch result
//! vectors: they write the effects of handling one input — protocol sends,
//! client replies, timer re-arms — into an [`Effects`] sink owned by the
//! caller. Each thread that dispatches (the simulator's event loop, each
//! worker of the worker-pool runtime) owns one reusable [`DispatchScratch`]
//! — an [`EffectBuffer`] plus the frame walk's scratch — and lends it to
//! whichever node it dispatches next, so steady-state dispatch reuses one
//! allocation, warm in that thread's cache, for the thread's whole lifetime.
//!
//! The pieces that live here:
//!
//! * [`Effects`] / [`EffectBuffer`] — the sink node handlers write into,
//! * [`DispatchScratch`] — the memory of one dispatch round, owned by the
//!   dispatching thread,
//! * [`NodeHost`] — a node bundled with the dispatch loop every environment
//!   previously reimplemented (deliver a message, fire a timer, submit a
//!   client request, hand each effect to a routing callback),
//! * [`Environment`] — the driver interface environments expose, so harness
//!   code (experiments, parity tests, future schedulers) can drive a cluster
//!   without knowing whether it is simulated or concurrent,
//! * [`ClusterSpec`] — a deterministic cluster description (capacities,
//!   seed, configuration) that every environment can materialise
//!   identically, which is what makes cross-environment parity testable.

use std::mem;

use dataflasks_membership::NodeDescriptor;
use dataflasks_store::{DataStore, ShardedStore};
use dataflasks_types::{Duration, NodeConfig, NodeId, NodeProfile, SimTime};

use crate::message::{ClientId, ClientReply, ClientRequest, Message, Output, TimerKind};
use crate::node::DataFlasksNode;
use crate::wire::{walk_frame, FrameEntry, WireError};

/// The store backing nodes materialised by [`ClusterSpec`] and the stock
/// environments: a key-range [`ShardedStore`] over in-memory shards, sized by
/// [`NodeConfig::store_shards`].
pub type DefaultStore = ShardedStore;

/// Sink for the effects produced while a node handles one input.
///
/// Handlers call the `emit_*` methods instead of returning collections; the
/// implementation decides whether effects are buffered, routed immediately,
/// or dropped.
pub trait Effects {
    /// Send a protocol message to another node.
    fn emit_send(&mut self, to: NodeId, message: Message);
    /// Deliver a reply to a client endpoint.
    fn emit_reply(&mut self, client: ClientId, reply: ClientReply);
    /// Re-arm a periodic protocol timer `after` the current instant.
    fn emit_timer(&mut self, kind: TimerKind, after: Duration);
}

/// A reusable, growable effect sink that groups sends per destination as
/// they are emitted.
///
/// Between two emptyings (`drain`, `clear`, `take`) every destination has
/// exactly one transport unit: its first send is buffered as an
/// [`Output::Send`], a second one upgrades that entry in place to an
/// [`Output::SendBatch`], and later sends append to the batch. A unit keeps
/// the position of its destination's first send and its messages stay in
/// emission order; replies and timer re-arms are buffered as emitted.
///
/// Draining the buffer keeps its allocation, and batch vectors come from a
/// pool that [`Self::recycle_batch`] refills, so a long-lived buffer reaches
/// a steady state where dispatching a message performs no allocation at all
/// for the effect pipeline. Environments keep one buffer per dispatching
/// thread (inside its [`DispatchScratch`]), not one per node: every node
/// that thread dispatches writes into the same warm memory.
///
/// # Example
///
/// ```
/// use dataflasks_core::{EffectBuffer, Effects, Message, Output};
/// use dataflasks_types::{KeyRange, NodeId};
///
/// let digest = || Message::AntiEntropyDigest {
///     digest: std::sync::Arc::new(dataflasks_store::StoreDigest::new()),
///     range: KeyRange::FULL,
/// };
/// let mut fx = EffectBuffer::new();
/// fx.emit_send(NodeId::new(2), digest());
/// fx.emit_send(NodeId::new(3), digest());
/// fx.emit_send(NodeId::new(2), digest());
/// assert_eq!(fx.len(), 2, "one unit per destination");
/// let effects: Vec<Output> = fx.drain().collect();
/// assert!(matches!(&effects[0], Output::SendBatch { to, messages }
///     if *to == NodeId::new(2) && messages.len() == 2));
/// assert!(matches!(effects[1], Output::Send { to, .. } if to == NodeId::new(3)));
/// assert!(fx.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct EffectBuffer {
    effects: Vec<Output>,
    /// `destination → index` of that destination's unit in `effects`, for
    /// every destination sent to since the buffer was last emptied. A
    /// linear table: a round addresses a handful of destinations.
    dest_slots: Vec<(NodeId, usize)>,
    /// Recycled batch vectors: delivered [`Output::SendBatch`] buffers come
    /// back through [`Self::recycle_batch`] and are reused by the next
    /// upgrade to a batch, so a warmed thread emits batches without
    /// allocating.
    batch_pool: Vec<Vec<Message>>,
    /// Batch vectors allocated because the pool was empty.
    fresh_batches: u64,
}

/// Upper bound on pooled batch vectors per buffer, that is per dispatching
/// thread; beyond this, returned batches are dropped. A worker's round takes
/// one vector per batched destination and gets it back after routing, and a
/// node rarely addresses more destinations per round than its fanout; the
/// simulator's vectors come back as their batches are delivered.
const BATCH_POOL_LIMIT: usize = 32;

impl EffectBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a spent [`Output::SendBatch`] vector to this buffer's pool so
    /// the next batch reuses its allocation. Environments call this once a
    /// batch has been delivered or encoded; vectors beyond the pool limit
    /// are dropped.
    pub fn recycle_batch(&mut self, mut batch: Vec<Message>) {
        if self.batch_pool.len() < BATCH_POOL_LIMIT && batch.capacity() > 0 {
            batch.clear();
            self.batch_pool.push(batch);
        }
    }

    /// Number of batch vectors waiting in the pool.
    #[must_use]
    pub fn pooled_batches(&self) -> usize {
        self.batch_pool.len()
    }

    /// Number of buffered effects (a destination's sends count once).
    #[must_use]
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Returns `true` if no effect is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The buffered effects in emission order, each destination's sends
    /// grouped into one unit at the position of its first send.
    #[must_use]
    pub fn as_slice(&self) -> &[Output] {
        &self.effects
    }

    /// Removes and returns every buffered effect, keeping the allocation.
    /// Sends emitted afterwards start new units.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Output> {
        self.dest_slots.clear();
        self.effects.drain(..)
    }

    /// Discards every buffered effect, keeping the allocation.
    pub fn clear(&mut self) {
        self.dest_slots.clear();
        self.effects.clear();
    }

    /// Takes the buffered effects as an owned vector (convenience for tests;
    /// hot paths should [`Self::drain`] instead).
    #[must_use]
    pub fn take(&mut self) -> Vec<Output> {
        self.dest_slots.clear();
        mem::take(&mut self.effects)
    }
}

impl Effects for EffectBuffer {
    fn emit_send(&mut self, to: NodeId, message: Message) {
        let Some(&(_, index)) = self.dest_slots.iter().find(|(dest, _)| *dest == to) else {
            self.dest_slots.push((to, self.effects.len()));
            self.effects.push(Output::Send { to, message });
            return;
        };
        match &mut self.effects[index] {
            Output::SendBatch { messages, .. } => messages.push(message),
            slot => {
                // The destination's second send: upgrade its unit in place.
                let mut messages = self.batch_pool.pop().unwrap_or_else(|| {
                    self.fresh_batches += 1;
                    Vec::with_capacity(4)
                });
                let batch = Output::SendBatch {
                    to,
                    messages: Vec::new(),
                };
                let Output::Send { message: first, .. } = mem::replace(slot, batch) else {
                    unreachable!("a destination slot indexes a send");
                };
                messages.push(first);
                messages.push(message);
                *slot = Output::SendBatch { to, messages };
            }
        }
    }

    fn emit_reply(&mut self, client: ClientId, reply: ClientReply) {
        self.effects.push(Output::Reply { client, reply });
    }

    fn emit_timer(&mut self, kind: TimerKind, after: Duration) {
        self.effects.push(Output::Timer { kind, after });
    }
}

/// The memory one dispatch round works in: the [`EffectBuffer`] the node's
/// handlers write into and the walked entries of
/// [`NodeHost::enqueue_frame`].
///
/// It belongs to the thread that dispatches, not to a node: an environment
/// keeps one per dispatching thread and lends it to the host it dispatches
/// next with [`NodeHost::swap_scratch`], taking it back after the flush. A
/// round therefore starts on memory the thread's previous round left in
/// cache, whichever node that was, and spent batch vectors go back into the
/// thread's pool ([`Self::recycle_batch`]). Between rounds the scratch holds
/// no effect ([`Self::is_empty`]).
#[derive(Debug, Default)]
pub struct DispatchScratch {
    effects: EffectBuffer,
    frame_entries: Vec<FrameEntry>,
}

impl DispatchScratch {
    /// Creates an empty scratch; nothing is allocated until a round uses it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a spent batch vector to the scratch's pool (see
    /// [`EffectBuffer::recycle_batch`]).
    pub fn recycle_batch(&mut self, batch: Vec<Message>) {
        self.effects.recycle_batch(batch);
    }

    /// Number of batch vectors the scratch allocated because its pool was
    /// empty, over its whole lifetime. Flat once the scratch is warm.
    #[must_use]
    pub fn fresh_batches(&self) -> u64 {
        self.effects.fresh_batches
    }

    /// Returns `true` if no round is in progress: no buffered effect, an
    /// empty destination table and no walked frame entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
            && self.effects.dest_slots.is_empty()
            && self.frame_entries.is_empty()
    }

    /// Returns `true` if the scratch holds any heap memory: buffered or
    /// pooled capacity of any of its vectors.
    #[must_use]
    pub fn is_allocated(&self) -> bool {
        let fx = &self.effects;
        fx.effects.capacity() > 0
            || fx.dest_slots.capacity() > 0
            || fx.batch_pool.capacity() > 0
            || self.frame_entries.capacity() > 0
    }
}

/// A node bundled with the dispatch sequence every environment runs: feed
/// inputs to the node, then hand each resulting effect to a routing
/// callback.
///
/// Environments keep one `NodeHost` per node, but the memory a dispatch
/// round uses belongs to the dispatching thread: the environment lends its
/// [`DispatchScratch`] to the host for the round ([`Self::swap_scratch`]).
/// A host starts with an empty, unallocated scratch of its own, which a
/// standalone host (one driven without lending) grows on first use.
#[derive(Debug)]
pub struct NodeHost<S> {
    node: DataFlasksNode<S>,
    scratch: DispatchScratch,
}

impl<S: DataStore> NodeHost<S> {
    /// Wraps a node; the host's own scratch allocates nothing up front.
    #[must_use]
    pub fn new(node: DataFlasksNode<S>) -> Self {
        Self {
            node,
            scratch: DispatchScratch::new(),
        }
    }

    /// Read access to the hosted node.
    #[must_use]
    pub fn node(&self) -> &DataFlasksNode<S> {
        &self.node
    }

    /// Write access to the hosted node.
    pub fn node_mut(&mut self) -> &mut DataFlasksNode<S> {
        &mut self.node
    }

    /// Unwraps the hosted node (e.g. on environment shutdown).
    #[must_use]
    pub fn into_node(self) -> DataFlasksNode<S> {
        self.node
    }

    /// The scratch the host holds right now: its own between rounds, the
    /// dispatching thread's while one is lent.
    #[must_use]
    pub fn scratch(&self) -> &DispatchScratch {
        &self.scratch
    }

    /// Swaps the host's scratch with `scratch`. An environment calls it once
    /// to lend its thread's scratch before a round's first input and once
    /// after the round's flush to take it back, so the round runs on the
    /// thread's warm memory and the host's own scratch stays untouched.
    pub fn swap_scratch(&mut self, scratch: &mut DispatchScratch) {
        mem::swap(&mut self.scratch, scratch);
    }

    /// Delivers a protocol message and routes the resulting effects.
    pub fn deliver_message<F: FnMut(Output)>(
        &mut self,
        from: NodeId,
        message: Message,
        now: SimTime,
        route: F,
    ) {
        self.enqueue_message(from, message, now);
        self.flush_effects(route);
    }

    /// Delivers a batch of messages from one sender (an
    /// [`Output::SendBatch`] transport unit) in order, then routes the
    /// effects of the whole batch in one flush — so a batched input
    /// produces batched outputs down the dissemination cascade.
    pub fn deliver_batch<F: FnMut(Output)>(
        &mut self,
        from: NodeId,
        messages: impl IntoIterator<Item = Message>,
        now: SimTime,
        route: F,
    ) {
        for message in messages {
            self.enqueue_message(from, message, now);
        }
        self.flush_effects(route);
    }

    /// Submits a client operation and routes the resulting effects.
    pub fn submit_client_request<F: FnMut(Output)>(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: SimTime,
        route: F,
    ) {
        self.enqueue_client_request(client, request, now);
        self.flush_effects(route);
    }

    /// Fires a periodic timer and routes the resulting effects (including
    /// the timer's own re-arm).
    pub fn fire_timer<F: FnMut(Output)>(&mut self, kind: TimerKind, now: SimTime, route: F) {
        self.enqueue_timer(kind, now);
        self.flush_effects(route);
    }

    /// Handles a protocol message, buffering its effects without flushing.
    ///
    /// The `enqueue_*` methods let an environment feed several inputs (its
    /// whole pending backlog for this node) into one buffered dispatch round
    /// and then route everything with a single [`Self::flush_effects`] call:
    /// the buffer groups same-destination sends across all of them.
    pub fn enqueue_message(&mut self, from: NodeId, message: Message, now: SimTime) {
        self.node
            .handle_message(from, message, now, &mut self.scratch.effects);
    }

    /// Handles the messages of one wire frame in emission order, buffering
    /// their effects without flushing — the receive arm of every byte
    /// transport's dispatch round. It has the effect of
    /// [`Self::enqueue_message`] over the messages of
    /// [`decode_frame`](crate::wire::decode_frame), at a fraction of
    /// the cost: the frame is walked ([`walk_frame`]), each put and get goes
    /// through the node's admission step by id, and only an admitted request
    /// is materialised — a duplicate never leaves the frame's bytes. Doing
    /// this on the thread that dispatches keeps everything a message owns
    /// allocated, used and freed on one thread.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] of [`walk_frame`]. The frame is checked whole
    /// before its first message is admitted, so a rejected frame dispatches
    /// nothing; it is counted once on the node
    /// ([`NodeStats::wire_rejects`](crate::NodeStats)) and the error is
    /// returned for the transport to act on (a socket closes the connection).
    pub fn enqueue_frame(&mut self, bytes: &[u8], now: SimTime) -> Result<(), WireError> {
        let mut entries = mem::take(&mut self.scratch.frame_entries);
        let result = match walk_frame(bytes, |entry| entries.push(entry)) {
            Ok(frame) => {
                for entry in entries.drain(..) {
                    self.enqueue_frame_entry(frame.from, entry, bytes, now);
                }
                Ok(())
            }
            Err(error) => {
                entries.clear();
                self.node.record_wire_reject();
                Err(error)
            }
        };
        self.scratch.frame_entries = entries;
        result
    }

    fn enqueue_frame_entry(&mut self, from: NodeId, entry: FrameEntry, frame: &[u8], now: SimTime) {
        let fx = &mut self.scratch.effects;
        match entry {
            FrameEntry::Put(header) => {
                if self.node.admit_request(header.id) {
                    self.node.disseminate(header.materialise(frame), false, fx);
                }
            }
            FrameEntry::Get(request) => {
                if self.node.admit_request(request.id) {
                    self.node.disseminate(request, false, fx);
                }
            }
            FrameEntry::Other(message) => self.node.handle_message(from, message, now, fx),
        }
    }

    /// Handles a client operation, buffering its effects without flushing.
    pub fn enqueue_client_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: SimTime,
    ) {
        self.node
            .handle_client_request(client, request, now, &mut self.scratch.effects);
    }

    /// Fires a timer, buffering its effects without flushing.
    pub fn enqueue_timer(&mut self, kind: TimerKind, now: SimTime) {
        self.node.on_timer(kind, now, &mut self.scratch.effects);
    }

    /// Hands every buffered effect to `route` — one transport unit per
    /// destination, as the buffer grouped them — emptying the buffer.
    pub fn flush_effects<F: FnMut(Output)>(&mut self, mut route: F) {
        for effect in self.scratch.effects.drain() {
            route(effect);
        }
    }
}

/// The driver interface every environment implements.
///
/// The four operations are exactly the inputs a DataFlasks node reacts to,
/// plus failure injection and a way to observe the client-visible outcome.
/// Harness code written against this trait runs unchanged on the
/// discrete-event simulator and on the worker-pool runtime over either
/// transport — the environment parity test drives the same seeded scenario
/// through all of them and asserts identical results.
pub trait Environment {
    /// Injects a protocol message for delivery to `to`, as if `from` had
    /// sent it.
    fn deliver_message(&mut self, from: NodeId, to: NodeId, message: Message);

    /// Fires a periodic protocol timer on `node` now.
    fn fire_timer(&mut self, node: NodeId, kind: TimerKind);

    /// Submits a client operation through the given contact node.
    ///
    /// `client` identifies the submitter to [`Self::drain_effects`] and must
    /// not collide with ids owned by the environment's native client
    /// machinery (the simulator's registered `ClientLibrary` ids, the
    /// concurrent runtime's reserved blocking-API id `u64::MAX`);
    /// implementations panic on a collision rather than silently diverting
    /// replies.
    fn submit_client_request(&mut self, client: ClientId, contact: NodeId, request: ClientRequest);

    /// Crashes `node`: it stops processing inputs and its volatile state is
    /// no longer reachable.
    fn fail_node(&mut self, node: NodeId);

    /// Restarts `node` (crashing it first if it is still alive): it rejoins
    /// with its identity, configuration, profile and derived seed intact but
    /// **empty volatile state** — an empty store, fresh statistics, fresh
    /// protocol state. This is the crash→recover scenario anti-entropy
    /// repairs: the restarted replica is stale until its slice peers re-ship
    /// the objects it lost.
    ///
    /// Deterministic across environments for spec-materialised clusters (the
    /// rejoined node is [`ClusterSpec::rebuild_node`]); implementations may
    /// panic for clusters not started from a [`ClusterSpec`].
    fn restart_node(&mut self, node: NodeId);

    /// Lets the environment process outstanding work for up to `budget`
    /// (virtual time for the simulator, wall-clock time for the concurrent
    /// runtime) and returns the replies to operations submitted through
    /// [`Self::submit_client_request`], in arrival order.
    ///
    /// Replies to operations issued through an environment's *native* client
    /// machinery (the simulator's registered `ClientLibrary` clients, the
    /// concurrent runtime's blocking `put`/`get`) are delivered through those
    /// APIs and never surface here — the two driving styles can be mixed on
    /// one environment without stealing each other's replies.
    fn drain_effects(&mut self, budget: Duration) -> Vec<ClientReply>;
}

/// A deterministic description of a cluster: one capacity per node, a
/// protocol configuration shared by all nodes, and a seed from which every
/// per-node seed is derived.
///
/// Two environments that materialise the same spec host byte-identical node
/// state machines, which is the foundation of the cross-environment parity
/// test.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Protocol configuration shared by every node.
    pub node_config: NodeConfig,
    /// Storage-capacity attribute of each node; node `i` gets `NodeId(i)`.
    pub capacities: Vec<u64>,
    /// Master seed; per-node seeds are derived with [`Self::node_seed`].
    pub seed: u64,
}

impl ClusterSpec {
    /// Creates a spec from explicit capacities.
    #[must_use]
    pub fn new(node_config: NodeConfig, capacities: Vec<u64>, seed: u64) -> Self {
        Self {
            node_config,
            capacities,
            seed,
        }
    }

    /// Number of nodes described.
    #[must_use]
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// Returns `true` if the spec describes no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }

    /// The node identifiers of the cluster, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.capacities.len() as u64).map(NodeId::new)
    }

    /// The deterministic per-node seed (a SplitMix64 mix of the master seed
    /// and the node identity, so neighbouring ids get unrelated streams).
    #[must_use]
    pub fn node_seed(&self, id: NodeId) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(id.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The profile of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn profile(&self, index: usize) -> NodeProfile {
        NodeProfile::with_capacity_and_tie_break(self.capacities[index], index as u64)
    }

    /// Materialises the cluster with fully warmed membership: every node
    /// knows every other node's true profile and slice (two observation
    /// rounds, so intra-slice views pick up the settled assignments).
    ///
    /// Nodes are backed by the [`DefaultStore`] — a key-range
    /// [`ShardedStore`] with `node_config.store_shards` shards.
    ///
    /// This is the state a long-converged gossip substrate reaches; building
    /// it directly lets request-path behaviour be exercised — and compared
    /// across environments — without simulating the convergence phase.
    #[must_use]
    pub fn build_nodes(&self) -> Vec<DataFlasksNode<DefaultStore>> {
        self.build_rounds().0
    }

    /// The warm-up inputs of [`Self::build_nodes`]: the descriptor list each
    /// of the two observation rounds fed to every node. Rebuilding a single
    /// node only needs these lists, so environments cache them once and make
    /// every later [`Environment::restart_node`] O(cluster) instead of
    /// rebuilding (and discarding) the whole cluster.
    #[must_use]
    pub fn bootstrap_rounds(&self) -> BootstrapRounds {
        BootstrapRounds(self.build_rounds().1)
    }

    /// Materialises the cluster **cold**: the node state machines are
    /// constructed (across the thread pool for large clusters) but not
    /// bootstrapped — views start empty, exactly as if each node had been
    /// created individually. Environments that warm membership through their
    /// own bootstrap-contact sampling and live gossip (the simulator's
    /// `spawn_cluster`) use this to keep spawn O(n); the warm
    /// [`Self::build_nodes`] path's all-to-all observation rounds are O(n²)
    /// and infeasible at very large scales.
    #[must_use]
    pub fn build_cold_nodes(&self) -> Vec<DataFlasksNode<DefaultStore>> {
        let shards = self.node_config.effective_store_shards();
        let mut indices: Vec<usize> = (0..self.capacities.len()).collect();
        // Node construction is independent per node (each derives its own
        // seed), so large clusters materialise across the thread pool.
        let parts = Self::in_chunks(&mut indices, |chunk| {
            chunk
                .iter()
                .map(|&i| {
                    let id = NodeId::new(i as u64);
                    DataFlasksNode::new(
                        id,
                        self.node_config,
                        self.profile(i),
                        ShardedStore::new(shards),
                        self.node_seed(id),
                    )
                })
                .collect::<Vec<_>>()
        });
        let mut nodes = Vec::with_capacity(indices.len());
        for part in parts {
            nodes.extend(part);
        }
        nodes
    }

    fn build_rounds(&self) -> (Vec<DataFlasksNode<DefaultStore>>, Vec<Vec<NodeDescriptor>>) {
        let mut nodes = self.build_cold_nodes();
        let mut rounds = Vec::with_capacity(2);
        for _ in 0..2 {
            let descriptors: Vec<NodeDescriptor> = nodes
                .iter()
                .map(|n| NodeDescriptor::new(n.id(), n.profile()).with_slice(n.slice()))
                .collect();
            // Each node absorbs the same immutable descriptor snapshot and
            // touches only its own state: the warm-up rounds parallelise
            // without changing a single observation (bootstrap draws no
            // randomness), so parallel and serial builds stay byte-identical.
            Self::in_chunks(&mut nodes, |chunk| {
                for node in chunk {
                    let own = node.id();
                    node.bootstrap(descriptors.iter().copied().filter(|d| d.id() != own));
                }
            });
            rounds.push(descriptors);
        }
        (nodes, rounds)
    }

    /// Runs `work` over `items` in contiguous chunks and returns each chunk's
    /// result in order: one chunk per thread, on scoped threads, when the
    /// cluster is large enough for the O(n²) warm-up to dwarf thread-spawn
    /// overhead (256 nodes, one thread per core up to eight); one chunk,
    /// inline, otherwise. Parallelism never changes the result — node builds
    /// and warm-up rounds are data-parallel over disjoint nodes.
    fn in_chunks<T: Send, R: Send>(items: &mut [T], work: impl Fn(&mut [T]) -> R + Sync) -> Vec<R> {
        let threads = if items.len() < 256 {
            1
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(8)
        };
        if threads == 1 {
            return vec![work(items)];
        }
        let chunk = items.len().div_ceil(threads);
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks_mut(chunk)
                .map(|batch| scope.spawn(move || work(batch)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("cluster-build worker panicked"))
                .collect()
        })
    }

    /// Materialises node `index` exactly as a fresh [`Self::build_nodes`]
    /// would: same seed, same profile, same warm membership, empty store.
    ///
    /// This is the state a crashed node rejoins with under
    /// [`Environment::restart_node`] — identical across environments, which
    /// is what keeps restarts differentially testable. (Volatile *data* is
    /// gone either way: built nodes never carry store contents.)
    ///
    /// Convenience for one-off rebuilds; restart paths should cache
    /// [`Self::bootstrap_rounds`] and use [`Self::rebuild_node_with`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn rebuild_node(&self, index: usize) -> DataFlasksNode<DefaultStore> {
        self.rebuild_node_with(index, &self.bootstrap_rounds())
    }

    /// Like [`Self::rebuild_node`], but replaying cached
    /// [`Self::bootstrap_rounds`] instead of rebuilding the whole cluster:
    /// bootstrapping is deterministic, so feeding the same two descriptor
    /// rounds to a fresh node reproduces `build_nodes()[index]` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn rebuild_node_with(
        &self,
        index: usize,
        rounds: &BootstrapRounds,
    ) -> DataFlasksNode<DefaultStore> {
        assert!(index < self.len(), "node index {index} out of range");
        let id = NodeId::new(index as u64);
        let mut node = DataFlasksNode::new(
            id,
            self.node_config,
            self.profile(index),
            ShardedStore::new(self.node_config.effective_store_shards()),
            self.node_seed(id),
        );
        for round in &rounds.0 {
            node.bootstrap(round.iter().copied().filter(|d| d.id() != id));
        }
        node
    }
}

/// The per-round descriptor lists [`ClusterSpec::build_nodes`] warms its
/// nodes with, captured so single nodes can be rebuilt without rebuilding
/// the cluster (see [`ClusterSpec::bootstrap_rounds`]).
#[derive(Debug, Clone)]
pub struct BootstrapRounds(Vec<Vec<NodeDescriptor>>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{DisseminationPhase, GetRequest, PutRequest};
    use dataflasks_types::{Key, RequestId, Value, Version};

    #[test]
    fn effect_buffer_reuses_its_allocation() {
        let mut fx = EffectBuffer::new();
        for round in 0..10 {
            for i in 0..4u64 {
                fx.emit_send(
                    NodeId::new(i),
                    Message::AntiEntropyDigest {
                        digest: std::sync::Arc::new(dataflasks_store::StoreDigest::new()),
                        range: dataflasks_types::KeyRange::FULL,
                    },
                );
            }
            assert_eq!(fx.len(), 4);
            let drained = fx.drain().count();
            assert_eq!(drained, 4);
            assert!(fx.is_empty(), "round {round} left effects behind");
            // Capacity is retained: no reallocation in steady state.
            assert!(fx.effects.capacity() >= 4);
        }
    }

    #[test]
    fn cluster_spec_seeds_are_deterministic_and_distinct() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(8, 2), vec![100; 8], 42);
        let again = ClusterSpec::new(NodeConfig::for_system_size(8, 2), vec![100; 8], 42);
        let seeds: Vec<u64> = spec.node_ids().map(|id| spec.node_seed(id)).collect();
        let seeds_again: Vec<u64> = again.node_ids().map(|id| again.node_seed(id)).collect();
        assert_eq!(seeds, seeds_again);
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len(), "per-node seeds must differ");
        assert_eq!(spec.len(), 8);
        assert!(!spec.is_empty());
    }

    #[test]
    fn built_nodes_are_warm_and_identical_across_builds() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(6, 2),
            vec![100, 900, 300, 4_000, 2_000, 700],
            7,
        );
        let a = spec.build_nodes();
        let b = spec.build_nodes();
        assert_eq!(a.len(), 6);
        for (left, right) in a.iter().zip(&b) {
            assert_eq!(left.id(), right.id());
            assert_eq!(left.slice(), right.slice());
            assert_eq!(left.view_len(), right.view_len());
            assert!(left.slice().is_some(), "warm nodes must have a slice");
            assert!(left.view_len() > 0, "warm nodes must know peers");
        }
        // Both slices are populated.
        let slices: std::collections::HashSet<_> = a.iter().filter_map(|n| n.slice()).collect();
        assert_eq!(slices.len(), 2);
    }

    #[test]
    fn rebuilt_nodes_match_a_fresh_build() {
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(6, 2),
            vec![100, 900, 300, 4_000, 2_000, 700],
            11,
        );
        let built = spec.build_nodes();
        let rounds = spec.bootstrap_rounds();
        for (index, reference) in built.iter().enumerate() {
            for rebuilt in [
                spec.rebuild_node(index),
                spec.rebuild_node_with(index, &rounds),
            ] {
                assert_eq!(rebuilt.id(), reference.id());
                assert_eq!(rebuilt.slice(), reference.slice());
                assert_eq!(rebuilt.profile(), reference.profile());
                assert_eq!(rebuilt.view_len(), reference.view_len());
                assert_eq!(rebuilt.slice_view_len(), reference.slice_view_len());
                assert_eq!(rebuilt.store().len(), 0);
            }
        }
    }

    fn digest_to(to: u64) -> (NodeId, Message) {
        (
            NodeId::new(to),
            Message::AntiEntropyDigest {
                digest: std::sync::Arc::new(dataflasks_store::StoreDigest::new()),
                range: dataflasks_types::KeyRange::FULL,
            },
        )
    }

    #[test]
    fn coalescing_merges_same_destination_sends_in_order() {
        let mut fx = EffectBuffer::new();
        for to in [1u64, 2, 1, 3, 1, 2] {
            let (to, message) = digest_to(to);
            fx.emit_send(to, message);
        }
        fx.emit_timer(TimerKind::AntiEntropy, Duration::from_secs(5));
        let effects: Vec<Output> = fx.drain().collect();
        // 1 → batch of 3, 2 → batch of 2, 3 → single send, plus the timer.
        assert_eq!(effects.len(), 4);
        match &effects[0] {
            Output::SendBatch { to, messages } => {
                assert_eq!(*to, NodeId::new(1));
                assert_eq!(messages.len(), 3);
            }
            other => panic!("expected a batch for node 1, got {other:?}"),
        }
        match &effects[1] {
            Output::SendBatch { to, messages } => {
                assert_eq!(*to, NodeId::new(2));
                assert_eq!(messages.len(), 2);
            }
            other => panic!("expected a batch for node 2, got {other:?}"),
        }
        assert!(matches!(
            &effects[2],
            Output::Send { to, .. } if *to == NodeId::new(3)
        ));
        assert!(matches!(&effects[3], Output::Timer { .. }));
    }

    #[test]
    fn coalescing_leaves_single_sends_and_non_sends_untouched() {
        let mut fx = EffectBuffer::new();
        let (to, message) = digest_to(7);
        fx.emit_send(to, message);
        fx.emit_timer(TimerKind::PssShuffle, Duration::from_secs(1));
        let effects: Vec<Output> = fx.drain().collect();
        assert_eq!(effects.len(), 2);
        assert!(matches!(&effects[0], Output::Send { .. }));
        assert!(matches!(&effects[1], Output::Timer { .. }));
    }

    #[test]
    fn batched_inputs_produce_batched_outputs_down_the_cascade() {
        // A host receiving a batch of two puts for its own slice fans each
        // out to the same peers: the flush must emit one SendBatch per peer,
        // not two Sends.
        let spec = ClusterSpec::new(NodeConfig::for_system_size(4, 1), vec![100; 4], 3);
        let mut nodes = spec.build_nodes();
        let mut host = NodeHost::new(nodes.remove(0));
        let make_put = |sequence: u64, name: &str| {
            Message::Put(std::sync::Arc::new(crate::message::PutRequest {
                id: RequestId::new(8, sequence),
                client: 8,
                object: dataflasks_types::StoredObject::new(
                    Key::from_user_key(name),
                    Version::new(1),
                    Value::from_bytes(b"batched"),
                ),
                phase: crate::message::DisseminationPhase::Global,
                ttl: 4,
            }))
        };
        let mut batches = 0;
        let mut singles = 0;
        host.deliver_batch(
            NodeId::new(9),
            [make_put(0, "batch-a"), make_put(1, "batch-b")],
            SimTime::ZERO,
            |output| match output {
                Output::SendBatch { messages, .. } => {
                    assert_eq!(messages.len(), 2, "both puts ride one transport unit");
                    batches += 1;
                }
                Output::Send { .. } => singles += 1,
                Output::Reply { .. } | Output::Timer { .. } => {}
            },
        );
        assert!(batches > 0, "same-destination fan-outs must coalesce");
        assert_eq!(singles, 0);
        assert_eq!(host.node().store().len(), 2);
    }

    #[test]
    fn enqueue_frame_dispatches_in_order_and_rejects_malformed_frames_whole() {
        use crate::message::ReplyBody;
        let spec = ClusterSpec::new(NodeConfig::for_system_size(4, 1), vec![100; 4], 3);
        let mut host = NodeHost::new(spec.build_nodes().remove(0));
        let key = Key::from_user_key("framed");
        // A put followed by a get of the same key: the get only hits if the
        // frame's messages are handled in emission order.
        let messages = [
            Message::Put(std::sync::Arc::new(PutRequest {
                id: RequestId::new(8, 0),
                client: 8,
                object: dataflasks_types::StoredObject::new(
                    key,
                    Version::new(1),
                    Value::from_bytes(b"v"),
                ),
                phase: DisseminationPhase::IntraSlice,
                ttl: 1,
            })),
            Message::Get(std::sync::Arc::new(GetRequest {
                id: RequestId::new(8, 1),
                client: 8,
                key,
                version: None,
                phase: DisseminationPhase::IntraSlice,
                ttl: 1,
            })),
        ];
        let mut good = Vec::new();
        crate::wire::encode_frame(NodeId::new(2), &messages, &mut good).unwrap();
        assert_eq!(host.enqueue_frame(&good, SimTime::ZERO), Ok(()));
        let mut hits = 0;
        host.flush_effects(|output| {
            if let Output::Reply { reply, .. } = output {
                hits += usize::from(matches!(reply.body, ReplyBody::GetHit { .. }));
            }
        });
        assert_eq!(hits, 1, "the get must observe the put framed before it");
        assert_eq!(host.node().stats().total_received(), 2);

        // The same frame with its *second* message's tag flipped: framing
        // intact, decode fails — after the first message already parsed.
        let first_len = {
            let mut one = Vec::new();
            crate::wire::encode_frame(NodeId::new(2), &messages[..1], &mut one).unwrap();
            one.len()
        };
        let mut bad = good.clone();
        bad[first_len] ^= 0x80;
        assert!(host.enqueue_frame(&bad, SimTime::ZERO).is_err());
        assert_eq!(host.node().stats().wire_rejects, 1, "counted exactly once");
        assert_eq!(
            host.node().stats().total_received(),
            2,
            "a rejected frame dispatches none of its messages"
        );
        assert!(host.scratch.is_empty(), "and buffers no effects");
    }

    fn put_message(sequence: u64, name: &str, phase: DisseminationPhase) -> Message {
        Message::Put(std::sync::Arc::new(PutRequest {
            id: RequestId::new(8, sequence),
            client: 8,
            object: dataflasks_types::StoredObject::new(
                Key::from_user_key(name),
                Version::new(sequence + 1),
                Value::from_bytes(name.as_bytes()),
            ),
            phase,
            ttl: 3,
        }))
    }

    fn get_message(sequence: u64, name: &str, phase: DisseminationPhase) -> Message {
        Message::Get(std::sync::Arc::new(GetRequest {
            id: RequestId::new(8, sequence),
            client: 8,
            key: Key::from_user_key(name),
            version: None,
            phase,
            ttl: 3,
        }))
    }

    fn store_contents(host: &NodeHost<DefaultStore>) -> Vec<dataflasks_types::StoredObject> {
        let mut objects = host
            .node()
            .store()
            .objects_newer_than(&dataflasks_store::StoreDigest::new(), usize::MAX);
        objects.sort_by_key(|object| object.key);
        objects
    }

    #[test]
    fn the_frame_path_matches_decoded_delivery_and_rejects_corrupt_duplicates_whole() {
        use crate::message::DisseminationPhase::{Global, IntraSlice};
        let spec = ClusterSpec::new(
            NodeConfig::for_system_size(8, 2),
            vec![100, 900, 300, 4_000, 2_000, 700, 50, 1_200],
            5,
        );
        let mut framed = NodeHost::new(spec.build_nodes().remove(0));
        let mut decoded = NodeHost::new(spec.build_nodes().remove(0));
        let (_, digest) = digest_to(0);
        // Request ids repeat inside a frame and across frames; keys spread
        // over both slices so puts are both stored and forwarded.
        let frames: Vec<(u64, Vec<Message>)> = vec![
            (
                2,
                vec![
                    put_message(0, "alpha", IntraSlice),
                    get_message(1, "alpha", IntraSlice),
                    put_message(0, "alpha", IntraSlice),
                    digest,
                    put_message(2, "beta", Global),
                ],
            ),
            (
                3,
                vec![
                    put_message(2, "beta", Global),
                    get_message(1, "alpha", IntraSlice),
                    get_message(3, "gamma", Global),
                    put_message(4, "delta", Global),
                    put_message(5, "epsilon", IntraSlice),
                ],
            ),
            (
                2,
                vec![
                    put_message(4, "delta", Global),
                    put_message(0, "alpha", IntraSlice),
                    get_message(3, "gamma", Global),
                ],
            ),
        ];
        for (from, messages) in &frames {
            let mut bytes = Vec::new();
            crate::wire::encode_frame(NodeId::new(*from), messages, &mut bytes).unwrap();
            let mut framed_out = Vec::new();
            assert_eq!(framed.enqueue_frame(&bytes, SimTime::ZERO), Ok(()));
            framed.flush_effects(|output| framed_out.push(output));
            let mut decoded_out = Vec::new();
            let frame = crate::wire::decode_frame(&bytes).unwrap();
            decoded.deliver_batch(frame.from, frame.messages, SimTime::ZERO, |output| {
                decoded_out.push(output);
            });
            assert_eq!(
                framed_out, decoded_out,
                "flushed effects of a frame from {from}"
            );
        }
        assert_eq!(framed.node().stats(), decoded.node().stats());
        assert_eq!(store_contents(&framed), store_contents(&decoded));
        let stats = *framed.node().stats();
        assert_eq!(stats.requests_duplicate, 6, "the test exercises admission");
        assert!(stats.puts_stored > 0, "and stores what the host owns");

        // A frame whose fresh put is intact but whose *duplicate* put
        // carries an invalid phase byte: admission would drop the duplicate,
        // but the walk checks it first, so the whole frame is refused.
        let mut corrupt = Vec::new();
        crate::wire::encode_frame(
            NodeId::new(2),
            &[
                put_message(6, "zeta", IntraSlice),
                put_message(0, "alpha", IntraSlice),
            ],
            &mut corrupt,
        )
        .unwrap();
        // The last put ends with its phase byte and a four-byte ttl.
        let phase_at = corrupt.len() - 5;
        corrupt[phase_at] = 7;
        let error = WireError::Malformed("invalid dissemination phase");
        assert_eq!(crate::wire::decode_frame(&corrupt), Err(error));
        assert_eq!(framed.enqueue_frame(&corrupt, SimTime::ZERO), Err(error));
        assert!(framed.scratch.is_empty(), "nothing dispatched");
        let mut expected = stats;
        expected.wire_rejects += 1;
        assert_eq!(*framed.node().stats(), expected, "exactly one wire reject");
        // The fresh put was never admitted: delivered intact now, it is new.
        let mut intact = Vec::new();
        crate::wire::encode_frame(
            NodeId::new(2),
            &[put_message(6, "zeta", IntraSlice)],
            &mut intact,
        )
        .unwrap();
        assert_eq!(framed.enqueue_frame(&intact, SimTime::ZERO), Ok(()));
        assert_eq!(
            framed.node().stats().requests_duplicate,
            stats.requests_duplicate
        );
    }

    #[test]
    fn node_host_routes_effects_and_keeps_the_node() {
        let spec = ClusterSpec::new(NodeConfig::for_system_size(4, 1), vec![100; 4], 3);
        let mut nodes = spec.build_nodes();
        let node = nodes.remove(0);
        let mut host = NodeHost::new(node);
        let mut sends = 0;
        let mut replies = 0;
        host.submit_client_request(
            9,
            ClientRequest::Put {
                id: RequestId::new(9, 0),
                key: Key::from_user_key("hosted"),
                version: Version::new(1),
                value: Value::from_bytes(b"x"),
            },
            SimTime::ZERO,
            |output| match output {
                Output::Send { .. } => sends += 1,
                Output::SendBatch { ref messages, .. } => sends += messages.len(),
                Output::Reply { .. } => replies += 1,
                Output::Timer { .. } => {}
            },
        );
        // Single slice: the node stores locally, acknowledges and fans out.
        assert_eq!(replies, 1);
        assert!(sends > 0);
        assert_eq!(host.node().store().len(), 1);
        let node = host.into_node();
        assert_eq!(node.stats().puts_stored, 1);
    }
}
