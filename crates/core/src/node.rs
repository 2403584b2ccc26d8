//! The DataFlasks node state machine.
//!
//! A [`DataFlasksNode`] bundles the four services of the paper's architecture
//! (Figure 2): the Peer Sampling Service, the Slice Manager, the request
//! Handler and the Data Store, plus the anti-entropy repair extension. It is
//! written sans-io: every input (a protocol message, a client request or a
//! periodic timer) is handled by a method that writes the resulting effects —
//! sends, client replies, timer re-arms — into an [`Effects`] sink, and the
//! environment — the discrete-event simulator or the worker-pool runtime — owns
//! the transport and the clock. The effect sink is not the node's: each
//! dispatching thread owns one reusable [`EffectBuffer`](crate::EffectBuffer)
//! (inside its [`DispatchScratch`](crate::DispatchScratch)) and lends it to
//! the node it dispatches. With that buffer and the node's internal scratch
//! buffers, steady-state dispatch performs no per-message allocation for the
//! effect pipeline, and epidemic fan-out shares one reference-counted request
//! across all peers instead of deep-copying it.

use std::mem;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dataflasks_membership::{CyclonProtocol, NodeDescriptor, SliceView};
use dataflasks_slicing::OrderedSlicer;
use dataflasks_store::{DataStore, PutOutcome, StoreDigest};
use dataflasks_types::{
    Key, KeyRange, NodeConfig, NodeId, NodeProfile, RequestId, SimTime, SliceId, SlicePartition,
    StoredObject,
};

use crate::dedup::{DedupCache, Sighting};
use crate::env::Effects;
use crate::message::{
    ClientId, ClientReply, ClientRequest, DisseminationPhase, GetRequest, Message, PutRequest,
    ReplyBody, TimerKind,
};
use crate::stats::{MessageKind, NodeStats};

/// The DataFlasks node: slice manager, request handler, peer sampling and
/// data store, driven entirely by explicit inputs.
///
/// # Example
///
/// ```
/// use dataflasks_core::{DataFlasksNode, EffectBuffer, Output, TimerKind};
/// use dataflasks_membership::NodeDescriptor;
/// use dataflasks_store::MemoryStore;
/// use dataflasks_types::{NodeConfig, NodeId, NodeProfile, SimTime};
///
/// let config = NodeConfig::for_system_size(10, 2);
/// let mut node = DataFlasksNode::new(
///     NodeId::new(0),
///     config,
///     NodeProfile::default(),
///     MemoryStore::unbounded(),
///     42,
/// );
/// node.bootstrap([NodeDescriptor::new(NodeId::new(1), NodeProfile::default())]);
/// // A shuffle timer produces a shuffle message for the bootstrap contact
/// // (plus the timer's own re-arm).
/// let mut fx = EffectBuffer::new();
/// node.on_timer(TimerKind::PssShuffle, SimTime::ZERO, &mut fx);
/// assert!(fx.as_slice().iter().any(|o| matches!(o, Output::Send { .. })));
/// ```
#[derive(Debug)]
pub struct DataFlasksNode<S> {
    id: NodeId,
    config: NodeConfig,
    partition: SlicePartition,
    cyclon: CyclonProtocol,
    slicer: OrderedSlicer,
    slice_view: SliceView,
    store: S,
    dedup: DedupCache,
    stats: NodeStats,
    rng: StdRng,
    current_slice: Option<SliceId>,
    /// Incremental anti-entropy cursor: which key-range chunk (store shard)
    /// the next exchange covers. Rounds cycle over the chunks overlapping the
    /// node's slice range, so repeated rounds tile the whole replica.
    anti_entropy_cursor: u32,
    /// Adaptive chunk scheduling: the digest fingerprint of the last
    /// *in-sync* exchange per `(peer, chunk)`. A round whose chunk still
    /// carries the matching fingerprint is skipped (the entry is consumed, so
    /// at most every other round of a stable chunk is elided — bounding how
    /// long a silent divergence on the peer's side can hide behind a skip).
    ae_synced: std::collections::HashMap<(NodeId, KeyRange), u64>,
    /// Reusable fan-out target buffer (steady state: no allocation per
    /// dissemination step).
    peer_scratch: Vec<NodeId>,
    /// Reusable sample buffer for the global-phase target fill.
    sample_scratch: Vec<NodeId>,
    /// Reusable buffer for feeding view knowledge into slicer and slice view.
    descriptor_scratch: Vec<NodeDescriptor>,
}

impl<S: DataStore> DataFlasksNode<S> {
    /// Creates a node with the given configuration, locally measured profile
    /// and backing store. `seed` makes the node's randomised choices
    /// deterministic (each node should receive a distinct seed).
    #[must_use]
    pub fn new(id: NodeId, config: NodeConfig, profile: NodeProfile, store: S, seed: u64) -> Self {
        let partition = SlicePartition::new(config.slicing.slice_count);
        let cyclon = CyclonProtocol::with_profile(id, config.pss, profile);
        let slicer = OrderedSlicer::new(id, profile, config.slicing, partition);
        let slice_view = SliceView::new(id, config.pss.intra_view_size);
        let dedup = DedupCache::new(config.dissemination.dedup_cache_size);
        let rng = StdRng::seed_from_u64(seed ^ id.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut node = Self {
            id,
            config,
            partition,
            cyclon,
            slicer,
            slice_view,
            store,
            dedup,
            stats: NodeStats::new(),
            rng,
            current_slice: None,
            anti_entropy_cursor: 0,
            ae_synced: std::collections::HashMap::new(),
            peer_scratch: Vec::new(),
            sample_scratch: Vec::new(),
            descriptor_scratch: Vec::new(),
        };
        node.refresh_slice_assignment();
        node
    }

    /// The node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's configuration.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The key-space partition the node currently uses.
    #[must_use]
    pub fn partition(&self) -> SlicePartition {
        self.partition
    }

    /// The slice the node currently belongs to.
    #[must_use]
    pub fn slice(&self) -> Option<SliceId> {
        self.current_slice
    }

    /// The node's locally measured profile.
    #[must_use]
    pub fn profile(&self) -> NodeProfile {
        self.slicer.profile()
    }

    /// Message and operation counters.
    #[must_use]
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Records one inbound wire frame this node's transport rejected before
    /// dispatch ([`NodeStats::wire_rejects`]). Byte transports call this when
    /// a peer's bytes fail to decode — the node state machine itself never
    /// sees the frame.
    pub fn record_wire_reject(&mut self) {
        self.stats.wire_rejects += 1;
    }

    /// Folds injected-fault accounting into this node's counters
    /// ([`NodeStats::frames_dropped_injected`] and friends). Backends call
    /// this after flushing a node's effects through a routing path that
    /// consulted a [`FaultPlan`](crate::fault::FaultPlan); the node state
    /// machine itself never observes the faults.
    pub fn record_injected_faults(&mut self, injected: &crate::fault::InjectedCounters) {
        self.stats.frames_dropped_injected += injected.frames_dropped;
        self.stats.frames_duplicated_injected += injected.frames_duplicated;
        self.stats.partition_refusals += injected.partition_refusals;
    }

    /// Read access to the backing data store.
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Write access to the backing data store (used by tests and recovery
    /// tooling; protocol traffic goes through the message handlers).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Number of peers in the global (Cyclon) view.
    #[must_use]
    pub fn view_len(&self) -> usize {
        self.cyclon.view().len()
    }

    /// Number of known peers of the node's own slice.
    #[must_use]
    pub fn slice_view_len(&self) -> usize {
        self.slice_view.len()
    }

    /// Returns `true` if this node's slice is responsible for `key`.
    #[must_use]
    pub fn is_responsible_for(&self, key: Key) -> bool {
        self.current_slice
            .is_some_and(|slice| self.partition.owns(slice, key))
    }

    /// Seeds the global view with bootstrap contacts.
    pub fn bootstrap<I>(&mut self, contacts: I)
    where
        I: IntoIterator<Item = NodeDescriptor>,
    {
        for contact in contacts {
            self.slicer.observe(contact.id(), contact.profile());
            self.slice_view.observe(contact);
            self.cyclon.view_mut().insert(contact);
        }
        self.refresh_slice_assignment();
    }

    /// Reconfigures the number of slices (dynamic replication management).
    /// The new partition takes effect immediately; objects now outside the
    /// node's range are kept until [`Self::prune_foreign_data`] is called or
    /// anti-entropy hands them over.
    pub fn set_slice_count(&mut self, slice_count: u32) {
        self.partition = SlicePartition::new(slice_count);
        self.slicer.set_partition(self.partition);
        self.config.slicing.slice_count = slice_count;
        self.refresh_slice_assignment();
    }

    /// Drops every stored object whose key is outside the node's current
    /// slice range, returning how many keys were removed.
    pub fn prune_foreign_data(&mut self) -> usize {
        match self.current_slice {
            Some(slice) => self.store.retain_slice(self.partition, slice),
            None => 0,
        }
    }

    // ------------------------------------------------------------------
    // Input handlers
    // ------------------------------------------------------------------

    /// Handles a protocol message from another node, writing the resulting
    /// effects into `fx`.
    pub fn handle_message(
        &mut self,
        from: NodeId,
        message: Message,
        now: SimTime,
        fx: &mut dyn Effects,
    ) {
        let _ = now;
        match message {
            // This node forwards (and possibly rewrites) an admitted request;
            // unwrap the shared copy, or clone it once if other deliveries
            // still hold it.
            Message::Put(request) => {
                if self.admit_request(request.id) {
                    self.handle_admitted_put(Arc::unwrap_or_clone(request), fx);
                }
            }
            Message::Get(request) => {
                if self.admit_request(request.id) {
                    self.handle_admitted_get(Arc::unwrap_or_clone(request), fx);
                }
            }
            background => self.handle_background(from, background, fx),
        }
    }

    /// Handles a membership, slicing or anti-entropy message.
    fn handle_background(&mut self, from: NodeId, message: Message, fx: &mut dyn Effects) {
        self.stats.record_received(message.kind());
        match message {
            Message::Shuffle(request) => {
                let response = self.cyclon.handle_request(from, request, &mut self.rng);
                self.absorb_membership_knowledge();
                self.send_to(fx, from, Message::ShuffleReply(response));
            }
            Message::ShuffleReply(response) => {
                self.cyclon.handle_response(response);
                self.absorb_membership_knowledge();
            }
            Message::SliceGossip(exchange) => {
                let reply = self.slicer.handle_exchange(exchange, &mut self.rng);
                self.refresh_slice_assignment();
                self.send_to(fx, from, Message::SliceGossipReply(reply));
            }
            Message::SliceGossipReply(reply) => {
                self.slicer.handle_reply(reply);
                self.refresh_slice_assignment();
            }
            Message::Put(_) | Message::Get(_) => {
                unreachable!("requests are admitted by handle_message")
            }
            Message::AntiEntropyDigest { digest, range } => {
                self.handle_anti_entropy_digest(from, &digest, range, fx);
            }
            Message::AntiEntropyReply {
                objects,
                digest,
                range,
            } => {
                self.handle_anti_entropy_reply(from, &objects, &digest, range, fx);
            }
            Message::AntiEntropyPush { objects } => {
                self.apply_repair_objects(&objects);
            }
        }
    }

    /// Handles an operation submitted by a client library to this node (the
    /// contact node the client picked), writing the resulting
    /// effects into `fx`.
    pub fn handle_client_request(
        &mut self,
        client: ClientId,
        request: ClientRequest,
        now: SimTime,
        fx: &mut dyn Effects,
    ) {
        let _ = now;
        self.dedup.first_sighting(request.id());
        match request {
            ClientRequest::Put {
                id,
                key,
                version,
                value,
            } => {
                let object = StoredObject::new(key, version, value);
                let request = PutRequest {
                    id,
                    client,
                    object,
                    phase: DisseminationPhase::Global,
                    ttl: self.global_ttl(),
                };
                self.handle_put_locally_and_forward(request, true, fx);
            }
            ClientRequest::Get { id, key, version } => {
                let request = GetRequest {
                    id,
                    client,
                    key,
                    version,
                    phase: DisseminationPhase::Global,
                    ttl: self.global_ttl(),
                };
                self.handle_get_locally_and_forward(request, true, fx);
            }
        }
    }

    /// Handles one periodic timer, writing the resulting effects into `fx`.
    ///
    /// The node re-arms the timer itself by emitting
    /// [`Effects::emit_timer`] with the period from its own configuration, so
    /// environments only seed the first round of each timer.
    pub fn on_timer(&mut self, timer: TimerKind, now: SimTime, fx: &mut dyn Effects) {
        let _ = now;
        match timer {
            TimerKind::PssShuffle => self.on_pss_timer(fx),
            TimerKind::SliceGossip => self.on_slice_gossip_timer(fx),
            TimerKind::AntiEntropy => self.on_anti_entropy_timer(fx),
        }
        fx.emit_timer(timer, timer.period(&self.config));
    }

    // ------------------------------------------------------------------
    // Periodic protocol rounds
    // ------------------------------------------------------------------

    fn on_pss_timer(&mut self, fx: &mut dyn Effects) {
        self.cyclon.set_slice(self.current_slice);
        self.slice_view
            .age_and_expire(self.config.pss.max_descriptor_age);
        if let Some((target, request)) = self.cyclon.initiate_shuffle(&mut self.rng) {
            self.absorb_membership_knowledge();
            self.send_to(fx, target, Message::Shuffle(request));
        }
    }

    fn on_slice_gossip_timer(&mut self, fx: &mut dyn Effects) {
        self.slicer.advance_round();
        self.refresh_slice_assignment();
        let Some(peer) = self.cyclon.view().random_peer(&mut self.rng) else {
            return;
        };
        let exchange = self.slicer.create_exchange(&mut self.rng);
        self.send_to(fx, peer, Message::SliceGossip(exchange));
    }

    fn on_anti_entropy_timer(&mut self, fx: &mut dyn Effects) {
        if !self.config.replication.anti_entropy_enabled {
            return;
        }
        let Some(peer) = self.slice_view.random_peer(&mut self.rng) else {
            return;
        };
        let range = self.next_anti_entropy_range();
        let digest = Arc::new(self.store.range_digest(range));
        // Adaptive chunk skipping: if the last exchange of this chunk with
        // this peer ended fully in sync and the chunk has not changed since
        // (same fingerprint), the whole round is elided. The entry is
        // consumed, so the next occurrence runs a full exchange — skips
        // halve steady-state traffic without ever parking a chunk for good.
        if let Some(synced) = self.ae_synced.remove(&(peer, range)) {
            if synced == digest.fingerprint() {
                self.stats.ae_chunks_skipped += 1;
                return;
            }
        }
        self.send_to(fx, peer, Message::AntiEntropyDigest { digest, range });
    }

    /// The key-range chunk the next anti-entropy exchange covers.
    ///
    /// The key space is divided into `store_shards` chunks (the same ranges
    /// the sharded store's shards own, so [`DataStore::range_digest`] is a
    /// cached-summary clone); successive rounds cycle over the chunks
    /// overlapping the node's slice range. A node without a slice yet falls
    /// back to whole-store exchanges.
    fn next_anti_entropy_range(&mut self) -> KeyRange {
        let Some(slice) = self.current_slice else {
            return KeyRange::FULL;
        };
        let chunks = SlicePartition::new(self.config.effective_store_shards());
        let slice_range = self.partition.range_of(slice);
        let first = chunks.slice_of(slice_range.start()).index();
        let last = chunks.slice_of(slice_range.end()).index();
        let pick = first + self.anti_entropy_cursor % (last - first + 1);
        self.anti_entropy_cursor = self.anti_entropy_cursor.wrapping_add(1);
        chunks.range_of(SliceId::new(pick))
    }

    // ------------------------------------------------------------------
    // Request dissemination (paper §IV-B)
    // ------------------------------------------------------------------

    /// Admission of one inbound put or get, by its id: counts the received
    /// request message and returns `true` only on the request's first
    /// sighting — a duplicate, or a request too far behind its client's
    /// newest to tell (stale, see [`DedupCache`]), is counted and ends here.
    /// Both inbound paths, [`Self::handle_message`] and the wire frame path
    /// (`NodeHost::enqueue_frame`), admit through this, so a request changes
    /// the counters and the dedup state identically whichever way it came.
    pub(crate) fn admit_request(&mut self, id: RequestId) -> bool {
        self.stats.record_received(MessageKind::Request);
        match self.dedup.sight(id) {
            Sighting::New => return true,
            Sighting::Duplicate => self.stats.requests_duplicate += 1,
            Sighting::Stale => self.stats.requests_stale += 1,
        }
        false
    }

    /// Handles a put that [`Self::admit_request`] admitted.
    pub(crate) fn handle_admitted_put(&mut self, request: PutRequest, fx: &mut dyn Effects) {
        self.handle_put_locally_and_forward(request, false, fx);
    }

    /// Handles a get that [`Self::admit_request`] admitted.
    pub(crate) fn handle_admitted_get(&mut self, request: GetRequest, fx: &mut dyn Effects) {
        self.handle_get_locally_and_forward(request, false, fx);
    }

    fn handle_put_locally_and_forward(
        &mut self,
        mut request: PutRequest,
        from_client: bool,
        fx: &mut dyn Effects,
    ) {
        let target_slice = self.partition.slice_of(request.object.key);
        if self.current_slice == Some(target_slice) {
            // This node is a responsible replica: store and acknowledge. The
            // object is passed by reference — the store clones only what it
            // retains (one `Arc` bump on the value), and the request keeps
            // its object for the intra-slice fan-out below.
            let version = request.object.version;
            let key = request.object.key;
            match self.store.put(&request.object) {
                Ok(outcome) => {
                    if outcome.changed() {
                        self.stats.puts_stored += 1;
                    } else {
                        self.stats.puts_ignored += 1;
                    }
                    self.reply_to(
                        fx,
                        request.client,
                        request.id,
                        ReplyBody::PutAck { key, version },
                    );
                }
                Err(_) => {
                    // A full replica cannot store more data; it still keeps
                    // forwarding so other replicas receive the object.
                    self.stats.puts_ignored += 1;
                }
            }
            // Switch to (or continue) intra-slice dissemination.
            let ttl = if request.phase == DisseminationPhase::Global {
                self.config.dissemination.intra_ttl
            } else {
                request.ttl.saturating_sub(1)
            };
            if ttl > 0 {
                request.phase = DisseminationPhase::IntraSlice;
                request.ttl = ttl;
                let mut peers = mem::take(&mut self.peer_scratch);
                self.intra_slice_targets(target_slice, &mut peers);
                self.fan_out(fx, &peers, request, Message::Put);
                self.peer_scratch = peers;
            }
        } else if request.phase == DisseminationPhase::Global && request.ttl > 0 {
            // Not responsible: keep the epidemic search going while the TTL
            // allows it.
            request.ttl -= 1;
            let fanout = self.config.dissemination.global_fanout;
            let mut peers = mem::take(&mut self.peer_scratch);
            self.global_targets(fanout, target_slice, &mut peers);
            if peers.is_empty() && from_client {
                // An isolated contact node cannot make progress.
                self.stats.requests_expired += 1;
            }
            self.fan_out(fx, &peers, request, Message::Put);
            self.peer_scratch = peers;
        } else {
            self.stats.requests_expired += 1;
        }
    }

    fn handle_get_locally_and_forward(
        &mut self,
        mut request: GetRequest,
        from_client: bool,
        fx: &mut dyn Effects,
    ) {
        let target_slice = self.partition.slice_of(request.key);
        if self.current_slice == Some(target_slice) {
            let body = match self.store.get(request.key, request.version) {
                Some(object) => {
                    self.stats.gets_hit += 1;
                    ReplyBody::GetHit { object }
                }
                None => {
                    self.stats.gets_missed += 1;
                    ReplyBody::GetMiss { key: request.key }
                }
            };
            self.reply_to(fx, request.client, request.id, body);
            let ttl = if request.phase == DisseminationPhase::Global {
                self.config.dissemination.intra_ttl
            } else {
                request.ttl.saturating_sub(1)
            };
            if ttl > 0 {
                request.phase = DisseminationPhase::IntraSlice;
                request.ttl = ttl;
                let mut peers = mem::take(&mut self.peer_scratch);
                self.intra_slice_targets(target_slice, &mut peers);
                self.fan_out(fx, &peers, request, Message::Get);
                self.peer_scratch = peers;
            }
        } else if request.phase == DisseminationPhase::Global && request.ttl > 0 {
            request.ttl -= 1;
            let fanout = self.config.dissemination.global_fanout;
            let mut peers = mem::take(&mut self.peer_scratch);
            self.global_targets(fanout, target_slice, &mut peers);
            if peers.is_empty() && from_client {
                self.stats.requests_expired += 1;
            }
            self.fan_out(fx, &peers, request, Message::Get);
            self.peer_scratch = peers;
        } else {
            self.stats.requests_expired += 1;
        }
    }

    /// Sends one request to every peer, sharing a single reference-counted
    /// copy: the fan-out clones a pointer per peer, not the request body.
    /// `wrap` is the [`Message`] constructor (`Message::Put` or
    /// `Message::Get`).
    fn fan_out<T>(
        &mut self,
        fx: &mut dyn Effects,
        peers: &[NodeId],
        request: T,
        wrap: fn(Arc<T>) -> Message,
    ) {
        if peers.is_empty() {
            return;
        }
        let shared = Arc::new(request);
        for &peer in peers {
            self.send_to(fx, peer, wrap(Arc::clone(&shared)));
        }
    }

    /// Peers to forward an intra-slice dissemination to: the intra-slice view
    /// first, completed with global-view peers that advertise the target
    /// slice. Fills the caller's buffer instead of allocating.
    fn intra_slice_targets(&mut self, slice: SliceId, peers: &mut Vec<NodeId>) {
        let fanout = self.config.dissemination.intra_fanout;
        self.slice_view
            .sample_peers_into(fanout, &mut self.rng, peers);
        if peers.len() < fanout {
            for descriptor in self.cyclon.view().iter() {
                if peers.len() >= fanout {
                    break;
                }
                if descriptor.slice() == Some(slice) && !peers.contains(&descriptor.id()) {
                    peers.push(descriptor.id());
                }
            }
        }
    }

    /// Peers to forward a global-phase dissemination to. Peers known to be in
    /// the target slice are always included (so the search ends as soon as the
    /// view knows a member), the rest are random. Fills the caller's buffer
    /// instead of allocating.
    fn global_targets(&mut self, fanout: usize, target_slice: SliceId, peers: &mut Vec<NodeId>) {
        peers.clear();
        peers.extend(
            self.cyclon
                .view()
                .iter()
                .filter(|d| d.slice() == Some(target_slice))
                .map(NodeDescriptor::id)
                .take(fanout),
        );
        if peers.len() < fanout {
            let mut sample = mem::take(&mut self.sample_scratch);
            self.cyclon
                .view()
                .sample_peers_into(fanout, &mut self.rng, &mut sample);
            for &peer in &sample {
                if peers.len() >= fanout {
                    break;
                }
                if !peers.contains(&peer) {
                    peers.push(peer);
                }
            }
            sample.clear();
            self.sample_scratch = sample;
        }
    }

    /// Number of global-phase hops: enough for the epidemic search to reach a
    /// member of any slice with high probability, derived from the current
    /// slice count (the scarcer the slices, the deeper the search). This is
    /// the paper's §IV-B optimisation: "it is sufficient to reach only the
    /// percentage of system nodes that guarantees that some nodes of the
    /// target slice are reached", so the search is *not* sized to cover the
    /// whole system.
    fn global_ttl(&self) -> u32 {
        let redundancy = 3.0;
        let nodes_to_reach = (redundancy * f64::from(self.partition.slice_count())).max(2.0);
        let fanout = (self.config.dissemination.global_fanout.max(2)) as f64;
        (nodes_to_reach.ln() / fanout.ln()).ceil() as u32 + 1
    }

    // ------------------------------------------------------------------
    // Anti-entropy replica repair (paper §VII, implemented extension)
    // ------------------------------------------------------------------

    fn handle_anti_entropy_digest(
        &mut self,
        from: NodeId,
        remote: &StoreDigest,
        range: KeyRange,
        fx: &mut dyn Effects,
    ) {
        // The whole exchange stays scoped to the initiator's chunk: the
        // shipped batch and the echoed digest both cover only `range`, so an
        // initiator that summarised one shard is never flooded with the rest
        // of the replica.
        let objects: Arc<[StoredObject]> = self
            .store
            .objects_newer_than_in(
                remote,
                range,
                self.config.replication.max_objects_per_exchange,
            )
            .into();
        let digest = Arc::new(self.store.range_digest(range));
        self.send_to(
            fx,
            from,
            Message::AntiEntropyReply {
                objects,
                digest,
                range,
            },
        );
    }

    fn handle_anti_entropy_reply(
        &mut self,
        from: NodeId,
        objects: &[StoredObject],
        remote: &StoreDigest,
        range: KeyRange,
        fx: &mut dyn Effects,
    ) {
        self.apply_repair_objects(objects);
        let push = self.store.objects_newer_than_in(
            remote,
            range,
            self.config.replication.max_objects_per_exchange,
        );
        if push.is_empty() {
            if objects.is_empty() {
                // Nothing shipped in either direction: both replicas hold the
                // identical key/version map for this chunk, whose fingerprint
                // is exactly the remote digest's. Remember it so the next
                // round of this (peer, chunk) pair can be skipped if the
                // chunk is still unchanged.
                if self.ae_synced.len() >= 256 {
                    // Churned peers would otherwise accrete entries forever.
                    self.ae_synced.clear();
                }
                self.ae_synced.insert((from, range), remote.fingerprint());
            }
        } else {
            self.send_to(
                fx,
                from,
                Message::AntiEntropyPush {
                    objects: push.into(),
                },
            );
        }
    }

    fn apply_repair_objects(&mut self, objects: &[StoredObject]) {
        for object in objects {
            // Only accept objects this node's slice is responsible for;
            // anti-entropy must not re-spread foreign data.
            if !self.is_responsible_for(object.key) {
                continue;
            }
            if let Ok(outcome) = self.store.put(object) {
                if outcome == PutOutcome::Stored {
                    self.stats.objects_repaired += 1;
                    self.stats.puts_stored += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Internal plumbing
    // ------------------------------------------------------------------

    /// Feeds knowledge gathered by the Peer Sampling Service into the slicing
    /// protocol (attribute samples) and the intra-slice view (peers
    /// advertising the same slice).
    fn absorb_membership_knowledge(&mut self) {
        let mut descriptors = mem::take(&mut self.descriptor_scratch);
        descriptors.clear();
        descriptors.extend(self.cyclon.view().iter().copied());
        for &descriptor in &descriptors {
            self.slicer.observe(descriptor.id(), descriptor.profile());
            self.slice_view.observe(descriptor);
        }
        self.descriptor_scratch = descriptors;
    }

    /// Recomputes the local slice assignment and reacts to changes.
    fn refresh_slice_assignment(&mut self) {
        let new_slice = self.slicer.current_slice();
        if new_slice != self.current_slice {
            if self.current_slice.is_some() {
                self.stats.slice_changes += 1;
            }
            self.current_slice = new_slice;
            self.slice_view.set_slice(new_slice);
            self.cyclon.set_slice(new_slice);
            self.absorb_membership_knowledge();
        }
    }

    fn send_to(&mut self, fx: &mut dyn Effects, to: NodeId, message: Message) {
        self.stats.record_sent(message.kind());
        fx.emit_send(to, message);
    }

    fn reply_to(
        &mut self,
        fx: &mut dyn Effects,
        client: ClientId,
        request: RequestId,
        body: ReplyBody,
    ) {
        self.stats.record_sent(MessageKind::Reply);
        fx.emit_reply(
            client,
            ClientReply {
                request,
                responder: self.id,
                responder_slice: self.current_slice,
                body,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EffectBuffer;
    use crate::message::Output;
    use dataflasks_store::MemoryStore;
    use dataflasks_types::{RequestId, Value, Version};

    fn test_config() -> NodeConfig {
        NodeConfig::for_system_size(16, 2)
    }

    fn node(id: u64, capacity: u64) -> DataFlasksNode<MemoryStore> {
        DataFlasksNode::new(
            NodeId::new(id),
            test_config(),
            NodeProfile::with_capacity_and_tie_break(capacity, id),
            MemoryStore::unbounded(),
            0xD47A,
        )
    }

    fn descriptor(id: u64, capacity: u64, slice: Option<u32>) -> NodeDescriptor {
        NodeDescriptor::new(
            NodeId::new(id),
            NodeProfile::with_capacity_and_tie_break(capacity, id),
        )
        .with_slice(slice.map(SliceId::new))
    }

    /// Drives a timer and returns the emitted effects.
    fn timer_outputs(n: &mut DataFlasksNode<MemoryStore>, kind: TimerKind) -> Vec<Output> {
        let mut fx = EffectBuffer::new();
        n.on_timer(kind, SimTime::ZERO, &mut fx);
        fx.take()
    }

    /// Delivers a message and returns the emitted effects.
    fn message_outputs(
        n: &mut DataFlasksNode<MemoryStore>,
        from: u64,
        message: Message,
    ) -> Vec<Output> {
        let mut fx = EffectBuffer::new();
        n.handle_message(NodeId::new(from), message, SimTime::ZERO, &mut fx);
        fx.take()
    }

    /// Submits a client request and returns the emitted effects.
    fn client_outputs(
        n: &mut DataFlasksNode<MemoryStore>,
        client: ClientId,
        request: ClientRequest,
    ) -> Vec<Output> {
        let mut fx = EffectBuffer::new();
        n.handle_client_request(client, request, SimTime::ZERO, &mut fx);
        fx.take()
    }

    /// Filters the protocol sends out of an effect list.
    fn sends(outputs: &[Output]) -> Vec<(NodeId, Message)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Send { to, message } => Some((*to, message.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn new_node_has_a_slice_and_empty_views() {
        let n = node(0, 100);
        assert!(n.slice().is_some());
        assert_eq!(n.view_len(), 0);
        assert_eq!(n.slice_view_len(), 0);
        assert_eq!(n.store().len(), 0);
        assert_eq!(n.stats().total_messages(), 0);
        assert_eq!(n.partition().slice_count(), 2);
    }

    #[test]
    fn bootstrap_populates_views_and_slicer() {
        let mut n = node(0, 100);
        n.bootstrap([descriptor(1, 10, None), descriptor(2, 1_000, None)]);
        assert_eq!(n.view_len(), 2);
        // One peer below us, one above: rank 1/3 → slice 0 of 2.
        assert_eq!(n.slice(), Some(SliceId::new(0)));
    }

    #[test]
    fn pss_timer_emits_a_shuffle_and_counts_it() {
        let mut n = node(0, 100);
        n.bootstrap([descriptor(1, 10, None)]);
        let outputs = timer_outputs(&mut n, TimerKind::PssShuffle);
        let sent = sends(&outputs);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, NodeId::new(1));
        assert!(matches!(sent[0].1, Message::Shuffle(_)));
        assert_eq!(n.stats().sent(MessageKind::Membership), 1);
    }

    #[test]
    fn every_timer_rearms_itself_at_its_configured_period() {
        let mut n = node(0, 100);
        let config = *n.config();
        for kind in TimerKind::ALL {
            let outputs = timer_outputs(&mut n, kind);
            let rearms: Vec<_> = outputs
                .iter()
                .filter_map(|o| match o {
                    Output::Timer { kind, after } => Some((*kind, *after)),
                    _ => None,
                })
                .collect();
            assert_eq!(rearms, vec![(kind, kind.period(&config))]);
        }
    }

    #[test]
    fn pss_timer_with_empty_view_sends_nothing() {
        let mut n = node(0, 100);
        assert!(sends(&timer_outputs(&mut n, TimerKind::PssShuffle)).is_empty());
        assert!(sends(&timer_outputs(&mut n, TimerKind::SliceGossip)).is_empty());
        assert!(sends(&timer_outputs(&mut n, TimerKind::AntiEntropy)).is_empty());
    }

    #[test]
    fn shuffle_request_gets_a_reply_and_feeds_the_slicer() {
        let mut a = node(1, 100);
        let mut b = node(2, 900);
        a.bootstrap([descriptor(2, 900, None)]);
        let outputs = timer_outputs(&mut a, TimerKind::PssShuffle);
        let sent = sends(&outputs);
        let replies = message_outputs(&mut b, 1, sent[0].1.clone());
        let reply_sends = sends(&replies);
        assert_eq!(reply_sends.len(), 1);
        assert_eq!(reply_sends[0].0, NodeId::new(1));
        assert!(matches!(reply_sends[0].1, Message::ShuffleReply(_)));
        assert_eq!(b.stats().received(MessageKind::Membership), 1);
        assert_eq!(b.stats().sent(MessageKind::Membership), 1);
    }

    #[test]
    fn slice_gossip_round_trip_updates_assignments() {
        let mut a = node(1, 10);
        let mut b = node(2, 1_000);
        a.bootstrap([descriptor(2, 1_000, None)]);
        b.bootstrap([descriptor(1, 10, None)]);
        let outputs = timer_outputs(&mut a, TimerKind::SliceGossip);
        let sent = sends(&outputs);
        assert_eq!(sent[0].0, NodeId::new(2));
        let replies = message_outputs(&mut b, 1, sent[0].1.clone());
        assert!(matches!(sends(&replies)[0].1, Message::SliceGossipReply(_)));
        // Low-capacity node in slice 0, high-capacity node in slice 1.
        assert_eq!(a.slice(), Some(SliceId::new(0)));
        assert_eq!(b.slice(), Some(SliceId::new(1)));
    }

    /// Builds a small fully-converged two-slice system for request tests:
    /// node ids 0..8, capacities increasing with the id, everyone knows
    /// everyone (views and slices are warm).
    fn warm_cluster() -> Vec<DataFlasksNode<MemoryStore>> {
        let count = 8u64;
        let mut nodes: Vec<DataFlasksNode<MemoryStore>> =
            (0..count).map(|i| node(i, (i + 1) * 100)).collect();
        // Let every node observe every other node's true profile, then refresh
        // slices and views twice so intra-slice views pick up advertised slices.
        for _ in 0..2 {
            let descriptors: Vec<NodeDescriptor> = nodes
                .iter()
                .map(|n| NodeDescriptor::new(n.id(), n.profile()).with_slice(n.slice()))
                .collect();
            for n in nodes.iter_mut() {
                let others: Vec<NodeDescriptor> = descriptors
                    .iter()
                    .copied()
                    .filter(|d| d.id() != n.id())
                    .collect();
                n.bootstrap(others);
            }
        }
        nodes
    }

    /// Delivers outputs until the network is quiet, returning the replies.
    fn run_to_quiescence(
        nodes: &mut [DataFlasksNode<MemoryStore>],
        mut pending: Vec<(NodeId, Output)>,
    ) -> Vec<ClientReply> {
        let mut replies = Vec::new();
        let mut fx = EffectBuffer::new();
        let mut guard = 0;
        while let Some((from, output)) = pending.pop() {
            guard += 1;
            assert!(guard < 100_000, "dissemination did not quiesce");
            match output {
                Output::Send { to, message } => {
                    let index = to.as_u64() as usize;
                    nodes[index].handle_message(from, message, SimTime::ZERO, &mut fx);
                    let sender = nodes[index].id();
                    pending.extend(fx.drain().map(|o| (sender, o)));
                }
                Output::SendBatch { to, messages } => {
                    let index = to.as_u64() as usize;
                    for message in messages {
                        nodes[index].handle_message(from, message, SimTime::ZERO, &mut fx);
                    }
                    let sender = nodes[index].id();
                    pending.extend(fx.drain().map(|o| (sender, o)));
                }
                Output::Reply { reply, .. } => replies.push(reply),
                Output::Timer { .. } => {}
            }
        }
        replies
    }

    #[test]
    fn put_reaches_every_replica_of_the_target_slice() {
        let mut nodes = warm_cluster();
        let key = Key::from_user_key("object-1");
        let target = nodes[0].partition().slice_of(key);
        let request = ClientRequest::Put {
            id: RequestId::new(9, 0),
            key,
            version: Version::new(1),
            value: Value::from_bytes(b"hello"),
        };
        let outputs = client_outputs(&mut nodes[0], 77, request);
        let origin = nodes[0].id();
        let replies = run_to_quiescence(
            &mut nodes,
            outputs.into_iter().map(|o| (origin, o)).collect(),
        );
        // Every node of the target slice stored the object.
        for n in &nodes {
            if n.slice() == Some(target) {
                assert!(
                    n.store().get_latest(key).is_some(),
                    "replica {} missing the object",
                    n.id()
                );
            } else {
                assert!(n.store().get_latest(key).is_none());
            }
        }
        // The client received at least one acknowledgement carrying the slice.
        assert!(!replies.is_empty());
        assert!(replies
            .iter()
            .all(|r| matches!(r.body, ReplyBody::PutAck { .. })));
        assert!(replies.iter().all(|r| r.responder_slice == Some(target)));
    }

    #[test]
    fn get_returns_the_stored_object_and_misses_unknown_keys() {
        let mut nodes = warm_cluster();
        let key = Key::from_user_key("object-2");
        let put = ClientRequest::Put {
            id: RequestId::new(9, 1),
            key,
            version: Version::new(4),
            value: Value::from_bytes(b"payload"),
        };
        let outs = client_outputs(&mut nodes[1], 5, put);
        let origin = nodes[1].id();
        run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());

        let get = ClientRequest::Get {
            id: RequestId::new(9, 2),
            key,
            version: Some(Version::new(4)),
        };
        let outs = client_outputs(&mut nodes[2], 5, get);
        let origin = nodes[2].id();
        let replies =
            run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());
        let hit = replies
            .iter()
            .find(|r| matches!(r.body, ReplyBody::GetHit { .. }))
            .expect("expected at least one hit");
        match &hit.body {
            ReplyBody::GetHit { object } => {
                assert_eq!(object.value.as_slice(), b"payload");
                assert_eq!(object.version, Version::new(4));
            }
            _ => unreachable!(),
        }

        // A key nobody stored produces only misses (from the responsible slice).
        let get_missing = ClientRequest::Get {
            id: RequestId::new(9, 3),
            key: Key::from_user_key("never-written"),
            version: None,
        };
        let outs = client_outputs(&mut nodes[3], 5, get_missing);
        let origin = nodes[3].id();
        let replies =
            run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());
        assert!(replies
            .iter()
            .all(|r| matches!(r.body, ReplyBody::GetMiss { .. })));
    }

    #[test]
    fn duplicate_requests_are_forwarded_only_once() {
        let mut n = node(0, 100);
        n.bootstrap([
            descriptor(1, 200, Some(1)),
            descriptor(2, 300, Some(1)),
            descriptor(3, 400, Some(1)),
        ]);
        let put = Arc::new(PutRequest {
            id: RequestId::new(1, 0),
            client: 1,
            object: StoredObject::new(Key::from_raw(u64::MAX), Version::new(1), Value::default()),
            phase: DisseminationPhase::Global,
            ttl: 4,
        });
        let first = message_outputs(&mut n, 9, Message::Put(Arc::clone(&put)));
        assert!(!first.is_empty());
        let second = message_outputs(&mut n, 8, Message::Put(put));
        assert!(second.is_empty());
        assert_eq!(n.stats().requests_duplicate, 1);
    }

    #[test]
    fn fan_out_shares_one_request_allocation() {
        let mut n = node(0, 100);
        n.bootstrap([
            descriptor(1, 200, Some(1)),
            descriptor(2, 300, Some(1)),
            descriptor(3, 400, Some(1)),
        ]);
        let put = Arc::new(PutRequest {
            id: RequestId::new(1, 7),
            client: 1,
            object: StoredObject::new(Key::from_raw(u64::MAX), Version::new(1), Value::default()),
            phase: DisseminationPhase::Global,
            ttl: 4,
        });
        let outputs = message_outputs(&mut n, 9, Message::Put(put));
        let forwarded: Vec<&Arc<PutRequest>> = outputs
            .iter()
            .filter_map(|o| match o {
                Output::Send {
                    message: Message::Put(request),
                    ..
                } => Some(request),
                _ => None,
            })
            .collect();
        assert!(forwarded.len() > 1, "expected a multi-peer fan-out");
        for window in forwarded.windows(2) {
            assert!(
                Arc::ptr_eq(window[0], window[1]),
                "fan-out copies must share one allocation"
            );
        }
    }

    #[test]
    fn expired_ttl_stops_global_dissemination() {
        let mut n = node(0, 100);
        n.bootstrap([descriptor(1, 200, None)]);
        // Key owned by a slice this node does not belong to, TTL already zero.
        let key = if n.is_responsible_for(Key::from_raw(0)) {
            Key::from_raw(u64::MAX)
        } else {
            Key::from_raw(0)
        };
        let put = Arc::new(PutRequest {
            id: RequestId::new(1, 1),
            client: 1,
            object: StoredObject::new(key, Version::new(1), Value::default()),
            phase: DisseminationPhase::Global,
            ttl: 0,
        });
        let outputs = message_outputs(&mut n, 9, Message::Put(put));
        assert!(outputs.is_empty());
        assert_eq!(n.stats().requests_expired, 1);
    }

    #[test]
    fn anti_entropy_repairs_a_stale_replica() {
        let mut nodes = warm_cluster();
        let key = Key::from_user_key("repair-me");
        let target = nodes[0].partition().slice_of(key);
        // Find two replicas of the target slice and seed only one of them.
        let replica_ids: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.slice() == Some(target))
            .map(|(i, _)| i)
            .collect();
        assert!(replica_ids.len() >= 2, "need at least two replicas");
        let (seeded, stale) = (replica_ids[0], replica_ids[1]);
        nodes[seeded]
            .store_mut()
            .put(&StoredObject::new(
                key,
                Version::new(7),
                Value::from_bytes(b"x"),
            ))
            .unwrap();
        assert!(nodes[stale].store().get_latest(key).is_none());

        // Drive anti-entropy from the stale replica until it talks to the
        // seeded one (its random peer choice may pick others first).
        let mut repaired = false;
        for _ in 0..32 {
            let outs = timer_outputs(&mut nodes[stale], TimerKind::AntiEntropy);
            let origin = nodes[stale].id();
            run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());
            if nodes[stale].store().get_latest(key).is_some() {
                repaired = true;
                break;
            }
        }
        assert!(repaired, "anti-entropy never repaired the stale replica");
        assert!(nodes[stale].stats().objects_repaired >= 1);
    }

    #[test]
    fn anti_entropy_skips_chunks_whose_fingerprint_matched_last_round() {
        // Two in-sync replicas with a single store chunk: after one fully
        // in-sync exchange, the next round of the same (peer, chunk) pair is
        // elided, and the round after that runs a full exchange again.
        let config = NodeConfig::for_system_size(4, 1).with_store_shards(1);
        let mut a = DataFlasksNode::new(
            NodeId::new(0),
            config,
            NodeProfile::with_capacity_and_tie_break(100, 0),
            MemoryStore::unbounded(),
            1,
        );
        let mut b = DataFlasksNode::new(
            NodeId::new(1),
            config,
            NodeProfile::with_capacity_and_tie_break(200, 1),
            MemoryStore::unbounded(),
            2,
        );
        a.bootstrap([descriptor(1, 200, Some(0))]);
        b.bootstrap([descriptor(0, 100, Some(0))]);
        let shared = StoredObject::new(Key::from_user_key("in-sync"), Version::new(3), {
            Value::from_bytes(b"same")
        });
        a.store_mut().put(&shared).unwrap();
        b.store_mut().put(&shared).unwrap();

        // One round = A's timer, B's reply, A's (possible) push back to B;
        // returns (digests sent, objects pushed back).
        let exchange = |a: &mut DataFlasksNode<MemoryStore>,
                        b: &mut DataFlasksNode<MemoryStore>|
         -> (usize, usize) {
            let outs = timer_outputs(a, TimerKind::AntiEntropy);
            let digests = sends(&outs);
            let mut pushes = 0;
            for (_, message) in &digests {
                let replies = message_outputs(b, 0, message.clone());
                for (_, reply) in sends(&replies) {
                    for (_, push) in sends(&message_outputs(a, 1, reply)) {
                        message_outputs(b, 0, push);
                        pushes += 1;
                    }
                }
            }
            (digests.len(), pushes)
        };
        // Round 1: a full exchange that ends in sync (nothing ships).
        assert_eq!(exchange(&mut a, &mut b), (1, 0), "round 1 sends the digest");
        assert_eq!(a.stats().ae_chunks_skipped, 0);
        // Round 2: same chunk, same fingerprint — skipped.
        assert_eq!(exchange(&mut a, &mut b), (0, 0), "round 2 is skipped");
        assert_eq!(a.stats().ae_chunks_skipped, 1);
        // Round 3: the skip entry was consumed — full exchange again.
        assert_eq!(exchange(&mut a, &mut b), (1, 0), "round 3 exchanges again");
        assert_eq!(a.stats().ae_chunks_skipped, 1);
        // Round 4 would skip, but a local write changed the fingerprint: the
        // exchange runs and repairs B instead.
        a.store_mut()
            .put(&StoredObject::new(
                Key::from_user_key("in-sync"),
                Version::new(9),
                Value::from_bytes(b"newer"),
            ))
            .unwrap();
        assert_eq!(
            exchange(&mut a, &mut b),
            (1, 1),
            "a changed chunk must exchange and repair, not skip"
        );
        assert_eq!(a.stats().ae_chunks_skipped, 1);
        assert_eq!(
            b.store().latest_version(Key::from_user_key("in-sync")),
            Some(Version::new(9)),
            "the push repaired the peer"
        );
    }

    #[test]
    fn anti_entropy_is_disabled_by_configuration() {
        let config = test_config().without_anti_entropy();
        let mut n = DataFlasksNode::new(
            NodeId::new(0),
            config,
            NodeProfile::default(),
            MemoryStore::unbounded(),
            1,
        );
        n.bootstrap([descriptor(1, 100, Some(0))]);
        assert!(sends(&timer_outputs(&mut n, TimerKind::AntiEntropy)).is_empty());
    }

    #[test]
    fn anti_entropy_never_imports_foreign_keys() {
        let mut n = node(0, 100);
        n.bootstrap([descriptor(1, 1_000, None)]); // we are the low node → slice 0
        let own_slice = n.slice().unwrap();
        let foreign_slice = SliceId::new((own_slice.index() + 1) % n.partition().slice_count());
        let foreign_key = n.partition().range_start(foreign_slice);
        let outputs = message_outputs(
            &mut n,
            1,
            Message::AntiEntropyPush {
                objects: vec![StoredObject::new(
                    foreign_key,
                    Version::new(1),
                    Value::default(),
                )]
                .into(),
            },
        );
        assert!(outputs.is_empty());
        assert_eq!(n.store().len(), 0);
    }

    #[test]
    fn reconfiguring_the_slice_count_changes_the_partition() {
        let mut n = node(0, 100);
        assert_eq!(n.partition().slice_count(), 2);
        n.set_slice_count(8);
        assert_eq!(n.partition().slice_count(), 8);
        assert_eq!(n.config().slicing.slice_count, 8);
        assert!(n.slice().unwrap().index() < 8);
    }

    #[test]
    fn prune_foreign_data_drops_keys_outside_the_slice() {
        let mut n = node(0, 100);
        n.bootstrap([descriptor(1, 1_000, None)]);
        // Insert objects across the whole key space directly into the store.
        for i in 0..32u64 {
            n.store_mut()
                .put(&StoredObject::new(
                    Key::from_raw(i.wrapping_mul(0x1111_1111_1111_1111)),
                    Version::new(1),
                    Value::default(),
                ))
                .unwrap();
        }
        let before = n.store().len();
        let removed = n.prune_foreign_data();
        assert!(removed > 0);
        assert_eq!(n.store().len() + removed, before);
        let slice = n.slice().unwrap();
        for key in n.store().keys() {
            assert!(n.partition().owns(slice, key));
        }
    }

    #[test]
    fn stats_track_request_traffic() {
        let mut nodes = warm_cluster();
        let request = ClientRequest::Put {
            id: RequestId::new(2, 0),
            key: Key::from_user_key("counted"),
            version: Version::new(1),
            value: Value::from_bytes(b"v"),
        };
        let outs = client_outputs(&mut nodes[0], 1, request);
        let origin = nodes[0].id();
        run_to_quiescence(&mut nodes, outs.into_iter().map(|o| (origin, o)).collect());
        let total_request_messages: u64 = nodes.iter().map(|n| n.stats().request_messages()).sum();
        assert!(total_request_messages > 0);
        let stored: u64 = nodes.iter().map(|n| n.stats().puts_stored).sum();
        assert!(stored > 0);
    }
}
