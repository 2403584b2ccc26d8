//! The client-reply gateway of the concurrent runtime.
//!
//! The worker-pool runtime funnels every [`Output::Reply`](crate::Output)
//! into one cluster-wide mpsc channel and then answers three kinds of
//! consumer from it:
//!
//! * the **pipelined client API** ([`PipelinedClient`]): non-blocking
//!   `submit_put`/`submit_get` calls register a *completion slot* per
//!   request id and return a [`Ticket`]; the slots accumulate replies so one
//!   client handle can keep N requests in flight and harvest their outcomes
//!   with [`ClientGateway::await_ticket`] (in any order) or
//!   [`ClientGateway::poll_completions`] (without blocking),
//! * the **blocking client API** (`put`/`get`), reimplemented on top of the
//!   pipelined path: submit one ticket, await it, map the outcome, and
//! * the **[`Environment`](crate::Environment) driver surface**
//!   (`drain_effects`), which collects the replies of injected requests
//!   until the cascade quiesces.
//!
//! The consumers must not steal each other's replies — an Environment reply
//! arriving while a ticket is awaited is stashed for the next drain, a
//! ticket reply surfacing during a drain is routed into its completion slot,
//! and a reply whose ticket already resolved is a late duplicate to discard.
//! That routing discipline (and the idle-grace quiescence detection) is
//! runtime-independent, so it lives here once — and so does the client half
//! built on it: request ids, ticket register → submit → cancel, and the
//! blocking calls. A runtime implements [`ClientPort`] ("push this request
//! to a live contact") and receives [`PipelinedClient`] from the blanket
//! implementation below.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Instant;

use dataflasks_types::{Duration, Key, NodeId, RequestId, StoredObject, Value, Version};

use crate::message::{ClientId, ClientReply, ClientRequest, ReplyBody};

/// The client id the blocking and pipelined client APIs issue requests
/// under. Reserved: [`ClientGateway::register_env_client`] rejects it, so an
/// `Environment` submission can never steal those replies.
pub const BLOCKING_CLIENT: ClientId = u64::MAX;

/// Errors returned by the runtimes' blocking client APIs.
#[derive(Debug)]
#[non_exhaustive]
pub enum GatewayError {
    /// No reply arrived before the caller-supplied timeout.
    Timeout,
    /// The cluster is shutting down and can no longer accept operations.
    Shutdown,
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout => f.write_str("operation timed out waiting for a replica reply"),
            Self::Shutdown => f.write_str("cluster is shut down"),
        }
    }
}

impl Error for GatewayError {}

fn to_std(duration: Duration) -> std::time::Duration {
    std::time::Duration::from_millis(duration.as_millis())
}

/// What kind of completion a ticket's slot waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TicketKind {
    /// One reply of any kind completes the operation (puts: the first
    /// replica acknowledgement wins).
    Put,
    /// The first object-carrying reply completes the operation; "not found"
    /// replies are recorded but only trusted at the deadline.
    Get,
}

/// Handle for one in-flight pipelined operation, returned by the runtimes'
/// `submit_put`/`submit_get` and resolved by
/// [`ClientGateway::await_ticket`] or [`ClientGateway::poll_completions`].
///
/// A ticket resolves exactly once: either an await returns its outcome or a
/// poll reports its [`Completion`]. Replies arriving after resolution are
/// late duplicates and are discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    id: RequestId,
    kind: TicketKind,
}

impl Ticket {
    /// The request id the ticket tracks.
    #[must_use]
    pub fn request_id(&self) -> RequestId {
        self.id
    }

    /// Whether the ticket tracks a put or a get.
    #[must_use]
    pub fn kind(&self) -> TicketKind {
        self.kind
    }
}

/// Terminal outcome of one pipelined operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TicketOutcome {
    /// The first reply to a put-style ticket (semantically: at least one
    /// replica stored the write).
    Acked(ClientReply),
    /// A replica served the requested object.
    Hit(StoredObject),
    /// The deadline passed with only "not found" replies — the blocking
    /// API's `Ok(None)`.
    Miss,
    /// The deadline passed without any reply.
    TimedOut,
}

/// A resolved ticket, as reported by [`ClientGateway::poll_completions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The ticket that resolved.
    pub ticket: Ticket,
    /// How the operation ended.
    pub outcome: TicketOutcome,
}

/// A completion slot: the accumulated reply state of one in-flight request.
#[derive(Debug)]
struct PendingSlot {
    kind: TicketKind,
    /// When [`ClientGateway::poll_completions`] gives up on the request
    /// (awaits use their own caller-supplied timeout instead).
    deadline: Instant,
    /// A responsible replica answered "not found"; only trusted once the
    /// deadline passes without any replica producing the object.
    saw_miss: bool,
}

/// The uniform pipelined client surface of the concurrent runtime
/// (`AsyncCluster`, `SocketCluster` — every backend whose client path runs
/// through a [`ClientGateway`], via [`ClientPort`]).
///
/// `submit_put`/`submit_get` enqueue the operation without waiting (the
/// request id is allocated and a completion slot registered before the
/// request enters the cluster, so replies can never race the registration)
/// and return a [`Ticket`]; `await_ticket` blocks for one specific ticket,
/// `poll_completions` harvests everything that resolved without blocking.
/// One handle can keep any number of requests in flight; the blocking
/// `put`/`get` calls (provided methods) are one-ticket round trips over
/// this exact path.
pub trait PipelinedClient {
    /// Submits a put without waiting, through an explicit contact node or
    /// (`None`) a random live one.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Shutdown`] if the contact is unknown, failed, or the
    /// cluster is shutting down.
    fn submit_put(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<Ticket, GatewayError>;

    /// Submits a get without waiting, through an explicit contact node or
    /// (`None`) a random live one.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Shutdown`] if the contact is unknown, failed, or the
    /// cluster is shutting down.
    fn submit_get(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Ticket, GatewayError>;

    /// Waits for one specific ticket (tickets may be awaited in any order;
    /// replies to the others keep accumulating in their slots meanwhile).
    ///
    /// # Errors
    ///
    /// [`GatewayError::Timeout`] if the ticket saw no reply at all within
    /// `timeout`, [`GatewayError::Shutdown`] on disconnect.
    fn await_ticket(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<TicketOutcome, GatewayError>;

    /// Appends every resolved ticket to `out` without blocking. Tickets
    /// whose poll deadline (the `timeout` given at submit) passed resolve to
    /// [`TicketOutcome::Miss`] (misses seen) or [`TicketOutcome::TimedOut`].
    fn poll_completions(&self, out: &mut Vec<Completion>);

    /// Number of submitted tickets not yet resolved.
    fn inflight(&self) -> usize;

    /// Records one shed operation (an open-loop arrival dropped at the
    /// in-flight cap), surfaced by the cluster's `openloop_sheds` counter.
    fn note_shed(&self);

    /// Stores `value` under `key` through a random live contact and waits
    /// until at least one replica acknowledges it.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Timeout`] if no acknowledgement arrives within
    /// `timeout`, [`GatewayError::Shutdown`] if no contact is live.
    fn put(
        &self,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<(), GatewayError> {
        let ticket = self.submit_put(None, key, version, value, timeout)?;
        self.await_ticket(ticket, timeout).map(|_| ())
    }

    /// Like [`Self::put`], but through an explicit contact node — the
    /// slice-aware client pattern: a caller that knows the responsible slice
    /// submits straight to one of its members instead of relying on the
    /// epidemic search from a random contact.
    ///
    /// # Errors
    ///
    /// As for [`Self::put`]; [`GatewayError::Shutdown`] if `contact` is
    /// unknown or failed.
    fn put_via(
        &self,
        contact: NodeId,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<(), GatewayError> {
        let ticket = self.submit_put(Some(contact), key, version, value, timeout)?;
        self.await_ticket(ticket, timeout).map(|_| ())
    }

    /// Reads `key` (a specific version or the latest) through a random live
    /// contact. Epidemic dissemination makes several replicas answer the
    /// same read; the call returns as soon as one of them returns the
    /// object. "Not found" replies are only trusted once the timeout expires
    /// without any replica producing the object, in which case `Ok(None)` is
    /// returned.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Timeout`] if no reply of any kind arrives within
    /// `timeout`, [`GatewayError::Shutdown`] if no contact is live.
    fn get(
        &self,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, GatewayError> {
        let ticket = self.submit_get(None, key, version, timeout)?;
        self.await_ticket(ticket, timeout).map(object_of)
    }

    /// Like [`Self::get`], but through an explicit contact node (see
    /// [`Self::put_via`]).
    ///
    /// # Errors
    ///
    /// As for [`Self::get`]; [`GatewayError::Shutdown`] if `contact` is
    /// unknown or failed.
    fn get_via(
        &self,
        contact: NodeId,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Option<StoredObject>, GatewayError> {
        let ticket = self.submit_get(Some(contact), key, version, timeout)?;
        self.await_ticket(ticket, timeout).map(object_of)
    }
}

/// The object a resolved get ticket carries (`None`: only misses were seen).
fn object_of(outcome: TicketOutcome) -> Option<StoredObject> {
    match outcome {
        TicketOutcome::Hit(object) => Some(object),
        TicketOutcome::Miss => None,
        outcome => unreachable!("get ticket resolved to {outcome:?}"),
    }
}

/// What a concurrent runtime supplies to get the whole client API: its
/// reply gateway and a way into the cluster. Everything else —
/// request ids, the ticket register → submit → cancel sequence, the
/// pipelined and the blocking calls — is the blanket [`PipelinedClient`]
/// implementation, shared by every runtime.
pub trait ClientPort {
    /// The runtime's reply gateway.
    fn gateway(&self) -> &ClientGateway;

    /// Pushes `request`, under [`BLOCKING_CLIENT`], into the mailbox of
    /// `contact` or (`None`) of a live node the runtime picks at random.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Shutdown`] if the contact is unknown or failed, no
    /// node is live, or the cluster is shutting down.
    fn push_request(
        &self,
        contact: Option<NodeId>,
        request: ClientRequest,
    ) -> Result<(), GatewayError>;
}

impl<C: ClientPort> PipelinedClient for C {
    fn submit_put(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<Ticket, GatewayError> {
        self.gateway().submit(
            TicketKind::Put,
            timeout,
            |id| ClientRequest::Put {
                id,
                key,
                version,
                value,
            },
            |request| self.push_request(contact, request),
        )
    }

    fn submit_get(
        &self,
        contact: Option<NodeId>,
        key: Key,
        version: Option<Version>,
        timeout: Duration,
    ) -> Result<Ticket, GatewayError> {
        self.gateway().submit(
            TicketKind::Get,
            timeout,
            |id| ClientRequest::Get { id, key, version },
            |request| self.push_request(contact, request),
        )
    }

    fn await_ticket(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<TicketOutcome, GatewayError> {
        self.gateway().await_ticket(ticket, timeout)
    }

    fn poll_completions(&self, out: &mut Vec<Completion>) {
        self.gateway().poll_completions(out);
    }

    fn inflight(&self) -> usize {
        self.gateway().inflight()
    }

    fn note_shed(&self) {
        self.gateway().note_shed();
    }
}

/// The receiving half of a cluster-wide reply channel, with the routing
/// discipline between the pipelined/blocking client APIs and the Environment
/// driver.
#[derive(Debug)]
pub struct ClientGateway {
    replies: Receiver<(ClientId, ClientReply)>,
    /// Client ids injected through `Environment::submit_client_request`;
    /// their replies belong to [`Self::drain_effects`], everything else to
    /// the completion slots.
    env_clients: HashSet<ClientId>,
    /// Environment replies received while a ticket await was at the channel.
    env_pending: RefCell<Vec<ClientReply>>,
    /// In-flight completion slots, by request id.
    pending: RefCell<HashMap<RequestId, PendingSlot>>,
    /// Resolved tickets not yet handed to a consumer.
    completed: RefCell<Vec<Completion>>,
    /// Replies delivered into a completion slot since start.
    completions_routed: Cell<u64>,
    /// Highest number of simultaneously in-flight tickets since start.
    inflight_high_water: Cell<u64>,
    /// Open-loop arrivals shed at the in-flight cap (see
    /// [`PipelinedClient::note_shed`]).
    openloop_sheds: Cell<u64>,
    /// How long [`Self::drain_effects`] waits on a silent channel before
    /// concluding the in-process cascade has quiesced.
    idle_grace: std::time::Duration,
    /// Sequence number of the next client-API request id.
    next_sequence: Cell<u64>,
}

impl ClientGateway {
    /// Wraps the receiving half of the cluster's reply channel.
    #[must_use]
    pub fn new(replies: Receiver<(ClientId, ClientReply)>) -> Self {
        Self {
            replies,
            env_clients: HashSet::new(),
            env_pending: RefCell::new(Vec::new()),
            pending: RefCell::new(HashMap::new()),
            completed: RefCell::new(Vec::new()),
            completions_routed: Cell::new(0),
            inflight_high_water: Cell::new(0),
            openloop_sheds: Cell::new(0),
            idle_grace: std::time::Duration::from_secs(1),
            next_sequence: Cell::new(0),
        }
    }

    /// Overrides how long [`Self::drain_effects`] treats channel silence as
    /// quiescence (default: one second). In-process hops take microseconds,
    /// so harnesses issuing many drains can lower this substantially
    /// without losing replies.
    pub fn set_drain_idle_grace(&mut self, grace: Duration) {
        self.idle_grace = to_std(grace);
    }

    /// Claims `client` for the Environment driver: its replies surface
    /// through [`Self::drain_effects`] from now on.
    ///
    /// # Panics
    ///
    /// If `client` is [`BLOCKING_CLIENT`]: an Environment submission under
    /// the client API's id would silently steal its replies.
    pub fn register_env_client(&mut self, client: ClientId) {
        assert!(
            client != BLOCKING_CLIENT,
            "client id {BLOCKING_CLIENT} is reserved for the blocking put/get API"
        );
        self.env_clients.insert(client);
    }

    /// Allocates the next client-API request id, registers its completion
    /// slot *before* the request enters the cluster (so a reply cannot race
    /// the registration), and hands the request to `push`; a refused push
    /// cancels the slot.
    fn submit(
        &self,
        kind: TicketKind,
        timeout: Duration,
        request: impl FnOnce(RequestId) -> ClientRequest,
        push: impl FnOnce(ClientRequest) -> Result<(), GatewayError>,
    ) -> Result<Ticket, GatewayError> {
        let sequence = self.next_sequence.get();
        self.next_sequence.set(sequence + 1);
        let id = RequestId::new(0, sequence);
        let ticket = self.register_ticket(id, kind, timeout);
        if let Err(err) = push(request(id)) {
            self.cancel_ticket(ticket);
            return Err(err);
        }
        Ok(ticket)
    }

    /// Registers a completion slot for `id` and returns its ticket. Must be
    /// called *before* the request is submitted to the cluster, so a reply
    /// can never race the registration.
    pub fn register_ticket(&self, id: RequestId, kind: TicketKind, timeout: Duration) -> Ticket {
        let mut pending = self.pending.borrow_mut();
        pending.insert(
            id,
            PendingSlot {
                kind,
                deadline: Instant::now() + to_std(timeout),
                saw_miss: false,
            },
        );
        let inflight = pending.len() as u64;
        if inflight > self.inflight_high_water.get() {
            self.inflight_high_water.set(inflight);
        }
        Ticket { id, kind }
    }

    /// Discards an unresolved ticket (used when a submission fails after the
    /// slot was registered).
    pub fn cancel_ticket(&self, ticket: Ticket) {
        self.pending.borrow_mut().remove(&ticket.id);
    }

    /// Number of in-flight (registered, unresolved) tickets.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Highest number of simultaneously in-flight tickets since start.
    #[must_use]
    pub fn inflight_high_water(&self) -> u64 {
        self.inflight_high_water.get()
    }

    /// Replies delivered into a completion slot since start (acks, hits and
    /// misses of pipelined/blocking operations; late duplicates and
    /// Environment replies are not counted).
    #[must_use]
    pub fn completions_routed(&self) -> u64 {
        self.completions_routed.get()
    }

    /// Records one shed open-loop arrival (see [`PipelinedClient::note_shed`]).
    pub fn note_shed(&self) {
        self.openloop_sheds.set(self.openloop_sheds.get() + 1);
    }

    /// Open-loop arrivals shed at the in-flight cap since start.
    #[must_use]
    pub fn openloop_sheds(&self) -> u64 {
        self.openloop_sheds.get()
    }

    /// Routes a non-Environment reply into its completion slot; replies
    /// without a slot are late duplicates of already-resolved operations and
    /// are discarded.
    fn route_to_slot(&self, reply: ClientReply) {
        let mut pending = self.pending.borrow_mut();
        let Some(slot) = pending.get_mut(&reply.request) else {
            return;
        };
        self.completions_routed
            .set(self.completions_routed.get() + 1);
        let resolved = match (slot.kind, &reply.body) {
            (TicketKind::Put, _) => Some(TicketOutcome::Acked(reply.clone())),
            (TicketKind::Get, ReplyBody::GetHit { object }) => {
                Some(TicketOutcome::Hit(object.clone()))
            }
            (TicketKind::Get, ReplyBody::GetMiss { .. }) => {
                slot.saw_miss = true;
                None
            }
            // A stray ack for a get id: absorbed, like the blocking API did.
            (TicketKind::Get, ReplyBody::PutAck { .. }) => None,
        };
        if let Some(outcome) = resolved {
            let kind = slot.kind;
            let id = reply.request;
            pending.remove(&id);
            self.completed.borrow_mut().push(Completion {
                ticket: Ticket { id, kind },
                outcome,
            });
        }
    }

    /// Removes and returns the buffered completion of `ticket`, if any.
    fn take_completed(&self, ticket: Ticket) -> Option<TicketOutcome> {
        let mut completed = self.completed.borrow_mut();
        let index = completed.iter().position(|c| c.ticket.id == ticket.id)?;
        Some(completed.swap_remove(index).outcome)
    }

    /// Appends every resolved ticket to `out` without blocking: drains the
    /// reply channel, routes, and expires slots whose submit-time deadline
    /// passed ([`TicketOutcome::Miss`] with misses seen,
    /// [`TicketOutcome::TimedOut`] otherwise).
    pub fn poll_completions(&self, out: &mut Vec<Completion>) {
        loop {
            match self.replies.try_recv() {
                Ok((client, reply)) if self.env_clients.contains(&client) => {
                    self.env_pending.borrow_mut().push(reply);
                }
                Ok((_, reply)) => self.route_to_slot(reply),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
        let now = Instant::now();
        let mut pending = self.pending.borrow_mut();
        let mut completed = self.completed.borrow_mut();
        pending.retain(|&id, slot| {
            if now < slot.deadline {
                return true;
            }
            completed.push(Completion {
                ticket: Ticket {
                    id,
                    kind: slot.kind,
                },
                outcome: if slot.saw_miss {
                    TicketOutcome::Miss
                } else {
                    TicketOutcome::TimedOut
                },
            });
            false
        });
        drop(pending);
        out.append(&mut completed);
    }

    /// Waits for `ticket` to resolve, routing every reply that arrives
    /// meanwhile into its own slot (Environment replies are stashed for the
    /// next drain). Tickets may be awaited in any order.
    ///
    /// At the timeout, a get ticket that saw only misses resolves to
    /// [`TicketOutcome::Miss`]; a ticket that saw nothing is discarded.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Timeout`] if no reply of any kind arrived within
    /// `timeout`, [`GatewayError::Shutdown`] if the reply channel
    /// disconnected.
    pub fn await_ticket(
        &self,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<TicketOutcome, GatewayError> {
        let deadline = Instant::now() + to_std(timeout);
        loop {
            if let Some(outcome) = self.take_completed(ticket) {
                return Ok(outcome);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                let saw_miss = self
                    .pending
                    .borrow_mut()
                    .remove(&ticket.id)
                    .is_some_and(|slot| slot.saw_miss);
                return if saw_miss {
                    Ok(TicketOutcome::Miss)
                } else {
                    Err(GatewayError::Timeout)
                };
            }
            match self.replies.recv_timeout(remaining) {
                Ok((client, reply)) if self.env_clients.contains(&client) => {
                    // An Environment reply racing a ticket await: keep it
                    // for the next drain_effects call.
                    self.env_pending.borrow_mut().push(reply);
                }
                Ok((_, reply)) => self.route_to_slot(reply),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    self.pending.borrow_mut().remove(&ticket.id);
                    return Err(GatewayError::Shutdown);
                }
            }
        }
    }

    /// Collects the replies of Environment-submitted requests for up to
    /// `budget`, returning early once the channel has been silent for the
    /// idle grace. Client-API replies arriving here are routed into their
    /// completion slots (in-flight tickets keep resolving during drains);
    /// replies without a slot belong to operations that already completed or
    /// timed out (late duplicates) and are discarded.
    pub fn drain_effects(&mut self, budget: Duration) -> Vec<ClientReply> {
        // Replies stashed while a ticket await was at the channel first.
        let mut collected: Vec<ClientReply> = self.env_pending.borrow_mut().drain(..).collect();
        let deadline = Instant::now() + to_std(budget);
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match self.replies.recv_timeout(self.idle_grace.min(remaining)) {
                Ok((client, reply)) => {
                    if self.env_clients.contains(&client) {
                        collected.push(reply);
                    } else {
                        self.route_to_slot(reply);
                    }
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_types::{Key, NodeId, Value, Version};
    use std::sync::mpsc;

    fn reply(request: RequestId, body: ReplyBody) -> ClientReply {
        ClientReply {
            request,
            responder: NodeId::new(1),
            responder_slice: None,
            body,
        }
    }

    fn ack(request: RequestId) -> ClientReply {
        reply(
            request,
            ReplyBody::PutAck {
                key: Key::from_user_key("k"),
                version: Version::new(1),
            },
        )
    }

    fn hit(request: RequestId, version: u64) -> ClientReply {
        reply(
            request,
            ReplyBody::GetHit {
                object: StoredObject::new(
                    Key::from_user_key("k"),
                    Version::new(version),
                    Value::from_bytes(b"v"),
                ),
            },
        )
    }

    fn miss(request: RequestId) -> ClientReply {
        reply(
            request,
            ReplyBody::GetMiss {
                key: Key::from_user_key("k"),
            },
        )
    }

    #[test]
    fn ticket_await_skips_foreign_requests_and_stashes_env_replies() {
        let (tx, rx) = mpsc::channel();
        let mut gate = ClientGateway::new(rx);
        gate.register_env_client(9);
        let target = RequestId::new(0, 1);
        let timeout = Duration::from_secs(1);
        let ticket = gate.register_ticket(target, TicketKind::Put, timeout);
        tx.send((9, ack(RequestId::new(9, 0)))).unwrap(); // env → stash
        tx.send((0, ack(RequestId::new(0, 0)))).unwrap(); // stale → drop
        tx.send((0, ack(target))).unwrap();
        let Ok(TicketOutcome::Acked(got)) = gate.await_ticket(ticket, timeout) else {
            panic!("the put ticket must resolve to its ack");
        };
        assert_eq!(got.request, target);
        // The stashed env reply surfaces in the next drain.
        let drained = gate.drain_effects(Duration::from_millis(50));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].request, RequestId::new(9, 0));
    }

    #[test]
    fn get_ticket_trusts_misses_only_at_the_deadline() {
        let (tx, rx) = mpsc::channel();
        let gate = ClientGateway::new(rx);
        let get = |id, timeout| {
            let ticket = gate.register_ticket(id, TicketKind::Get, timeout);
            gate.await_ticket(ticket, timeout).map(object_of)
        };
        let id = RequestId::new(0, 4);
        tx.send((0, miss(id))).unwrap();
        // A miss alone resolves to Ok(None) once the timeout expires.
        assert!(matches!(get(id, Duration::from_millis(60)), Ok(None)));
        // A hit short-circuits immediately.
        let id = RequestId::new(0, 5);
        tx.send((0, hit(id, 2))).unwrap();
        let got = get(id, Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(got.version, Version::new(2));
    }

    #[test]
    fn drains_report_only_env_replies_and_disconnects_are_shutdown() {
        let (tx, rx) = mpsc::channel();
        let mut gate = ClientGateway::new(rx);
        gate.set_drain_idle_grace(Duration::from_millis(20));
        gate.register_env_client(5);
        tx.send((5, ack(RequestId::new(5, 0)))).unwrap();
        tx.send((0, ack(RequestId::new(0, 9)))).unwrap(); // blocking-API late dup
        let drained = gate.drain_effects(Duration::from_secs(1));
        assert_eq!(drained.len(), 1);
        drop(tx);
        let timeout = Duration::from_secs(1);
        let ticket = gate.register_ticket(RequestId::new(0, 0), TicketKind::Put, timeout);
        assert!(matches!(
            gate.await_ticket(ticket, timeout),
            Err(GatewayError::Shutdown)
        ));
        assert!(GatewayError::Timeout.to_string().contains("timed out"));
        assert!(GatewayError::Shutdown.to_string().contains("shut down"));
    }

    #[test]
    fn tickets_resolve_out_of_order_without_stealing() {
        let (tx, rx) = mpsc::channel();
        let gate = ClientGateway::new(rx);
        let first = gate.register_ticket(
            RequestId::new(0, 0),
            TicketKind::Put,
            Duration::from_secs(5),
        );
        let second = gate.register_ticket(
            RequestId::new(0, 1),
            TicketKind::Put,
            Duration::from_secs(5),
        );
        let third = gate.register_ticket(
            RequestId::new(0, 2),
            TicketKind::Get,
            Duration::from_secs(5),
        );
        assert_eq!(gate.inflight(), 3);
        assert_eq!(gate.inflight_high_water(), 3);
        // Replies arrive interleaved, before any await.
        tx.send((0, ack(RequestId::new(0, 1)))).unwrap();
        tx.send((0, hit(RequestId::new(0, 2), 7))).unwrap();
        tx.send((0, ack(RequestId::new(0, 0)))).unwrap();
        // Awaiting the *last* submitted first routes the others into their
        // slots instead of dropping them.
        let got = gate.await_ticket(third, Duration::from_secs(1)).unwrap();
        assert!(matches!(got, TicketOutcome::Hit(object) if object.version == Version::new(7)));
        assert!(matches!(
            gate.await_ticket(first, Duration::from_secs(1)),
            Ok(TicketOutcome::Acked(_))
        ));
        assert!(matches!(
            gate.await_ticket(second, Duration::from_secs(1)),
            Ok(TicketOutcome::Acked(_))
        ));
        assert_eq!(gate.inflight(), 0);
        assert_eq!(gate.completions_routed(), 3);
        // A late duplicate for a resolved ticket is discarded, not counted.
        tx.send((0, ack(RequestId::new(0, 1)))).unwrap();
        let mut out = Vec::new();
        gate.poll_completions(&mut out);
        assert!(out.is_empty());
        assert_eq!(gate.completions_routed(), 3);
    }

    #[test]
    fn poll_completions_harvests_and_expires() {
        let (tx, rx) = mpsc::channel();
        let gate = ClientGateway::new(rx);
        let acked = gate.register_ticket(
            RequestId::new(0, 0),
            TicketKind::Put,
            Duration::from_secs(5),
        );
        let missed = gate.register_ticket(RequestId::new(0, 1), TicketKind::Get, Duration::ZERO);
        let dead = gate.register_ticket(RequestId::new(0, 2), TicketKind::Put, Duration::ZERO);
        tx.send((0, miss(RequestId::new(0, 1)))).unwrap();
        tx.send((0, ack(RequestId::new(0, 0)))).unwrap();
        // Zero-timeout slots expire on the first poll: the miss-seen get
        // resolves to Miss, the silent put to TimedOut.
        let mut out = Vec::new();
        gate.poll_completions(&mut out);
        assert_eq!(out.len(), 3);
        let outcome_of = |ticket: Ticket| {
            out.iter()
                .find(|c| c.ticket == ticket)
                .map(|c| c.outcome.clone())
                .unwrap()
        };
        assert!(matches!(outcome_of(acked), TicketOutcome::Acked(_)));
        assert!(matches!(outcome_of(missed), TicketOutcome::Miss));
        assert!(matches!(outcome_of(dead), TicketOutcome::TimedOut));
        assert_eq!(gate.inflight(), 0);
        // Shed accounting is caller-driven.
        gate.note_shed();
        gate.note_shed();
        assert_eq!(gate.openloop_sheds(), 2);
    }

    #[test]
    fn env_replies_are_never_routed_into_slots() {
        let (tx, rx) = mpsc::channel();
        let mut gate = ClientGateway::new(rx);
        gate.set_drain_idle_grace(Duration::from_millis(20));
        gate.register_env_client(7);
        // Same request id as an env submission: the slot must not steal the
        // env reply during a poll.
        let ticket = gate.register_ticket(
            RequestId::new(7, 0),
            TicketKind::Put,
            Duration::from_secs(5),
        );
        tx.send((7, ack(RequestId::new(7, 0)))).unwrap();
        let mut out = Vec::new();
        gate.poll_completions(&mut out);
        assert!(out.is_empty(), "env reply must stay with the driver");
        assert_eq!(gate.inflight(), 1);
        let drained = gate.drain_effects(Duration::from_secs(1));
        assert_eq!(drained.len(), 1);
        gate.cancel_ticket(ticket);
        assert_eq!(gate.inflight(), 0);
    }
}
