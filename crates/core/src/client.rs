//! The DataFlasks client library.
//!
//! The client library implements the `put(key, value)` / `get(key)` API on
//! top of the epidemic substrate. It sends every operation to a uniformly
//! random contact node (the paper's prototype load balancer, §V), attaches a
//! unique request identifier and absorbs the multiple replies that epidemic
//! dissemination produces (paper §V: "The second component must know how to
//! handle multiple replies for the same request"): the first reply completes
//! the operation, later ones are counted as duplicates.

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::Rng;

use dataflasks_types::{Duration, Key, NodeId, RequestId, SimTime, StoredObject, Value, Version};

use crate::message::{ClientReply, ClientRequest, ReplyBody};

/// Outcome of a completed client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OperationOutcome {
    /// A replica acknowledged the put.
    PutAcked {
        /// Version that was acknowledged.
        version: Version,
    },
    /// A replica returned the requested object.
    GetHit {
        /// The object returned by the first replica to answer.
        object: StoredObject,
    },
    /// The responsible slice answered but did not hold the object (or the
    /// requested version).
    GetMiss,
    /// No reply arrived before the client-side timeout.
    TimedOut,
}

/// A finished operation as reported by [`ClientLibrary::on_reply`] or
/// [`ClientLibrary::expire_pending`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedOperation {
    /// Identifier of the operation.
    pub request: RequestId,
    /// Key the operation addressed.
    pub key: Key,
    /// How the operation ended.
    pub outcome: OperationOutcome,
    /// Time from issue to completion (or to expiry for timeouts).
    pub latency: Duration,
}

/// Aggregate statistics kept by a client library instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Puts issued.
    pub puts_issued: u64,
    /// Gets issued.
    pub gets_issued: u64,
    /// Puts acknowledged by at least one replica.
    pub puts_acked: u64,
    /// Gets answered with an object.
    pub gets_hit: u64,
    /// Gets answered only with misses.
    pub gets_missed: u64,
    /// Operations that expired without any reply.
    pub timeouts: u64,
    /// Redundant replies absorbed after an operation already completed.
    pub duplicate_replies: u64,
    /// Sum of completion latencies in milliseconds (for averaging).
    pub latency_sum_ms: u64,
    /// Number of completed (non-timeout) operations.
    pub completed: u64,
}

impl ClientStats {
    /// Mean completion latency over the completed operations, in
    /// milliseconds.
    #[must_use]
    pub fn mean_latency_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_sum_ms as f64 / self.completed as f64
        }
    }
}

#[derive(Debug, Clone)]
struct PendingOperation {
    key: Key,
    is_put: bool,
    issued_at: SimTime,
    /// A responsible replica answered "not found". The operation is kept
    /// pending because another replica may still answer with the object
    /// (epidemic dissemination produces many independent replies); only when
    /// the timeout fires is the miss reported.
    saw_miss: bool,
}

/// The client library: issues operations and collects replies.
///
/// # Example
///
/// ```
/// use dataflasks_core::ClientLibrary;
/// use dataflasks_types::{Key, NodeId, SimTime, Value, Version};
/// use rand::SeedableRng;
///
/// let mut client = ClientLibrary::new(7, vec![NodeId::new(1)]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let issued = client
///     .put(Key::from_user_key("a"), Version::new(1), Value::from_bytes(b"x"), SimTime::ZERO, &mut rng)
///     .expect("at least one contact is known");
/// assert_eq!(issued.contact, NodeId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct ClientLibrary {
    id: u64,
    next_sequence: u64,
    /// Nodes an operation may be sent to; each operation draws one uniformly.
    contacts: Vec<NodeId>,
    pending: HashMap<RequestId, PendingOperation>,
    stats: ClientStats,
}

/// An operation handed to the transport: the contact node to deliver it to
/// and the request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssuedRequest {
    /// Node the request must be delivered to.
    pub contact: NodeId,
    /// The request payload.
    pub request: ClientRequest,
}

impl ClientLibrary {
    /// Creates a client library with the given identifier and contact nodes.
    #[must_use]
    pub fn new(id: u64, contacts: Vec<NodeId>) -> Self {
        Self {
            id,
            next_sequence: 0,
            contacts,
            pending: HashMap::new(),
            stats: ClientStats::default(),
        }
    }

    /// The client identifier replies are addressed to.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Replaces the contact nodes (e.g. after the live membership changed).
    pub fn set_contacts(&mut self, contacts: Vec<NodeId>) {
        self.contacts = contacts;
    }

    /// Issues a put operation. Returns `None` if no contact node is known.
    pub fn put<R: Rng>(
        &mut self,
        key: Key,
        version: Version,
        value: Value,
        now: SimTime,
        rng: &mut R,
    ) -> Option<IssuedRequest> {
        let contact = *self.contacts.choose(rng)?;
        let id = self.next_request_id();
        self.pending.insert(
            id,
            PendingOperation {
                key,
                is_put: true,
                issued_at: now,
                saw_miss: false,
            },
        );
        self.stats.puts_issued += 1;
        Some(IssuedRequest {
            contact,
            request: ClientRequest::Put {
                id,
                key,
                version,
                value,
            },
        })
    }

    /// Issues a get operation. Returns `None` if no contact node is known.
    pub fn get<R: Rng>(
        &mut self,
        key: Key,
        version: Option<Version>,
        now: SimTime,
        rng: &mut R,
    ) -> Option<IssuedRequest> {
        let contact = *self.contacts.choose(rng)?;
        let id = self.next_request_id();
        self.pending.insert(
            id,
            PendingOperation {
                key,
                is_put: false,
                issued_at: now,
                saw_miss: false,
            },
        );
        self.stats.gets_issued += 1;
        Some(IssuedRequest {
            contact,
            request: ClientRequest::Get { id, key, version },
        })
    }

    /// Processes a reply.
    ///
    /// The first *positive* reply (a put acknowledgement or a get hit)
    /// completes the operation and is returned. A "not found" reply does not
    /// complete a get immediately — epidemic dissemination produces replies
    /// from many independent replicas and a later one may still hold the
    /// object — it is remembered and reported by [`Self::expire_pending`] if
    /// nothing better arrives. Replies for already-completed operations are
    /// absorbed and counted as duplicates.
    pub fn on_reply(&mut self, reply: &ClientReply, now: SimTime) -> Option<CompletedOperation> {
        if !self.pending.contains_key(&reply.request) {
            self.stats.duplicate_replies += 1;
            return None;
        }
        if matches!(reply.body, ReplyBody::GetMiss { .. }) {
            let pending = self
                .pending
                .get_mut(&reply.request)
                .expect("presence checked above");
            pending.saw_miss = true;
            return None;
        }
        let pending = self
            .pending
            .remove(&reply.request)
            .expect("presence checked above");
        let latency = now.saturating_since(pending.issued_at);
        let outcome = match &reply.body {
            ReplyBody::PutAck { version, .. } => {
                self.stats.puts_acked += 1;
                OperationOutcome::PutAcked { version: *version }
            }
            ReplyBody::GetHit { object } => {
                self.stats.gets_hit += 1;
                OperationOutcome::GetHit {
                    object: object.clone(),
                }
            }
            ReplyBody::GetMiss { .. } => unreachable!("handled above"),
        };
        self.stats.completed += 1;
        self.stats.latency_sum_ms += latency.as_millis();
        Some(CompletedOperation {
            request: reply.request,
            key: pending.key,
            outcome,
            latency,
        })
    }

    /// Expires every pending operation issued more than `timeout` ago.
    /// Gets for which at least one responsible replica answered "not found"
    /// are reported as [`OperationOutcome::GetMiss`]; operations that heard
    /// nothing at all are reported as [`OperationOutcome::TimedOut`].
    /// Expired operations come back in [`RequestId`] order.
    pub fn expire_pending(&mut self, now: SimTime, timeout: Duration) -> Vec<CompletedOperation> {
        let mut expired_ids: Vec<RequestId> = self
            .pending
            .iter()
            .filter(|(_, op)| now.saturating_since(op.issued_at) >= timeout)
            .map(|(&id, _)| id)
            .collect();
        // The map's iteration order is randomized per process; the
        // operation log must be a function of the seed.
        expired_ids.sort_unstable();
        let mut expired = Vec::with_capacity(expired_ids.len());
        for id in expired_ids {
            let op = self.pending.remove(&id).expect("id was just collected");
            let latency = now.saturating_since(op.issued_at);
            let outcome = if op.saw_miss && !op.is_put {
                self.stats.gets_missed += 1;
                self.stats.completed += 1;
                self.stats.latency_sum_ms += latency.as_millis();
                OperationOutcome::GetMiss
            } else {
                self.stats.timeouts += 1;
                OperationOutcome::TimedOut
            };
            expired.push(CompletedOperation {
                request: id,
                key: op.key,
                outcome,
                latency,
            });
        }
        expired
    }

    fn next_request_id(&mut self) -> RequestId {
        let id = RequestId::new(self.id, self.next_sequence);
        self.next_sequence += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn client(contacts: u64) -> ClientLibrary {
        ClientLibrary::new(42, (0..contacts).map(NodeId::new).collect())
    }

    fn ack(request: RequestId, responder: u64) -> ClientReply {
        ClientReply {
            request,
            responder: NodeId::new(responder),
            responder_slice: Some(dataflasks_types::SliceId::new(1)),
            body: ReplyBody::PutAck {
                key: Key::from_user_key("k"),
                version: Version::new(1),
            },
        }
    }

    #[test]
    fn requests_get_unique_increasing_ids() {
        let mut c = client(3);
        let mut rng = StdRng::seed_from_u64(0);
        let a = c
            .put(
                Key::from_user_key("a"),
                Version::new(1),
                Value::default(),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let b = c
            .get(Key::from_user_key("a"), None, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_ne!(a.request.id(), b.request.id());
        assert_eq!(a.request.id().client(), 42);
        assert_eq!(c.pending.len(), 2);
        assert_eq!(c.stats().puts_issued, 1);
        assert_eq!(c.stats().gets_issued, 1);
    }

    #[test]
    fn no_contacts_means_no_request() {
        let mut c = client(0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(c
            .put(
                Key::from_user_key("a"),
                Version::new(1),
                Value::default(),
                SimTime::ZERO,
                &mut rng
            )
            .is_none());
        assert_eq!(c.pending.len(), 0);
    }

    #[test]
    fn first_reply_completes_and_duplicates_are_absorbed() {
        let mut c = client(3);
        let mut rng = StdRng::seed_from_u64(0);
        let issued = c
            .put(
                Key::from_user_key("a"),
                Version::new(1),
                Value::default(),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let id = issued.request.id();
        let t1 = SimTime::from_millis(25);
        let done = c.on_reply(&ack(id, 1), t1).expect("first reply completes");
        assert_eq!(done.request, id);
        assert_eq!(done.latency, Duration::from_millis(25));
        assert!(matches!(done.outcome, OperationOutcome::PutAcked { .. }));
        // Subsequent replies for the same request are duplicates.
        assert!(c.on_reply(&ack(id, 2), SimTime::from_millis(30)).is_none());
        assert!(c.on_reply(&ack(id, 3), SimTime::from_millis(31)).is_none());
        let stats = c.stats();
        assert_eq!(stats.puts_acked, 1);
        assert_eq!(stats.duplicate_replies, 2);
        assert_eq!(stats.completed, 1);
        assert!((stats.mean_latency_ms() - 25.0).abs() < f64::EPSILON);
        assert_eq!(c.pending.len(), 0);
    }

    #[test]
    fn get_replies_report_hits_and_misses() {
        let mut c = client(3);
        let mut rng = StdRng::seed_from_u64(0);
        let hit_req = c
            .get(Key::from_user_key("hit"), None, SimTime::ZERO, &mut rng)
            .unwrap();
        let miss_req = c
            .get(Key::from_user_key("miss"), None, SimTime::ZERO, &mut rng)
            .unwrap();
        let object = StoredObject::new(
            Key::from_user_key("hit"),
            Version::new(2),
            Value::from_bytes(b"v"),
        );
        let hit_reply = ClientReply {
            request: hit_req.request.id(),
            responder: NodeId::new(1),
            responder_slice: None,
            body: ReplyBody::GetHit {
                object: object.clone(),
            },
        };
        let miss_reply = ClientReply {
            request: miss_req.request.id(),
            responder: NodeId::new(2),
            responder_slice: None,
            body: ReplyBody::GetMiss {
                key: Key::from_user_key("miss"),
            },
        };
        let hit = c.on_reply(&hit_reply, SimTime::from_millis(5)).unwrap();
        assert_eq!(hit.outcome, OperationOutcome::GetHit { object });
        // A "not found" reply does not complete the operation immediately:
        // another replica may still answer with the object.
        assert!(c.on_reply(&miss_reply, SimTime::from_millis(6)).is_none());
        assert_eq!(c.pending.len(), 1);
        // When the timeout fires the miss is reported (not a timeout).
        let expired = c.expire_pending(SimTime::from_millis(5_000), Duration::from_millis(1_000));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].outcome, OperationOutcome::GetMiss);
        assert_eq!(c.stats().gets_hit, 1);
        assert_eq!(c.stats().gets_missed, 1);
        assert_eq!(c.stats().timeouts, 0);
    }

    #[test]
    fn a_reported_miss_counts_in_the_mean_latency() {
        let mut c = client(1);
        let mut rng = StdRng::seed_from_u64(0);
        let key = Key::from_user_key("absent");
        let issued = c.get(key, None, SimTime::ZERO, &mut rng).unwrap();
        let miss = ClientReply {
            request: issued.request.id(),
            responder: NodeId::new(0),
            responder_slice: None,
            body: ReplyBody::GetMiss { key },
        };
        assert!(c.on_reply(&miss, SimTime::from_millis(3)).is_none());
        let expired = c.expire_pending(SimTime::from_millis(5_000), Duration::from_millis(1_000));
        assert_eq!(
            expired,
            vec![CompletedOperation {
                request: issued.request.id(),
                key,
                outcome: OperationOutcome::GetMiss,
                latency: Duration::from_millis(5_000),
            }]
        );
        assert_eq!(c.stats().completed, 1);
        assert_eq!(c.stats().mean_latency_ms(), 5_000.0);
    }

    #[test]
    fn late_hit_overrides_an_earlier_miss() {
        let mut c = client(3);
        let mut rng = StdRng::seed_from_u64(0);
        let issued = c
            .get(
                Key::from_user_key("slow-hit"),
                None,
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        let id = issued.request.id();
        let miss = ClientReply {
            request: id,
            responder: NodeId::new(1),
            responder_slice: None,
            body: ReplyBody::GetMiss {
                key: Key::from_user_key("slow-hit"),
            },
        };
        assert!(c.on_reply(&miss, SimTime::from_millis(5)).is_none());
        let object = StoredObject::new(
            Key::from_user_key("slow-hit"),
            Version::new(1),
            Value::from_bytes(b"found"),
        );
        let hit = ClientReply {
            request: id,
            responder: NodeId::new(2),
            responder_slice: None,
            body: ReplyBody::GetHit {
                object: object.clone(),
            },
        };
        let done = c.on_reply(&hit, SimTime::from_millis(9)).unwrap();
        assert_eq!(done.outcome, OperationOutcome::GetHit { object });
        assert_eq!(c.stats().gets_hit, 1);
        assert_eq!(c.stats().gets_missed, 0);
    }

    #[test]
    fn pending_operations_expire_after_the_timeout() {
        let mut c = client(3);
        let mut rng = StdRng::seed_from_u64(0);
        let issued = c
            .put(
                Key::from_user_key("slow"),
                Version::new(1),
                Value::default(),
                SimTime::ZERO,
                &mut rng,
            )
            .unwrap();
        assert!(c
            .expire_pending(SimTime::from_millis(100), Duration::from_millis(500))
            .is_empty());
        let expired = c.expire_pending(SimTime::from_millis(600), Duration::from_millis(500));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].request, issued.request.id());
        assert_eq!(expired[0].outcome, OperationOutcome::TimedOut);
        assert_eq!(c.stats().timeouts, 1);
        assert_eq!(c.pending.len(), 0);
        // A late reply after expiry is counted as a duplicate.
        assert!(c
            .on_reply(&ack(issued.request.id(), 1), SimTime::from_millis(700))
            .is_none());
        assert_eq!(c.stats().duplicate_replies, 1);
    }

    #[test]
    fn contacts_are_drawn_at_random() {
        let mut c = client(10);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let issued = c
                .get(Key::from_user_key("a"), None, SimTime::ZERO, &mut rng)
                .unwrap();
            seen.insert(issued.contact);
        }
        assert!(seen.len() >= 8, "random picks should cover most contacts");
    }

    #[test]
    fn set_contacts_replaces_the_contact_list() {
        let mut c = client(2);
        c.set_contacts(vec![NodeId::new(9)]);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let issued = c
                .get(Key::from_user_key("a"), None, SimTime::ZERO, &mut rng)
                .unwrap();
            assert_eq!(issued.contact, NodeId::new(9));
        }
    }

    #[test]
    fn mean_latency_of_no_completions_is_zero() {
        let c = client(1);
        assert_eq!(c.stats().mean_latency_ms(), 0.0);
        assert_eq!(c.id(), 42);
    }
}
