//! Protocol messages exchanged between DataFlasks nodes and clients.

use std::sync::Arc;

use dataflasks_membership::{ShuffleRequest, ShuffleResponse};
use dataflasks_slicing::SliceExchange;
use dataflasks_store::StoreDigest;
use dataflasks_types::{
    Duration, Key, KeyRange, NodeConfig, NodeId, RequestId, SliceId, StoredObject, Value, Version,
};

/// Identifier of a client endpoint (the client library instance that issued
/// a request and expects the replies).
pub type ClientId = u64;

/// Phase of an epidemic request dissemination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisseminationPhase {
    /// The request has not reached its target slice yet and is flooded over
    /// the global overlay.
    Global,
    /// The request reached its target slice and is now flooded only among the
    /// members of that slice.
    IntraSlice,
}

/// A put operation travelling through the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutRequest {
    /// Unique identifier used for duplicate suppression and client matching.
    pub id: RequestId,
    /// Client that issued the operation and expects the acknowledgement.
    pub client: ClientId,
    /// The object being written.
    pub object: StoredObject,
    /// Current dissemination phase.
    pub phase: DisseminationPhase,
    /// Remaining hops in the current phase.
    pub ttl: u32,
}

/// A get operation travelling through the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetRequest {
    /// Unique identifier used for duplicate suppression and client matching.
    pub id: RequestId,
    /// Client that issued the operation and expects the reply.
    pub client: ClientId,
    /// Key being read.
    pub key: Key,
    /// Specific version requested, or `None` for the latest stored version.
    pub version: Option<Version>,
    /// Current dissemination phase.
    pub phase: DisseminationPhase,
    /// Remaining hops in the current phase.
    pub ttl: u32,
}

/// Messages exchanged between DataFlasks nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Cyclon shuffle request (Peer Sampling Service).
    Shuffle(ShuffleRequest),
    /// Cyclon shuffle response.
    ShuffleReply(ShuffleResponse),
    /// Slicing gossip push.
    SliceGossip(SliceExchange),
    /// Slicing gossip reply (pull half of the push-pull exchange).
    SliceGossipReply(SliceExchange),
    /// An epidemic put dissemination.
    ///
    /// The request is reference-counted: a slice-wide fan-out to `f` peers
    /// clones one `Arc` per peer instead of deep-copying the request (whose
    /// payload every copy would share anyway). A node that needs to change
    /// the phase or TTL unwraps (or clones once) before re-wrapping.
    Put(Arc<PutRequest>),
    /// An epidemic get dissemination (reference-counted like [`Self::Put`]).
    Get(Arc<GetRequest>),
    /// Anti-entropy round 1: the initiator's digest of one key-range chunk.
    ///
    /// Exchanges are *incremental*: each round covers one contiguous chunk
    /// of the key space (one shard of the node's sharded store), named by
    /// `range`, instead of summarising the whole replica — the responder
    /// diffs and ships only that chunk. A `range` of [`KeyRange::FULL`]
    /// degenerates to the classic whole-store exchange.
    ///
    /// Anti-entropy payloads are reference-counted like the epidemic
    /// requests: digests and object batches are built once and shared, so
    /// queueing, relaying or cloning the message never deep-copies the
    /// per-key summaries or the shipped objects.
    AntiEntropyDigest {
        /// Summary of the initiator's store, restricted to `range`.
        digest: Arc<StoreDigest>,
        /// The key-range chunk this exchange covers.
        range: KeyRange,
    },
    /// Anti-entropy round 2: objects the initiator is missing plus the
    /// responder's own digest so the initiator can push back in round 3.
    AntiEntropyReply {
        /// Objects (inside the exchanged range) the initiator was missing or
        /// held at a stale version.
        objects: Arc<[StoredObject]>,
        /// Summary of the responder's store, restricted to `range`.
        digest: Arc<StoreDigest>,
        /// The key-range chunk this exchange covers (echoed from round 1).
        range: KeyRange,
    },
    /// Anti-entropy round 3: objects the responder was missing.
    AntiEntropyPush {
        /// Objects shipped to the responder.
        objects: Arc<[StoredObject]>,
    },
}

impl Message {
    /// The broad category the message belongs to, used for accounting.
    #[must_use]
    pub fn kind(&self) -> crate::stats::MessageKind {
        use crate::stats::MessageKind;
        match self {
            Self::Shuffle(_) | Self::ShuffleReply(_) => MessageKind::Membership,
            Self::SliceGossip(_) | Self::SliceGossipReply(_) => MessageKind::Slicing,
            Self::Put(_) | Self::Get(_) => MessageKind::Request,
            Self::AntiEntropyDigest { .. }
            | Self::AntiEntropyReply { .. }
            | Self::AntiEntropyPush { .. } => MessageKind::AntiEntropy,
        }
    }
}

/// Operations a client library submits to its contact node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientRequest {
    /// Store `value` under `key` with the given upper-layer version.
    Put {
        /// Unique request identifier.
        id: RequestId,
        /// Key to write.
        key: Key,
        /// Version assigned by the upper layer.
        version: Version,
        /// Payload.
        value: Value,
    },
    /// Read `key`, either a specific version or the latest one.
    Get {
        /// Unique request identifier.
        id: RequestId,
        /// Key to read.
        key: Key,
        /// Specific version, or `None` for the latest.
        version: Option<Version>,
    },
}

impl ClientRequest {
    /// The request identifier carried by the operation.
    #[must_use]
    pub fn id(&self) -> RequestId {
        match self {
            Self::Put { id, .. } | Self::Get { id, .. } => *id,
        }
    }

    /// The key addressed by the operation.
    #[must_use]
    pub fn key(&self) -> Key {
        match self {
            Self::Put { key, .. } | Self::Get { key, .. } => *key,
        }
    }
}

/// Replies delivered to a client library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReply {
    /// The request this reply answers.
    pub request: RequestId,
    /// The node that produced the reply.
    pub responder: NodeId,
    /// The slice the responder belonged to when it replied. Carried on the
    /// wire for clients that want to learn the slice layout; the bundled
    /// client library does not read it.
    pub responder_slice: Option<SliceId>,
    /// The payload of the reply.
    pub body: ReplyBody,
}

/// The payload of a [`ClientReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// A replica stored the put.
    PutAck {
        /// Key that was written.
        key: Key,
        /// Version that was written.
        version: Version,
    },
    /// A replica served the requested object.
    GetHit {
        /// The object found.
        object: StoredObject,
    },
    /// A replica of the target slice did not hold the requested object (or
    /// the requested version).
    GetMiss {
        /// Key that was requested.
        key: Key,
    },
}

/// Everything a node can emit while handling one input.
///
/// Handlers emit these through the [`crate::Effects`] sink; the environment
/// routes them (over the simulated network, over channels, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Send a protocol message to another node.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        message: Message,
    },
    /// Send several protocol messages to one node as a single transport
    /// unit.
    ///
    /// Produced by [`crate::EffectBuffer`] when one dispatch round emits
    /// more than one message to the same destination: the environments
    /// route the whole batch with one event-queue entry (simulator) or one
    /// wire frame (worker-pool runtime), amortising per-message overhead, and unpack it in order at
    /// the receiver.
    SendBatch {
        /// Destination node.
        to: NodeId,
        /// The messages to deliver, in emission order.
        messages: Vec<Message>,
    },
    /// Deliver a reply to a client endpoint.
    Reply {
        /// Destination client.
        client: ClientId,
        /// The reply to deliver.
        reply: ClientReply,
    },
    /// Re-arm a periodic protocol timer on the emitting node.
    ///
    /// Nodes re-arm their own timers when they fire, so environments only
    /// seed the first round and route re-arms like any other effect.
    Timer {
        /// Which protocol activity to run.
        kind: TimerKind,
        /// Delay from the current instant.
        after: Duration,
    },
}

/// Periodic activities a node performs; the runtime fires these at the
/// periods configured in [`dataflasks_types::NodeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Cyclon shuffle round (Peer Sampling Service refresh).
    PssShuffle,
    /// Slicing gossip round.
    SliceGossip,
    /// Anti-entropy replica-repair round.
    AntiEntropy,
}

impl TimerKind {
    /// All timer kinds, in the order the runtime should schedule them.
    pub const ALL: [Self; 3] = [Self::PssShuffle, Self::SliceGossip, Self::AntiEntropy];

    /// The period this timer runs at under `config`. Shared by every
    /// environment (and by the nodes' own re-arm effects) so schedules never
    /// drift apart between backends.
    #[must_use]
    pub fn period(self, config: &NodeConfig) -> Duration {
        match self {
            Self::PssShuffle => config.pss.shuffle_period,
            Self::SliceGossip => config.slicing.gossip_period,
            Self::AntiEntropy => config.replication.anti_entropy_period,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_types::NodeProfile;

    #[test]
    fn message_kinds_are_categorised() {
        use crate::stats::MessageKind;
        let shuffle = Message::Shuffle(ShuffleRequest {
            descriptors: vec![],
        });
        assert_eq!(shuffle.kind(), MessageKind::Membership);
        let gossip = Message::SliceGossip(SliceExchange { samples: vec![] });
        assert_eq!(gossip.kind(), MessageKind::Slicing);
        let put = Message::Put(Arc::new(PutRequest {
            id: RequestId::new(1, 1),
            client: 1,
            object: StoredObject::new(Key::from_raw(1), Version::new(1), Value::default()),
            phase: DisseminationPhase::Global,
            ttl: 3,
        }));
        assert_eq!(put.kind(), MessageKind::Request);
        let digest = Message::AntiEntropyDigest {
            digest: Arc::new(StoreDigest::new()),
            range: KeyRange::FULL,
        };
        assert_eq!(digest.kind(), MessageKind::AntiEntropy);
        let push = Message::AntiEntropyPush {
            objects: Arc::from(vec![]),
        };
        assert_eq!(push.kind(), MessageKind::AntiEntropy);
    }

    #[test]
    fn client_request_accessors() {
        let put = ClientRequest::Put {
            id: RequestId::new(3, 9),
            key: Key::from_user_key("a"),
            version: Version::new(1),
            value: Value::from_bytes(b"x"),
        };
        assert_eq!(put.id(), RequestId::new(3, 9));
        assert_eq!(put.key(), Key::from_user_key("a"));
        let get = ClientRequest::Get {
            id: RequestId::new(3, 10),
            key: Key::from_user_key("b"),
            version: None,
        };
        assert_eq!(get.id(), RequestId::new(3, 10));
        assert_eq!(get.key(), Key::from_user_key("b"));
    }

    #[test]
    fn timer_kinds_are_exhaustive() {
        assert_eq!(TimerKind::ALL.len(), 3);
        let unique: std::collections::HashSet<_> = TimerKind::ALL.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn timer_periods_come_from_the_config() {
        let config = NodeConfig::default();
        assert_eq!(
            TimerKind::PssShuffle.period(&config),
            config.pss.shuffle_period
        );
        assert_eq!(
            TimerKind::SliceGossip.period(&config),
            config.slicing.gossip_period
        );
        assert_eq!(
            TimerKind::AntiEntropy.period(&config),
            config.replication.anti_entropy_period
        );
    }

    #[test]
    fn outputs_carry_their_payloads() {
        let reply = Output::Reply {
            client: 7,
            reply: ClientReply {
                request: RequestId::new(7, 0),
                responder: NodeId::new(1),
                responder_slice: Some(SliceId::new(2)),
                body: ReplyBody::GetMiss {
                    key: Key::from_user_key("missing"),
                },
            },
        };
        match reply {
            Output::Reply { client, reply } => {
                assert_eq!(client, 7);
                assert_eq!(reply.responder, NodeId::new(1));
            }
            Output::Send { .. } | Output::SendBatch { .. } | Output::Timer { .. } => {
                panic!("expected a reply")
            }
        }
        // Descriptor-carrying membership messages stay comparable.
        let a = Message::Shuffle(ShuffleRequest {
            descriptors: vec![dataflasks_membership::NodeDescriptor::new(
                NodeId::new(1),
                NodeProfile::default(),
            )],
        });
        assert_eq!(a.clone(), a);
    }
}
