//! DataFlasks: an epidemic dependable key-value substrate.
//!
//! This crate implements the paper's primary contribution — the DataFlasks
//! node and its client library — on top of the substrates provided by the
//! sibling crates (`dataflasks-membership`, `dataflasks-slicing`,
//! `dataflasks-store`):
//!
//! * [`DataFlasksNode`] — the node state machine bundling the Peer Sampling
//!   Service, the Slice Manager, the request Handler, the Data Store and the
//!   anti-entropy repair extension (paper §IV and §V),
//! * [`ClientLibrary`] — the client-side component (paper §V): it picks a
//!   random contact node per operation and absorbs the many replies an
//!   epidemic produces,
//! * [`Effects`], [`EffectBuffer`], [`DispatchScratch`], [`NodeHost`],
//!   [`Environment`] — the sans-io environment layer: node handlers write
//!   their effects into a reusable sink that each dispatching thread owns
//!   and lends to the node it dispatches, and every environment (the
//!   discrete-event simulator of `dataflasks-sim` and the worker-pool
//!   runtime of `dataflasks-net-env`) drives nodes through the same
//!   interface,
//! * [`Message`], [`Output`], [`TimerKind`] — the protocol surface those
//!   environments route,
//! * [`NodeStats`] — the per-node message accounting the paper's evaluation
//!   (Figures 3 and 4) is based on.
//!
//! # Example
//!
//! ```
//! use dataflasks_core::{ClientRequest, DataFlasksNode, EffectBuffer, Output};
//! use dataflasks_membership::NodeDescriptor;
//! use dataflasks_store::{DataStore, MemoryStore};
//! use dataflasks_types::{Key, NodeConfig, NodeId, NodeProfile, RequestId, SimTime, Value, Version};
//!
//! // A single-slice, two-node toy system.
//! let config = NodeConfig::for_system_size(2, 1);
//! let mut node = DataFlasksNode::new(
//!     NodeId::new(0),
//!     config,
//!     NodeProfile::default(),
//!     MemoryStore::unbounded(),
//!     1,
//! );
//! node.bootstrap([NodeDescriptor::new(NodeId::new(1), NodeProfile::default())]);
//!
//! // With a single slice the node is responsible for every key, so a client
//! // put is stored locally and acknowledged immediately. The effects land in
//! // the caller-owned (reusable) buffer.
//! let mut fx = EffectBuffer::new();
//! node.handle_client_request(
//!     7,
//!     ClientRequest::Put {
//!         id: RequestId::new(7, 0),
//!         key: Key::from_user_key("greeting"),
//!         version: Version::new(1),
//!         value: Value::from_bytes(b"hello"),
//!     },
//!     SimTime::ZERO,
//!     &mut fx,
//! );
//! assert!(fx.as_slice().iter().any(|o| matches!(o, Output::Reply { .. })));
//! assert_eq!(node.store().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod dedup;
pub mod env;
pub mod fault;
pub mod gateway;
pub mod message;
pub mod node;
pub mod sched;
pub mod stats;
pub mod wheel;
pub mod wire;

pub use client::{ClientLibrary, ClientStats, CompletedOperation, IssuedRequest, OperationOutcome};
pub use env::{
    BootstrapRounds, ClusterSpec, DefaultStore, DispatchScratch, EffectBuffer, Effects,
    Environment, NodeHost,
};
pub use fault::{FaultPlan, InjectedCounters, LinkVerdict};
pub use gateway::{
    ClientGateway, ClientPort, Completion, GatewayError, PipelinedClient, Ticket, TicketKind,
    TicketOutcome,
};
pub use message::{
    ClientId, ClientReply, ClientRequest, DisseminationPhase, GetRequest, Message, Output,
    PutRequest, ReplyBody, TimerKind,
};
pub use node::DataFlasksNode;
pub use sched::{Inbox, Poll, PushOutcome, Scheduler, SchedulerConfig};
pub use stats::{MessageKind, NodeStats};
pub use wheel::{DueTimer, TimerWheel, WheelInstant};
pub use wire::{decode_frame, encode_frame, encode_output, DecodedFrame, WireError};
