//! The only module of the harness that names `dataflasks::*`.
//!
//! Everything the benchmark touches in the program goes through here, by
//! public calls alone: `dataflasks::prelude` names, plus
//! `dataflasks::core::{wire, sched, wheel, dedup, gateway}` for the layer
//! pass and `dataflasks::core::ReplyBody` to read an acknowledgement. A
//! change that renames or merges runtimes keeps the harness compiling by
//! editing this module (or by leaving aliases behind) — nothing else in
//! `benchmark/` knows the program's names.

pub mod cluster;
pub mod layers;
pub mod sim;

pub use dataflasks::prelude::{
    Completion, Duration, Key, KeyDistribution, NodeStats, Operation, OperationKind, Ticket, Value,
    Version, WorkloadGenerator, WorkloadSpec,
};

/// Message totals of a set of nodes by protocol category: the paper's
/// "messages per node" figures are ratios of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageTotals {
    /// Request-dissemination messages sent (puts and gets travelling).
    pub request_sent: u64,
    /// Request-dissemination messages received.
    pub request_received: u64,
    /// Replies sent towards clients.
    pub reply_sent: u64,
    /// Peer-sampling (Cyclon) messages sent.
    pub membership_sent: u64,
    /// Slicing gossip messages sent.
    pub slicing_sent: u64,
    /// Anti-entropy messages sent.
    pub anti_entropy_sent: u64,
    /// Request plus reply messages, sent plus received (the paper's Fig. 3
    /// quantity, summed over nodes).
    pub request_messages: u64,
    /// Every message, sent plus received.
    pub total_messages: u64,
}

impl MessageTotals {
    /// Reads the per-category totals out of summed node counters.
    pub fn of(stats: &NodeStats) -> Self {
        use dataflasks::prelude::MessageKind;
        Self {
            request_sent: stats.sent(MessageKind::Request),
            request_received: stats.received(MessageKind::Request),
            reply_sent: stats.sent(MessageKind::Reply),
            membership_sent: stats.sent(MessageKind::Membership),
            slicing_sent: stats.sent(MessageKind::Slicing),
            anti_entropy_sent: stats.sent(MessageKind::AntiEntropy),
            request_messages: stats.request_messages(),
            total_messages: stats.total_messages(),
        }
    }
}

/// What a set of nodes looked like when the run ended: summed counters and
/// the slice census.
#[derive(Debug, Clone, Default)]
pub struct NodeTotals {
    /// Nodes summed over.
    pub nodes: usize,
    /// Counters summed over every node.
    pub stats: NodeStats,
    /// Message totals by category.
    pub messages: MessageTotals,
    /// Slices the configuration divides the key space into.
    pub slices: u32,
    /// Slices at least one node currently claims.
    pub populated_slices: usize,
}

impl NodeTotals {
    /// Sums `stats` of every node and takes the slice census.
    pub fn collect<'a, I>(nodes: I, slices: u32) -> Self
    where
        I: IntoIterator<Item = (&'a NodeStats, Option<u32>)>,
    {
        let mut total = NodeStats::new();
        let mut claimed = std::collections::BTreeSet::new();
        let mut count = 0;
        for (stats, slice) in nodes {
            total.merge(stats);
            claimed.extend(slice);
            count += 1;
        }
        Self {
            nodes: count,
            messages: MessageTotals::of(&total),
            stats: total,
            slices,
            populated_slices: claimed.len(),
        }
    }
}

/// How one client operation ended, in the harness's own terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A replica stored the put and acknowledged this key and version.
    Acked {
        /// Key acknowledged.
        key: Key,
        /// Version acknowledged.
        version: u64,
    },
    /// A replica served an object.
    Hit {
        /// Key of the object served.
        key: Key,
        /// Its version.
        version: u64,
        /// Length of its value.
        len: usize,
        /// The byte every position of the value holds, if they all agree.
        fill: Option<u8>,
    },
    /// Replicas answered, none held the object.
    Miss,
    /// Nobody answered before the deadline.
    TimedOut,
}

impl Outcome {
    /// Describes a served object.
    pub fn hit(key: Key, version: Version, value: &Value) -> Self {
        let bytes = value.as_slice();
        let fill = bytes
            .first()
            .copied()
            .filter(|first| bytes.iter().all(|b| b == first));
        Self::Hit {
            key,
            version: version.as_u64(),
            len: bytes.len(),
            fill,
        }
    }
}
