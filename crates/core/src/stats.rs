//! Per-node message and operation accounting.
//!
//! The paper's evaluation reports "the average number of messages each node
//! had to send/receive to perform the YCSB requests". Every node therefore
//! counts the messages it sends and receives, broken down by protocol
//! category, so that the experiment harness can reproduce that metric (and
//! also report the background gossip cost separately).

use std::fmt;

/// Broad categories of protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Peer Sampling Service traffic (Cyclon shuffles and their replies).
    Membership,
    /// Distributed slicing gossip.
    Slicing,
    /// Epidemic request dissemination (puts and gets).
    Request,
    /// Replies and acknowledgements delivered to clients.
    Reply,
    /// Anti-entropy replica repair and state transfer.
    AntiEntropy,
}

impl MessageKind {
    /// All categories, in display order.
    pub const ALL: [Self; 5] = [
        Self::Membership,
        Self::Slicing,
        Self::Request,
        Self::Reply,
        Self::AntiEntropy,
    ];

    fn index(self) -> usize {
        match self {
            Self::Membership => 0,
            Self::Slicing => 1,
            Self::Request => 2,
            Self::Reply => 3,
            Self::AntiEntropy => 4,
        }
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Membership => "membership",
            Self::Slicing => "slicing",
            Self::Request => "request",
            Self::Reply => "reply",
            Self::AntiEntropy => "anti-entropy",
        };
        f.write_str(name)
    }
}

/// Message and operation counters of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    sent: [u64; 5],
    received: [u64; 5],
    /// Puts applied to the local store.
    pub puts_stored: u64,
    /// Puts absorbed because a newer or equal version was already stored.
    pub puts_ignored: u64,
    /// Get requests answered with an object.
    pub gets_hit: u64,
    /// Get requests answered with a miss by a responsible replica.
    pub gets_missed: u64,
    /// Requests dropped because their TTL expired outside the target slice.
    pub requests_expired: u64,
    /// Requests ignored because they had already been seen (duplicate
    /// suppression).
    pub requests_duplicate: u64,
    /// Objects received through anti-entropy repair.
    pub objects_repaired: u64,
    /// Anti-entropy rounds skipped because the chunk's digest fingerprint
    /// matched the peer's at the last in-sync exchange (adaptive chunk
    /// scheduling: unchanged chunks cost no traffic).
    pub ae_chunks_skipped: u64,
    /// Inbound wire frames rejected before dispatch because they failed to
    /// decode (`WireError::Malformed`, `FrameTooLarge` or an unknown tag).
    /// A transport-only counter: byte-exact transports (the in-process
    /// runtimes, a healthy socket deployment) keep it at zero; the socket
    /// backend counts each rejected frame here and closes the offending
    /// connection.
    pub wire_rejects: u64,
    /// Outbound protocol messages dropped by injected fault loss (nemesis
    /// `Loss` windows). Counted per message, not per frame — a dropped
    /// frame carrying a batch counts every message it carried — so the
    /// tally is a pure function of the deterministic message flow and
    /// compares exactly across backends whose frame boundaries differ.
    /// Zero outside fault-injection runs; benches and the invariant
    /// checker audit injected-fault accounting against it.
    pub frames_dropped_injected: u64,
    /// Outbound protocol messages delivered twice by injected duplication
    /// (nemesis `Duplicate` windows). Per-message, like
    /// `frames_dropped_injected`.
    pub frames_duplicated_injected: u64,
    /// Outbound protocol messages refused because the destination was
    /// across an active injected partition or blocked directed link.
    /// Per-message, like `frames_dropped_injected`.
    pub partition_refusals: u64,
    /// Number of times the node changed slice.
    pub slice_changes: u64,
}

impl NodeStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message of the given kind.
    pub fn record_sent(&mut self, kind: MessageKind) {
        self.sent[kind.index()] += 1;
    }

    /// Records one received message of the given kind.
    pub fn record_received(&mut self, kind: MessageKind) {
        self.received[kind.index()] += 1;
    }

    /// Messages sent in a category.
    #[must_use]
    pub fn sent(&self, kind: MessageKind) -> u64 {
        self.sent[kind.index()]
    }

    /// Messages received in a category.
    #[must_use]
    pub fn received(&self, kind: MessageKind) -> u64 {
        self.received[kind.index()]
    }

    /// Total messages sent across all categories.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages received across all categories.
    #[must_use]
    pub fn total_received(&self) -> u64 {
        self.received.iter().sum()
    }

    /// Messages sent plus received that were needed to *perform requests* —
    /// the metric of the paper's Figures 3 and 4 (request dissemination and
    /// the replies back to clients; background gossip is excluded).
    #[must_use]
    pub fn request_messages(&self) -> u64 {
        self.sent(MessageKind::Request)
            + self.received(MessageKind::Request)
            + self.sent(MessageKind::Reply)
            + self.received(MessageKind::Reply)
    }

    /// All messages sent plus received, including background gossip.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_sent() + self.total_received()
    }

    /// Merges another node's counters into this one (used to aggregate
    /// cluster-wide totals).
    pub fn merge(&mut self, other: &Self) {
        for i in 0..self.sent.len() {
            self.sent[i] += other.sent[i];
            self.received[i] += other.received[i];
        }
        self.puts_stored += other.puts_stored;
        self.puts_ignored += other.puts_ignored;
        self.gets_hit += other.gets_hit;
        self.gets_missed += other.gets_missed;
        self.requests_expired += other.requests_expired;
        self.requests_duplicate += other.requests_duplicate;
        self.objects_repaired += other.objects_repaired;
        self.ae_chunks_skipped += other.ae_chunks_skipped;
        self.wire_rejects += other.wire_rejects;
        self.frames_dropped_injected += other.frames_dropped_injected;
        self.frames_duplicated_injected += other.frames_duplicated_injected;
        self.partition_refusals += other.partition_refusals;
        self.slice_changes += other.slice_changes;
    }
}

impl fmt::Display for NodeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} received={} request_messages={} puts_stored={} gets_hit={}",
            self.total_sent(),
            self.total_received(),
            self.request_messages(),
            self.puts_stored,
            self.gets_hit
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_kind() {
        let mut stats = NodeStats::new();
        stats.record_sent(MessageKind::Request);
        stats.record_sent(MessageKind::Request);
        stats.record_received(MessageKind::Membership);
        assert_eq!(stats.sent(MessageKind::Request), 2);
        assert_eq!(stats.sent(MessageKind::Membership), 0);
        assert_eq!(stats.received(MessageKind::Membership), 1);
        assert_eq!(stats.total_sent(), 2);
        assert_eq!(stats.total_received(), 1);
        assert_eq!(stats.total_messages(), 3);
    }

    #[test]
    fn request_messages_excludes_background_gossip() {
        let mut stats = NodeStats::new();
        stats.record_sent(MessageKind::Request);
        stats.record_received(MessageKind::Reply);
        stats.record_sent(MessageKind::Membership);
        stats.record_sent(MessageKind::Slicing);
        stats.record_received(MessageKind::AntiEntropy);
        assert_eq!(stats.request_messages(), 2);
        assert_eq!(stats.total_messages(), 5);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = NodeStats::new();
        a.record_sent(MessageKind::Request);
        a.puts_stored = 3;
        let mut b = NodeStats::new();
        b.record_sent(MessageKind::Request);
        b.record_received(MessageKind::Reply);
        b.puts_stored = 2;
        b.slice_changes = 1;
        a.merge(&b);
        assert_eq!(a.sent(MessageKind::Request), 2);
        assert_eq!(a.received(MessageKind::Reply), 1);
        assert_eq!(a.puts_stored, 5);
        assert_eq!(a.slice_changes, 1);
    }

    #[test]
    fn display_is_nonempty_and_informative() {
        let mut stats = NodeStats::new();
        stats.record_sent(MessageKind::Request);
        let text = stats.to_string();
        assert!(text.contains("sent=1"));
        for kind in MessageKind::ALL {
            assert!(!kind.to_string().is_empty());
        }
    }
}
