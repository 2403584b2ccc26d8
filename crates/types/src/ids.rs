//! Node and request identifiers.

use std::fmt;

/// Identity of a DataFlasks node.
///
/// Node identifiers are opaque 64-bit values. In the simulator they are dense
/// indices (`0..n`), in a deployment they are assigned by the operator. Nothing in the protocols depends on identifiers being dense or
/// contiguous — placement is governed by the slicing protocol, not by the
/// identifier (this is exactly the difference with a DHT).
///
/// # Example
///
/// ```
/// use dataflasks_types::NodeId;
///
/// let a = NodeId::new(7);
/// assert_eq!(a.as_u64(), 7);
/// assert_eq!(a.to_string(), "n7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from its raw 64-bit representation.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw 64-bit representation.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        Self::new(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.as_u64()
    }
}

/// Unique identifier attached to every client request.
///
/// Epidemic dissemination delivers the same request to a node several times
/// and several replicas may answer the same read; request identifiers let
/// both the nodes (forward-once duplicate suppression) and the client library
/// (first-reply-wins) deduplicate.
///
/// A request identifier is the pair of the issuing client and a per-client
/// sequence number, which makes identifiers unique without coordination.
///
/// # Example
///
/// ```
/// use dataflasks_types::RequestId;
///
/// let first = RequestId::new(3, 0);
/// let second = RequestId::new(3, 1);
/// assert_ne!(first, second);
/// assert_eq!(first.client(), 3);
/// assert_eq!(second.sequence(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId {
    client: u64,
    sequence: u64,
}

impl RequestId {
    /// Creates a request identifier from a client identifier and a per-client
    /// sequence number.
    #[must_use]
    pub const fn new(client: u64, sequence: u64) -> Self {
        Self { client, sequence }
    }

    /// Identifier of the client that issued the request.
    #[must_use]
    pub const fn client(self) -> u64 {
        self.client
    }

    /// Per-client sequence number of the request.
    #[must_use]
    pub const fn sequence(self) -> u64 {
        self.sequence
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}#{}", self.client, self.sequence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_roundtrip_and_display() {
        let id = NodeId::from(123u64);
        assert_eq!(u64::from(id), 123);
        assert_eq!(format!("{id}"), "n123");
        assert_eq!(format!("{id:?}"), "NodeId(123)");
    }

    #[test]
    fn node_ids_order_by_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(5), NodeId::new(5));
    }

    #[test]
    fn request_ids_are_unique_per_client_sequence() {
        let mut seen = HashSet::new();
        for client in 0..10u64 {
            for seq in 0..10u64 {
                assert!(seen.insert(RequestId::new(client, seq)));
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn request_id_display_is_informative() {
        assert_eq!(RequestId::new(4, 17).to_string(), "c4#17");
    }

    #[test]
    fn default_ids_are_zero() {
        assert_eq!(NodeId::default().as_u64(), 0);
        assert_eq!(RequestId::default(), RequestId::new(0, 0));
    }
}
