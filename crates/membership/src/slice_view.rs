//! The intra-slice view.
//!
//! Once a request has reached a node of its target slice, dissemination
//! continues only among the nodes of that slice (paper §IV-B: "we consider a
//! Peer Sampling Service intra-slice"). The [`SliceView`] is fed with the
//! descriptors observed by the global Peer Sampling Service and keeps only
//! those that advertise the same slice as the local node, giving the request
//! handler a cheap source of intra-slice gossip targets.

use rand::Rng;

use dataflasks_types::{NodeId, SliceId};

use crate::descriptor::NodeDescriptor;
use crate::view::PartialView;

/// A bounded view restricted to peers of the local node's slice.
///
/// # Example
///
/// ```
/// use dataflasks_membership::{NodeDescriptor, SliceView};
/// use dataflasks_types::{NodeId, NodeProfile, SliceId};
///
/// let mut view = SliceView::new(NodeId::new(0), 4);
/// view.set_slice(Some(SliceId::new(2)));
/// view.observe(NodeDescriptor::new(NodeId::new(1), NodeProfile::default()).with_slice(Some(SliceId::new(2))));
/// view.observe(NodeDescriptor::new(NodeId::new(2), NodeProfile::default()).with_slice(Some(SliceId::new(3))));
/// assert_eq!(view.len(), 1); // only same-slice peers are retained
/// ```
#[derive(Debug, Clone)]
pub struct SliceView {
    slice: Option<SliceId>,
    view: PartialView,
}

impl SliceView {
    /// Creates an empty intra-slice view for `owner` holding at most
    /// `capacity` peers.
    #[must_use]
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        Self {
            slice: None,
            view: PartialView::new(owner, capacity),
        }
    }

    /// The slice this view is currently restricted to.
    #[must_use]
    pub fn slice(&self) -> Option<SliceId> {
        self.slice
    }

    /// Number of intra-slice peers currently known.
    #[must_use]
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Returns `true` if no intra-slice peer is known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Returns `true` if `peer` is a known intra-slice peer.
    #[must_use]
    pub fn contains(&self, peer: NodeId) -> bool {
        self.view.contains(peer)
    }

    /// Identities of all known intra-slice peers.
    #[must_use]
    pub fn peer_ids(&self) -> Vec<NodeId> {
        self.view.peer_ids()
    }

    /// Changes the slice the local node belongs to.
    ///
    /// When the slice changes, previously collected peers are discarded: they
    /// belong to the old slice and keeping them would leak dissemination
    /// outside the new slice. The view is emptied in place, keeping its
    /// allocation.
    pub fn set_slice(&mut self, slice: Option<SliceId>) {
        if self.slice != slice {
            self.slice = slice;
            self.view.clear();
        }
    }

    /// Feeds one observed descriptor into the view. Only descriptors
    /// advertising the local slice are retained. Returns `true` if the view
    /// changed.
    pub fn observe(&mut self, descriptor: NodeDescriptor) -> bool {
        match (self.slice, descriptor.slice()) {
            (Some(mine), Some(theirs)) if mine == theirs => self.view.insert(descriptor),
            _ => false,
        }
    }

    /// Ages the view and expires stale peers.
    pub fn age_and_expire(&mut self, max_age: u32) {
        self.view.age_and_expire(max_age);
    }

    /// Removes a peer (e.g. suspected dead, or observed in another slice).
    pub fn purge(&mut self, peer: NodeId) {
        self.view.remove(peer);
    }

    /// Selects up to `n` distinct random intra-slice peers.
    #[must_use]
    pub fn sample_peers<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<NodeId> {
        self.view.sample_peers(n, rng)
    }

    /// Like [`Self::sample_peers`], but fills a caller-owned buffer so hot
    /// paths can reuse one allocation across calls.
    pub fn sample_peers_into<R: Rng>(&self, n: usize, rng: &mut R, out: &mut Vec<NodeId>) {
        self.view.sample_peers_into(n, rng, out);
    }

    /// Selects one random intra-slice peer.
    #[must_use]
    pub fn random_peer<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        self.view.random_peer(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_types::NodeProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn descriptor(id: u64, slice: Option<u32>) -> NodeDescriptor {
        NodeDescriptor::new(NodeId::new(id), NodeProfile::default())
            .with_slice(slice.map(SliceId::new))
    }

    #[test]
    fn only_same_slice_descriptors_are_retained() {
        let mut view = SliceView::new(NodeId::new(0), 8);
        view.set_slice(Some(SliceId::new(1)));
        assert!(view.observe(descriptor(1, Some(1))));
        assert!(!view.observe(descriptor(2, Some(2))));
        assert!(!view.observe(descriptor(3, None)));
        assert_eq!(view.len(), 1);
        assert!(view.contains(NodeId::new(1)));
    }

    #[test]
    fn without_a_slice_nothing_is_retained() {
        let mut view = SliceView::new(NodeId::new(0), 8);
        assert!(!view.observe(descriptor(1, Some(0))));
        assert!(view.is_empty());
    }

    #[test]
    fn changing_slice_clears_the_view() {
        let mut view = SliceView::new(NodeId::new(0), 8);
        view.set_slice(Some(SliceId::new(1)));
        view.observe(descriptor(1, Some(1)));
        view.observe(descriptor(2, Some(1)));
        assert_eq!(view.len(), 2);
        view.set_slice(Some(SliceId::new(2)));
        assert!(view.is_empty());
        assert_eq!(view.slice(), Some(SliceId::new(2)));
        // Setting the same slice again must not clear it.
        view.observe(descriptor(3, Some(2)));
        view.set_slice(Some(SliceId::new(2)));
        assert_eq!(view.len(), 1);
        // A view cleared in place keeps its owner and its bound.
        view.set_slice(Some(SliceId::new(3)));
        for i in 0..20u64 {
            view.observe(descriptor(i, Some(3)));
        }
        assert_eq!(view.len(), 8);
        assert!(!view.contains(NodeId::new(0)));
    }

    #[test]
    fn sampling_only_returns_slice_peers() {
        let mut view = SliceView::new(NodeId::new(0), 16);
        view.set_slice(Some(SliceId::new(0)));
        for i in 1..=10u64 {
            view.observe(descriptor(i, Some(0)));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let sample = view.sample_peers(4, &mut rng);
        assert_eq!(sample.len(), 4);
        assert!(sample.iter().all(|p| view.contains(*p)));
        assert!(view.random_peer(&mut rng).is_some());
    }

    #[test]
    fn aging_and_purging_work() {
        let mut view = SliceView::new(NodeId::new(0), 8);
        view.set_slice(Some(SliceId::new(0)));
        view.observe(descriptor(1, Some(0)));
        view.observe(descriptor(2, Some(0)));
        view.purge(NodeId::new(1));
        assert!(!view.contains(NodeId::new(1)));
        for _ in 0..25 {
            view.age_and_expire(20);
        }
        assert!(view.is_empty(), "stale peers must eventually expire");
    }

    #[test]
    fn capacity_is_respected() {
        let mut view = SliceView::new(NodeId::new(0), 3);
        view.set_slice(Some(SliceId::new(0)));
        for i in 1..=10u64 {
            view.observe(descriptor(i, Some(0)));
        }
        assert_eq!(view.len(), 3);
        assert_eq!(view.peer_ids().len(), 3);
    }
}
