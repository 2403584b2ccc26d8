//! The bounded partial view data structure.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use dataflasks_types::NodeId;

use crate::descriptor::NodeDescriptor;

/// A bounded set of [`NodeDescriptor`]s, at most one per node.
///
/// The view keeps the freshest descriptor seen for each node and never grows
/// beyond its capacity; when full, the oldest descriptors are evicted first.
/// It is the backing store of both the global Cyclon view and the intra-slice
/// view.
///
/// # Example
///
/// ```
/// use dataflasks_membership::{NodeDescriptor, PartialView};
/// use dataflasks_types::{NodeId, NodeProfile};
///
/// let mut view = PartialView::new(NodeId::new(0), 3);
/// for i in 1..=5u64 {
///     view.insert(NodeDescriptor::new(NodeId::new(i), NodeProfile::default()));
/// }
/// assert_eq!(view.len(), 3); // bounded
/// assert!(!view.contains(NodeId::new(0))); // never contains the owner
/// ```
#[derive(Debug, Clone)]
pub struct PartialView {
    owner: NodeId,
    capacity: usize,
    entries: Vec<NodeDescriptor>,
}

impl PartialView {
    /// Creates an empty view owned by `owner` holding at most `capacity`
    /// descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "a view needs a non-zero capacity");
        Self {
            owner,
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The node that owns this view.
    #[must_use]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Maximum number of descriptors the view holds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of descriptors currently in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the view holds no descriptors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if the view holds a descriptor for `node`.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.entries.iter().any(|d| d.id() == node)
    }

    /// Returns the descriptor for `node`, if present.
    #[must_use]
    pub fn get(&self, node: NodeId) -> Option<&NodeDescriptor> {
        self.entries.iter().find(|d| d.id() == node)
    }

    /// Iterates over the descriptors in the view.
    pub fn iter(&self) -> impl Iterator<Item = &NodeDescriptor> {
        self.entries.iter()
    }

    /// Returns the identities of all nodes in the view.
    #[must_use]
    pub fn peer_ids(&self) -> Vec<NodeId> {
        self.entries.iter().map(NodeDescriptor::id).collect()
    }

    /// Drops every descriptor, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Inserts a descriptor, keeping the freshest copy per node and evicting
    /// the oldest descriptor if the view is over capacity.
    ///
    /// Descriptors of the owner itself are ignored (a node never keeps itself
    /// in its own view). Returns `true` if the view changed.
    pub fn insert(&mut self, descriptor: NodeDescriptor) -> bool {
        if descriptor.id() == self.owner {
            return false;
        }
        if let Some(existing) = self.entries.iter_mut().find(|d| d.id() == descriptor.id()) {
            if descriptor.is_fresher_than(existing)
                || (descriptor.age() == existing.age() && *existing != descriptor)
            {
                *existing = descriptor;
                return true;
            }
            return false;
        }
        self.entries.push(descriptor);
        if self.entries.len() > self.capacity {
            self.evict_oldest();
        }
        true
    }

    /// Removes the descriptor for `node`, returning it if it was present.
    pub fn remove(&mut self, node: NodeId) -> Option<NodeDescriptor> {
        let index = self.entries.iter().position(|d| d.id() == node)?;
        Some(self.entries.swap_remove(index))
    }

    /// Increments the age of every descriptor in the view by one round and
    /// drops descriptors older than `max_age`.
    pub fn age_and_expire(&mut self, max_age: u32) {
        for d in &mut self.entries {
            d.increase_age();
        }
        self.entries.retain(|d| d.age() <= max_age);
    }

    /// Returns the identity of the oldest descriptor in the view (ties broken
    /// by node identity for determinism).
    #[must_use]
    pub fn oldest_peer(&self) -> Option<NodeId> {
        self.entries
            .iter()
            .max_by_key(|d| (d.age(), d.id()))
            .map(NodeDescriptor::id)
    }

    /// Selects up to `n` distinct random descriptors from the view.
    #[must_use]
    pub fn sample<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<NodeDescriptor> {
        let mut copy: Vec<NodeDescriptor> = self.entries.clone();
        copy.shuffle(rng);
        copy.truncate(n);
        copy
    }

    /// Selects up to `n` distinct random peer identities from the view.
    #[must_use]
    pub fn sample_peers<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<NodeId> {
        let mut peers = Vec::new();
        self.sample_peers_into(n, rng, &mut peers);
        peers
    }

    /// Like [`Self::sample_peers`], but fills a caller-owned buffer so hot
    /// paths can reuse one allocation across calls. The buffer is cleared
    /// first.
    pub fn sample_peers_into<R: Rng>(&self, n: usize, rng: &mut R, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.entries.iter().map(NodeDescriptor::id));
        out.shuffle(rng);
        out.truncate(n);
    }

    /// Selects one random peer from the view.
    #[must_use]
    pub fn random_peer<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        self.entries.choose(rng).map(NodeDescriptor::id)
    }

    /// Removes and returns up to `n` random descriptors (used by the Cyclon
    /// shuffle, which sends descriptors away and replaces them with received
    /// ones).
    #[must_use]
    pub fn take_random<R: Rng>(&mut self, n: usize, rng: &mut R) -> Vec<NodeDescriptor> {
        let n = n.min(self.entries.len());
        let mut taken = Vec::with_capacity(n);
        for _ in 0..n {
            let index = rng.gen_range(0..self.entries.len());
            taken.push(self.entries.swap_remove(index));
        }
        taken
    }

    /// Merges received descriptors into the view, Cyclon-style.
    ///
    /// Received descriptors have priority over the descriptors that were sent
    /// away in the same shuffle (`sent`), which are only re-inserted to fill
    /// leftover space. The view never exceeds its capacity.
    pub fn merge_shuffle(&mut self, received: Vec<NodeDescriptor>, sent: &[NodeDescriptor]) {
        for descriptor in received {
            if descriptor.id() == self.owner {
                continue;
            }
            if self.entries.len() < self.capacity || self.contains(descriptor.id()) {
                self.insert(descriptor);
            } else if let Some(slot) = self
                .entries
                .iter()
                .position(|d| sent.iter().any(|s| s.id() == d.id()))
            {
                // Replace one of the entries we just sent away.
                self.entries[slot] = descriptor;
            } else {
                self.evict_oldest();
                self.insert(descriptor);
            }
        }
        // Re-fill with sent descriptors if there is room left.
        for descriptor in sent {
            if self.entries.len() >= self.capacity {
                break;
            }
            self.insert(*descriptor);
        }
    }

    fn evict_oldest(&mut self) {
        if let Some(oldest) = self.oldest_peer() {
            self.remove(oldest);
        }
    }
}

impl fmt::Display for PartialView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view({} peers of {})", self.entries.len(), self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_types::NodeProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn descriptor(id: u64) -> NodeDescriptor {
        NodeDescriptor::new(NodeId::new(id), NodeProfile::default())
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_is_rejected() {
        let _ = PartialView::new(NodeId::new(0), 0);
    }

    #[test]
    fn insert_respects_capacity_and_self_exclusion() {
        let mut view = PartialView::new(NodeId::new(0), 2);
        assert!(!view.insert(descriptor(0)), "self must be rejected");
        assert!(view.insert(descriptor(1)));
        assert!(view.insert(descriptor(2)));
        assert!(view.insert(descriptor(3)));
        assert_eq!(view.len(), 2);
        assert!(!view.contains(NodeId::new(0)));
    }

    #[test]
    fn insert_keeps_freshest_descriptor_per_node() {
        let mut view = PartialView::new(NodeId::new(0), 4);
        view.insert(descriptor(1).with_age(5));
        assert!(view.insert(descriptor(1).with_age(1)));
        assert_eq!(view.get(NodeId::new(1)).unwrap().age(), 1);
        // An older descriptor never replaces a fresher one.
        assert!(!view.insert(descriptor(1).with_age(9)));
        assert_eq!(view.get(NodeId::new(1)).unwrap().age(), 1);
    }

    #[test]
    fn eviction_removes_the_oldest_entry() {
        let mut view = PartialView::new(NodeId::new(0), 2);
        view.insert(descriptor(1).with_age(9));
        view.insert(descriptor(2).with_age(1));
        view.insert(descriptor(3).with_age(0));
        assert_eq!(view.len(), 2);
        assert!(!view.contains(NodeId::new(1)), "oldest should be evicted");
    }

    #[test]
    fn age_and_expire_drops_stale_descriptors() {
        let mut view = PartialView::new(NodeId::new(0), 4);
        view.insert(descriptor(1).with_age(0));
        view.insert(descriptor(2).with_age(10));
        view.age_and_expire(10);
        assert!(view.contains(NodeId::new(1)));
        assert!(!view.contains(NodeId::new(2)), "descriptor aged past max");
        assert_eq!(view.get(NodeId::new(1)).unwrap().age(), 1);
    }

    #[test]
    fn oldest_peer_is_the_max_age() {
        let mut view = PartialView::new(NodeId::new(0), 4);
        assert_eq!(view.oldest_peer(), None);
        view.insert(descriptor(1).with_age(3));
        view.insert(descriptor(2).with_age(7));
        view.insert(descriptor(3).with_age(5));
        assert_eq!(view.oldest_peer(), Some(NodeId::new(2)));
    }

    #[test]
    fn sampling_returns_distinct_known_peers() {
        let mut view = PartialView::new(NodeId::new(0), 8);
        for i in 1..=8u64 {
            view.insert(descriptor(i));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let sample = view.sample_peers(5, &mut rng);
        assert_eq!(sample.len(), 5);
        let unique: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(unique.len(), 5);
        assert!(sample.iter().all(|p| view.contains(*p)));
        // Asking for more than available returns everything.
        assert_eq!(view.sample_peers(100, &mut rng).len(), 8);
    }

    #[test]
    fn take_random_removes_from_the_view() {
        let mut view = PartialView::new(NodeId::new(0), 8);
        for i in 1..=6u64 {
            view.insert(descriptor(i));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let taken = view.take_random(4, &mut rng);
        assert_eq!(taken.len(), 4);
        assert_eq!(view.len(), 2);
        for d in &taken {
            assert!(!view.contains(d.id()));
        }
    }

    #[test]
    fn merge_shuffle_prefers_received_descriptors() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut view = PartialView::new(NodeId::new(0), 3);
        for i in 1..=3u64 {
            view.insert(descriptor(i));
        }
        let sent = view.take_random(2, &mut rng);
        let received = vec![descriptor(10), descriptor(11)];
        view.merge_shuffle(received, &sent);
        assert!(view.contains(NodeId::new(10)));
        assert!(view.contains(NodeId::new(11)));
        assert!(view.len() <= 3);
    }

    #[test]
    fn merge_shuffle_ignores_owner_and_respects_capacity() {
        let mut view = PartialView::new(NodeId::new(0), 2);
        view.insert(descriptor(1));
        view.insert(descriptor(2));
        view.merge_shuffle(vec![descriptor(0), descriptor(3), descriptor(4)], &[]);
        assert!(!view.contains(NodeId::new(0)));
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn display_reports_fill_level() {
        let mut view = PartialView::new(NodeId::new(0), 4);
        view.insert(descriptor(1));
        assert_eq!(view.to_string(), "view(1 peers of 4)");
    }
}
