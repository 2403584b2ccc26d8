//! The Cyclon shuffle protocol (Voulgaris, Gavidia, van Steen 2005).
//!
//! Cyclon is the Peer Sampling Service used by DataFlasks. Periodically each
//! node picks the *oldest* neighbour in its view, removes it, and exchanges a
//! random subset of its view (plus a fresh descriptor of itself) with that
//! neighbour. Both sides merge the received descriptors, preferring them over
//! the ones they sent away. The resulting directed graph is continuously
//! re-wired and its views converge to uniformly random samples of the
//! membership — the property epidemic dissemination relies on.

use rand::Rng;

use dataflasks_types::{NodeId, NodeProfile, PssConfig, SliceId};

use crate::descriptor::NodeDescriptor;
use crate::view::PartialView;

/// A Cyclon shuffle request: the initiator's descriptor subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleRequest {
    /// Descriptors offered by the initiator (includes a fresh descriptor of
    /// the initiator itself).
    pub descriptors: Vec<NodeDescriptor>,
}

/// A Cyclon shuffle response: the responder's descriptor subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleResponse {
    /// Descriptors offered by the responder.
    pub descriptors: Vec<NodeDescriptor>,
}

/// State machine of the Cyclon protocol for one node.
///
/// The protocol is sans-io: [`CyclonProtocol::initiate_shuffle`] returns the
/// peer to contact and the request payload, [`CyclonProtocol::handle_request`]
/// returns the response payload, and the caller is responsible for delivering
/// them (the simulator and the worker-pool runtime each provide a transport).
///
/// # Example
///
/// ```
/// use dataflasks_membership::{CyclonProtocol, NodeDescriptor};
/// use dataflasks_types::{NodeId, NodeProfile, PssConfig};
/// use rand::SeedableRng;
///
/// let cfg = PssConfig::default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut a = CyclonProtocol::new(NodeId::new(1), cfg);
/// let mut b = CyclonProtocol::new(NodeId::new(2), cfg);
/// a.view_mut().insert(NodeDescriptor::new(NodeId::new(2), NodeProfile::default()));
///
/// let (peer, request) = a.initiate_shuffle(&mut rng).unwrap();
/// assert_eq!(peer, b.local_id());
/// let response = b.handle_request(a.local_id(), request, &mut rng);
/// a.handle_response(response);
/// assert!(b.view().contains(NodeId::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct CyclonProtocol {
    local_id: NodeId,
    config: PssConfig,
    profile: NodeProfile,
    slice: Option<SliceId>,
    view: PartialView,
    /// Descriptors sent in the most recent shuffle we initiated, kept until
    /// the response arrives so that the merge can prefer received entries.
    pending_sent: Vec<NodeDescriptor>,
    shuffles_initiated: u64,
    shuffles_answered: u64,
}

impl CyclonProtocol {
    /// Creates a Cyclon instance for `local_id` with an empty view.
    #[must_use]
    pub fn new(local_id: NodeId, config: PssConfig) -> Self {
        Self {
            local_id,
            config,
            profile: NodeProfile::default(),
            slice: None,
            view: PartialView::new(local_id, config.view_size),
            pending_sent: Vec::new(),
            shuffles_initiated: 0,
            shuffles_answered: 0,
        }
    }

    /// Creates a Cyclon instance advertising the given profile.
    #[must_use]
    pub fn with_profile(local_id: NodeId, config: PssConfig, profile: NodeProfile) -> Self {
        let mut p = Self::new(local_id, config);
        p.profile = profile;
        p
    }

    /// The node this protocol instance runs on.
    #[must_use]
    pub fn local_id(&self) -> NodeId {
        self.local_id
    }

    /// Read access to the current partial view.
    #[must_use]
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// Write access to the current partial view (used for bootstrapping and
    /// by the failure detector to purge descriptors of dead nodes).
    pub fn view_mut(&mut self) -> &mut PartialView {
        &mut self.view
    }

    /// Sets the profile advertised in the node's own descriptor.
    pub fn set_profile(&mut self, profile: NodeProfile) {
        self.profile = profile;
    }

    /// Sets the slice advertised in the node's own descriptor (called by the
    /// slice manager whenever the local slice assignment changes).
    pub fn set_slice(&mut self, slice: Option<SliceId>) {
        self.slice = slice;
    }

    /// Number of shuffles this node initiated.
    #[must_use]
    pub fn shuffles_initiated(&self) -> u64 {
        self.shuffles_initiated
    }

    /// Number of shuffle requests this node answered.
    #[must_use]
    pub fn shuffles_answered(&self) -> u64 {
        self.shuffles_answered
    }

    /// Seeds the view with bootstrap contacts (used at start-up or when
    /// re-joining after a failure).
    pub fn bootstrap<I>(&mut self, contacts: I)
    where
        I: IntoIterator<Item = NodeDescriptor>,
    {
        for contact in contacts {
            self.view.insert(contact);
        }
    }

    /// A fresh descriptor of the local node, as advertised in shuffles.
    #[must_use]
    pub fn self_descriptor(&self) -> NodeDescriptor {
        NodeDescriptor::new(self.local_id, self.profile).with_slice(self.slice)
    }

    /// Starts one shuffle round.
    ///
    /// Ages the whole view, removes the oldest neighbour `q`, selects
    /// `shuffle_length - 1` additional random descriptors, prepends a fresh
    /// descriptor of the local node and returns `(q, request)`. Returns
    /// `None` when the view is empty (an isolated node has nobody to shuffle
    /// with until it is bootstrapped again).
    pub fn initiate_shuffle<R: Rng>(&mut self, rng: &mut R) -> Option<(NodeId, ShuffleRequest)> {
        self.view.age_and_expire(self.config.max_descriptor_age);
        let target = self.view.oldest_peer()?;
        // The target is removed from the view: if it is dead we forget it, if
        // it is alive it will most likely come back through the exchange.
        self.view.remove(target);
        let mut sent = self
            .view
            .take_random(self.config.shuffle_length.saturating_sub(1), rng);
        let mut descriptors = Vec::with_capacity(sent.len() + 1);
        descriptors.push(self.self_descriptor());
        descriptors.extend(sent.iter().copied());
        // Keep what we sent so the merge can prefer received descriptors, and
        // put the sent entries back until the response arrives (Cyclon keeps
        // them; they are replaced on merge if needed).
        for d in &sent {
            self.view.insert(*d);
        }
        sent.push(self.self_descriptor());
        self.pending_sent = sent;
        self.shuffles_initiated += 1;
        Some((target, ShuffleRequest { descriptors }))
    }

    /// Handles a shuffle request from `from`, returning the response to send
    /// back.
    pub fn handle_request<R: Rng>(
        &mut self,
        from: NodeId,
        request: ShuffleRequest,
        rng: &mut R,
    ) -> ShuffleResponse {
        self.shuffles_answered += 1;
        let offered = self.view.sample(self.config.shuffle_length, rng);
        self.view
            .merge_shuffle(Self::sanitize(request.descriptors, self.local_id), &offered);
        // Knowing the requester is always useful: make sure it is represented.
        // Only a placeholder is inserted when the merge did not already bring
        // in the requester's own (profile- and slice-carrying) descriptor, so
        // real information is never overwritten by a blank entry.
        if !self.view.contains(from) {
            self.view
                .insert(NodeDescriptor::new(from, NodeProfile::default()));
        }
        ShuffleResponse {
            descriptors: offered,
        }
    }

    /// Handles the response to a shuffle this node initiated.
    pub fn handle_response(&mut self, response: ShuffleResponse) {
        let sent = std::mem::take(&mut self.pending_sent);
        self.view
            .merge_shuffle(Self::sanitize(response.descriptors, self.local_id), &sent);
    }

    /// Notifies the protocol that `peer` is suspected dead (e.g. a request to
    /// it timed out); its descriptor is dropped so it stops being advertised.
    pub fn purge(&mut self, peer: NodeId) {
        self.view.remove(peer);
    }

    fn sanitize(descriptors: Vec<NodeDescriptor>, local: NodeId) -> Vec<NodeDescriptor> {
        descriptors
            .into_iter()
            .filter(|d| d.id() != local)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn descriptor(id: u64) -> NodeDescriptor {
        NodeDescriptor::new(NodeId::new(id), NodeProfile::default())
    }

    fn bootstrap_ring(count: u64, cfg: PssConfig) -> Vec<CyclonProtocol> {
        (0..count)
            .map(|i| {
                let mut p = CyclonProtocol::new(NodeId::new(i), cfg);
                p.bootstrap([descriptor((i + 1) % count)]);
                p
            })
            .collect()
    }

    #[test]
    fn initiate_with_empty_view_returns_none() {
        let mut p = CyclonProtocol::new(NodeId::new(0), PssConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(p.initiate_shuffle(&mut rng).is_none());
    }

    #[test]
    fn shuffle_request_starts_with_fresh_self_descriptor() {
        let mut p = CyclonProtocol::new(NodeId::new(7), PssConfig::default());
        p.bootstrap((1..5).map(descriptor));
        let mut rng = StdRng::seed_from_u64(0);
        let (_, request) = p.initiate_shuffle(&mut rng).unwrap();
        assert_eq!(request.descriptors[0].id(), NodeId::new(7));
        assert_eq!(request.descriptors[0].age(), 0);
        assert!(request.descriptors.len() <= PssConfig::default().shuffle_length);
    }

    #[test]
    fn shuffle_targets_the_oldest_peer_and_removes_it() {
        let mut p = CyclonProtocol::new(NodeId::new(0), PssConfig::default());
        p.bootstrap([descriptor(1).with_age(1), descriptor(2).with_age(9)]);
        let mut rng = StdRng::seed_from_u64(0);
        let (target, _) = p.initiate_shuffle(&mut rng).unwrap();
        assert_eq!(target, NodeId::new(2));
        assert!(!p.view().contains(NodeId::new(2)));
    }

    #[test]
    fn responder_learns_about_the_initiator() {
        let cfg = PssConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = CyclonProtocol::new(NodeId::new(1), cfg);
        let mut b = CyclonProtocol::new(NodeId::new(2), cfg);
        a.bootstrap([descriptor(2)]);
        let (_, request) = a.initiate_shuffle(&mut rng).unwrap();
        let _ = b.handle_request(NodeId::new(1), request, &mut rng);
        assert!(b.view().contains(NodeId::new(1)));
    }

    #[test]
    fn full_exchange_converges_to_mutual_knowledge() {
        let cfg = PssConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = CyclonProtocol::new(NodeId::new(1), cfg);
        let mut b = CyclonProtocol::new(NodeId::new(2), cfg);
        a.bootstrap([descriptor(2)]);
        b.bootstrap([descriptor(5), descriptor(6)]);
        let (target, request) = a.initiate_shuffle(&mut rng).unwrap();
        assert_eq!(target, NodeId::new(2));
        let response = b.handle_request(NodeId::new(1), request, &mut rng);
        a.handle_response(response);
        // a should now know some of b's neighbours or at least keep a full view.
        assert!(!a.view().is_empty());
        assert!(b.view().contains(NodeId::new(1)));
        assert_eq!(a.shuffles_initiated(), 1);
        assert_eq!(b.shuffles_answered(), 1);
    }

    #[test]
    fn views_never_contain_self_or_exceed_capacity() {
        let cfg = PssConfig {
            view_size: 6,
            shuffle_length: 4,
            ..PssConfig::default()
        };
        let mut nodes = bootstrap_ring(20, cfg);
        let mut rng = StdRng::seed_from_u64(3);
        for _round in 0..50 {
            for i in 0..nodes.len() {
                let Some((target, request)) = nodes[i].initiate_shuffle(&mut rng) else {
                    continue;
                };
                let initiator = nodes[i].local_id();
                let t = target.as_u64() as usize;
                let response = nodes[t].handle_request(initiator, request, &mut rng);
                nodes[i].handle_response(response);
            }
        }
        for node in &nodes {
            assert!(node.view().len() <= cfg.view_size);
            assert!(!node.view().contains(node.local_id()));
            assert!(!node.view().is_empty(), "connectivity must be preserved");
        }
    }

    #[test]
    fn ring_converges_to_random_like_overlay() {
        // Starting from a ring (each node knows only its successor), repeated
        // shuffles must spread knowledge: the average view size approaches the
        // configured capacity and in-degrees even out.
        let cfg = PssConfig {
            view_size: 8,
            shuffle_length: 5,
            ..PssConfig::default()
        };
        let mut nodes = bootstrap_ring(40, cfg);
        let mut rng = StdRng::seed_from_u64(4);
        for _round in 0..60 {
            for i in 0..nodes.len() {
                if let Some((target, request)) = nodes[i].initiate_shuffle(&mut rng) {
                    let initiator = nodes[i].local_id();
                    let t = target.as_u64() as usize;
                    let response = nodes[t].handle_request(initiator, request, &mut rng);
                    nodes[i].handle_response(response);
                }
            }
        }
        let avg_view: f64 =
            nodes.iter().map(|n| n.view().len() as f64).sum::<f64>() / nodes.len() as f64;
        assert!(avg_view > 6.0, "views should fill up, got {avg_view}");
        let views: Vec<PartialView> = nodes.iter().map(|n| n.view().clone()).collect();
        let stats = crate::analysis::in_degree_stats(&views);
        assert!(stats.max <= 40);
        assert!(stats.mean > 5.0);
    }

    #[test]
    fn purge_forgets_a_dead_peer() {
        let mut p = CyclonProtocol::new(NodeId::new(0), PssConfig::default());
        p.bootstrap([descriptor(1), descriptor(2)]);
        p.purge(NodeId::new(1));
        assert!(!p.view().contains(NodeId::new(1)));
        assert!(p.view().contains(NodeId::new(2)));
    }

    #[test]
    fn slice_and_profile_are_advertised() {
        let mut p = CyclonProtocol::with_profile(
            NodeId::new(0),
            PssConfig::default(),
            NodeProfile::with_capacity(42),
        );
        p.set_slice(Some(SliceId::new(3)));
        let d = p.self_descriptor();
        assert_eq!(d.profile().capacity(), 42);
        assert_eq!(d.slice(), Some(SliceId::new(3)));
    }

    #[test]
    fn stale_descriptors_expire_during_shuffles() {
        let cfg = PssConfig {
            max_descriptor_age: 2,
            ..PssConfig::default()
        };
        let mut p = CyclonProtocol::new(NodeId::new(0), cfg);
        p.bootstrap([descriptor(1).with_age(0), descriptor(2).with_age(2)]);
        let mut rng = StdRng::seed_from_u64(5);
        // First shuffle ages both; descriptor 2 exceeds max age and is dropped.
        let _ = p.initiate_shuffle(&mut rng);
        assert!(!p.view().contains(NodeId::new(2)));
    }
}
