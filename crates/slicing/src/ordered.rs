//! The gossip-based ordered slicer (rank estimation).
//!
//! Every node keeps a bounded buffer of `(node, attribute)` samples gathered
//! from slicing gossip exchanges and from the descriptors circulated by the
//! Peer Sampling Service. From the buffer it estimates its normalised rank —
//! the fraction of live nodes whose attribute is smaller than its own — and
//! maps the rank onto one of the `k` slices. Because samples are refreshed
//! and expired continuously, the assignment adapts to churn, to capacity
//! changes and to dynamic reconfiguration of `k`, which is the property the
//! paper requires from its slicing substrate (and which the "toss a coin"
//! hash assignment the paper rejects lacks).

use rand::Rng;

use dataflasks_types::{FastHashMap, NodeId, NodeProfile, SliceId, SlicePartition, SlicingConfig};

use crate::sample::AttributeSample;

/// A slicing gossip payload: a bounded selection of attribute samples.
///
/// The same payload type is used for the request and the reply of the
/// push-pull exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceExchange {
    /// The samples pushed by the sender (always includes a fresh sample of
    /// the sender itself).
    pub samples: Vec<AttributeSample>,
}

/// State machine of the ordered slicing protocol for one node.
///
/// # Example
///
/// ```
/// use dataflasks_slicing::OrderedSlicer;
/// use dataflasks_types::{NodeId, NodeProfile, SlicePartition, SlicingConfig};
///
/// let cfg = SlicingConfig::default();
/// let partition = SlicePartition::new(2);
/// let mut low = OrderedSlicer::new(NodeId::new(1), NodeProfile::with_capacity(10), cfg, partition);
/// // Tell the low-capacity node about a higher-capacity one.
/// low.observe(NodeId::new(2), NodeProfile::with_capacity(1_000));
/// // Its rank among the two nodes is 0 → first slice.
/// assert_eq!(low.current_slice().unwrap().index(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct OrderedSlicer {
    node: NodeId,
    profile: NodeProfile,
    config: SlicingConfig,
    partition: SlicePartition,
    round: u64,
    /// The sample buffer, dense: iteration, selection and eviction scans
    /// touch one contiguous run of ≤ `sample_buffer_size` copies. Order is
    /// insertion/swap-remove order — deterministic under a seeded driver,
    /// unlike hash-map iteration, so exchanges need no pre-sort.
    entries: Vec<AttributeSample>,
    /// `node → position in entries`, through the deterministic fast hasher.
    /// This is the gossip hot path's only hashed lookup.
    index: FastHashMap<NodeId, u32>,
    /// The local node's ordering key (cached; changes only with the profile).
    own_key: (u64, u64, u64),
    /// How many buffered samples order strictly below `own_key`, maintained
    /// incrementally so the rank estimate is O(1) instead of a buffer scan
    /// per query.
    below: usize,
    exchanges: u64,
    /// Scratch positions for sample selection (reused across exchanges).
    select_scratch: Vec<u32>,
    /// Eviction hand: where the next staleness sweep resumes. In a large
    /// cluster nearly every incoming sample is a new node, so eviction runs
    /// on almost every merge — a full min-scan per insert is quadratic in
    /// the buffer size. The hand amortises it to O(1) per eviction.
    evict_hand: usize,
}

impl OrderedSlicer {
    /// Creates a slicer for `node` advertising `profile`.
    #[must_use]
    pub fn new(
        node: NodeId,
        profile: NodeProfile,
        config: SlicingConfig,
        partition: SlicePartition,
    ) -> Self {
        Self {
            node,
            profile,
            config,
            partition,
            round: 0,
            entries: Vec::new(),
            index: FastHashMap::default(),
            own_key: Self::key_of(node, profile),
            below: 0,
            exchanges: 0,
            select_scratch: Vec::new(),
            evict_hand: 0,
        }
    }

    /// The total-order key of `node` advertising `profile` (attribute with
    /// the identity as final tie-breaker, like
    /// [`AttributeSample::ordering_key`]).
    fn key_of(node: NodeId, profile: NodeProfile) -> (u64, u64, u64) {
        let (capacity, tie) = profile.slicing_attribute();
        (capacity, tie, node.as_u64())
    }

    /// The node this slicer instance runs on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The slice the local node currently believes it belongs to: its
    /// estimated rank mapped onto the partition. Always `Some` — a node that
    /// knows nobody else ranks itself first.
    #[must_use]
    pub fn current_slice(&self) -> Option<SliceId> {
        Some(self.partition.slice_of_rank(self.estimated_rank()))
    }

    /// The key-space partition the slicer is configured for.
    #[must_use]
    pub fn partition(&self) -> SlicePartition {
        self.partition
    }

    /// Reconfigures the number of slices.
    ///
    /// Dynamic reconfiguration is the mechanism the paper proposes for
    /// autonomous replication management: shrinking `k` raises the
    /// replication factor, growing `k` raises the system capacity.
    pub fn set_partition(&mut self, partition: SlicePartition) {
        self.partition = partition;
    }

    /// The local node's profile used as the slicing attribute.
    #[must_use]
    pub fn profile(&self) -> NodeProfile {
        self.profile
    }

    /// Updates the locally measured profile (e.g. the capacity changed).
    pub fn set_profile(&mut self, profile: NodeProfile) {
        self.profile = profile;
        self.own_key = Self::key_of(self.node, profile);
        self.below = self
            .entries
            .iter()
            .filter(|s| s.ordering_key() < self.own_key)
            .count();
    }

    /// Number of gossip exchanges this node took part in.
    #[must_use]
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Number of distinct remote nodes currently represented in the sample
    /// buffer.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.entries.len()
    }

    /// The current local gossip round.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Records an observation of `node` having `profile`, refreshed at the
    /// current round. Observations of the local node are ignored.
    pub fn observe(&mut self, node: NodeId, profile: NodeProfile) {
        if node == self.node {
            return;
        }
        let sample = AttributeSample::new(node, profile, self.round);
        self.merge_sample(sample.refreshed_at(self.round));
    }

    /// Forgets everything known about `node` (suspected dead).
    pub fn purge(&mut self, node: NodeId) {
        if let Some(pos) = self.index.remove(&node) {
            self.remove_at(pos as usize);
        }
    }

    /// Removes the entry at `pos` by swap-remove, fixing the displaced
    /// entry's index slot and the rank counter.
    fn remove_at(&mut self, pos: usize) {
        let removed = self.entries.swap_remove(pos);
        if removed.ordering_key() < self.own_key {
            self.below -= 1;
        }
        if let Some(moved) = self.entries.get(pos) {
            self.index.insert(moved.node(), pos as u32);
        }
    }

    /// Advances the local gossip round: expires stale samples and returns the
    /// new round number. Call once per slicing gossip period.
    pub fn advance_round(&mut self) -> u64 {
        self.round += 1;
        let horizon = self
            .round
            .saturating_sub(u64::from(self.config.sample_ttl_rounds));
        // One sweep over the (small, dense) buffer per round.
        let mut pos = 0;
        while pos < self.entries.len() {
            if self.entries[pos].round() < horizon {
                self.index.remove(&self.entries[pos].node());
                self.remove_at(pos);
            } else {
                pos += 1;
            }
        }
        self.round
    }

    /// Builds the payload for a push-pull exchange with a random peer:
    /// a fresh sample of the local node plus a random selection of buffered
    /// samples.
    pub fn create_exchange<R: Rng>(&mut self, rng: &mut R) -> SliceExchange {
        self.exchanges += 1;
        SliceExchange {
            samples: self.select_samples(rng),
        }
    }

    /// Handles an exchange received from a peer and returns the reply.
    pub fn handle_exchange<R: Rng>(
        &mut self,
        exchange: SliceExchange,
        rng: &mut R,
    ) -> SliceExchange {
        self.exchanges += 1;
        let reply = SliceExchange {
            samples: self.select_samples(rng),
        };
        self.absorb(exchange);
        reply
    }

    /// Handles the reply to an exchange this node initiated.
    pub fn handle_reply(&mut self, reply: SliceExchange) {
        self.absorb(reply);
    }

    /// The node's estimated normalised rank in `[0, 1)` among the nodes it
    /// knows about (itself included): the fraction of known nodes whose
    /// attribute orders strictly below its own.
    #[must_use]
    pub fn estimated_rank(&self) -> f64 {
        // `below` is maintained on every buffer mutation: the estimate is a
        // division, not a scan.
        self.below as f64 / (self.entries.len() + 1) as f64
    }

    fn select_samples<R: Rng>(&mut self, rng: &mut R) -> Vec<AttributeSample> {
        // Partial Fisher–Yates over reusable positions: drawing `want` of
        // the buffered samples costs `want` swaps, not a sort plus a full
        // shuffle. Buffer order is already deterministic (insertion/swap
        // order under the seeded driver), so no pre-sort is needed for
        // run-to-run reproducibility.
        let want = self
            .config
            .samples_per_exchange
            .saturating_sub(1)
            .min(self.entries.len());
        let mut samples = Vec::with_capacity(want + 1);
        samples.push(AttributeSample::new(self.node, self.profile, self.round));
        self.select_scratch.clear();
        self.select_scratch.extend(0..self.entries.len() as u32);
        for chosen in 0..want {
            let pick = rng.gen_range(chosen..self.select_scratch.len());
            self.select_scratch.swap(chosen, pick);
            samples.push(self.entries[self.select_scratch[chosen] as usize]);
        }
        samples
    }

    fn absorb(&mut self, exchange: SliceExchange) {
        for sample in exchange.samples {
            if sample.node() == self.node {
                continue;
            }
            // Samples received now are evidence the node existed recently;
            // stamp them with the local round so expiry is local-clock based.
            self.merge_sample(sample.refreshed_at(self.round));
        }
    }

    fn merge_sample(&mut self, sample: AttributeSample) {
        if let Some(&pos) = self.index.get(&sample.node()) {
            let existing = &mut self.entries[pos as usize];
            if sample.is_newer_than(existing) || sample.round() == existing.round() {
                let was_below = existing.ordering_key() < self.own_key;
                *existing = sample;
                let now_below = sample.ordering_key() < self.own_key;
                match (was_below, now_below) {
                    (false, true) => self.below += 1,
                    (true, false) => self.below -= 1,
                    _ => {}
                }
            }
            return;
        }
        if self.entries.len() >= self.config.sample_buffer_size {
            self.evict_stalest();
        }
        if sample.ordering_key() < self.own_key {
            self.below += 1;
        }
        self.index.insert(sample.node(), self.entries.len() as u32);
        self.entries.push(sample);
    }

    fn evict_stalest(&mut self) {
        // CLOCK-style sweep: advance the hand, skipping entries refreshed in
        // the current round, and evict the first stale one. When every entry
        // is fresh (tiny cluster, everything re-heard this round), evict at
        // the hand anyway — any victim is equally current. Deterministic:
        // the hand is plain state, no randomness involved.
        let len = self.entries.len();
        if len == 0 {
            return;
        }
        let mut victim = self.evict_hand % len;
        for _ in 0..len {
            let pos = self.evict_hand % len;
            self.evict_hand = (self.evict_hand + 1) % len;
            if self.entries[pos].round() < self.round {
                victim = pos;
                break;
            }
        }
        self.index.remove(&self.entries[victim].node());
        self.remove_at(victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn slicer(id: u64, capacity: u64, k: u32) -> OrderedSlicer {
        OrderedSlicer::new(
            NodeId::new(id),
            NodeProfile::with_capacity_and_tie_break(capacity, id),
            SlicingConfig::default(),
            SlicePartition::new(k),
        )
    }

    #[test]
    fn isolated_node_lands_in_the_first_slice() {
        let s = slicer(1, 500, 10);
        assert_eq!(s.estimated_rank(), 0.0);
        assert_eq!(s.current_slice(), Some(SliceId::new(0)));
    }

    #[test]
    fn observations_shift_the_rank() {
        let mut s = slicer(1, 500, 2);
        s.observe(NodeId::new(2), NodeProfile::with_capacity(100));
        s.observe(NodeId::new(3), NodeProfile::with_capacity(200));
        s.observe(NodeId::new(4), NodeProfile::with_capacity(900));
        // 2 of 4 known nodes are below us: rank 0.5 → second of two slices.
        assert!((s.estimated_rank() - 0.5).abs() < f64::EPSILON);
        assert_eq!(s.current_slice(), Some(SliceId::new(1)));
        assert_eq!(s.sample_count(), 3);
    }

    #[test]
    fn self_observations_are_ignored() {
        let mut s = slicer(1, 500, 4);
        s.observe(NodeId::new(1), NodeProfile::with_capacity(9_999));
        assert_eq!(s.sample_count(), 0);
    }

    #[test]
    fn exchange_is_push_pull_and_carries_self_sample() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = slicer(1, 100, 4);
        let mut b = slicer(2, 900, 4);
        let request = a.create_exchange(&mut rng);
        assert_eq!(request.samples[0].node(), NodeId::new(1));
        let reply = b.handle_exchange(request, &mut rng);
        assert_eq!(reply.samples[0].node(), NodeId::new(2));
        a.handle_reply(reply);
        assert!(a.sample_count() >= 1, "a must have learned about b");
        assert!(b.sample_count() >= 1, "b must have learned about a");
        assert_eq!(a.exchanges(), 1);
        assert_eq!(b.exchanges(), 1);
    }

    #[test]
    fn sample_buffer_is_bounded() {
        let cfg = SlicingConfig {
            sample_buffer_size: 16,
            ..SlicingConfig::default()
        };
        let mut s = OrderedSlicer::new(
            NodeId::new(0),
            NodeProfile::with_capacity(1),
            cfg,
            SlicePartition::new(4),
        );
        for i in 1..=100u64 {
            s.observe(NodeId::new(i), NodeProfile::with_capacity(i));
        }
        assert!(s.sample_count() <= 16);
    }

    #[test]
    fn stale_samples_expire_after_ttl_rounds() {
        let cfg = SlicingConfig {
            sample_ttl_rounds: 3,
            ..SlicingConfig::default()
        };
        let mut s = OrderedSlicer::new(
            NodeId::new(0),
            NodeProfile::with_capacity(1),
            cfg,
            SlicePartition::new(4),
        );
        s.observe(NodeId::new(1), NodeProfile::with_capacity(10));
        for _ in 0..2 {
            s.advance_round();
        }
        assert_eq!(s.sample_count(), 1, "sample still within ttl");
        for _ in 0..5 {
            s.advance_round();
        }
        assert_eq!(s.sample_count(), 0, "sample must have expired");
    }

    #[test]
    fn purge_removes_a_node_immediately() {
        let mut s = slicer(0, 10, 4);
        s.observe(NodeId::new(1), NodeProfile::with_capacity(1));
        s.purge(NodeId::new(1));
        assert_eq!(s.sample_count(), 0);
    }

    #[test]
    fn repartitioning_changes_the_assignment_resolution() {
        let mut s = slicer(1, 500, 1);
        for i in 2..=10u64 {
            s.observe(NodeId::new(i), NodeProfile::with_capacity(i * 100));
        }
        assert_eq!(s.current_slice(), Some(SliceId::new(0)));
        s.set_partition(SlicePartition::new(10));
        let slice = s.current_slice().unwrap();
        assert!(slice.index() < 10);
        assert_eq!(s.partition().slice_count(), 10);
    }

    #[test]
    fn gossip_converges_to_correct_ordered_slices() {
        // 20 nodes with strictly increasing capacities, 4 slices: after enough
        // push-pull rounds over random pairs every node must sit in the slice
        // matching its true rank quartile.
        let n = 20u64;
        let k = 4u32;
        let mut rng = StdRng::seed_from_u64(7);
        let mut slicers: Vec<OrderedSlicer> = (0..n).map(|i| slicer(i, (i + 1) * 10, k)).collect();
        for _round in 0..30 {
            for i in 0..slicers.len() {
                slicers[i].advance_round();
                let peer = loop {
                    let p = rng.gen_range(0..n) as usize;
                    if p != i {
                        break p;
                    }
                };
                let request = slicers[i].create_exchange(&mut rng);
                let reply = slicers[peer].handle_exchange(request, &mut rng);
                slicers[i].handle_reply(reply);
            }
        }
        for (i, s) in slicers.iter().enumerate() {
            let expected = SliceId::new((i as u32 * k) / n as u32);
            assert_eq!(
                s.current_slice(),
                Some(expected),
                "node {i} rank {} expected {expected}",
                s.estimated_rank()
            );
        }
    }

    #[test]
    fn rank_adapts_when_lower_ranked_nodes_disappear() {
        let mut s = slicer(5, 500, 2);
        for i in 0..5u64 {
            s.observe(NodeId::new(i), NodeProfile::with_capacity(10 + i));
        }
        // All five known nodes rank below us → top slice.
        assert_eq!(s.current_slice(), Some(SliceId::new(1)));
        for i in 0..5u64 {
            s.purge(NodeId::new(i));
        }
        // Alone again → bottom slice. This is the rebalancing behaviour a
        // hash-of-identity assignment cannot provide.
        assert_eq!(s.current_slice(), Some(SliceId::new(0)));
    }
}
