//! Seeded fault injection at the transport seam.
//!
//! A [`FaultPlan`] is the one decision point every backend consults before
//! handing a routed transport unit (an [`Output::Send`](crate::Output) or
//! [`Output::SendBatch`](crate::Output)) to its wire: the simulator inside
//! its event-queue routing, the async and socket backends at the frame
//! boundary. Because partition and
//! blocked-link verdicts are pure functions of the `(from, to)` pair, the
//! same plan produces the same refusals on every backend regardless of
//! message interleaving — which is what lets the cross-backend parity
//! fuzzer replay partition and full-loss windows on every backend and
//! demand byte-identical replies and statistics.
//!
//! Probabilistic faults (fractional loss, duplication) draw from a counter
//! hash of the plan's seed: single-threaded backends (the simulator) replay
//! them exactly; concurrent backends get well-defined empirical rates. The
//! parity subset therefore restricts probabilities to `{0, 1}`; fractional
//! probabilities are for simulator-only and bench scenarios.
//!
//! The plan is inert by default and checks one relaxed atomic on the hot
//! path, so a cluster that never injects faults pays nothing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use dataflasks_types::NodeId;

/// What should happen to one routed transport unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Deliver normally.
    Deliver,
    /// Refuse: the link crosses an active partition or blocked directed
    /// link. Counted as a `partition_refusals` on the sender.
    DropPartition,
    /// Drop: injected loss fired on this link. Counted as a
    /// `frames_dropped_injected` on the sender.
    DropLoss,
    /// Deliver twice: injected duplication fired on this link. Counted as a
    /// `frames_duplicated_injected` on the sender.
    Duplicate,
}

/// Per-dispatch accumulator for injected-fault accounting, folded into the
/// sender's [`NodeStats`](crate::NodeStats) after the flush (the sender's
/// host is borrowed while its effects route, so the counters travel
/// beside the routing callback and land afterwards).
/// All three counters count *protocol messages*, not transport units: a
/// dropped frame carrying an N-message batch counts N. The verdict is still
/// drawn once per transport unit, but the backends coalesce messages into
/// units on scheduling-dependent boundaries (the worker-pool runtime batches
/// a whole dispatch round, the simulator one event), so only the per-message
/// count is a pure function of the deterministic message flow — which is
/// what lets the parity fuzzer compare these fields exactly across backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedCounters {
    /// Messages dropped by injected loss.
    pub frames_dropped: u64,
    /// Messages delivered twice by injected duplication.
    pub frames_duplicated: u64,
    /// Messages refused because the link crossed an active partition
    /// or blocked directed link.
    pub partition_refusals: u64,
}

impl InjectedCounters {
    /// Returns `true` if nothing was injected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames_dropped == 0 && self.frames_duplicated == 0 && self.partition_refusals == 0
    }

    /// Bumps the counter matching `verdict` by the number of protocol
    /// messages the affected transport unit carried (no-op for
    /// [`LinkVerdict::Deliver`]).
    pub fn record_messages(&mut self, verdict: LinkVerdict, messages: u64) {
        match verdict {
            LinkVerdict::Deliver => {}
            LinkVerdict::DropPartition => self.partition_refusals += messages,
            LinkVerdict::DropLoss => self.frames_dropped += messages,
            LinkVerdict::Duplicate => self.frames_duplicated += messages,
        }
    }
}

/// The mutable fault state, guarded by one mutex (mutated by the nemesis
/// driver between phases, read by routing paths while active).
#[derive(Debug, Default)]
struct FaultState {
    /// Partition group of each node, indexed by node id; `0` means
    /// ungrouped. Two grouped nodes in different groups cannot exchange
    /// transport units; an ungrouped node (e.g. one that joined after the
    /// partition was imposed) is unaffected.
    partition: Option<Vec<u32>>,
    /// Asymmetrically blocked directed links (`from → to` refused, the
    /// reverse direction untouched).
    blocked: Vec<(NodeId, NodeId)>,
    /// Loss probability in `[0, 1]` applied to matching links.
    loss_probability: f64,
    /// Directed links the loss applies to; `None` means every link.
    loss_links: Option<Vec<(NodeId, NodeId)>>,
    /// Duplication probability in `[0, 1]` applied to matching links.
    duplicate_probability: f64,
    /// Directed links the duplication applies to; `None` means every link.
    duplicate_links: Option<Vec<(NodeId, NodeId)>>,
}

impl FaultState {
    fn is_active(&self) -> bool {
        self.partition.is_some()
            || !self.blocked.is_empty()
            || self.loss_probability > 0.0
            || self.duplicate_probability > 0.0
    }
}

/// A thread-safe, seeded fault-injection plan shared (via `Arc`) between a
/// nemesis driver and a backend's routing paths.
///
/// # Example
///
/// ```
/// use dataflasks_core::fault::{FaultPlan, LinkVerdict};
/// use dataflasks_types::NodeId;
///
/// let plan = FaultPlan::new();
/// let (a, b) = (NodeId::new(0), NodeId::new(2));
/// assert_eq!(plan.link_verdict(a, b), LinkVerdict::Deliver);
/// // Partition even against odd ids: 0 → 2 stays open, 0 → 1 is refused.
/// plan.set_partition(&[vec![NodeId::new(0), NodeId::new(2)], vec![NodeId::new(1)]]);
/// assert_eq!(plan.link_verdict(a, b), LinkVerdict::Deliver);
/// assert_eq!(plan.link_verdict(a, NodeId::new(1)), LinkVerdict::DropPartition);
/// plan.heal();
/// assert_eq!(plan.link_verdict(a, NodeId::new(1)), LinkVerdict::Deliver);
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    /// Fast-path gate: `false` means no link fault is configured and
    /// [`Self::link_verdict`] returns without locking.
    active: AtomicBool,
    /// Seed of the probabilistic decision stream.
    seed: AtomicU64,
    /// Decisions drawn so far (the counter half of the counter hash).
    decisions: AtomicU64,
    /// Remaining frames to corrupt (single-bit flips at the frame
    /// boundary; socket/async backends only).
    corrupt_budget: AtomicU64,
    /// Frames corrupted so far — the number the cluster's `wire_rejects`
    /// total must match once the corrupted frames have been received.
    corrupted: AtomicU64,
    state: Mutex<FaultState>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// Creates an inert plan (every verdict is [`LinkVerdict::Deliver`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            active: AtomicBool::new(false),
            seed: AtomicU64::new(0xFA_17_5E_ED),
            decisions: AtomicU64::new(0),
            corrupt_budget: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Reseeds the probabilistic decision stream (and rewinds its counter).
    pub fn set_seed(&self, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
        self.decisions.store(0, Ordering::Relaxed);
    }

    /// Returns `true` while any link fault is configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Decides the fate of one transport unit on the directed link
    /// `from → to`. Precedence: partition/blocked refusals, then loss, then
    /// duplication. Inert plans return [`LinkVerdict::Deliver`] after one
    /// relaxed load.
    #[must_use]
    pub fn link_verdict(&self, from: NodeId, to: NodeId) -> LinkVerdict {
        if !self.active.load(Ordering::Relaxed) {
            return LinkVerdict::Deliver;
        }
        let state = self.state.lock().expect("fault state poisoned");
        if let Some(groups) = &state.partition {
            let ga = groups.get(from.as_u64() as usize).copied().unwrap_or(0);
            let gb = groups.get(to.as_u64() as usize).copied().unwrap_or(0);
            if ga != 0 && gb != 0 && ga != gb {
                return LinkVerdict::DropPartition;
            }
        }
        if state.blocked.contains(&(from, to)) {
            return LinkVerdict::DropPartition;
        }
        if state.loss_probability > 0.0
            && link_matches(&state.loss_links, from, to)
            && self.chance(state.loss_probability)
        {
            return LinkVerdict::DropLoss;
        }
        if state.duplicate_probability > 0.0
            && link_matches(&state.duplicate_links, from, to)
            && self.chance(state.duplicate_probability)
        {
            return LinkVerdict::Duplicate;
        }
        LinkVerdict::Deliver
    }

    /// Imposes a partition: nodes in different groups cannot exchange
    /// transport units (both directions refused). Nodes in no group — e.g.
    /// ones that join while the partition holds — are unaffected.
    pub fn set_partition(&self, groups: &[Vec<NodeId>]) {
        let len = groups
            .iter()
            .flatten()
            .map(|id| id.as_u64() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut assignment = vec![0u32; len];
        for (index, group) in groups.iter().enumerate() {
            for id in group {
                assignment[id.as_u64() as usize] = index as u32 + 1;
            }
        }
        let mut state = self.state.lock().expect("fault state poisoned");
        state.partition = Some(assignment);
        self.refresh_active(&state);
    }

    /// Blocks the directed link `from → to` (the reverse stays open).
    pub fn block_link(&self, from: NodeId, to: NodeId) {
        let mut state = self.state.lock().expect("fault state poisoned");
        if !state.blocked.contains(&(from, to)) {
            state.blocked.push((from, to));
        }
        self.refresh_active(&state);
    }

    /// Lifts the partition and every blocked directed link; loss and
    /// duplication windows are untouched (close them with probability 0).
    pub fn heal(&self) {
        let mut state = self.state.lock().expect("fault state poisoned");
        state.partition = None;
        state.blocked.clear();
        self.refresh_active(&state);
    }

    /// Configures injected loss: each matching transport unit is dropped
    /// with probability `p` (`links: None` matches every link). `p = 0`
    /// closes the window.
    pub fn set_loss(&self, links: Option<Vec<(NodeId, NodeId)>>, p: f64) {
        let mut state = self.state.lock().expect("fault state poisoned");
        state.loss_probability = p.clamp(0.0, 1.0);
        state.loss_links = links;
        self.refresh_active(&state);
    }

    /// Configures injected duplication: each matching transport unit is
    /// delivered twice with probability `p`. `p = 0` closes the window.
    pub fn set_duplicate(&self, links: Option<Vec<(NodeId, NodeId)>>, p: f64) {
        let mut state = self.state.lock().expect("fault state poisoned");
        state.duplicate_probability = p.clamp(0.0, 1.0);
        state.duplicate_links = links;
        self.refresh_active(&state);
    }

    /// Clears every configured link fault (partition, blocked links, loss,
    /// duplication) and any unspent corruption budget. The corrupted-frame
    /// total is preserved — it is the injected count receivers' rejects are
    /// audited against.
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("fault state poisoned");
        *state = FaultState::default();
        self.corrupt_budget.store(0, Ordering::Relaxed);
        self.refresh_active(&state);
    }

    /// Arms `frames` single-bit corruptions: the next `frames` transport
    /// units that ask [`Self::should_corrupt`] get their first message-tag
    /// byte's high bit flipped, which the wire decoder rejects as an
    /// unknown tag — never a silent mis-decode, never a panic.
    pub fn arm_corruption(&self, frames: u64) {
        self.corrupt_budget.fetch_add(frames, Ordering::Relaxed);
    }

    /// Consumes one unit of corruption budget. Byte transports call this
    /// per outbound frame and flip one bit when it returns `true`.
    #[must_use]
    pub fn should_corrupt(&self) -> bool {
        let mut budget = self.corrupt_budget.load(Ordering::Relaxed);
        while budget > 0 {
            match self.corrupt_budget.compare_exchange_weak(
                budget,
                budget - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.corrupted.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => budget = actual,
            }
        }
        false
    }

    /// Frames corrupted so far — the injected count the cluster-wide
    /// `wire_rejects` total must match once every corrupted frame has been
    /// received (invariant 4 of the checker).
    #[must_use]
    pub fn corrupted_frames(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Draws one decision from the counter-hashed stream.
    fn chance(&self, p: f64) -> bool {
        if p >= 1.0 {
            // Certain faults never consume the stream: backends replaying
            // the parity subset (probabilities in {0, 1}) stay independent
            // of how many decisions other links drew.
            return true;
        }
        let n = self.decisions.fetch_add(1, Ordering::Relaxed);
        let z = splitmix64(self.seed.load(Ordering::Relaxed).wrapping_add(n));
        (z >> 11) as f64 / ((1u64 << 53) as f64) < p
    }

    fn refresh_active(&self, state: &FaultState) {
        self.active.store(state.is_active(), Ordering::Relaxed);
    }
}

fn link_matches(links: &Option<Vec<(NodeId, NodeId)>>, from: NodeId, to: NodeId) -> bool {
    match links {
        None => true,
        Some(list) => list.contains(&(from, to)),
    }
}

/// SplitMix64: the same finaliser the cluster spec derives node seeds with.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn inert_plan_always_delivers() {
        let plan = FaultPlan::new();
        assert!(!plan.is_active());
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(plan.link_verdict(id(a), id(b)), LinkVerdict::Deliver);
            }
        }
        assert!(!plan.should_corrupt());
    }

    #[test]
    fn partition_refuses_cross_group_links_both_ways() {
        let plan = FaultPlan::new();
        plan.set_partition(&[vec![id(0), id(1)], vec![id(2), id(3)]]);
        assert!(plan.is_active());
        assert_eq!(plan.link_verdict(id(0), id(1)), LinkVerdict::Deliver);
        assert_eq!(plan.link_verdict(id(2), id(3)), LinkVerdict::Deliver);
        assert_eq!(plan.link_verdict(id(0), id(2)), LinkVerdict::DropPartition);
        assert_eq!(plan.link_verdict(id(3), id(1)), LinkVerdict::DropPartition);
        // An ungrouped node (joined after the split) talks to everyone.
        assert_eq!(plan.link_verdict(id(7), id(0)), LinkVerdict::Deliver);
        assert_eq!(plan.link_verdict(id(2), id(7)), LinkVerdict::Deliver);
        plan.heal();
        assert!(!plan.is_active());
        assert_eq!(plan.link_verdict(id(0), id(2)), LinkVerdict::Deliver);
    }

    #[test]
    fn blocked_links_are_asymmetric() {
        let plan = FaultPlan::new();
        plan.block_link(id(1), id(2));
        assert_eq!(plan.link_verdict(id(1), id(2)), LinkVerdict::DropPartition);
        assert_eq!(plan.link_verdict(id(2), id(1)), LinkVerdict::Deliver);
        plan.heal();
        assert_eq!(plan.link_verdict(id(1), id(2)), LinkVerdict::Deliver);
    }

    #[test]
    fn certain_loss_and_duplication_fire_deterministically() {
        let plan = FaultPlan::new();
        plan.set_loss(Some(vec![(id(0), id(1))]), 1.0);
        for _ in 0..100 {
            assert_eq!(plan.link_verdict(id(0), id(1)), LinkVerdict::DropLoss);
            assert_eq!(plan.link_verdict(id(1), id(0)), LinkVerdict::Deliver);
        }
        plan.set_loss(None, 0.0);
        plan.set_duplicate(None, 1.0);
        assert_eq!(plan.link_verdict(id(3), id(4)), LinkVerdict::Duplicate);
        plan.set_duplicate(None, 0.0);
        assert!(!plan.is_active());
    }

    #[test]
    fn fractional_loss_matches_the_configured_rate() {
        let plan = FaultPlan::new();
        plan.set_seed(7);
        plan.set_loss(None, 0.3);
        let trials = 20_000;
        let dropped = (0..trials)
            .filter(|_| plan.link_verdict(id(0), id(1)) == LinkVerdict::DropLoss)
            .count();
        let rate = dropped as f64 / f64::from(trials);
        assert!((rate - 0.3).abs() < 0.02, "empirical loss rate {rate}");
    }

    #[test]
    fn reseeding_replays_the_decision_stream() {
        let draw = |seed: u64| -> Vec<LinkVerdict> {
            let plan = FaultPlan::new();
            plan.set_seed(seed);
            plan.set_loss(None, 0.5);
            (0..64).map(|_| plan.link_verdict(id(0), id(1))).collect()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn corruption_budget_counts_down_and_records_totals() {
        let plan = FaultPlan::new();
        plan.arm_corruption(3);
        assert_eq!((0..10).filter(|_| plan.should_corrupt()).count(), 3);
        assert_eq!(plan.corrupted_frames(), 3);
        plan.clear();
        assert_eq!(plan.corrupted_frames(), 3, "totals survive clear");
        assert!(!plan.should_corrupt());
    }

    #[test]
    fn injected_counters_record_verdicts() {
        let mut counters = InjectedCounters::default();
        assert!(counters.is_empty());
        counters.record_messages(LinkVerdict::Deliver, 1);
        assert!(counters.is_empty());
        counters.record_messages(LinkVerdict::DropLoss, 1);
        counters.record_messages(LinkVerdict::Duplicate, 1);
        counters.record_messages(LinkVerdict::DropPartition, 1);
        counters.record_messages(LinkVerdict::DropPartition, 1);
        assert_eq!(counters.frames_dropped, 1);
        assert_eq!(counters.frames_duplicated, 1);
        assert_eq!(counters.partition_refusals, 2);
        // A dropped batch counts every message it carried.
        counters.record_messages(LinkVerdict::DropLoss, 5);
        assert_eq!(counters.frames_dropped, 6);
        counters.record_messages(LinkVerdict::Deliver, 5);
        assert_eq!(counters.frames_dropped, 6);
    }
}
