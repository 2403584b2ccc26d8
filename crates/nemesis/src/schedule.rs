//! Seeded fault schedules: a pure function of `(NemesisSpec, seed)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataflasks_core::fault::FaultPlan;
use dataflasks_types::{Duration, NodeId};

/// Which latency distribution the network should serve.
///
/// The simulator samples each shape deterministically; real runtimes cannot
/// swap their physical latency and skip these ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyShape {
    /// Restore the baseline latency: the simulator's fixed uniform 5–50 ms.
    Baseline,
    /// Uniform latency in `[min, max]`.
    Uniform {
        /// Minimum one-way latency.
        min: Duration,
        /// Maximum one-way latency.
        max: Duration,
    },
    /// Log-normal latency: heavy-tailed around a median, the shape WAN
    /// measurements actually exhibit.
    LogNormal {
        /// Median one-way latency.
        median: Duration,
        /// Log-space standard deviation; `0.5` is a mild tail, `1.5` a
        /// violent one.
        sigma: f64,
    },
    /// Mostly-fast latency with occasional spikes (e.g. a congested or
    /// GC-pausing hop).
    Spike {
        /// Latency of the common case.
        base: Duration,
        /// Latency of a spike.
        spike: Duration,
        /// Probability a given delivery hits the spike.
        spike_probability: f64,
    },
}

/// One timed fault operation.
#[derive(Debug, Clone, PartialEq)]
pub enum NemesisOp {
    /// Impose a partition: nodes in different groups cannot exchange
    /// transport units. Replayable on every backend.
    Partition {
        /// The partition's groups; nodes absent from every group are
        /// unaffected.
        groups: Vec<Vec<NodeId>>,
    },
    /// Lift the partition and every blocked directed link.
    Heal,
    /// Block one directed link (`from → to`); the reverse stays open.
    /// Replayable on every backend.
    AsymmetricLink {
        /// Sender whose transport units are refused.
        from: NodeId,
        /// Destination the refusals apply to.
        to: NodeId,
    },
    /// Drop matching transport units with probability `p`. `p = 0` closes
    /// the window. Replayable on every backend; the cross-backend parity
    /// subset restricts `p` to `{0, 1}`.
    Loss {
        /// Directed links the loss applies to; `None` means every link.
        links: Option<Vec<(NodeId, NodeId)>>,
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
    /// Deliver matching transport units twice with probability `p`.
    /// `p = 0` closes the window.
    Duplicate {
        /// Directed links the duplication applies to; `None` means every
        /// link.
        links: Option<Vec<(NodeId, NodeId)>>,
        /// Duplication probability in `[0, 1]`.
        p: f64,
    },
    /// Delay deliveries by up to `max_delay` with probability `p`,
    /// reordering them against undelayed traffic. Simulator only.
    Reorder {
        /// Probability a delivery is delayed.
        p: f64,
        /// Upper bound of the extra delay.
        max_delay: Duration,
    },
    /// Swap the network's latency distribution. Simulator only.
    LatencySwap(LatencyShape),
    /// The paper's headline regime: crash and join nodes concurrently over
    /// a window. Counts are absolute (computed from the spec's rates at
    /// generation time).
    ChurnStorm {
        /// Nodes crashed across the window.
        crashes: usize,
        /// Fresh nodes joined across the window.
        joins: usize,
        /// Length of the storm.
        duration: Duration,
    },
    /// Arm `count` single-bit frame corruptions at the transport boundary.
    /// Byte transports (socket, async) only; each corrupted frame must
    /// surface as exactly one `wire_rejects` — never a panic.
    CorruptFrames {
        /// Number of outbound frames to corrupt.
        count: u64,
    },
}

impl NemesisOp {
    /// Applies the backend-agnostic half of this op to a
    /// [`FaultPlan`]: partitions, heals, blocked links, loss and
    /// duplication windows, and corruption budgets. Returns `false` for
    /// ops a plan cannot express ([`NemesisOp::Reorder`],
    /// [`NemesisOp::LatencySwap`], [`NemesisOp::ChurnStorm`]) — those are
    /// each backend driver's job.
    pub fn apply_to_plan(&self, plan: &FaultPlan) -> bool {
        match self {
            Self::Partition { groups } => plan.set_partition(groups),
            Self::Heal => plan.heal(),
            Self::AsymmetricLink { from, to } => plan.block_link(*from, *to),
            Self::Loss { links, p } => plan.set_loss(links.clone(), *p),
            Self::Duplicate { links, p } => plan.set_duplicate(links.clone(), *p),
            Self::CorruptFrames { count } => plan.arm_corruption(*count),
            Self::Reorder { .. } | Self::LatencySwap(_) | Self::ChurnStorm { .. } => return false,
        }
        true
    }
}

/// One scheduled fault: when, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct NemesisEvent {
    /// Offset from the start of the scenario.
    pub at: Duration,
    /// The fault operation.
    pub op: NemesisOp,
}

/// Parameters of a nemesis run: which fault families are enabled and how
/// hard they hit. Families with a zero knob are skipped; the generator
/// round-robins over the enabled families so every configured fault kind
/// appears within the first cycle of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct NemesisSpec {
    /// Number of nodes at scenario start (ids `0..nodes`).
    pub nodes: usize,
    /// Number of fault phases to emit.
    pub phases: usize,
    /// Quiet warm-up before the first fault.
    pub warmup: Duration,
    /// Quiet gap between a phase's close and the next phase's open — the
    /// window the invariant checker observes convergence in.
    pub phase_gap: Duration,
    /// Number of partition groups (`0` disables partitions; `2` is a
    /// classic split-brain, `3` a three-way split).
    pub partition_groups: u32,
    /// How long partitions (and asymmetric link cuts) hold before healing.
    pub partition_hold: Duration,
    /// Directed links cut per asymmetric-link phase (`0` disables).
    pub asymmetric_links: usize,
    /// Loss probability of loss windows (`0` disables).
    pub loss_probability: f64,
    /// Directed links a loss window targets (`0` = every link).
    pub loss_links: usize,
    /// Duplication probability of duplication windows (`0` disables).
    pub duplicate_probability: f64,
    /// Reorder probability of reorder windows (`0` disables; sim only).
    pub reorder_probability: f64,
    /// Maximum extra delay a reordered delivery suffers.
    pub reorder_max_delay: Duration,
    /// Emit latency-distribution swap phases (sim only).
    pub latency_swaps: bool,
    /// How long loss/duplication/reorder/latency windows hold.
    pub link_hold: Duration,
    /// Churn storms: nodes crashed per second (`0` together with the join
    /// rate disables storms).
    pub churn_kill_rate: f64,
    /// Churn storms: fresh nodes joined per second.
    pub churn_join_rate: f64,
    /// Length of each churn storm.
    pub churn_hold: Duration,
    /// Frames corrupted per corruption phase (`0` disables; socket/async
    /// backends only).
    pub corrupt_frames: u64,
}

impl NemesisSpec {
    /// The acceptance scenario: churn storms plus partition/heal cycles,
    /// nothing else — the paper's headline regime with a split-brain on
    /// top. Kill/join rates scale with the cluster (1% of nodes per
    /// second) so the storm is equally violent at every size.
    #[must_use]
    pub fn churn_and_partition(nodes: usize) -> Self {
        let rate = (nodes as f64 / 100.0).max(1.0);
        Self {
            nodes,
            phases: 2,
            warmup: Duration::from_secs(30),
            phase_gap: Duration::from_secs(60),
            partition_groups: 2,
            partition_hold: Duration::from_secs(30),
            asymmetric_links: 0,
            loss_probability: 0.0,
            loss_links: 0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_max_delay: Duration::ZERO,
            latency_swaps: false,
            link_hold: Duration::from_secs(30),
            churn_kill_rate: rate,
            churn_join_rate: rate,
            churn_hold: Duration::from_secs(20),
            corrupt_frames: 0,
        }
    }

    /// Every fault family enabled at moderate intensity — the kitchen-sink
    /// spec the simulator-determinism tests replay.
    #[must_use]
    pub fn hostile(nodes: usize) -> Self {
        let mut spec = Self::churn_and_partition(nodes);
        spec.phases = 8;
        spec.asymmetric_links = 2;
        spec.loss_probability = 0.3;
        spec.duplicate_probability = 0.2;
        spec.reorder_probability = 0.25;
        spec.reorder_max_delay = Duration::from_millis(400);
        spec.latency_swaps = true;
        spec.corrupt_frames = 16;
        spec
    }
}

/// Which fault family a phase exercises; derived from the spec's knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Partition,
    Asymmetric,
    Loss,
    Duplicate,
    Reorder,
    Latency,
    Churn,
    Corrupt,
}

/// A fully materialised nemesis schedule: the deterministic product of a
/// [`NemesisSpec`] and a seed.
///
/// # Example
///
/// ```
/// use dataflasks_nemesis::{NemesisSchedule, NemesisSpec};
///
/// let spec = NemesisSpec::hostile(50);
/// let schedule = NemesisSchedule::generate(&spec, 7);
/// assert!(!schedule.events().is_empty());
/// // Same inputs, same schedule — byte for byte.
/// assert_eq!(schedule, NemesisSchedule::generate(&spec, 7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NemesisSchedule {
    spec: NemesisSpec,
    events: Vec<NemesisEvent>,
}

impl NemesisSchedule {
    /// Materialises the schedule: round-robins over the spec's enabled
    /// fault families, opening each fault at the running clock and closing
    /// it (heal, probability-zero window, baseline latency) after its
    /// hold, with the phase gap between phases. Event times are monotone
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if the spec has fewer than two nodes, zero phases, or no
    /// enabled fault family.
    #[must_use]
    pub fn generate(spec: &NemesisSpec, seed: u64) -> Self {
        assert!(spec.nodes >= 2, "nemesis needs at least two nodes");
        assert!(spec.phases > 0, "nemesis needs at least one phase");
        let families = enabled_families(spec);
        assert!(!families.is_empty(), "nemesis spec enables no fault family");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let mut clock = spec.warmup;
        for phase in 0..spec.phases {
            let family = families[phase % families.len()];
            match family {
                Family::Partition => {
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Partition {
                            groups: random_groups(spec.nodes, spec.partition_groups, &mut rng),
                        },
                    });
                    clock = after(clock, spec.partition_hold);
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Heal,
                    });
                }
                Family::Asymmetric => {
                    for _ in 0..spec.asymmetric_links {
                        let (from, to) = random_link(spec.nodes, &mut rng);
                        events.push(NemesisEvent {
                            at: clock,
                            op: NemesisOp::AsymmetricLink { from, to },
                        });
                    }
                    clock = after(clock, spec.partition_hold);
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Heal,
                    });
                }
                Family::Loss => {
                    let links = if spec.loss_links == 0 {
                        None
                    } else {
                        Some(
                            (0..spec.loss_links)
                                .map(|_| random_link(spec.nodes, &mut rng))
                                .collect(),
                        )
                    };
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Loss {
                            links,
                            p: spec.loss_probability,
                        },
                    });
                    clock = after(clock, spec.link_hold);
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Loss {
                            links: None,
                            p: 0.0,
                        },
                    });
                }
                Family::Duplicate => {
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Duplicate {
                            links: None,
                            p: spec.duplicate_probability,
                        },
                    });
                    clock = after(clock, spec.link_hold);
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Duplicate {
                            links: None,
                            p: 0.0,
                        },
                    });
                }
                Family::Reorder => {
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Reorder {
                            p: spec.reorder_probability,
                            max_delay: spec.reorder_max_delay,
                        },
                    });
                    clock = after(clock, spec.link_hold);
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::Reorder {
                            p: 0.0,
                            max_delay: Duration::ZERO,
                        },
                    });
                }
                Family::Latency => {
                    let shape = if rng.gen::<bool>() {
                        LatencyShape::LogNormal {
                            median: Duration::from_millis(80),
                            sigma: 1.0,
                        }
                    } else {
                        LatencyShape::Spike {
                            base: Duration::from_millis(20),
                            spike: Duration::from_millis(500),
                            spike_probability: 0.05,
                        }
                    };
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::LatencySwap(shape),
                    });
                    clock = after(clock, spec.link_hold);
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::LatencySwap(LatencyShape::Baseline),
                    });
                }
                Family::Churn => {
                    let secs = spec.churn_hold.as_millis() as f64 / 1_000.0;
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::ChurnStorm {
                            crashes: (spec.churn_kill_rate * secs).round() as usize,
                            joins: (spec.churn_join_rate * secs).round() as usize,
                            duration: spec.churn_hold,
                        },
                    });
                    clock = after(clock, spec.churn_hold);
                }
                Family::Corrupt => {
                    events.push(NemesisEvent {
                        at: clock,
                        op: NemesisOp::CorruptFrames {
                            count: spec.corrupt_frames,
                        },
                    });
                    clock = after(clock, spec.link_hold);
                }
            }
            clock = after(clock, spec.phase_gap);
        }
        Self {
            spec: spec.clone(),
            events,
        }
    }

    /// The spec the schedule was generated from.
    #[must_use]
    pub fn spec(&self) -> &NemesisSpec {
        &self.spec
    }

    /// The scheduled fault operations, in time order.
    #[must_use]
    pub fn events(&self) -> &[NemesisEvent] {
        &self.events
    }

    /// Offset of the last event plus one phase gap — run the scenario at
    /// least this long so the final phase's convergence window completes.
    #[must_use]
    pub fn span(&self) -> Duration {
        let last = self.events.last().map_or(Duration::ZERO, |e| e.at);
        after(last, self.spec.phase_gap)
    }
}

fn enabled_families(spec: &NemesisSpec) -> Vec<Family> {
    let mut families = Vec::new();
    if spec.churn_kill_rate > 0.0 || spec.churn_join_rate > 0.0 {
        families.push(Family::Churn);
    }
    if spec.partition_groups >= 2 {
        families.push(Family::Partition);
    }
    if spec.asymmetric_links > 0 {
        families.push(Family::Asymmetric);
    }
    if spec.loss_probability > 0.0 {
        families.push(Family::Loss);
    }
    if spec.duplicate_probability > 0.0 {
        families.push(Family::Duplicate);
    }
    if spec.reorder_probability > 0.0 {
        families.push(Family::Reorder);
    }
    if spec.latency_swaps {
        families.push(Family::Latency);
    }
    if spec.corrupt_frames > 0 {
        families.push(Family::Corrupt);
    }
    families
}

fn after(clock: Duration, hold: Duration) -> Duration {
    Duration::from_millis(clock.as_millis() + hold.as_millis())
}

/// Splits nodes `0..nodes` into `groups` non-empty groups: the first
/// `groups` nodes seed one group each, the rest land uniformly at random.
fn random_groups(nodes: usize, groups: u32, rng: &mut StdRng) -> Vec<Vec<NodeId>> {
    let groups = (groups as usize).clamp(2, nodes);
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); groups];
    for node in 0..nodes {
        let g = if node < groups {
            node
        } else {
            rng.gen_range(0..groups)
        };
        out[g].push(NodeId::new(node as u64));
    }
    out
}

fn random_link(nodes: usize, rng: &mut StdRng) -> (NodeId, NodeId) {
    let from = rng.gen_range(0..nodes);
    let mut to = rng.gen_range(0..nodes - 1);
    if to >= from {
        to += 1;
    }
    (NodeId::new(from as u64), NodeId::new(to as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflasks_core::fault::LinkVerdict;
    use proptest::prelude::*;

    #[test]
    fn round_robin_covers_every_enabled_family() {
        let spec = NemesisSpec::hostile(40);
        let schedule = NemesisSchedule::generate(&spec, 3);
        let ops = schedule.events();
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::Partition { .. })));
        assert!(ops.iter().any(|e| matches!(e.op, NemesisOp::Heal)));
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::AsymmetricLink { .. })));
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::Loss { p, .. } if p > 0.0)));
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::Duplicate { p, .. } if p > 0.0)));
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::Reorder { p, .. } if p > 0.0)));
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::LatencySwap(_))));
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::ChurnStorm { .. })));
        assert!(ops
            .iter()
            .any(|e| matches!(e.op, NemesisOp::CorruptFrames { .. })));
    }

    #[test]
    fn partition_groups_are_nonempty_and_cover_every_node() {
        let spec = NemesisSpec::churn_and_partition(25);
        let schedule = NemesisSchedule::generate(&spec, 9);
        let groups = schedule
            .events()
            .iter()
            .find_map(|e| match &e.op {
                NemesisOp::Partition { groups } => Some(groups.clone()),
                _ => None,
            })
            .expect("spec emits a partition");
        assert!(groups.iter().all(|g| !g.is_empty()));
        let mut members: Vec<_> = groups.iter().flatten().map(|id| id.as_u64()).collect();
        members.sort_unstable();
        assert_eq!(members, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn churn_storm_counts_follow_the_rates() {
        let mut spec = NemesisSpec::churn_and_partition(1_000);
        spec.churn_hold = Duration::from_secs(20);
        let schedule = NemesisSchedule::generate(&spec, 1);
        let (crashes, joins) = schedule
            .events()
            .iter()
            .find_map(|e| match e.op {
                NemesisOp::ChurnStorm { crashes, joins, .. } => Some((crashes, joins)),
                _ => None,
            })
            .expect("spec emits a churn storm");
        // 1% of 1000 nodes per second for 20 s.
        assert_eq!(crashes, 200);
        assert_eq!(joins, 200);
    }

    #[test]
    fn plan_application_covers_the_replayable_subset() {
        let plan = FaultPlan::new();
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        assert!(NemesisOp::Partition {
            groups: vec![vec![a], vec![b]]
        }
        .apply_to_plan(&plan));
        assert_eq!(plan.link_verdict(a, b), LinkVerdict::DropPartition);
        assert!(NemesisOp::Heal.apply_to_plan(&plan));
        assert_eq!(plan.link_verdict(a, b), LinkVerdict::Deliver);
        assert!(NemesisOp::CorruptFrames { count: 2 }.apply_to_plan(&plan));
        assert!(plan.should_corrupt());
        assert!(!NemesisOp::Reorder {
            p: 0.5,
            max_delay: Duration::from_millis(10)
        }
        .apply_to_plan(&plan));
        assert!(!NemesisOp::LatencySwap(LatencyShape::Baseline).apply_to_plan(&plan));
        assert!(!NemesisOp::ChurnStorm {
            crashes: 1,
            joins: 1,
            duration: Duration::from_secs(1)
        }
        .apply_to_plan(&plan));
    }

    fn vary(spec_bits: (u8, u8, u8)) -> NemesisSpec {
        let (nodes, phases, knobs) = spec_bits;
        let mut spec = NemesisSpec::hostile(4 + nodes as usize % 60);
        spec.phases = 1 + phases as usize % 9;
        if knobs & 1 != 0 {
            spec.loss_links = 3;
        }
        if knobs & 2 != 0 {
            spec.latency_swaps = false;
        }
        if knobs & 4 != 0 {
            spec.loss_probability = 0.6;
        }
        if knobs & 8 != 0 {
            spec.churn_kill_rate = 0.0;
            spec.churn_join_rate = 0.0;
        }
        spec
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn same_seed_replays_byte_identically(bits in (0u8..255, 0u8..255, 0u8..16), seed in 0u64..1_000_000) {
            let spec = vary(bits);
            let first = NemesisSchedule::generate(&spec, seed);
            let second = NemesisSchedule::generate(&spec, seed);
            prop_assert_eq!(first, second);
        }

        #[test]
        fn event_times_are_monotone(bits in (0u8..255, 0u8..255, 0u8..16), seed in 0u64..1_000_000) {
            let schedule = NemesisSchedule::generate(&vary(bits), seed);
            let events = schedule.events();
            prop_assert!(!events.is_empty());
            prop_assert!(events
                .windows(2)
                .all(|w| w[0].at.as_millis() <= w[1].at.as_millis()));
            prop_assert!(schedule.span().as_millis() >= events.last().unwrap().at.as_millis());
        }

        #[test]
        fn empirical_loss_and_duplicate_rates_match_the_spec(
            loss in 0.1f64..0.9,
            dup in 0.1f64..0.9,
            seed in 0u64..1_000_000,
        ) {
            let plan = FaultPlan::new();
            plan.set_seed(seed);
            // Disjoint links keep the two estimates independent.
            let loss_link = (NodeId::new(0), NodeId::new(1));
            let dup_link = (NodeId::new(2), NodeId::new(3));
            NemesisOp::Loss { links: Some(vec![loss_link]), p: loss }.apply_to_plan(&plan);
            NemesisOp::Duplicate { links: Some(vec![dup_link]), p: dup }.apply_to_plan(&plan);
            let trials = 20_000u32;
            let mut dropped = 0u32;
            let mut duplicated = 0u32;
            for _ in 0..trials {
                if plan.link_verdict(loss_link.0, loss_link.1) == LinkVerdict::DropLoss {
                    dropped += 1;
                }
                if plan.link_verdict(dup_link.0, dup_link.1) == LinkVerdict::Duplicate {
                    duplicated += 1;
                }
            }
            let loss_rate = f64::from(dropped) / f64::from(trials);
            let dup_rate = f64::from(duplicated) / f64::from(trials);
            prop_assert!((loss_rate - loss).abs() < 0.03, "loss {} vs {}", loss_rate, loss);
            prop_assert!((dup_rate - dup).abs() < 0.03, "dup {} vs {}", dup_rate, dup);
        }
    }
}
