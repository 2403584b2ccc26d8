//! The simulated network's timing and the event queue.
//!
//! Link verdicts (partitions, loss, duplication) come from the shared
//! [`FaultPlan`](dataflasks_core::fault::FaultPlan), so they replay on
//! every backend; this module only bends virtual time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::Rng;

use dataflasks_core::{ClientId, ClientReply, Message, TimerKind};
use dataflasks_nemesis::LatencyShape;
use dataflasks_types::{Duration, NodeId, SimTime};

/// The latency [`LatencyShape::Baseline`] serves: uniform in 5–50 ms.
const BASELINE_MIN: Duration = Duration::from_millis(5);
const BASELINE_MAX: Duration = Duration::from_millis(50);

/// The simulator half of the nemesis timing faults: the latency shape in
/// force and probabilistic reordering. Only virtual time can be bent
/// deterministically, so these two are simulator-only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Timing {
    /// Latency distribution of every delivery.
    pub(crate) latency: LatencyShape,
    /// Probability a delivery is delayed past later traffic.
    pub(crate) reorder_probability: f64,
    /// Upper bound of the extra reordering delay.
    pub(crate) reorder_max_delay: Duration,
}

impl Default for Timing {
    fn default() -> Self {
        Self {
            latency: LatencyShape::Baseline,
            reorder_probability: 0.0,
            reorder_max_delay: Duration::ZERO,
        }
    }
}

impl Timing {
    /// Draws the delivery latency for one transport unit: the latency
    /// shape's sample, plus the reordering delay when that fault fires.
    pub(crate) fn sample_latency(&self, rng: &mut StdRng) -> Duration {
        let mut latency = sample(self.latency, rng);
        if self.reorder_probability > 0.0
            && self.reorder_max_delay > Duration::ZERO
            && rng.gen::<f64>() < self.reorder_probability
        {
            let extra = rng.gen_range(0..=self.reorder_max_delay.as_millis());
            latency = Duration::from_millis(latency.as_millis() + extra);
        }
        latency
    }
}

/// Draws a one-way latency from `shape`.
fn sample(shape: LatencyShape, rng: &mut StdRng) -> Duration {
    match shape {
        LatencyShape::Baseline => uniform(BASELINE_MIN, BASELINE_MAX, rng),
        LatencyShape::Uniform { min, max } => uniform(min, max, rng),
        LatencyShape::LogNormal { median, sigma } => {
            // Box–Muller from two uniforms; exp(sigma·z) scales the median
            // multiplicatively, so half the draws land below it. `1 - u`
            // keeps ln's argument in (0, 1]. Clamped to [1 ms, 10 s].
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let millis = (median.as_millis() as f64 * (sigma * z).exp()).round();
            Duration::from_millis((millis as u64).clamp(1, 10_000))
        }
        LatencyShape::Spike {
            base,
            spike,
            spike_probability,
        } => {
            if rng.gen::<f64>() < spike_probability {
                spike
            } else {
                base
            }
        }
    }
}

/// Uniform latency in `[min, max]`; equal bounds draw nothing.
fn uniform(min: Duration, max: Duration, rng: &mut StdRng) -> Duration {
    let lo = min.as_millis();
    let hi = max.as_millis().max(lo);
    if lo == hi {
        Duration::from_millis(lo)
    } else {
        Duration::from_millis(rng.gen_range(lo..=hi))
    }
}

/// Everything that can happen inside the simulation.
#[derive(Debug, Clone)]
pub(crate) enum EventPayload {
    /// A node-to-node message arrives.
    Deliver {
        from: NodeId,
        to: NodeId,
        message: Message,
    },
    /// A batch of node-to-node messages arrives as one transport unit (the
    /// queue-side form of [`dataflasks_core::Output::SendBatch`]): one event,
    /// one latency sample and one link verdict for the whole batch.
    DeliverBatch {
        from: NodeId,
        to: NodeId,
        messages: Vec<Message>,
    },
    /// An out-of-band timer firing injected through the `Environment`
    /// interface. Periodic protocol timers never travel through the event
    /// heap — they live in the simulation's timer wheel — so this payload
    /// only carries injected firings, keeping them FIFO-ordered with other
    /// injected inputs. `generation` is the stamp drawn from the wheel when
    /// the firing was injected: exactly one chain is live per node and
    /// kind, so an older stamp is dropped on dispatch.
    Timer {
        node: NodeId,
        kind: TimerKind,
        generation: u64,
    },
    /// A client operation submitted through an explicit contact node
    /// (injected through the `Environment` interface).
    ClientSubmit {
        client: ClientId,
        contact: NodeId,
        request: dataflasks_core::ClientRequest,
    },
    /// A reply arrives at a client library.
    ClientDeliver {
        client: ClientId,
        reply: ClientReply,
    },
    /// A client issues a put operation.
    ClientPut {
        client: ClientId,
        key: dataflasks_types::Key,
        version: dataflasks_types::Version,
        value: dataflasks_types::Value,
    },
    /// A client issues a get operation (`version: None` reads the latest).
    ClientGet {
        client: ClientId,
        key: dataflasks_types::Key,
        version: Option<dataflasks_types::Version>,
    },
    /// A node crashes, losing its volatile state.
    NodeCrash { node: NodeId },
    /// A fresh node joins the system. Its identity is allocated when the
    /// event dispatches, so ids stay dense and deterministic.
    NodeJoin { capacity: u64 },
}

/// A scheduled event; `sequence` breaks ties among simultaneous events in
/// scheduling order.
#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) at: SimTime,
    sequence: u64,
    pub(crate) payload: EventPayload,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.sequence == other.sequence
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.sequence).cmp(&(self.at, self.sequence))
    }
}

/// The time-ordered event queue driving the simulation.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_sequence: u64,
}

impl EventQueue {
    /// Schedules `payload` at time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, payload: EventPayload) {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(Event {
            at,
            sequence,
            payload,
        });
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Discards every pending event whose payload matches `doomed`,
    /// preserving order among the survivors. Used by crash/restart handling
    /// to drop in-flight inputs addressed to a dead incarnation — the
    /// queue-based equivalent of the concurrent runtimes clearing a failed
    /// node's inbox. O(n), off the hot path.
    pub(crate) fn discard<F: FnMut(&EventPayload) -> bool>(&mut self, mut doomed: F) {
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .filter(|event| !doomed(&event.payload))
            .collect();
    }

    /// Time of the earliest scheduled event, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn samples(shape: LatencyShape, seed: u64, count: usize) -> Vec<u64> {
        let timing = Timing {
            latency: shape,
            ..Timing::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| timing.sample_latency(&mut rng).as_millis())
            .collect()
    }

    #[test]
    fn latency_stays_within_bounds() {
        let shape = LatencyShape::Uniform {
            min: Duration::from_millis(10),
            max: Duration::from_millis(20),
        };
        assert!(samples(shape, 0, 1_000)
            .iter()
            .all(|ms| (10..=20).contains(ms)));
    }

    #[test]
    fn equal_bounds_give_constant_latency() {
        let shape = LatencyShape::Uniform {
            min: Duration::from_millis(7),
            max: Duration::from_millis(7),
        };
        assert_eq!(samples(shape, 0, 1), vec![7]);
    }

    #[test]
    fn the_baseline_is_uniform_between_5_and_50_ms() {
        let drawn = samples(LatencyShape::Baseline, 1, 2_000);
        assert!(drawn.iter().all(|ms| (5..=50).contains(ms)));
        assert!(drawn.contains(&5) && drawn.contains(&50));
        // The same draw as the equivalent uniform shape: a swap back to the
        // baseline reproduces the default run's latencies.
        let uniform = LatencyShape::Uniform {
            min: Duration::from_millis(5),
            max: Duration::from_millis(50),
        };
        assert_eq!(drawn, samples(uniform, 1, 2_000));
    }

    #[test]
    fn lognormal_latency_centres_on_the_median_and_stays_clamped() {
        let shape = LatencyShape::LogNormal {
            median: Duration::from_millis(80),
            sigma: 1.0,
        };
        let drawn = samples(shape, 2, 4_000);
        assert!(drawn.iter().all(|&ms| (1..=10_000).contains(&ms)));
        let below = drawn.iter().filter(|&&ms| ms < 80).count();
        let fraction = below as f64 / drawn.len() as f64;
        assert!((0.45..=0.55).contains(&fraction), "below-median {fraction}");
        // Heavy tail: some samples far above the median.
        assert!(drawn.iter().any(|&ms| ms > 400));
    }

    #[test]
    fn spike_latency_hits_the_spike_at_roughly_its_probability() {
        let shape = LatencyShape::Spike {
            base: Duration::from_millis(10),
            spike: Duration::from_millis(500),
            spike_probability: 0.1,
        };
        let spikes = samples(shape, 3, 10_000)
            .iter()
            .filter(|&&ms| ms == 500)
            .count();
        assert!((800..=1_200).contains(&spikes), "spikes {spikes}");
    }

    #[test]
    fn reorder_adds_a_bounded_extra_delay() {
        let timing = Timing {
            latency: LatencyShape::Uniform {
                min: Duration::from_millis(5),
                max: Duration::from_millis(5),
            },
            reorder_probability: 0.5,
            reorder_max_delay: Duration::from_millis(100),
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut delayed = 0;
        for _ in 0..2_000 {
            let latency = timing.sample_latency(&mut rng);
            assert!(latency <= Duration::from_millis(105));
            if latency > Duration::from_millis(5) {
                delayed += 1;
            }
        }
        // ~half the deliveries drew an extra delay (a delay of exactly 0 ms
        // is indistinguishable from no delay, so the count sits just below).
        assert!((850..=1_150).contains(&delayed), "delayed {delayed}");
    }

    fn crash_order(queue: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| queue.pop())
            .map(|e| match e.payload {
                EventPayload::NodeCrash { node } => node.as_u64(),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn queue_pops_events_in_time_order() {
        let mut queue = EventQueue::default();
        for (ms, node) in [(30, 3), (10, 1), (20, 2)] {
            queue.schedule(
                SimTime::from_millis(ms),
                EventPayload::NodeCrash {
                    node: NodeId::new(node),
                },
            );
        }
        assert_eq!(queue.next_time(), Some(SimTime::from_millis(10)));
        assert_eq!(crash_order(&mut queue), vec![1, 2, 3]);
        assert_eq!(queue.next_time(), None);
    }

    #[test]
    fn simultaneous_events_preserve_scheduling_order() {
        let mut queue = EventQueue::default();
        for i in 0..10u64 {
            queue.schedule(
                SimTime::from_millis(5),
                EventPayload::NodeCrash {
                    node: NodeId::new(i),
                },
            );
        }
        assert_eq!(crash_order(&mut queue), (0..10u64).collect::<Vec<_>>());
    }
}
