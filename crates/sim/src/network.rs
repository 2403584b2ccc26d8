//! The simulated network's timing and the event queue.
//!
//! Link verdicts (partitions, loss, duplication) come from the shared
//! [`FaultPlan`](dataflasks_core::fault::FaultPlan), so they replay on
//! every backend; this module only bends virtual time.

use std::collections::BTreeMap;
use std::mem;

use rand::rngs::StdRng;
use rand::Rng;

use dataflasks_core::{ClientId, ClientReply, Message, TimerKind};
use dataflasks_nemesis::LatencyShape;
use dataflasks_types::{Duration, NodeId, SimTime};

/// The latency [`LatencyShape::Baseline`] serves: uniform in 5–50 ms.
const BASELINE_MIN: Duration = Duration::from_millis(5);
const BASELINE_MAX: Duration = Duration::from_millis(50);

/// The bounds [`LatencyShape::LogNormal`] draws are clamped to.
const LOGNORMAL_MIN: Duration = Duration::from_millis(1);
const LOGNORMAL_MAX: Duration = Duration::from_secs(10);

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

    /// The smallest latency [`Self::sample_latency`] can draw. Reordering
    /// and duplication only add delay, so no routed transport unit or reply
    /// arrives sooner than this after the round that sent it.
    pub(crate) fn min_latency(&self) -> Duration {
        match self.latency {
            LatencyShape::Baseline => BASELINE_MIN,
            LatencyShape::Uniform { min, .. } => min,
            LatencyShape::LogNormal { .. } => LOGNORMAL_MIN,
            LatencyShape::Spike { base, spike, .. } => base.min(spike),
        }
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
            // keeps ln's argument in (0, 1].
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let millis = (median.as_millis() as f64 * (sigma * z).exp()).round();
            Duration::from_millis(
                (millis as u64).clamp(LOGNORMAL_MIN.as_millis(), LOGNORMAL_MAX.as_millis()),
            )
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
    /// queue — they live in the simulation's timer wheel — so this payload
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

/// Instants the event queue's ring covers from its first one on. Every
/// latency the baseline draws (5–50 ms) lands inside it.
const RING_SPAN: u64 = 64;

/// The time-ordered event queue driving the simulation: the pending
/// events of each instant, in scheduling order, taken one whole instant at
/// a time — which is how the event loop dispatches them.
///
/// The instants from the last one taken on live in a ring of
/// [`RING_SPAN`] vectors, with one bit per non-empty slot, so scheduling
/// is a push and finding the next instant a bit scan; an event is moved
/// once on the way in and once on the way out, never sifted. Instants
/// further out (or, if a caller asks, in the past) wait in an ordered map
/// and move into the ring when it reaches them, ahead of anything
/// scheduled there later.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// `ring[t % RING_SPAN]` holds instant `t`'s events, for
    /// `start <= t < start + RING_SPAN`.
    ring: Vec<Vec<EventPayload>>,
    /// Bit `t % RING_SPAN` is set iff instant `t` has events in the ring.
    occupied: u64,
    /// First instant the ring covers, in milliseconds: the last one taken.
    start: u64,
    /// Events of every instant outside the ring.
    outside: BTreeMap<SimTime, Vec<EventPayload>>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            ring: (0..RING_SPAN).map(|_| Vec::new()).collect(),
            occupied: 0,
            start: 0,
            outside: BTreeMap::new(),
        }
    }
}

impl EventQueue {
    /// Schedules `payload` at time `at`, after every event already
    /// scheduled at that time.
    pub(crate) fn schedule(&mut self, at: SimTime, payload: EventPayload) {
        let t = at.as_millis();
        if t.wrapping_sub(self.start) < RING_SPAN {
            let slot = (t % RING_SPAN) as usize;
            self.ring[slot].push(payload);
            self.occupied |= 1 << slot;
        } else {
            self.outside.entry(at).or_default().push(payload);
        }
    }

    /// Time of the earliest scheduled event, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        let ring = (self.occupied != 0).then(|| {
            let offset = self.occupied.rotate_right((self.start % RING_SPAN) as u32);
            SimTime::from_millis(self.start + u64::from(offset.trailing_zeros()))
        });
        let outside = self.outside.keys().next().copied();
        match (ring, outside) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Takes every event of the earliest instant into the empty `due`, in
    /// scheduling order, and returns the instant. Events scheduled at that
    /// instant afterwards are taken by a later call.
    pub(crate) fn pop_instant(&mut self, due: &mut Vec<EventPayload>) -> Option<SimTime> {
        debug_assert!(due.is_empty(), "the previous instant was dispatched");
        let at = self.next_time()?;
        let t = at.as_millis();
        if t < self.start {
            let (_, mut events) = self.outside.pop_first().expect("the earliest instant");
            mem::swap(due, &mut events);
            return Some(at);
        }
        // Every instant before `at` is taken, so the slots the ring gains
        // are empty; instants waiting outside that it now covers move in.
        self.start = t;
        while let Some(entry) = self.outside.first_entry() {
            if entry.key().as_millis() - t >= RING_SPAN {
                break;
            }
            let slot = (entry.key().as_millis() % RING_SPAN) as usize;
            debug_assert!(self.ring[slot].is_empty(), "an instant lives in one place");
            self.ring[slot] = entry.remove();
            self.occupied |= 1 << slot;
        }
        let slot = (t % RING_SPAN) as usize;
        mem::swap(due, &mut self.ring[slot]);
        self.occupied &= !(1 << slot);
        Some(at)
    }

    /// Discards every pending event whose payload matches `doomed`,
    /// preserving order among the survivors. Used by crash/restart handling
    /// to drop in-flight inputs addressed to a dead incarnation — the
    /// queue-based equivalent of the concurrent runtimes clearing a failed
    /// node's inbox. O(n), off the hot path.
    pub(crate) fn discard<F: FnMut(&EventPayload) -> bool>(&mut self, mut doomed: F) {
        for (slot, events) in self.ring.iter_mut().enumerate() {
            events.retain(|payload| !doomed(payload));
            if events.is_empty() {
                self.occupied &= !(1 << slot);
            }
        }
        self.outside.retain(|_, events| {
            events.retain(|payload| !doomed(payload));
            !events.is_empty()
        });
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

    #[test]
    fn min_latency_is_the_smallest_draw_of_each_shape() {
        let ms = Duration::from_millis;
        let cases = [
            (LatencyShape::Baseline, 5),
            (
                LatencyShape::Uniform {
                    min: ms(2),
                    max: ms(6),
                },
                2,
            ),
            (
                LatencyShape::LogNormal {
                    median: ms(3),
                    sigma: 1.5,
                },
                1,
            ),
            (
                LatencyShape::Spike {
                    base: ms(10),
                    spike: ms(500),
                    spike_probability: 0.1,
                },
                10,
            ),
            (
                LatencyShape::Spike {
                    base: ms(40),
                    spike: ms(4),
                    spike_probability: 0.5,
                },
                4,
            ),
        ];
        for (shape, floor) in cases {
            let timing = Timing {
                latency: shape,
                // Reordering only adds delay: the floor stays put.
                reorder_probability: 0.5,
                reorder_max_delay: ms(100),
            };
            assert_eq!(timing.min_latency(), ms(floor), "{shape:?}");
            let mut rng = StdRng::seed_from_u64(floor);
            let drawn: Vec<u64> = (0..4_000)
                .map(|_| timing.sample_latency(&mut rng).as_millis())
                .collect();
            assert!(drawn.iter().all(|&d| d >= floor), "{shape:?} drew below");
            assert!(drawn.contains(&floor), "{shape:?} never drew its floor");
        }
    }

    fn crash_order(queue: &mut EventQueue) -> Vec<(u64, u64)> {
        let mut order = Vec::new();
        let mut due = Vec::new();
        while let Some(at) = queue.pop_instant(&mut due) {
            for payload in due.drain(..) {
                let EventPayload::NodeCrash { node } = payload else {
                    unreachable!("only crashes are queued");
                };
                order.push((at.as_millis(), node.as_u64()));
            }
        }
        order
    }

    fn crash(node: u64) -> EventPayload {
        EventPayload::NodeCrash {
            node: NodeId::new(node),
        }
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
        assert_eq!(crash_order(&mut queue), vec![(10, 1), (20, 2), (30, 3)]);
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
        assert_eq!(
            crash_order(&mut queue),
            (0..10u64).map(|node| (5, node)).collect::<Vec<_>>()
        );
    }

    /// The queue against a plain list ordered by (instant, scheduling
    /// order): random schedules near and far ahead, a few into the past,
    /// discards, and instants taken between them.
    #[test]
    fn the_queue_takes_instants_in_time_then_scheduling_order() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut queue = EventQueue::default();
        // (instant, sequence, node) of every pending event.
        let mut model: Vec<(u64, u64, u64)> = Vec::new();
        let mut due = Vec::new();
        let mut now = 0u64;
        for sequence in 0..20_000u64 {
            let at = match rng.gen_range(0..100u64) {
                0..=79 => now + rng.gen_range(0..=RING_SPAN + 2),
                80..=96 => now + rng.gen_range(0..3_000u64),
                _ => now.saturating_sub(rng.gen_range(1..5)),
            };
            let node = sequence % 997;
            queue.schedule(SimTime::from_millis(at), crash(node));
            model.push((at, sequence, node));
            if rng.gen_range(0..500u64) == 0 {
                let doomed = rng.gen_range(0..997u64);
                let is_doomed = |p: &EventPayload| matches!(p, EventPayload::NodeCrash { node } if node.as_u64() == doomed);
                queue.discard(is_doomed);
                model.retain(|&(_, _, node)| node != doomed);
            }
            while rng.gen_range(0..3u64) == 0 {
                model.sort_unstable();
                let expected: Vec<(u64, u64)> = match model.first() {
                    Some(&(first, _, _)) => model
                        .iter()
                        .take_while(|&&(at, _, _)| at == first)
                        .map(|&(at, _, node)| (at, node))
                        .collect(),
                    None => Vec::new(),
                };
                model.drain(..expected.len());
                assert_eq!(
                    queue.next_time().map(SimTime::as_millis),
                    expected.first().map(|&(at, _)| at)
                );
                let Some(at) = queue.pop_instant(&mut due) else {
                    assert!(expected.is_empty());
                    break;
                };
                now = now.max(at.as_millis());
                let got: Vec<(u64, u64)> = due
                    .drain(..)
                    .map(|payload| match payload {
                        EventPayload::NodeCrash { node } => (at.as_millis(), node.as_u64()),
                        _ => unreachable!(),
                    })
                    .collect();
                assert_eq!(got, expected, "sequence {sequence}");
            }
        }
        model.sort_unstable();
        let rest: Vec<(u64, u64)> = model.iter().map(|&(at, _, node)| (at, node)).collect();
        assert_eq!(crash_order(&mut queue), rest);
    }
}
