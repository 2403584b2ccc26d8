//! The two concurrent runtimes behind one handle: spawn, accelerated
//! gossip, the pipelined client calls, the runtime's own counters, and
//! shutdown-for-state.

use dataflasks::core::ReplyBody;
use dataflasks::prelude::{
    AsyncCluster, AsyncClusterConfig, ClusterSpec, Completion, Duration, Environment, Key,
    NodeConfig, NodeId, PipelinedClient, SocketCluster, SocketClusterConfig, Ticket, TicketOutcome,
    TimerKind, Value, Version,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{NodeTotals, Outcome};

/// Seed of the cluster itself (capacities, per-node seeds). Fixed: the
/// benchmark's `--seed` varies the operations, never the cluster, so two
/// runs differ only in what the client asked for.
const CLUSTER_SEED: u64 = 0x50C4E7;

/// Worker threads of every benchmarked cluster. The reference host has two
/// cores shared by the client thread, one worker and (sockets) one reactor;
/// worker sweeps are out of scope there.
pub const WORKERS: usize = 1;
/// Reactor threads of the socket runtime.
pub const IO_THREADS: usize = 1;

/// Which runtime hosts the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-process framed mailboxes (`AsyncCluster`).
    Async,
    /// Real TCP sockets on loopback (`SocketCluster`).
    Socket,
}

/// Size of a benchmarked cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterShape {
    /// Node count.
    pub nodes: usize,
    /// Slice count.
    pub slices: u32,
}

/// The runtime's own observables, read through its public accessors.
/// Fields a backend does not have stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Highest number of tickets simultaneously in flight.
    pub inflight_high_water: u64,
    /// Replies the gateway routed into a completion slot.
    pub completions_routed: u64,
    /// Frames refused by a saturated mailbox (deferred, not lost).
    pub saturation_events: u64,
    /// Outbound connections dialled (socket).
    pub dials: u64,
    /// Dials retried after a refusal (socket).
    pub dial_retries: u64,
    /// Inbound frames that failed to decode (socket).
    pub wire_rejects: u64,
    /// Frame buffers the arena had to allocate fresh (socket).
    pub arena_fresh: u64,
    /// Frame buffers the arena served from its pool (socket).
    pub arena_recycled: u64,
    /// Readiness events for tokens already deregistered (socket).
    pub reactor_stale_events: u64,
}

impl RuntimeCounters {
    /// Field-wise `self − earlier` for the monotone counters; the
    /// high-water mark is a lifetime maximum and is kept as is.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            inflight_high_water: self.inflight_high_water,
            completions_routed: self.completions_routed - earlier.completions_routed,
            saturation_events: self.saturation_events - earlier.saturation_events,
            dials: self.dials - earlier.dials,
            dial_retries: self.dial_retries - earlier.dial_retries,
            wire_rejects: self.wire_rejects - earlier.wire_rejects,
            arena_fresh: self.arena_fresh - earlier.arena_fresh,
            arena_recycled: self.arena_recycled - earlier.arena_recycled,
            reactor_stale_events: self.reactor_stale_events - earlier.reactor_stale_events,
        }
    }
}

enum Inner {
    Async(AsyncCluster),
    Socket(SocketCluster),
}

/// Runs `$body` with `$c` bound to whichever runtime is inside.
macro_rules! with {
    ($inner:expr, $c:ident => $body:expr) => {
        match $inner {
            Inner::Async($c) => $body,
            Inner::Socket($c) => $body,
        }
    };
}

/// A running cluster of either runtime.
pub struct Cluster {
    inner: Inner,
    shape: ClusterShape,
}

impl Cluster {
    /// Spawns the cluster: the historical socket-bench shape — shuffle every
    /// 2 s, slicing gossip every 4 s, anti-entropy every 3 s, capacities
    /// drawn from the fixed cluster seed.
    pub fn start(backend: Backend, shape: ClusterShape) -> Self {
        let mut config = NodeConfig::for_system_size(shape.nodes, shape.slices);
        config.pss.shuffle_period = Duration::from_secs(2);
        config.slicing.gossip_period = Duration::from_secs(4);
        config.replication.anti_entropy_period = Duration::from_secs(3);
        let mut rng = StdRng::seed_from_u64(CLUSTER_SEED);
        let capacities = (0..shape.nodes)
            .map(|_| rng.gen_range(100..=10_000))
            .collect();
        let spec = ClusterSpec::new(config, capacities, CLUSTER_SEED);
        let inner = match backend {
            Backend::Async => Inner::Async(AsyncCluster::start_spec_with(
                &spec,
                AsyncClusterConfig {
                    workers: WORKERS,
                    ..AsyncClusterConfig::default()
                },
            )),
            Backend::Socket => Inner::Socket(SocketCluster::start_spec_with(
                &spec,
                SocketClusterConfig {
                    workers: WORKERS,
                    io_threads: IO_THREADS,
                    ..SocketClusterConfig::default()
                },
            )),
        };
        Self { inner, shape }
    }

    /// The cluster's size.
    pub fn shape(&self) -> ClusterShape {
        self.shape
    }

    /// Fires node `index`'s shuffle and slicing-gossip timers now, through
    /// the runtime's public `Environment::fire_timer`. The node's handlers
    /// re-arm both timers one period from this instant, so regular gossip
    /// simply continues afterwards.
    pub fn fire_gossip(&mut self, index: usize) {
        let node = NodeId::new(index as u64);
        for kind in [TimerKind::PssShuffle, TimerKind::SliceGossip] {
            with!(&mut self.inner, c => Environment::fire_timer(c, node, kind));
        }
    }

    /// Submits a put through a random live contact without waiting.
    pub fn submit_put(
        &self,
        key: Key,
        version: Version,
        value: Value,
        timeout: Duration,
    ) -> Result<Ticket, String> {
        with!(&self.inner, c => c.submit_put(None, key, version, value, timeout))
            .map_err(|e| e.to_string())
    }

    /// Submits a get of the latest version through a random live contact
    /// without waiting.
    pub fn submit_get(&self, key: Key, timeout: Duration) -> Result<Ticket, String> {
        with!(&self.inner, c => c.submit_get(None, key, None, timeout)).map_err(|e| e.to_string())
    }

    /// Blocks until `ticket` resolves or `timeout` passes.
    pub fn await_ticket(&self, ticket: Ticket, timeout: Duration) -> Outcome {
        match with!(&self.inner, c => c.await_ticket(ticket, timeout)) {
            Ok(outcome) => convert(outcome),
            Err(_) => Outcome::TimedOut,
        }
    }

    /// Appends every ticket that resolved since the last call, without
    /// blocking. `scratch` is reused across calls.
    pub fn poll(&self, scratch: &mut Vec<Completion>, out: &mut Vec<(Ticket, Outcome)>) {
        with!(&self.inner, c => c.poll_completions(scratch));
        out.extend(scratch.drain(..).map(|c| (c.ticket, convert(c.outcome))));
    }

    /// The runtime's counters since start.
    pub fn counters(&self) -> RuntimeCounters {
        match &self.inner {
            Inner::Async(c) => RuntimeCounters {
                inflight_high_water: c.inflight_high_water(),
                completions_routed: c.completions_routed(),
                saturation_events: c.saturation_events(),
                ..RuntimeCounters::default()
            },
            Inner::Socket(c) => RuntimeCounters {
                inflight_high_water: c.inflight_high_water(),
                completions_routed: c.completions_routed(),
                saturation_events: c.saturation_events(),
                dials: c.dial_count(),
                dial_retries: c.dial_retry_count(),
                wire_rejects: c.wire_reject_count(),
                arena_fresh: c.arena_fresh_buffers(),
                arena_recycled: c.arena_recycled_buffers(),
                reactor_stale_events: c.reactor_stale_event_count(),
            },
        }
    }

    /// Stops every thread of the cluster and sums up the nodes' final
    /// counters.
    pub fn shutdown(self) -> NodeTotals {
        let nodes = with!(self.inner, c => c.shutdown());
        NodeTotals::collect(
            nodes
                .iter()
                .map(|n| (n.stats(), n.slice().map(|s| s.index()))),
            self.shape.slices,
        )
    }
}

fn convert(outcome: TicketOutcome) -> Outcome {
    match outcome {
        TicketOutcome::Acked(reply) => match reply.body {
            ReplyBody::PutAck { key, version } => Outcome::Acked {
                key,
                version: version.as_u64(),
            },
            // A put ticket resolves on its first reply of any kind; anything
            // but an acknowledgement is a protocol surprise the checks
            // should see as a failure.
            ReplyBody::GetHit { .. } | ReplyBody::GetMiss { .. } => Outcome::Miss,
        },
        TicketOutcome::Hit(object) => Outcome::hit(object.key, object.version, &object.value),
        TicketOutcome::Miss => Outcome::Miss,
        TicketOutcome::TimedOut => Outcome::TimedOut,
    }
}
