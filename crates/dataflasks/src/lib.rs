//! DataFlasks: an epidemic dependable key-value substrate — facade crate.
//!
//! This crate re-exports the full public API of the DataFlasks reproduction
//! so downstream users depend on a single crate:
//!
//! | Module | Contents |
//! |---|---|
//! | [`types`] | Keys, versions, values, node ids, slices, time, configuration |
//! | [`membership`] | Peer Sampling Service (Cyclon), partial views |
//! | [`slicing`] | Distributed slicing (ordered rank estimation) |
//! | [`store`] | Data-store abstraction (in-memory, append-only log, digests) |
//! | [`core`] | The DataFlasks node and client library |
//! | [`sim`] | Deterministic discrete-event cluster simulation |
//! | [`workload`] | YCSB-style workload generation |
//! | [`nemesis`] | Seeded fault schedules and the cross-backend invariant checker |
//! | [`baseline`] | Structured DHT baseline for comparison experiments |
//! | [`net_env`] | Worker-pool runtime (thousands of nodes on a few threads), over in-process mailboxes or real TCP/UDS sockets |
//!
//! The most commonly used items are additionally re-exported at the crate
//! root (see the [`prelude`]).
//!
//! # Quickstart
//!
//! ```
//! use dataflasks::prelude::*;
//!
//! // Simulate a small cluster, store an object and read it back.
//! let mut sim = Simulation::new(SimConfig::default());
//! sim.spawn_cluster(16, NodeConfig::for_system_size(16, 2));
//! sim.run_for(Duration::from_secs(20));
//!
//! let client = sim.add_client();
//! let key = Key::from_user_key("greeting");
//! sim.submit_put(client, key, Version::new(1), Value::from_bytes(b"hello world"));
//! sim.run_for(Duration::from_secs(5));
//! sim.submit_get(client, key, None);
//! sim.run_for(Duration::from_secs(5));
//!
//! let stats = sim.client(client).unwrap().stats();
//! assert_eq!(stats.puts_acked, 1);
//! assert_eq!(stats.gets_hit, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dataflasks_baseline as baseline;
pub use dataflasks_core as core;
pub use dataflasks_membership as membership;
pub use dataflasks_nemesis as nemesis;
pub use dataflasks_net_env as net_env;
pub use dataflasks_sim as sim;
pub use dataflasks_slicing as slicing;
pub use dataflasks_store as store;
pub use dataflasks_types as types;
pub use dataflasks_workload as workload;

/// Which backend should host a [`ClusterSpec`](dataflasks_core::ClusterSpec):
/// the runtime-selection knob for harness code written against the
/// [`Environment`](dataflasks_core::Environment) driver interface.
///
/// All three backends materialise the same spec into byte-identical node
/// state machines and are held to identical client-visible behaviour by the
/// differential parity fuzzer; they differ in what they cost:
///
/// * [`RuntimeKind::Sim`] — virtual time, perfectly deterministic, fastest
///   for experiments and figure reproduction,
/// * [`RuntimeKind::Async`] — the worker-pool runtime over its in-process
///   transport; thousands of nodes on a few threads, with every hop
///   travelling as an encoded wire frame through a mailbox,
/// * [`RuntimeKind::Socket`] — the same runtime over its socket transport:
///   every hop travels a real socket (TCP on loopback or Unix-domain, see
///   [`SocketTransportKind`](dataflasks_net_env::SocketTransportKind)) — the
///   deployment-shaped backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeKind {
    /// Deterministic discrete-event simulation (`dataflasks-sim`).
    Sim,
    /// Worker-pool runtime, in-process transport
    /// ([`AsyncCluster`](dataflasks_net_env::AsyncCluster)).
    Async,
    /// Worker-pool runtime, socket transport
    /// ([`SocketCluster`](dataflasks_net_env::SocketCluster)).
    Socket,
}

/// Backend-tuning knobs for [`RuntimeKind::spawn_with`]: the runtime-scaling
/// surface of the worker-pool runtime, in one facade-level struct.
///
/// The simulator has no worker pool, so only the async and socket backends
/// consume these fields; the simulator ignores them.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeOptions {
    /// Worker threads multiplexing the node hosts (async and socket
    /// backends). `0` picks `min(available cores, 8)`.
    pub worker_count: usize,
    /// Per-node mailbox high-water mark (async and socket backends; `0` =
    /// unbounded). Saturated destinations defer frames instead of dropping
    /// them — at the sending worker for the async backend (see
    /// [`AsyncClusterConfig::mailbox_capacity`](dataflasks_net_env::AsyncClusterConfig)),
    /// in the kernel socket buffer for the socket backend.
    pub mailbox_capacity: usize,
    /// Shared scheduling knobs of the async and socket backends — the
    /// per-round run budget and the work-stealing policy.
    pub sched: dataflasks_core::SchedulerConfig,
    /// Socket family of the socket backend (ignored by the async backend):
    /// TCP on loopback (the portable default) or Unix-domain sockets.
    pub transport: dataflasks_net_env::SocketTransportKind,
    /// Reactor (readiness-loop) threads of the socket backend (ignored by
    /// the async backend). `0` picks one; see
    /// [`SocketClusterConfig::io_threads`](dataflasks_net_env::SocketClusterConfig).
    pub io_threads: usize,
}

impl RuntimeKind {
    /// Materialises `spec` on the selected backend, returned behind the
    /// shared [`Environment`](dataflasks_core::Environment) driver interface.
    ///
    /// The boxed environment supports the full driver surface (submit,
    /// timers, crash, restart, drain); keep a concrete
    /// [`Simulation`](dataflasks_sim::Simulation) /
    /// [`Cluster`](dataflasks_net_env::Cluster) instead when you
    /// need backend-specific APIs (blocking clients, shutdown-for-state).
    #[must_use]
    pub fn spawn(
        self,
        spec: &dataflasks_core::ClusterSpec,
    ) -> Box<dyn dataflasks_core::Environment> {
        self.spawn_with(spec, RuntimeOptions::default())
    }

    /// Like [`Self::spawn`], with explicit runtime knobs (worker count,
    /// mailbox high-water mark, run budget, steal policy).
    #[must_use]
    pub fn spawn_with(
        self,
        spec: &dataflasks_core::ClusterSpec,
        options: RuntimeOptions,
    ) -> Box<dyn dataflasks_core::Environment> {
        match self {
            Self::Sim => {
                let mut sim = dataflasks_sim::Simulation::new(dataflasks_sim::SimConfig {
                    seed: spec.seed,
                    ..dataflasks_sim::SimConfig::default()
                });
                sim.spawn_spec(spec);
                Box::new(sim)
            }
            Self::Async => Box::new(dataflasks_net_env::AsyncCluster::start_spec_with(
                spec,
                dataflasks_net_env::AsyncClusterConfig {
                    workers: options.worker_count,
                    sched: options.sched,
                    mailbox_capacity: options.mailbox_capacity,
                },
            )),
            Self::Socket => Box::new(dataflasks_net_env::SocketCluster::start_spec_with(
                spec,
                dataflasks_net_env::SocketClusterConfig {
                    workers: options.worker_count,
                    sched: options.sched,
                    mailbox_capacity: options.mailbox_capacity,
                    transport: options.transport,
                    io_threads: options.io_threads,
                },
            )),
        }
    }
}

/// The items most programs need, importable with a single `use`.
pub mod prelude {
    pub use crate::{RuntimeKind, RuntimeOptions};
    pub use dataflasks_baseline::DhtCluster;
    pub use dataflasks_core::{
        ClientLibrary, ClientRequest, ClusterSpec, Completion, DataFlasksNode, DefaultStore,
        EffectBuffer, Effects, Environment, MessageKind, NodeHost, NodeStats, OperationOutcome,
        Output, PipelinedClient, Ticket, TicketKind, TicketOutcome, TimerKind,
    };
    pub use dataflasks_core::{FaultPlan, InjectedCounters, LinkVerdict};
    pub use dataflasks_core::{SchedulerConfig, StealPolicy};
    pub use dataflasks_membership::{CyclonProtocol, NodeDescriptor};
    pub use dataflasks_nemesis::{
        InvariantChecker, InvariantViolation, LatencyShape, NemesisEvent, NemesisOp,
        NemesisSchedule, NemesisSpec,
    };
    pub use dataflasks_net_env::{
        AsyncCluster, AsyncClusterConfig, ReassemblyBuffer, SocketCluster, SocketClusterConfig,
        SocketTransportKind,
    };
    pub use dataflasks_sim::{ClusterReport, NetworkConfig, SimConfig, Simulation};
    pub use dataflasks_slicing::OrderedSlicer;
    pub use dataflasks_store::{DataStore, LogStore, MemoryStore, ShardedStore, StoreDigest};
    pub use dataflasks_types::{
        Duration, Key, KeyRange, NodeConfig, NodeId, NodeProfile, RequestId, SimTime, SliceId,
        SlicePartition, StoredObject, Value, Version,
    };
    pub use dataflasks_workload::{
        KeyDistribution, OpenLoopOp, OpenLoopSchedule, OpenLoopSpec, Operation, OperationKind,
        WorkloadGenerator, WorkloadSpec,
    };
}
