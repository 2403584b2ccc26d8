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
//! | [`store`] | Data-store abstraction (versioned in-memory and key-range sharded stores, digests) |
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

/// The items most programs need, importable with a single `use`.
pub mod prelude {
    pub use dataflasks_core::SchedulerConfig;
    pub use dataflasks_core::{
        ClientLibrary, ClientRequest, ClusterSpec, Completion, DataFlasksNode, DefaultStore,
        EffectBuffer, Effects, Environment, MessageKind, NodeHost, NodeStats, OperationOutcome,
        Output, PipelinedClient, Ticket, TicketKind, TicketOutcome, TimerKind,
    };
    pub use dataflasks_core::{FaultPlan, InjectedCounters, LinkVerdict};
    pub use dataflasks_membership::{CyclonProtocol, NodeDescriptor};
    pub use dataflasks_nemesis::{
        InvariantChecker, InvariantViolation, LatencyShape, NemesisEvent, NemesisOp,
        NemesisSchedule, NemesisSpec,
    };
    pub use dataflasks_net_env::{
        AsyncCluster, AsyncClusterConfig, ReassemblyBuffer, SocketCluster, SocketClusterConfig,
        SocketTransportKind,
    };
    pub use dataflasks_sim::{ClusterReport, SimConfig, Simulation};
    pub use dataflasks_slicing::OrderedSlicer;
    pub use dataflasks_store::{DataStore, MemoryStore, ShardedStore, StoreDigest};
    pub use dataflasks_types::{
        Duration, Key, KeyRange, NodeConfig, NodeId, NodeProfile, RequestId, SimTime, SliceId,
        SlicePartition, StoredObject, Value, Version,
    };
    pub use dataflasks_workload::{
        KeyDistribution, OpenLoopOp, OpenLoopSchedule, OpenLoopSpec, Operation, OperationKind,
        WorkloadGenerator, WorkloadSpec,
    };
}
