//! Deterministic discrete-event simulation of DataFlasks clusters.
//!
//! The paper evaluates DataFlasks inside Minha, an event-driven simulator
//! that runs the real (Java) application code over a simulated network. This
//! crate is the Rust counterpart used by every experiment in this repository:
//! it executes the *real* node state machines from `dataflasks-core` over a
//! simulated network, a virtual clock and deterministic (seeded)
//! randomness, so thousands of nodes run in a single process and every run
//! is exactly reproducible. The network has one model: link faults (loss,
//! duplication, partitions) come from the shared
//! [`FaultPlan`](dataflasks_core::fault::FaultPlan) every backend replays,
//! and latency is a nemesis
//! [`LatencyShape`](dataflasks_nemesis::LatencyShape) — by default the
//! baseline, uniform in 5–50 ms — swapped with [`Simulation::apply_nemesis_op`].
//!
//! The event loop dispatches in batches, one per lookahead window: a batch
//! takes queued events and wheel ticks in event order until the next one is
//! at least the lookahead past the batch's first round. The lookahead is
//! the smallest latency the latency shape can draw (5 ms on the baseline)
//! or the smallest timer period of any spawned node, whichever is shorter:
//! nothing a round sends or arms lands sooner, so no round of the window
//! can feel another. A lookahead of 0 ms batches one instant (or one tick)
//! at a time. A batch's node rounds are grouped by node (each node's rounds
//! in event order) and run on every core, capturing their outputs; the
//! calling thread then routes the outputs in event order. A round touches
//! only its own node, and the shared state — the simulation RNG, the event
//! queue's order, the timer wheel, the counters — is touched only
//! by that ordered routing, so a seeded run is byte-identical at any core
//! count. Events that read shared state themselves (scheduled client puts
//! and gets, injected timer firings, crashes and joins) split the batch and
//! run alone, in place; the next planned round opens a new window.
//!
//! * [`Simulation`] — owns the nodes, clients, clock and event queue,
//! * [`SimConfig`] — the seed and the client timeout,
//! * [`ClusterReport`] / [`Distribution`] — the per-node message statistics
//!   (the metric reported by the paper's Figures 3 and 4), plus churn and
//!   replication measurements used by the extension experiments.
//!
//! # Example
//!
//! ```
//! use dataflasks_sim::{SimConfig, Simulation};
//! use dataflasks_types::{Duration, Key, NodeConfig, Value, Version};
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! sim.spawn_cluster(16, NodeConfig::for_system_size(16, 2));
//! sim.run_for(Duration::from_secs(20)); // warm up the gossip substrate
//! let client = sim.add_client();
//! sim.submit_put(client, Key::from_user_key("hello"), Version::new(1), Value::from_bytes(b"world"));
//! sim.run_for(Duration::from_secs(5));
//! assert!(sim.replication_factor(Key::from_user_key("hello")) >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod metrics;
mod network;
mod simulation;

pub use metrics::{ClusterReport, Distribution};
pub use simulation::{SimConfig, Simulation};
