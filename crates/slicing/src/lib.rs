//! Distributed slicing protocols for DataFlasks.
//!
//! Slicing autonomously partitions the nodes of a large-scale system into `k`
//! groups (*slices*) using only local information and gossip. DataFlasks
//! slices the system by the locally measured storage-capacity attribute so
//! that each node joins the slice matching its relative rank, and each slice
//! is then responsible for one contiguous range of the key space.
//!
//! [`OrderedSlicer`] is the gossip-based, rank-estimation slicer used by
//! DataFlasks (our substitution for the DSlead/Slead protocol referenced by
//! the paper). Nodes exchange bounded buffers of `(node, attribute)`
//! samples, estimate their normalised rank among the live nodes and map the
//! rank to a slice. The estimate continuously adapts to churn and to dynamic
//! reconfiguration of the slice count — unlike the "toss a coin" hash
//! assignment the paper rejects, which cannot rebalance after correlated
//! failures.
//!
//! # Example
//!
//! ```
//! use dataflasks_slicing::OrderedSlicer;
//! use dataflasks_types::{NodeId, NodeProfile, SlicePartition, SlicingConfig};
//!
//! let cfg = SlicingConfig::default();
//! let partition = SlicePartition::new(10);
//! let slicer = OrderedSlicer::new(NodeId::new(1), NodeProfile::with_capacity(800), cfg, partition);
//! // With no information about other nodes the slicer still yields a slice.
//! assert!(slicer.current_slice().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod convergence;
pub mod ordered;
pub mod sample;

pub use controller::{ReplicationController, SystemSizeEstimator};
pub use convergence::{expected_slice_assignment, slice_accuracy, slice_size_imbalance};
pub use ordered::{OrderedSlicer, SliceExchange};
pub use sample::AttributeSample;
