//! Peer Sampling Service for DataFlasks.
//!
//! Epidemic protocols rely on every node holding a small *partial view* of
//! the system that is continuously refreshed so that it behaves like a
//! uniformly random sample of all live nodes. This crate implements the
//! membership substrate the paper builds on:
//!
//! * [`NodeDescriptor`] and [`PartialView`] — the bounded, age-tracked view
//!   data structure the gossip protocols share,
//! * [`CyclonProtocol`] — the Cyclon shuffle protocol \[Voulgaris et al. 2005\],
//!   the Peer Sampling Service used by DataFlasks,
//! * [`SliceView`] — the *intra-slice* view used once a request has reached
//!   its target slice (dissemination then stays inside the slice),
//! * [`analysis`] — graph statistics (in-degree distribution, reachability)
//!   used by the test-suite and the evaluation harness to check that views
//!   are indeed close to uniformly random.
//!
//! All protocols are written sans-io: they consume decoded messages and
//! return messages to send, so the same code runs in the discrete-event
//! simulator and in the worker-pool runtime.
//!
//! # Example
//!
//! ```
//! use dataflasks_membership::{CyclonProtocol, NodeDescriptor};
//! use dataflasks_types::{NodeId, NodeProfile, PssConfig};
//! use rand::SeedableRng;
//!
//! let cfg = PssConfig::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let me = NodeId::new(0);
//! let mut cyclon = CyclonProtocol::new(me, cfg);
//!
//! // Bootstrap with one known contact.
//! cyclon.view_mut().insert(NodeDescriptor::new(NodeId::new(1), NodeProfile::default()));
//!
//! // Initiate a shuffle: returns the chosen peer and the request to send.
//! let (peer, _request) = cyclon.initiate_shuffle(&mut rng).expect("view not empty");
//! assert_eq!(peer, NodeId::new(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cyclon;
pub mod descriptor;
pub mod slice_view;
pub mod view;

pub use cyclon::{CyclonProtocol, ShuffleRequest, ShuffleResponse};
pub use descriptor::NodeDescriptor;
pub use slice_view::SliceView;
pub use view::PartialView;
