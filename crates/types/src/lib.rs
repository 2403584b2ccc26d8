//! Common vocabulary types for the DataFlasks epidemic key-value substrate.
//!
//! This crate defines the identifiers, time representation, object model and
//! configuration shared by every other crate of the workspace:
//!
//! * [`NodeId`] — identity of a DataFlasks node,
//! * [`Key`], [`Version`], [`Value`], [`StoredObject`] — the object model
//!   (objects are arrays of arbitrary bytes addressed by a key and carrying a
//!   version assigned by the upper layer, exactly as required by the paper),
//! * [`SliceId`] and [`SlicePartition`] — the key-range partition of the key
//!   space into `k` slices,
//! * [`SimTime`] and [`Duration`] — virtual time used by the protocols and by
//!   the discrete-event simulator,
//! * [`RequestId`] — unique identifier attached to client requests so that
//!   duplicate epidemic deliveries and duplicate replies can be suppressed,
//! * [`NodeProfile`] — locally measured attributes (storage capacity) used by
//!   the slicing protocol,
//! * [`config`] — tunable protocol parameters.
//!
//! # Example
//!
//! ```
//! use dataflasks_types::{Key, SlicePartition, Version, Value, StoredObject};
//!
//! let partition = SlicePartition::new(10);
//! let key = Key::from_user_key("user:42");
//! let slice = partition.slice_of(key);
//! assert!(slice.index() < 10);
//!
//! let object = StoredObject::new(key, Version::new(1), Value::from_bytes(b"hello"));
//! assert_eq!(object.value.as_slice(), b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hashing;
pub mod ids;
pub mod object;
pub mod profile;
pub mod slice;
pub mod time;

pub use config::{
    DisseminationConfig, NodeConfig, PssConfig, ReplicationConfig, SlicingConfig,
    DEFAULT_STORE_SHARDS,
};
pub use hashing::{fnv1a_64, FastHashMap, FastHashState, FastHasher};
pub use ids::{NodeId, RequestId};
pub use object::{Key, StoredObject, Value, Version};
pub use profile::NodeProfile;
pub use slice::{KeyRange, SliceId, SlicePartition};
pub use time::{Duration, SimTime};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_api_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NodeId>();
        assert_send_sync::<RequestId>();
        assert_send_sync::<Key>();
        assert_send_sync::<Version>();
        assert_send_sync::<Value>();
        assert_send_sync::<StoredObject>();
        assert_send_sync::<SliceId>();
        assert_send_sync::<SlicePartition>();
        assert_send_sync::<SimTime>();
        assert_send_sync::<Duration>();
        assert_send_sync::<NodeConfig>();
        assert_send_sync::<NodeProfile>();
    }
}
