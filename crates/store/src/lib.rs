//! Data store substrate for DataFlasks.
//!
//! The paper describes the Data Store as "an abstraction of the actual
//! storing mechanism which can be the node hard disk or other persistence
//! mechanism". This crate provides that abstraction and two in-memory
//! implementations:
//!
//! * [`MemoryStore`] — a versioned in-memory store,
//! * [`ShardedStore`] — a key-range sharded wrapper over any inner store
//!   with a `Default` (the default node store), whose anti-entropy digests,
//!   shipping diffs and slice-migration scans touch only the affected
//!   shards.
//!
//! Both implement the [`DataStore`] trait used by the DataFlasks request
//! handler, and both expose [`StoreDigest`]s — compact `key → latest version`
//! summaries — that the anti-entropy protocol exchanges to find missing or
//! stale replicas.
//!
//! # Example
//!
//! ```
//! use dataflasks_store::{DataStore, MemoryStore, PutOutcome};
//! use dataflasks_types::{Key, StoredObject, Value, Version};
//!
//! let mut store = MemoryStore::unbounded();
//! let key = Key::from_user_key("user:1");
//! let outcome = store
//!     .put(&StoredObject::new(key, Version::new(1), Value::from_bytes(b"v1")))
//!     .unwrap();
//! assert_eq!(outcome, PutOutcome::Stored);
//! let read = store.get_latest(key).unwrap();
//! assert_eq!(read.value.as_slice(), b"v1");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod error;
pub mod memory;
pub mod sharded;
pub mod traits;

pub use digest::StoreDigest;
pub use error::StoreError;
pub use memory::MemoryStore;
pub use sharded::{ShardedStore, DEFAULT_SHARD_COUNT};
pub use traits::{DataStore, PutOutcome};
